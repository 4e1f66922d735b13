import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from locale_lab.intervals import (
    _FAST_DIGITS,
    EMPTY,
    EMPTY_RO,
    FULL,
    FULL_RO,
    FinUnion,
    InvalidInterval,
    Iv,
    OutOfAmbient,
    RatOpen,
    _pair,
    add,
    closure,
    complement,
    frac,
    heyting_ro,
    interior,
    intersect,
    is_dense,
    iv,
    join,
    normalize,
    parse_fin,
    parse_ratopen,
    too_long,
    union,
)
from locale_lab.presented import (
    DYADICS,
    RATIONALS,
    CoCountable,
    closed_neighborhood,
    full_minus_points,
    neighborhood,
)

import fraction_arena as fa

F = Fraction


def grid(*sets):
    """Endpoints and midpoints: two piecewise-rational sets agree iff they
    agree here."""
    pts = {F(0), F(1)}
    for s in sets:
        for p in s.pieces:
            pts.add(p.lo)
            pts.add(p.hi)
    pts = sorted(pts)
    return pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]


fracs = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def fin_unions(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        a = draw(fracs)
        b = draw(fracs)
        if b < a:
            a, b = b, a
        pieces.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    return normalize(pieces)


rat_opens = fin_unions().map(lambda u: RatOpen(interior(u)))

# endpoints on a coarse grid, so pieces often touch, shrink to single
# points, or reach the ambient ends 0 and 1
eighths = st.integers(0, 8).map(lambda i: F(i, 8))


@st.composite
def coarse_unions(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = sorted((draw(eighths), draw(eighths)))
        if draw(st.booleans()):
            b = a
        pieces.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    return normalize(pieces)


# ------------------------------------------------------------ normalize

def test_touching_open_pieces_stay_apart():
    u = normalize([iv("0", "1/2"), iv("1/2", "1")])
    assert len(u.pieces) == 2
    assert not u.contains(F(1, 2))


def test_touching_with_inclusion_merges():
    u = normalize([Iv(F(0), F(1, 2), False, True), iv("1/2", "1")])
    assert u == FinUnion((Iv(F(0), F(1), False, False),))
    v = normalize([iv("0", "1/2"), Iv(F(1, 2), F(1), True, False)])
    assert v == FinUnion((Iv(F(0), F(1), False, False),))


def test_nested_and_overlapping_pieces_merge():
    u = normalize([iv("0", "1"), iv("1/4", "1/2")])
    assert len(u.pieces) == 1
    v = normalize([iv("0", "1/2"), iv("1/4", "3/4")])
    assert v.pieces == (Iv(F(0), F(3, 4), False, False),)


def test_empty_pieces_dropped():
    assert normalize([Iv(F(1, 2), F(1, 2), False, False)]) == EMPTY
    assert normalize([Iv(F(1, 2), F(1, 2), True, True)]) == parse_fin("[1/2,1/2]")


@given(fin_unions())
def test_normalize_output_is_canonical(u):
    # FinUnion.__post_init__ would raise otherwise; re-normalizing is a no-op
    assert normalize(u.pieces) == u


@given(coarse_unions(), coarse_unions())
@settings(max_examples=300)
@example(parse_fin("[0,1/4]|(1/2,1]"), parse_fin("[1/4,1/4]|[1/2,1/2]"))
@example(parse_fin("(0,1/4)|(1/4,1/2)"), parse_fin("[1/4,1/4]"))
@example(parse_fin("[0,0]|(1/8,1/4)|[1,1]"), parse_fin("[0,1/8]|[1/4,1)"))
@example(parse_fin("(1/8,1/4)|(1/2,3/4)"), parse_fin("(0,1]"))
@example(EMPTY, parse_fin("[0,1/2)|(1/2,1]"))
def test_add_is_union(u, v):
    w = add(u, v)
    assert w == union(u, v)
    # add skips the canonical check and carries its length: both must hold
    assert FinUnion(w.pieces) == w
    assert w.length() == sum((p.hi - p.lo for p in w.pieces), F(0))


def meet_pieces(a, b):
    """The meet of two pieces: the later start and the earlier end, or None."""
    lo, lo_open = max((a.lo, not a.lo_in), (b.lo, not b.lo_in))
    hi, hi_in = min((a.hi, a.hi_in), (b.hi, b.hi_in))
    if lo < hi or (lo == hi and not lo_open and hi_in):
        return Iv(lo, hi, not lo_open, hi_in)
    return None


@given(coarse_unions(), coarse_unions())
@settings(max_examples=300)
@example(parse_fin("[0,0]|(1/8,1/4)|[1,1]"), parse_fin("[0,1/8]|[1/4,1]"))
@example(parse_fin("[0,1/4)|(1/4,1/2]|(3/4,1]"), parse_fin("[1/4,3/4]|[1,1]"))
@example(parse_fin("[0,1/2)|(1/2,1]"), FULL)
@example(parse_fin("(0,1/8)|[1/2,1/2]"), parse_fin("[0,1/8]|(1/4,1/2]"))
@example(EMPTY, FULL)
def test_intersect_is_the_normalized_pairwise_meets(u, v):
    w = intersect(u, v)
    meets = (meet_pieces(a, b) for a in u.pieces for b in v.pieces)
    assert w == normalize(p for p in meets if p is not None)
    # intersect skips the canonical check: it must hold all the same
    assert FinUnion(w.pieces) == w


@given(coarse_unions(), coarse_unions(), coarse_unions())
@settings(max_examples=100)
def test_intersect_of_three_folds_the_pairs(u, v, w):
    got = intersect(u, v, w)
    assert got == intersect(intersect(u, v), w)
    assert FinUnion(got.pieces) == got


SIXTEENTHS = [F(i, 16) for i in range(17)]


@given(coarse_unions())
@settings(max_examples=100)
@example(parse_fin("[0,0]|(1/8,1/4)|[1/2,1/2]|(3/4,1]"))
@example(parse_fin("(0,1/4)|(1/4,1/2)|[5/8,3/4]|(3/4,1)"))
@example(FULL)
@example(EMPTY)
def test_contains_bisects_like_a_scan(u):
    # the grid holds every endpoint and midpoint of a coarse union
    for x in SIXTEENTHS:
        assert u.contains(x) == any(FinUnion((p,)).contains(x) for p in u.pieces), x


def test_canonical_form_enforced():
    with pytest.raises(InvalidInterval):
        FinUnion((iv("0", "1/2"), Iv(F(1, 4), F(1), False, False)))
    with pytest.raises(InvalidInterval):
        FinUnion((Iv(F(1, 2), F(1, 2), False, False),))


def test_ambient_enforced():
    with pytest.raises(OutOfAmbient):
        iv("1/2", "3/2")
    with pytest.raises(OutOfAmbient):
        iv("-1/2", "1/2")
    with pytest.raises(InvalidInterval):
        iv("1/2", "1/4")


# ------------------------------------------- against the Fraction arena

@st.composite
def piece_lists(draw):
    """Pieces on the eighths: they touch, shrink to points [a,a] and have
    closed ends at 0 and 1."""
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = sorted((draw(eighths), draw(eighths)))
        if draw(st.booleans()):
            b = a
        pieces.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    return pieces


def ref(u):
    return tuple(fa.of(p) for p in u.pieces)


@given(piece_lists(), piece_lists())
@settings(max_examples=400)
# equal starts, the included one first: the tie-break of add's bisection
@example([Iv(F(1, 4), F(1, 2), True, True)], [Iv(F(1, 4), F(3, 4), False, False)])
@example([Iv(F(0), F(0), True, True), Iv(F(1, 2), F(1), False, True)],
         [Iv(F(0), F(1, 2), False, True), Iv(F(1), F(1), True, True)])
def test_integer_arena_matches_the_fraction_arena(ps, qs):
    u, v = normalize(ps), normalize(qs)
    assert ref(u) == fa.normalize(fa.of(p) for p in ps)
    ru, rv = ref(u), ref(v)
    assert u.length() == fa.length(ru)
    for x in SIXTEENTHS:
        assert u.contains(x) == fa.contains(ru, x), x
    for got, want in [(add(u, v), fa.add(ru, rv)), (intersect(u, v), fa.intersect(ru, rv)),
                      (complement(u), fa.complement(ru))]:
        assert ref(got) == want
        assert got.length() == fa.length(want)
        assert FinUnion(got.pieces) == got


@given(piece_lists(), st.integers(0, 6), st.lists(eighths, max_size=6))
@settings(max_examples=200)
def test_gaps_match_the_fraction_arena(ps, k, pts):
    u = RatOpen(interior(normalize(ps)))
    want = fa.gaps(fa.closed_cores(ref(u.fin), k))
    assert ref(closed_neighborhood(u, k).fin) == want
    assert ref(full_minus_points(pts).fin) == fa.gaps((q, q) for q in sorted(pts))


@pytest.mark.parametrize("points", [RATIONALS, DYADICS])
def test_cocountable_gaps_match_the_fraction_arena(points):
    for k in range(40):
        got = neighborhood(CoCountable(points), k).stage(0)
        assert ref(got.fin) == fa.gaps((q, q) for q in sorted(points.prefix(k))), k


# ------------------------------------------------------------- set algebra

@given(fin_unions(), fin_unions())
def test_union_intersect_minus_by_membership(u, v):
    w_union, w_meet, w_minus = union(u, v), intersect(u, v), intersect(u, complement(v))
    for x in grid(u, v, w_union, w_meet, w_minus):
        inu, inv = u.contains(x), v.contains(x)
        assert w_union.contains(x) == (inu or inv)
        assert w_meet.contains(x) == (inu and inv)
        assert w_minus.contains(x) == (inu and not inv)


@given(fin_unions())
def test_complement_by_membership(u):
    c = complement(u)
    for x in grid(u, c):
        assert c.contains(x) != u.contains(x)


@given(fin_unions(), fin_unions())
def test_de_morgan(u, v):
    assert complement(union(u, v)) == intersect(complement(u), complement(v))
    assert complement(intersect(u, v)) == union(complement(u), complement(v))


@given(fin_unions())
def test_double_complement(u):
    assert complement(complement(u)) == u


@given(fin_unions(), fin_unions())
def test_length_is_modular(u, v):
    lhs = union(u, v).length() + intersect(u, v).length()
    assert lhs == u.length() + v.length()


@given(fin_unions())
def test_length_splits_with_complement(u):
    assert u.length() + complement(u).length() == 1


# -------------------------------------------------------- interior, closure

@given(fin_unions())
def test_interior_closure_sandwich(u):
    i, c = interior(u), closure(u)
    assert intersect(i, u) == i
    assert intersect(u, c) == u
    assert interior(i) == i
    assert closure(c) == c


@given(fin_unions())
def test_interior_closure_duality(u):
    assert interior(complement(u)) == complement(closure(u))


def test_interior_at_ambient_boundary():
    assert interior(parse_fin("[0,1/4]")) == parse_fin("[0,1/4)")
    assert interior(parse_fin("[1/2,1/2]")) == EMPTY
    assert interior(FULL) == FULL


def regularize(u):
    """Interior of the closure: the regularization."""
    return RatOpen(interior(closure(u.fin)))


def test_regularize_heals_a_missing_point():
    u = parse_ratopen("(0,1/2)|(1/2,1)")
    assert regularize(u) == FULL_RO


def test_regularize_keeps_genuine_gaps():
    # the gap survives, but the ambient endpoints are interior to the
    # closures of the pieces relative to [0,1] and get absorbed
    u = parse_ratopen("(0,1/4)|(1/2,1)")
    assert regularize(u) == parse_ratopen("[0,1/4)|(1/2,1]")
    assert regularize(parse_ratopen("(1/4,1/2)")) == parse_ratopen("(1/4,1/2)")


def test_pseudo_complement_pinned():
    assert heyting_ro(parse_ratopen("(0,1/2)"), EMPTY_RO) == parse_ratopen("(1/2,1]")


# ------------------------------------------------------------------ heyting

def test_heyting_adjunction_randomized():
    rng = random.Random(20260822)

    def rand_open():
        pieces = []
        for _ in range(rng.randint(0, 3)):
            a = F(rng.randint(0, 24), 24)
            b = F(rng.randint(0, 24), 24)
            if b < a:
                a, b = b, a
            pieces.append(Iv(a, b, a == 0 and rng.random() < 0.5,
                             b == 1 and rng.random() < 0.5))
        return RatOpen(interior(normalize(pieces)))

    def subset(a, b):
        return intersect(a.fin, b.fin) == a.fin

    for _ in range(1000):
        u, h, w = rand_open(), rand_open(), rand_open()
        uh = heyting_ro(u, h)
        assert subset(w, uh) == subset(RatOpen(intersect(w.fin, u.fin)), h)


@given(rat_opens, rat_opens)
def test_heyting_upper_bound(u, h):
    m = intersect(heyting_ro(u, h).fin, u.fin)
    assert intersect(m, h.fin) == m


def test_heyting_examples():
    u = parse_ratopen("(0,1/2)")
    h = parse_ratopen("(1/4,1)")
    assert heyting_ro(u, h) == parse_ratopen("(1/4,1]")
    assert heyting_ro(u, u) == FULL_RO
    assert heyting_ro(FULL_RO, h) == h


# ------------------------------------------------------------------- density

def test_density():
    assert is_dense(FULL_RO)
    assert is_dense(parse_ratopen("(0,1/2)|(1/2,1)"))
    assert is_dense(parse_ratopen("[0,1/3)|(1/3,2/3)|(2/3,1]"))
    assert not is_dense(parse_ratopen("(0,1/2)"))
    assert not is_dense(EMPTY_RO)


def test_closure_ro_of_dense_is_full():
    assert closure(parse_fin("(0,1/2)|(1/2,1)")) == FULL


# ------------------------------------------------------------------- parsing

@given(fin_unions())
def test_parse_round_trips(u):
    assert parse_fin(str(u)) == u


def test_parse_examples():
    u = parse_fin("(1/3,1/2)|[0,1/4)")
    assert u.pieces == (Iv(F(0), F(1, 4), True, False), Iv(F(1, 3), F(1, 2), False, False))
    assert parse_fin("empty") == EMPTY
    assert parse_fin("[0,1]") == FULL


def test_parse_rejects_garbage():
    for bad in ("(1/2;1)", "1/2,1", "(1/2,1/4)", "(1/2,1/2)", "(a,b)"):
        with pytest.raises(InvalidInterval):
            parse_fin(bad)
    with pytest.raises(OutOfAmbient):
        parse_fin("(1/2,3/2)")


def test_ratopen_rejects_interior_inclusion():
    with pytest.raises(InvalidInterval):
        parse_ratopen("[1/4,1/2)")
    with pytest.raises(InvalidInterval):
        parse_ratopen("(1/4,1/2]")
    assert parse_ratopen("[0,1/2)").fin.pieces[0].lo_in


# --------------------------------------------------------------- join / meet

def test_join_meet_are_ratopen_closed():
    u = parse_ratopen("(0,1/2)")
    v = parse_ratopen("(1/4,3/4)")
    assert join(u, v) == parse_ratopen("(0,3/4)")
    assert RatOpen(intersect(u.fin, v.fin)) == parse_ratopen("(1/4,1/2)")


@given(rat_opens, rat_opens, rat_opens)
@settings(max_examples=60)
def test_open_distributivity(u, v, w):
    assert intersect(u.fin, join(v, w).fin) == union(intersect(u.fin, v.fin), intersect(u.fin, w.fin))


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("text, refused", [
    (f"1e-{LIMIT - 1}", False),  # a denominator of exactly LIMIT digits
    (f"1e-{LIMIT}", True),
    (f"1e{LIMIT - 1}", False),
    (f"1e{LIMIT}", True),
    (f"10e-{LIMIT}", False),  # trailing zeros move into the exponent
    (f"0.01e-{LIMIT - 3}", False),
    (f"0.01e-{LIMIT - 2}", True),
    (f"12.5E+{LIMIT - 2}", False),
    (f"12.5E+{LIMIT - 1}", True),
    (f"1_0e-{LIMIT}", False),
    ("1e-1_0000_0000", True),
    ("0e-10000000", True),  # zero, but 10**10000000 as written
    ("1e-" + "9" * (LIMIT + 1), True),
    ("1/3", False),
    ("0.5", False),
    ("e-10000000", False),  # no digits: not a literal at all
])
def test_literal_size_is_read_off_digits_and_exponent(text, refused):
    assert too_long(text) == refused
    if refused:
        with pytest.raises(InvalidInterval, match=f"more than {LIMIT} digits"):
            frac(text)
    elif text[0].isdigit():
        x = frac(text)
        assert len(str(x.numerator)) <= LIMIT and len(str(x.denominator)) <= LIMIT


# Digit strings of each kind _pair must tell apart: short ASCII ones, ones
# about as long as the fast form takes, with '_' separators, and with digits
# that are not ASCII ('²' and '½' are digits or numbers to str, not to int).
ASCII_DIGITS = "0123456789"
ascii_digit_strings = st.one_of(
    st.text(ASCII_DIGITS, min_size=1, max_size=3),
    st.text(ASCII_DIGITS, min_size=_FAST_DIGITS - 2, max_size=_FAST_DIGITS + 12),
)
digit_strings = st.one_of(
    st.just(""),
    ascii_digit_strings,
    st.text(ASCII_DIGITS + "_", max_size=6),
    st.text(ASCII_DIGITS + "\u0660\u0661\u0662\u0669\u0967\uff11\u00b2\u00bd", max_size=4),
)
signs = st.sampled_from(["", "+", "-"])
spaces = st.sampled_from(["", " ", "\t", "\n"])


@st.composite
def other_literals(draw):
    """Text that Fraction may or may not read: a signed digit string, then
    a decimal part, an exponent or a denominator, each maybe, in spaces."""
    text = draw(signs) + draw(digit_strings)
    if draw(st.booleans()):
        text += "." + draw(digit_strings)
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(signs) + draw(st.text(ASCII_DIGITS, max_size=5))
    if draw(st.booleans()):
        text += "/" + draw(signs) + draw(digit_strings)
    return draw(spaces) + text + draw(spaces)


# n or n/d in ASCII digits, about half of them short enough for the fast form
literals = st.one_of(
    st.builds(lambda n, d: n if d is None else f"{n}/{d}", ascii_digit_strings,
              st.none() | ascii_digit_strings),
    other_literals(),
)


@given(literals)
@settings(max_examples=400)
@example("1/2")
@example("0")
@example("00")
@example("0/7")
@example("007/010")
@example("nan")
@example("1e400")
@example("1e-5000")
@example("0.5")
@example("\u0661/\u0662")
@example("1_0/2_0")
@example("1/0")
@example("0/0")
@example("+1/2")
@example(" 0 ")
@example("1/2 ")
@example("1/" + "1" + "0" * 60)
@example("2" * _FAST_DIGITS + "/" + "4" * _FAST_DIGITS)
@example("2" * (_FAST_DIGITS + 1) + "/4")
@example("\u00b2")
@example("1//2")
@example("1/")
@example("")
def test_pair_reads_a_literal_as_fraction_does(text):
    try:
        want = fa.frac(text)
    except InvalidInterval as exc:
        with pytest.raises(InvalidInterval) as got:
            _pair(text)
        assert str(got.value) == str(exc)
    else:
        assert _pair(text) == (want.numerator, want.denominator)
        assert frac(text) == want

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from locale_lab import intervals as ivs
from locale_lab.intervals import (
    EMPTY_RO,
    FULL_RO,
    FinUnion,
    Iv,
    OutOfAmbient,
    RatOpen,
    normalize,
    parse_ratopen,
)
from locale_lab.presented import (
    DYADICS,
    RATIONALS,
    Closed,
    CoCountable,
    CountablePoints,
    Generic,
    LazyOpen,
    Meet,
    Open,
    Union,
    UnsupportedConstructor,
    as_lazy,
    closed_neighborhood,
    full_minus_points,
    held_by,
    lazy_cover,
    lazy_join,
    lazy_meet,
    neighborhood,
    normal_form,
    point_sublocale_meets_generic,
    structural_union_is_whole,
)

F = Fraction


# ------------------------------------------------------------- enumerators

def test_stern_brocot_order_and_coverage():
    got = RATIONALS.prefix(9)
    assert got == [F(0), F(1), F(1, 2), F(1, 3), F(2, 3),
                   F(1, 4), F(2, 5), F(3, 5), F(3, 4)]
    first = RATIONALS.prefix(200)
    assert len(set(first)) == 200
    assert all(0 <= q <= 1 for q in first)
    # mediant levels reach every small denominator quickly
    for target in (F(2, 7), F(5, 8), F(1, 6)):
        assert target in first
    assert RATIONALS.contains(F(355, 452))
    assert not RATIONALS.contains(F(3, 2))


def test_dyadics():
    assert DYADICS.prefix(9) == [F(0), F(1), F(1, 2), F(1, 4), F(3, 4),
                                 F(1, 8), F(3, 8), F(5, 8), F(7, 8)]
    assert DYADICS.contains(F(3, 8))
    assert not DYADICS.contains(F(1, 3))
    assert len(set(DYADICS.prefix(100))) == 100


# Reference listings: the generators the listings were first written as,
# a level of mediants, or of odd numerators over the next power of two.

def stern_brocot():
    yield F(0)
    yield F(1)
    level = [F(0), F(1)]
    while True:
        mediants = [
            F(a.numerator + b.numerator, a.denominator + b.denominator)
            for a, b in zip(level, level[1:])
        ]
        yield from mediants
        merged = []
        for x, m in zip(level, mediants):
            merged += [x, m]
        merged.append(level[-1])
        level = merged


def dyadics():
    yield F(0)
    yield F(1)
    d = 2
    while True:
        for k in range(1, d, 2):
            yield F(k, d)
        d *= 2


REFERENCES = {RATIONALS.name: stern_brocot, DYADICS.name: dyadics}
LISTINGS = pytest.mark.parametrize("points", [RATIONALS, DYADICS], ids=lambda e: e.name)
SCAN = 70000
CELLS = [(F(i, 2 ** d), F(i + 1, 2 ** d)) for d in range(7) for i in range(2 ** d)]
# Cells near 0 and 1 at depths 5 and 6 are first reached deep down the
# mediant tree: (0, 1/64) at 1/65, position 2**63 + 1.
BEYOND_SCAN = {RATIONALS.name: 10, DYADICS.name: 0}


@pytest.fixture(scope="module")
def reference():
    return {name: list(itertools.islice(gen(), SCAN)) for name, gen in REFERENCES.items()}


@LISTINGS
def test_point_matches_the_reference_listing(points, reference):
    assert [points.point(i) for i in range(SCAN)] == reference[points.name]


def test_point_reads_the_listing():
    for points in (RATIONALS, DYADICS):
        assert points.prefix(60) == list(itertools.islice(REFERENCES[points.name](), 60))
    # the bits of i - 1 after the leading one are the path: all right, all left
    assert RATIONALS.point(2 ** 40) == F(40, 41)
    assert RATIONALS.point(2 ** 40 + 1) == F(1, 42)
    assert DYADICS.point(2 ** 40 + 1) == F(1, 2 ** 41)


@LISTINGS
def test_first_in_matches_the_reference_scan(points, reference):
    scanned = 0
    for a, b in CELLS:
        hit = next((i for i, q in enumerate(reference[points.name]) if a < q < b), None)
        if hit is not None:
            assert points.first_in(a, b) == hit, (a, b)
            scanned += 1
    assert scanned == len(CELLS) - BEYOND_SCAN[points.name]


@LISTINGS
def test_first_in_lands_inside_every_cell(points):
    beyond = 0
    for a, b in CELLS:
        i = points.first_in(a, b)
        assert a < points.point(i) < b, (a, b)
        beyond += i >= SCAN
    assert beyond == BEYOND_SCAN[points.name]
    for a, b in ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(-1), F(1, 2)), (F(1, 2), F(2))):
        with pytest.raises(ValueError):
            points.first_in(a, b)


# -------------------------------------------------------------- lazy covers

def test_lazy_cover_stages_grow_and_cover():
    cov = lazy_cover(RATIONALS, F(1, 2))
    for n in range(1, 8):
        st, nxt = cov.stage(n), cov.stage(n + 1)
        assert ivs.intersect(st.fin, nxt.fin) == st.fin  # increasing
        for q in RATIONALS.prefix(n):
            assert st.contains(q)


def test_lazy_cover_certified_bound_is_strict():
    # stage length plus tail stays strictly under eps/2 from stage 1 on,
    # because the cover around 0 is clipped to half an interval
    for eps in (F(1, 2), F(1, 8), F(1, 1000)):
        cov = lazy_cover(RATIONALS, eps)
        for n in range(1, 10):
            upper = cov.stage(n).fin.length() + cov.tail(n)
            assert upper < eps / 2
        assert cov.stage(0).fin.length() == 0
        assert cov.tail(0) == eps / 2


def test_lazy_cover_tail_really_bounds_the_rest():
    cov = lazy_cover(DYADICS, F(1, 4))
    for n in range(0, 9):
        extra = ivs.intersect(cov.stage(n + 5).fin, ivs.complement(cov.stage(n).fin)).length()
        assert extra <= cov.tail(n)


@pytest.mark.parametrize("points", [RATIONALS, DYADICS])
@pytest.mark.parametrize("k", [1, 5, 20])
def test_lazy_cover_grows_what_the_checked_constructors_build(points, k):
    # each grow is built unchecked; it must be the canonical piece of the
    # points of [0,1] closer than r to q, which is closed at 0 exactly
    # when 0 is closer than r, and at 1 likewise
    eps = F(1, 2**k)
    cov = lazy_cover(points, eps)
    for n in range(1, 201):
        q, r = points.point(n - 1), eps / 2 ** (n + 2)
        want = RatOpen(FinUnion((Iv(max(q - r, 0), min(q + r, 1), q < r, 1 - q < r),)))
        got = cov.grow(n)
        assert RatOpen(FinUnion(got.fin.pieces)) == want, (n, str(got))
        assert got.fin.length() == want.fin.length()


def test_lazy_cover_rejects_bad_eps():
    with pytest.raises(UnsupportedConstructor):
        lazy_cover(RATIONALS, 0)


def test_lazy_ops():
    u = as_lazy(parse_ratopen("(0,1/4)"))
    cov = lazy_cover(DYADICS, F(1, 8))
    j = lazy_join(u, cov)
    assert j.stage(3) == ivs.join(u.stage(3), cov.stage(3))
    assert j.tail(3) == cov.tail(3)
    m = lazy_meet(cov, as_lazy(parse_ratopen("(1/3,1)")))
    assert m.stage(4).fin == ivs.intersect(cov.stage(4).fin, parse_ratopen("(1/3,1)").fin)
    assert m.tail(4) == cov.tail(4)


# ------------------------------------- incremental stages against rebuilds

# The reference streams rebuild every stage from nothing: normalize over
# all pieces through stage n, then the join or meet.

def rebuilt_cover(points, eps):
    def stage(n):
        pieces = []
        for i, q in enumerate(points.prefix(n)):
            r = eps / 2 ** (i + 3)
            lo = max(F(0), q - r)
            hi = min(F(1), q + r)
            pieces.append(Iv(lo, hi, q - r < 0, q + r > 1))
        return RatOpen(normalize(pieces))

    return stage


def rebuilt_join(a, b):
    return lambda n: ivs.join(a(n), b(n))


def rebuilt_meet(a, b):
    return lambda n: ivs.RatOpen(ivs.intersect(a(n).fin, b(n).fin))


def ratopen_minus_points(u, pts):
    """u minus points the long way: normalise the points, complement, meet."""
    points = normalize(Iv(F(p), F(p), True, True) for p in pts)
    return RatOpen(ivs.intersect(u.fin, ivs.complement(points)))


U = parse_ratopen("(1/5,2/3)|(3/4,1]")


def stream_pairs(k):
    """(name, incremental stream, rebuilt stream) at neighbourhood k."""
    eps = F(1, 2 ** k)
    closed = closed_neighborhood(U, k)
    rat, dy = lazy_cover(RATIONALS, eps), lazy_cover(DYADICS, eps)
    s_rat, s_dy = rebuilt_cover(RATIONALS, eps), rebuilt_cover(DYADICS, eps)
    nested = lazy_join(lazy_meet(rat, as_lazy(U)), dy)
    s_nested = rebuilt_join(rebuilt_meet(s_rat, lambda n: U), s_dy)
    return [
        ("cover rationals", rat, s_rat),
        ("cover dyadics", dy, s_dy),
        ("join", lazy_join(rat, dy), rebuilt_join(s_rat, s_dy)),
        ("join exact", lazy_join(as_lazy(U), dy), rebuilt_join(lambda n: U, s_dy)),
        ("meet open", lazy_meet(rat, as_lazy(U)), rebuilt_meet(s_rat, lambda n: U)),
        ("closed nb", as_lazy(closed), lambda n: closed),
        ("meet closed nb", lazy_meet(dy, as_lazy(closed)), rebuilt_meet(s_dy, lambda n: closed)),
        # two growing streams: a piece of either may arrive inside the other's stage
        ("meet growing", lazy_meet(rat, dy), rebuilt_meet(s_rat, s_dy)),
        ("meet growing swapped", lazy_meet(dy, rat), rebuilt_meet(s_dy, s_rat)),
        ("nested", nested, s_nested),
    ]


@pytest.mark.parametrize("k", [1, 5, 20])
def test_incremental_stages_match_rebuilt_builds(k):
    for name, lazy, rebuilt in stream_pairs(k):
        for n in range(61):
            assert lazy.stage(n) == rebuilt(n), (name, k, n)


def test_stages_read_out_of_order_match_rebuilt_builds():
    for name, lazy, rebuilt in stream_pairs(5):
        for n in (60, 7, 0, 33, 60, 1):
            assert lazy.stage(n) == rebuilt(n), (name, n)


def test_a_meet_grows_each_operand_once_per_stage():
    calls = []

    def counted(name, lazy):
        return LazyOpen(lambda n: calls.append(name) or lazy.grow(n), lazy._tail)

    eps = F(1, 32)
    m = lazy_meet(counted("rat", lazy_cover(RATIONALS, eps)), counted("dy", lazy_cover(DYADICS, eps)))
    want = rebuilt_meet(rebuilt_cover(RATIONALS, eps), rebuilt_cover(DYADICS, eps))
    assert m.stage(79) == want(79)
    assert (calls.count("rat"), calls.count("dy")) == (80, 80)


@pytest.mark.parametrize("k", [1, 5, 20])
def test_neighborhood_stages_match_rebuilt_builds(k):
    eps = F(1, 2 ** k)
    closed = closed_neighborhood(U, k)
    cases = [
        (Generic(), rebuilt_cover(RATIONALS, eps)),
        (
            Union((CountablePoints(DYADICS), Open(U))),
            rebuilt_join(rebuilt_cover(DYADICS, eps), lambda n: U),
        ),
        (Meet((Generic(), Open(U))), rebuilt_meet(rebuilt_cover(RATIONALS, eps), lambda n: U)),
        (
            Meet((CountablePoints(DYADICS), Closed(U))),
            rebuilt_meet(rebuilt_cover(DYADICS, eps), lambda n: closed),
        ),
        (
            Meet((Generic(), CountablePoints(DYADICS))),
            rebuilt_meet(rebuilt_cover(RATIONALS, eps), rebuilt_cover(DYADICS, eps)),
        ),
        (CoCountable(RATIONALS), lambda n: ratopen_minus_points(FULL_RO, RATIONALS.prefix(k))),
    ]
    for x, rebuilt in cases:
        nb = neighborhood(x, k)
        for n in range(61):
            assert nb.stage(n) == rebuilt(n), (x, k, n)


@pytest.mark.parametrize("k", [1, 5, 20])
def test_every_stage_is_canonical_with_its_carried_length(k):
    # stages skip the canonical check and carry their length, so re-check
    # both on every stream shape the measure ladder builds
    streams = [(name, lazy) for name, lazy, _ in stream_pairs(k)]
    for x in (Generic(), CoCountable(RATIONALS), CountablePoints(DYADICS)):
        streams.append((f"{x} nb", neighborhood(x, k)))
    for name, lazy in streams:
        for n in range(61):
            fin = lazy.stage(n).fin
            assert FinUnion(fin.pieces) == fin, (name, k, n)
            assert fin.length() == sum((p.hi - p.lo for p in fin.pieces), F(0)), (name, k, n)


# ------------------------------------------------------- closed neighborhoods

def test_closed_neighborhood_shrinks_to_complement():
    u = parse_ratopen("(1/4,1/2)")
    comp_len = F(3, 4)
    prev = None
    for k in range(6):
        w = closed_neighborhood(u, k)
        # contains the closed complement
        for x in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            assert w.contains(x)
        if prev is not None:
            assert ivs.intersect(w.fin, prev.fin) == w.fin
        prev = w
    assert closed_neighborhood(u, 20).fin.length() - comp_len == F(2, 4) / 2 ** 22


eighths = st.integers(0, 8).map(lambda i: F(i, 8))


@st.composite
def coarse_opens(draw):
    """Opens with endpoints on the eighths: pieces touch, or reach 0 or 1."""
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = sorted((draw(eighths), draw(eighths)))
        pieces.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    return RatOpen(ivs.interior(normalize(pieces)))


def neighborhood_by_complement(u, k):
    """The closed cores of u's pieces, normalised, then complemented."""
    cores = []
    for p in u.fin.pieces:
        d = (p.hi - p.lo) / 2 ** (k + 2)
        lo = p.lo if p.lo_in else p.lo + d
        hi = p.hi if p.hi_in else p.hi - d
        cores.append(Iv(lo, hi, True, True))
    return RatOpen(ivs.complement(normalize(cores)))


@given(coarse_opens(), st.integers(0, 60))
@settings(max_examples=200)
@example(parse_ratopen("[0,1/4)|(1/4,1/2)|(3/4,1]"), 0)
@example(parse_ratopen("[0,1/8)"), 60)
@example(parse_ratopen("(7/8,1]"), 3)
@example(parse_ratopen("(0,1)"), 1)
@example(FULL_RO, 5)
@example(EMPTY_RO, 5)
def test_closed_neighborhood_is_the_complement_of_the_cores(u, k):
    w = closed_neighborhood(u, k)
    assert w == neighborhood_by_complement(u, k)
    # the gaps skip the canonical check: it must hold all the same
    assert FinUnion(w.fin.pieces) == w.fin


def test_closed_neighborhood_of_empty_complement():
    assert closed_neighborhood(FULL_RO, 3) == EMPTY_RO
    assert closed_neighborhood(EMPTY_RO, 3) == FULL_RO


def test_closed_neighborhood_keeps_ambient_included_ends():
    u = parse_ratopen("[0,1/2)")
    w = closed_neighborhood(u, 2)
    assert not w.contains(F(0))
    assert w.contains(F(1, 2))


# ------------------------------------------------------------- neighborhoods

def test_neighborhood_shapes():
    u = parse_ratopen("(1/4,1/2)")
    assert neighborhood(Open(u), 5).stage(0) == u
    assert neighborhood(Open(u), 5).tail(0) == 0
    co = neighborhood(CoCountable(RATIONALS), 3).stage(0)
    assert co.fin.length() == 1
    assert not co.contains(F(1, 2))  # third enumerated rational
    gen = neighborhood(Generic(), 6)
    assert gen.stage(4).fin.length() + gen.tail(4) < F(1, 2 ** 7)


def test_neighborhood_of_union_and_meets():
    u = parse_ratopen("(0,1/3)")
    x = Union((Open(u), CountablePoints(DYADICS)))
    nb = neighborhood(x, 4)
    assert nb.stage(3).contains(F(1, 4))
    assert nb.stage(5).contains(F(3, 4))  # fifth dyadic, covered from stage 5
    y = Meet((Generic(), Open(u)))
    w = neighborhood(y, 4).stage(5)
    assert ivs.intersect(w.fin, u.fin) == w.fin
    z = Meet((Generic(), Closed(u)))
    assert not neighborhood(z, 8).stage(5).contains(F(1, 6))


def test_union_of_nothing_rejected():
    with pytest.raises(UnsupportedConstructor):
        Union(())


@pytest.mark.parametrize("part", [
    lazy_cover(DYADICS, F(1, 4)),
    LazyOpen(lambda n: EMPTY_RO, lambda n: (0, 1)),
    parse_ratopen("(0,1/2)").fin,
    "(0,1/2)",
    None,
])
def test_open_refuses_a_part_that_is_not_a_ratopen(part):
    with pytest.raises(UnsupportedConstructor) as exc:
        Open(part)
    assert len(str(exc.value).splitlines()) == 1
    assert "RatOpen" in str(exc.value)


# ------------------------------------------------------------ point masses

V = parse_ratopen("(1/4,1/2)")
HOLDS_POINT = [
    # (shape, a point it holds, a point it misses)
    (Open(V), F(1, 3), F(1, 4)),
    (Closed(V), F(1, 4), F(1, 3)),
    (CountablePoints(DYADICS), F(3, 8), F(1, 3)),
    (CountablePoints(RATIONALS), F(1, 3), None),
    (CoCountable(DYADICS), F(1, 3), F(3, 8)),
    (CoCountable(RATIONALS), None, F(0)),
    (Generic(), None, F(1, 2)),
    (Generic(), None, F(0)),
    # a union holds what any part holds, and only that
    (Union((Generic(), CountablePoints(DYADICS))), F(1, 2), F(1, 3)),
    (Union((CountablePoints(DYADICS), Open(V))), F(1, 3), F(2, 3)),
    # a meet holds what its part holds on its open or closed side
    (Meet((CoCountable(DYADICS), Open(V))), F(1, 3), F(2, 3)),
    (Meet((CountablePoints(DYADICS), Open(V))), F(3, 8), F(3, 4)),
    (Meet((CoCountable(DYADICS), Closed(V))), F(2, 3), F(1, 3)),
    (Meet((CountablePoints(DYADICS), Closed(V))), F(3, 4), F(3, 8)),
    (Meet((Open(parse_ratopen("(0,1)")), Closed(V))), F(1, 2), F(1, 3)),
    # a meet of leaves holds only what every leaf holds: no point is both
    # rational and irrational
    (Meet((CountablePoints(RATIONALS), CoCountable(RATIONALS))), None, F(1, 3)),
    (Meet((CountablePoints(RATIONALS), CoCountable(DYADICS))), F(1, 3), F(1, 2)),
    (Meet((CoCountable(DYADICS), Union((CountablePoints(DYADICS), Open(V))))), F(1, 3), F(3, 8)),
]


@pytest.mark.parametrize("x,held,missed", HOLDS_POINT,
                         ids=[f"{type(x).__name__}-{i}" for i, (x, _, _) in enumerate(HOLDS_POINT)])
def test_holds_point(x, held, missed):
    form = normal_form(x)
    if held is not None:
        assert held_by(form, held) is True
    if missed is not None:
        assert held_by(form, missed) is False


# ------------------------------------------------------------- certificates

def test_structural_union_certificates():
    assert structural_union_is_whole(CountablePoints(RATIONALS), CoCountable(RATIONALS))
    assert structural_union_is_whole(CoCountable(DYADICS), CountablePoints(DYADICS))
    assert not structural_union_is_whole(CountablePoints(RATIONALS), CoCountable(DYADICS))
    u = parse_ratopen("(1/4,1/2)")
    assert structural_union_is_whole(Open(u), Closed(u))
    assert structural_union_is_whole(Closed(u), Open(u))
    assert not structural_union_is_whole(Open(u), Closed(parse_ratopen("(0,1/2)")))
    assert not structural_union_is_whole(Generic(), CoCountable(RATIONALS))
    # the whole term's set joined with the sets a listing and its co-listing share
    half, quarter = parse_ratopen("(0,1/2)"), parse_ratopen("(0,1/4)")
    assert structural_union_is_whole(Open(half), Closed(quarter))
    rats_or_half = Union((CountablePoints(RATIONALS), Open(half)))
    assert structural_union_is_whole(rats_or_half, CoCountable(RATIONALS))
    assert not structural_union_is_whole(rats_or_half, Meet((CoCountable(RATIONALS), Open(half))))
    # sound, not complete: no listed point counts alone, so the ends 0 and 1
    # that the rationals add to (0,1) go unseen
    assert not structural_union_is_whole(Open(parse_ratopen("(0,1)")), CountablePoints(RATIONALS))


# ------------------------------------------------------------------ points

def test_point_sublocale():
    p = Closed(full_minus_points([F(1, 2)]))
    assert not p.of_open.contains(F(1, 2))
    assert p.of_open.fin.length() == 1


def test_no_point_meets_the_generic_sublocale():
    for q in RATIONALS.prefix(20):
        assert point_sublocale_meets_generic(q) is False
    assert point_sublocale_meets_generic(F(0)) is False
    assert point_sublocale_meets_generic(F(1)) is False


def test_points_outside_the_interval_are_refused():
    # [0,2) and (-1,1] were once returned as opens of [0,1]
    for q in (F(2), F(-1), F(11, 10)):
        with pytest.raises(OutOfAmbient, match="outside"):
            full_minus_points([F(1, 2), q])
        with pytest.raises(OutOfAmbient, match="outside"):
            point_sublocale_meets_generic(q)


def test_full_minus_points():
    w = full_minus_points([F(0), F(1, 2), F(1)])
    assert w.fin.length() == 1
    assert not w.contains(F(0))
    assert not w.contains(F(1, 2))
    assert w.contains(F(1, 3))
    assert len(w.fin.pieces) == 2
    # the one-pass build against the long way round, on empty, unsorted and
    # duplicated points and on the ambient ends
    for pts in (
        [],
        [F(0)],
        [F(1)],
        [F(1, 2)],
        [F(3, 4), F(1, 4), F(1, 2)],
        [F(1, 2), F(0), F(1, 2), F(1), F(0)],
        RATIONALS.prefix(30)[::-1] + DYADICS.prefix(30),
    ):
        w = full_minus_points(pts)
        assert w == ratopen_minus_points(FULL_RO, pts), pts
        assert FinUnion(w.fin.pieces) == w.fin, pts
        assert len(w.fin.pieces) == len(set(pts)) + 1 - (F(0) in pts) - (F(1) in pts)

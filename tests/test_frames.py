import itertools

import pytest

from locale_lab.corpus import iter_corpus_frames
from locale_lab.frames import (
    Frame,
    FrameError,
    FrameSpec,
    InvalidTopology,
    MissingBound,
    NotALattice,
    NotAPartialOrder,
    NotDistributive,
    SpecError,
    TopologySpec,
    build_frame,
    open_set_name,
    spec_from_json,
)
from locale_lab.measure import ValuationError, validate_valuation
from locale_lab.morphisms import validate_morphism
from locale_lab.sublocales import validate_nucleus


def chain(n):
    names = ["0"] + [f"c{i}" for i in range(1, n - 1)] + ["1"]
    if n == 1:
        names = ["0"]
    leq = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return build_frame(FrameSpec.make(names, leq))


def chain3():
    return build_frame(FrameSpec.make(["0", "u", "1"], [("0", "u"), ("u", "1")]))


def powerset(points_):
    opens = [frozenset(s) for r in range(len(points_) + 1)
             for s in itertools.combinations(points_, r)]
    return Frame.from_topology(TopologySpec.make(points_, opens))


def diamond():
    # 0 < a,b < 1 with a,b incomparable: the 4-element Boolean frame
    return build_frame(
        FrameSpec.make(["0", "a", "b", "1"],
                       [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    )


M3 = FrameSpec.make(
    ["0", "x", "y", "z", "1"],
    [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
)
N5 = FrameSpec.make(
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("0", "c"), ("a", "b"), ("b", "1"), ("c", "1")],
)

CORPUS = list(iter_corpus_frames())


# ---------------------------------------------------------------- building

def test_chain_orders():
    f = chain(4)
    assert f.n == 4
    assert f.leq(f.el("0"), f.el("1"))
    assert f.leq(f.el("c1"), f.el("c2"))
    assert not f.leq(f.el("c2"), f.el("c1"))
    assert f.elements[f.bottom] == "0"
    assert f.elements[f.top] == "1"


def test_transitive_closure_is_applied():
    # only consecutive pairs given; closure must add 0 <= 1
    f = build_frame(FrameSpec.make(["0", "m", "1"], [("0", "m"), ("m", "1")]))
    assert f.leq(f.el("0"), f.el("1"))


def test_antisymmetry_violation_rejected():
    spec = FrameSpec.make(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(NotAPartialOrder):
        build_frame(spec)


def test_frame_refuses_duplicate_names():
    with pytest.raises(SpecError, match="duplicate element 'x'"):
        Frame(["x", "x"], [0b11, 0b10])


@pytest.mark.parametrize("law,names,up,witness", [
    ("reflexivity", ["a", "b"], [0b10, 0b10], ("a",)),
    ("antisymmetry", ["a", "b"], [0b11, 0b11], ("a", "b")),
    ("transitivity", ["a", "b", "c"], [0b011, 0b110, 0b100], ("a", "b", "c")),
], ids=["reflexivity", "antisymmetry", "transitivity"])
def test_frame_refuses_an_order_that_is_not_partial(law, names, up, witness):
    with pytest.raises(NotAPartialOrder, match=f"^{law} fails") as exc:
        Frame(names, up)
    assert exc.value.witness == witness


@pytest.mark.parametrize("names,up,message", [
    (["a"], [0b11], "the up-set of 'a' names an element past the last"),
    (["a", "b"], [0b11], "1 up-sets for 2 elements"),
    (["a"], [1, 1], "2 up-sets for 1 elements"),
], ids=["bit-past-the-last", "too-few", "too-many"])
def test_frame_refuses_up_sets_that_do_not_fit_the_elements(names, up, message):
    with pytest.raises(SpecError) as exc:
        Frame(names, up)
    assert str(exc.value) == f"$.up: {message}"


def test_missing_bottom():
    # two minimal elements, no common lower bound
    spec = FrameSpec.make(["a", "b", "1"], [("a", "1"), ("b", "1")])
    with pytest.raises(MissingBound) as ei:
        build_frame(spec)
    assert ei.value.which == "bottom"


def test_missing_top():
    spec = FrameSpec.make(["0", "a", "b"], [("0", "a"), ("0", "b")])
    with pytest.raises(MissingBound) as ei:
        build_frame(spec)
    assert ei.value.which == "top"


def test_m3_rejected():
    # M3 is a lattice, so the failure must be distributivity with a witness
    with pytest.raises(NotDistributive) as ei:
        build_frame(M3)
    w, v1, v2 = ei.value.witness
    assert {w, v1, v2} <= {"x", "y", "z"}


def test_n5_rejected():
    with pytest.raises(NotDistributive):
        build_frame(N5)


def test_no_meet_rejected():
    # a,b above two incomparable lower bounds p,q: meet(a,b) has no greatest
    spec = FrameSpec.make(
        ["0", "p", "q", "a", "b", "1"],
        [("0", "p"), ("0", "q"),
         ("p", "a"), ("p", "b"), ("q", "a"), ("q", "b"),
         ("a", "1"), ("b", "1")],
    )
    with pytest.raises(NotALattice) as ei:
        build_frame(spec)
    assert ei.value.kind == "meet"


def test_duplicate_elements_rejected():
    with pytest.raises(SpecError):
        build_frame(FrameSpec.make(["a", "a"], []))


def test_unknown_leq_element_rejected():
    with pytest.raises(SpecError) as ei:
        build_frame(FrameSpec.make(["a"], [("a", "zzz")]))
    assert "zzz" in str(ei.value)


# ---------------------------------------------------- meets and joins

def brute_meet(f, i, j):
    lower = [k for k in range(f.n) if f.leq(k, i) and f.leq(k, j)]
    greatest = [k for k in lower if all(f.leq(m, k) for m in lower)]
    assert len(greatest) == 1
    return greatest[0]


def brute_join(f, i, j):
    upper = [k for k in range(f.n) if f.leq(i, k) and f.leq(j, k)]
    least = [k for k in upper if all(f.leq(k, m) for m in upper)]
    assert len(least) == 1
    return least[0]


@pytest.mark.parametrize("make", [chain3, diamond, lambda: powerset("abc"), lambda: chain(6)])
def test_tables_match_brute_force(make):
    f = make()
    for i in range(f.n):
        for j in range(f.n):
            assert f.meet(i, j) == brute_meet(f, i, j)
            assert f.join(i, j) == brute_join(f, i, j)


def test_meet_join_all():
    f = powerset("abc")
    xs = [f.el("{a}"), f.el("{b}"), f.el("{a,c}")]
    assert f.name(f.join_all(xs)) == "{a,b,c}"
    assert f.name(f.meet_all(xs)) == "{}"
    assert f.join_all([]) == f.bottom
    assert f.meet_all([]) == f.top


# ----------------------------------------------------------- heyting

def brute_heyting(f, u, h):
    ws = [w for w in range(f.n) if f.leq(f.meet(w, u), h)]
    best = [w for w in ws if all(f.leq(x, w) for x in ws)]
    assert len(best) == 1
    return best[0]


@pytest.mark.parametrize("make", [chain3, diamond, lambda: powerset("abc"), lambda: chain(5)] + [
    pytest.param(lambda f=f: f, id=f"corpus-{name}") for name, f in CORPUS
])
def test_heyting_matches_brute_force(make):
    f = make()
    for u in range(f.n):
        for h in range(f.n):
            assert f.heyting(u, h) == brute_heyting(f, u, h)


@pytest.mark.parametrize("make", [chain3, diamond, lambda: powerset("abc")])
def test_heyting_adjunction(make):
    # W <= (U => H)  iff  W meet U <= H, for every triple
    f = make()
    for u in range(f.n):
        for h in range(f.n):
            uh = f.heyting(u, h)
            for w in range(f.n):
                assert f.leq(w, uh) == f.leq(f.meet(w, u), h)


def oracle_join_irreducibles(f):
    """The elements other than bottom that are not the join of the
    elements strictly below them, in index order."""
    return tuple(
        x for x in range(f.n)
        if x != f.bottom and f.join_all(y for y in range(f.n) if y != x and f.leq(y, x)) != x
    )


def test_join_irreducibles_match_their_definition():
    frames = [chain3(), diamond(), powerset("abc"), chain(5)] + [f for _, f in CORPUS]
    for f in frames:
        assert f.join_irreducibles == oracle_join_irreducibles(f), f


def test_pseudo_complement_chain():
    f = chain3()
    assert f.name(f.neg(f.el("0"))) == "1"
    assert f.name(f.neg(f.el("u"))) == "0"
    assert f.name(f.neg(f.el("1"))) == "0"


def test_pseudo_complement_powerset_is_set_complement():
    f = powerset("ab")
    assert f.name(f.neg(f.el("{a}"))) == "{b}"
    assert f.name(f.neg(f.el("{}"))) == "{a,b}"


# ------------------------------------------------------- predicates

def test_boolean_and_regular():
    assert powerset("ab").boolean
    assert powerset("abc").regular
    c = chain3()
    assert not c.boolean
    assert not c.regular
    # 2-chain is Boolean (degenerately)
    assert chain(2).boolean


def test_finite_regular_iff_boolean():
    # checked on a small zoo; the equivalence is a finite-lattice fact
    for make in (chain3, diamond, lambda: powerset("abc"), lambda: chain(5)):
        f = make()
        assert f.regular == f.boolean


# ----------------------------------------------------------- points

def brute_points(f):
    """All 0/1 assignments preserving bottom, top, meet and join."""
    out = []
    for bits in itertools.product((0, 1), repeat=f.n):
        if bits[f.bottom] != 0 or bits[f.top] != 1:
            continue
        ok = all(
            bits[f.meet(i, j)] == (bits[i] & bits[j])
            and bits[f.join(i, j)] == (bits[i] | bits[j])
            for i in range(f.n)
            for j in range(f.n)
        )
        if ok:
            out.append(bits)
    return out


@pytest.mark.parametrize(
    "make", [chain3, diamond, lambda: powerset("abc"), lambda: chain(5)]
)
def test_points_match_brute_force(make):
    # each prime q is the point x -> [x not below q]
    f = make()
    points = [tuple(0 if f.leq(x, q) else 1 for x in range(f.n)) for q in f.primes]
    assert sorted(points) == sorted(brute_points(f))


def test_powerset_points_count():
    # spatial case: one point per point of the underlying set
    assert len(powerset("abc").primes) == 3


def test_chain_has_exactly_n_minus_one_points():
    for n in range(2, 6):
        assert len(chain(n).primes) == n - 1


# ------------------------------------------------------- topologies

def test_sierpinski():
    f = Frame.from_topology(TopologySpec.make(["p"], [[], ["p"]]))
    assert f.n == 2
    assert f.opens == (frozenset(), frozenset({"p"}))


def test_topology_missing_empty_set():
    with pytest.raises(InvalidTopology):
        Frame.from_topology(TopologySpec.make(["p"], [["p"]]))


def test_topology_not_closed_under_union():
    spec = TopologySpec.make("abc", [[], ["a"], ["b"], ["a", "b", "c"]])
    with pytest.raises(InvalidTopology) as ei:
        Frame.from_topology(spec)
    assert "union" in str(ei.value)


def test_topology_not_closed_under_intersection():
    spec = TopologySpec.make(
        "abc", [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]
    )
    with pytest.raises(InvalidTopology) as ei:
        Frame.from_topology(spec)
    assert "intersection" in str(ei.value)


def test_topology_unknown_point():
    spec = TopologySpec.make("ab", [[], ["a", "z"], ["a", "b"]])
    with pytest.raises(InvalidTopology):
        Frame.from_topology(spec)


def test_open_set_names():
    f = powerset("ab")
    assert set(f.elements) == {"{}", "{a}", "{b}", "{a,b}"}
    assert open_set_name(frozenset("ba")) == "{a,b}"


def test_indiscrete_two_points():
    f = Frame.from_topology(TopologySpec.make("xy", [[], ["x", "y"]]))
    assert f.n == 2
    assert f.boolean
    # no prime element separates x from y: a single point
    assert len(f.primes) == 1


# -------------------------------------------------------- element tables

def _table_cases():
    """(entry point, error class, table, expected message) on the 3-chain
    0 < u < 1: each malformed table, for each entry point that reads one."""
    c3 = chain3()
    entries = {
        "nucleus": (lambda t: validate_nucleus(c3, t), FrameError, "u", None),
        "fstar": (lambda t: validate_morphism(c3, c3, t), FrameError, "u", None),
        "valuation": (lambda t: validate_valuation(c3, t), ValuationError, "1/2", "x"),
    }
    for what, (check, cls, good, bad) in entries.items():
        shapes = [
            ("missing entry", {"0": "0", "u": good}, f"{what} is undefined on '1'"),
            ("unknown name", {"0": "0", "x": good, "1": "1"}, f"{what}: unknown element 'x'"),
            ("two entries", {"0": "0", "u": good, 1: good, "1": "1"}, f"{what} has two entries for 'u'"),
            ("wrong length", ["0", "1"], f"{what} has 2 entries for 3 elements"),
            ("not a table: None", None, f"{what} must be a dict or a list, not NoneType"),
            ("not a table: 5", 5, f"{what} must be a dict or a list, not int"),
            ("not a table: 'abc'", "abc", f"{what} must be a dict or a list, not str"),
        ]
        if what == "valuation":
            shapes += [
                ("index out of range", {0: 0, 1: good, 7: 1}, f"{what}: element index 7 out of range"),
                ("bad value", ["0", bad, "1"], f"{what} at 'u': bad rational 'x'"),
            ]
        else:
            shapes += [
                ("index out of range", ["0", 7, "1"], f"{what} at 'u': element index 7 out of range"),
                ("bad value", {"0": "0", "u": bad, "1": "1"}, f"{what} at 'u': unknown element None"),
            ]
        for shape, table, message in shapes:
            yield pytest.param(check, cls, table, message, id=f"{what}-{shape}")


@pytest.mark.parametrize("check,cls,table,message", list(_table_cases()))
def test_malformed_tables_raise_the_entry_points_error(check, cls, table, message):
    # a value that is not a dict or a list, or an entry that does not
    # parse, is refused with the entry point's own class and one line
    with pytest.raises(FrameError) as exc:
        check(table)
    assert type(exc.value) is cls
    text = str(exc.value)
    assert "\n" not in text and text.startswith(message)


def test_spec_with_labels_is_refused():
    # a "labels" key is an unknown key like any other
    with pytest.raises(SpecError) as exc:
        spec_from_json({"elements": ["0", "1"], "leq": [["0", "1"]], "labels": {}})
    assert str(exc.value) == "$: unknown key 'labels'"

import functools
import itertools
import random

import pytest

from locale_lab.corpus import iter_corpus_frames, iter_negative_specs
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
from locale_lab.morphisms import identity_morphism, validate_morphism
from locale_lab.sublocales import validate_nucleus
from small_frames import chain01, chain3, diamond, powerset


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
    f = chain01(4)
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


@pytest.mark.parametrize("name,message", [
    ("m3", "'z' meet ('x' join 'y') = 'z' but the join of the meets is '0'"),
    ("n5", "'b' meet ('a' join 'c') = 'b' but the join of the meets is 'a'"),
])
def test_the_negatives_name_their_failing_triple(name, message):
    # the witness is the first join-irreducible under the first pair
    # v1 < v2 (index order) whose join it lies below, below neither
    spec = dict(iter_negative_specs())[name]
    with pytest.raises(NotDistributive) as exc:
        build_frame(spec)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("make", [chain3, diamond, lambda: powerset("abc"), lambda: chain01(6)])
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


# ------------------------------------- the checks against their scans

def bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def up_rows(f):
    """The up-set of each element of f as a bitmask, read off `Frame.leq`:
    a Frame keeps its order only as point sets."""
    return [sum(1 << j for j in range(f.n) if f.leq(i, j)) for i in range(f.n)]


def down_rows(f):
    """The down-set of each element of f as a bitmask, read off `Frame.leq`."""
    return [sum(1 << i for i in range(f.n) if f.leq(i, j)) for j in range(f.n)]


def scan_table(names, cone, kind):
    """The meet (cone = down-sets) or join (cone = up-sets) table by the
    bit scan: per pair, the first element of the common cone whose own
    cone it is."""
    table = []
    for i in range(len(cone)):
        row = []
        for j in range(len(cone)):
            common = cone[i] & cone[j]
            found = next((k for k in bits(common) if cone[k] == common), None)
            if found is None:
                raise NotALattice(kind, names[i], names[j])
            row.append(found)
        table.append(tuple(row))
    return tuple(table)


def triple_scan(names, meet, join):
    """Distributivity by every triple: w meet (v1 join v2) against the join
    of the meets."""
    n = len(names)
    for w, v1, v2 in itertools.product(range(n), repeat=3):
        lhs, rhs = meet[w][join[v1][v2]], join[meet[w][v1]][meet[w][v2]]
        if lhs != rhs:
            raise NotDistributive(names[w], names[v1], names[v2], names[lhs], names[rhs])


def closed_up(spec):
    """The up-sets of a FrameSpec's reflexive-transitive closure, without
    building its frame."""
    index = {x: i for i, x in enumerate(spec.elements)}
    up = [1 << i for i in range(len(index))]
    for a, b in spec.leq:
        up[index[a]] |= 1 << index[b]
    for k, i in itertools.product(range(len(up)), repeat=2):
        if up[i] >> k & 1:
            up[i] |= up[k]
    return up


def random_bounded_poset(rng):
    """A bounded poset of at most 9 elements, its index order shuffled so
    that it need not be a linear extension."""
    k, p = rng.randrange(8), rng.random()
    up = [1 << i for i in range(k + 2)]  # 0 is bottom, k + 1 is top
    for i, j in itertools.combinations(range(1, k + 1), 2):
        if rng.random() < p:
            up[i] |= 1 << j
    for i in reversed(range(1, k + 1)):
        for j in bits(up[i]):
            up[i] |= up[j]
    up[0] = (1 << (k + 2)) - 1
    for i in range(1, k + 2):
        up[i] |= 1 << (k + 1)
    order = list(range(k + 2))
    rng.shuffle(order)
    place = {old: new for new, old in enumerate(order)}
    names = [f"e{old}" for old in order]
    return names, [sum(1 << place[j] for j in bits(up[old])) for old in order]


def join_prime_scan(names, meet, join):
    """Distributivity by Birkhoff's test on pairs, read off the tables: the
    first pair v1 < v2 (index order) whose join is above a join-irreducible
    below neither, named with the first such join-irreducible."""
    n = len(names)
    bottom = functools.reduce(lambda a, b: meet[a][b], range(n))

    def lower(v):
        return {j for j in range(n) if meet[j][v] == j}

    irr = {j for j in range(n)
           if j != bottom and functools.reduce(lambda a, b: join[a][b], lower(j) - {j}, bottom) != j}
    for v1, v2 in itertools.combinations(range(n), 2):
        v = join[v1][v2]
        bad = sorted(irr & (lower(v) - lower(v1) - lower(v2)))
        if bad:
            w = bad[0]
            raise NotDistributive(names[w], names[v1], names[v2], names[meet[w][v]],
                                  names[join[meet[w][v1]][meet[w][v2]]])


def assert_views_match_the_tables(f, meet, join):
    """What a Frame reads off its point sets against the same values read
    off its meet and join tables, by their definitions."""
    n, full = f.n, (1 << f.n) - 1
    up, down = up_rows(f), down_rows(f)

    def meet_all(xs):
        return functools.reduce(lambda a, b: meet[a][b], xs, f.top)

    def join_all(xs):
        return functools.reduce(lambda a, b: join[a][b], xs, f.bottom)

    primes = tuple(x for x in range(n) if x != f.top and meet_all(y for y in bits(up[x]) if y != x) != x)
    assert f.primes == primes
    assert f.primes_above == tuple(sum(1 << k for k, p in enumerate(primes) if f.leq(v, p))
                                   for v in range(n))
    assert f.least_not_below == tuple(meet_all(bits(full & ~down[p])) for p in primes)
    assert f.join_irreducibles == tuple(
        x for x in range(n) if x != f.bottom and join_all(y for y in bits(down[x]) if y != x) != x)
    for mask in range(1 << len(primes)):
        assert f.meet_of_primes(mask) == meet_all(primes[k] for k in bits(mask))
    for u, h in itertools.product(range(n), repeat=2):
        assert f.heyting(u, h) == join_all(w for w in range(n) if f.leq(meet[w][u], h))


def verdict_against_the_scans(names, up):
    """Build Frame(names, up) and check it against the scans: the same
    verdict, the same meets, joins and values read off points, the same
    NotALattice witness, and the NotDistributive witness of the pairs
    scan, which is a failing triple."""
    down = [sum(1 << i for i, u in enumerate(up) if u >> j & 1) for j in range(len(up))]
    try:
        meet, join = scan_table(names, down, "meet"), scan_table(names, up, "join")
    except NotALattice as want:
        with pytest.raises(NotALattice) as exc:
            Frame(names, up)
        assert (str(exc.value), exc.value.kind, exc.value.witness) == (str(want), want.kind, want.witness)
        return "NotALattice"
    try:
        triple_scan(names, meet, join)
    except NotDistributive:
        with pytest.raises(NotDistributive) as want:
            join_prime_scan(names, meet, join)
        with pytest.raises(NotDistributive) as exc:
            Frame(names, up)
        assert (str(exc.value), exc.value.witness) == (str(want.value), want.value.witness)
        w, v1, v2 = (names.index(x) for x in exc.value.witness)
        assert meet[w][join[v1][v2]] != join[meet[w][v1]][meet[w][v2]]
        return "NotDistributive"
    join_prime_scan(names, meet, join)  # the pairs scan agrees with the triples
    f = Frame(names, up)
    pairs = list(itertools.product(range(f.n), repeat=2))
    assert [f.meet(i, j) for i, j in pairs] == [meet[i][j] for i, j in pairs]
    assert [f.join(i, j) for i, j in pairs] == [join[i][j] for i, j in pairs]
    assert_views_match_the_tables(f, meet, join)
    return "frame"


def test_corpus_and_negatives_match_the_scans():
    verdicts = [verdict_against_the_scans(f.elements, up_rows(f)) for _, f in CORPUS]
    verdicts += [verdict_against_the_scans(spec.elements, closed_up(spec))
                 for _, spec in iter_negative_specs()]
    assert verdicts == ["frame"] * len(CORPUS) + ["NotDistributive"] * 2


def test_random_bounded_posets_match_the_scans():
    rng = random.Random(36)
    verdicts = [verdict_against_the_scans(*random_bounded_poset(rng)) for _ in range(5000)]
    counts = {v: verdicts.count(v) for v in ("frame", "NotALattice", "NotDistributive")}
    assert min(counts.values()) >= 100, counts


# ----------------------------------------------------------- heyting

def brute_heyting(f, u, h):
    ws = [w for w in range(f.n) if f.leq(f.meet(w, u), h)]
    best = [w for w in ws if all(f.leq(x, w) for x in ws)]
    assert len(best) == 1
    return best[0]


@pytest.mark.parametrize("make", [chain3, diamond, lambda: powerset("abc"), lambda: chain01(5)] + [
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
    frames = [chain3(), diamond(), powerset("abc"), chain01(5)] + [f for _, f in CORPUS]
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
    assert chain01(2).boolean


def test_finite_regular_iff_boolean():
    # checked on a small zoo; the equivalence is a finite-lattice fact
    for make in (chain3, diamond, lambda: powerset("abc"), lambda: chain01(5)):
        f = make()
        assert f.regular == f.boolean


def oracle_boolean(f):
    """Every element has a complement: its join with its pseudo-complement
    is top."""
    return all(f.join(u, f.neg(u)) == f.top for u in range(f.n))


def oracle_regular(f):
    """Every element is the join of the elements well inside it."""
    return all(f.join_all(w for w in range(f.n) if f.well_inside(w, u)) == u for u in range(f.n))


def test_the_point_flags_match_their_definitions():
    # the flags are read off the points; their definitions read the
    # complements and the well-inside relation, on the corpus, the
    # random posets that are frames, the powersets of 0 to 9 points and
    # the chains of 1 to 10 elements
    rng = random.Random(36)
    frames = [f for _, f in CORPUS]
    for _ in range(5000):
        try:
            frames.append(Frame(*random_bounded_poset(rng)))
        except FrameError:
            pass
    frames += [powerset([f"p{i}" for i in range(k)]) for k in range(10)]
    frames += [chain01(n) for n in range(1, 11)]
    got = [(f.boolean, f.regular) for f in frames]
    assert got == [(oracle_boolean(f), oracle_regular(f)) for f in frames]
    assert {(True, True), (False, False)} == set(got)


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
    "make", [chain3, diamond, lambda: powerset("abc"), lambda: chain01(5)]
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
        assert len(chain01(n).primes) == n - 1


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


@pytest.mark.parametrize("make,primes,join_irreducibles", [
    (lambda: Frame(["x"], [1]), [], []),
    (lambda: Frame.from_topology(TopologySpec.make([], [[]])), [], []),
    (lambda: chain01(2), ["0"], ["1"]),
    (lambda: powerset("abc"), ["{a,b}", "{a,c}", "{b,c}"], ["{a}", "{b}", "{c}"]),
], ids=["one-element", "empty-space", "2-chain", "powerset-abc"])
def test_the_smallest_frames_count_their_points(make, primes, join_irreducibles):
    # the up-set count at its edges: no points and one up-set, one point
    # and two, three unordered points and all eight subsets
    f = make()
    assert [f.name(p) for p in f.primes] == primes
    assert [f.name(j) for j in f.join_irreducibles] == join_irreducibles
    assert f.boolean and f.regular
    assert f.n == 1 << len(f.primes)


def test_a_bool_is_refused_as_an_element_index():
    f = Frame(["x"], [1])
    with pytest.raises(FrameError) as exc:
        f.el(True)
    assert str(exc.value) == "element index True is a bool, not an int"
    c3 = chain3()
    with pytest.raises(FrameError) as exc:
        validate_nucleus(c3, {"0": "0", "u": True, "1": "1"})
    assert str(exc.value) == "nucleus at 'u': element index True is a bool, not an int"
    with pytest.raises(FrameError) as exc:
        validate_morphism(c3, c3, {"0": "0", True: "u", "1": "1"})
    assert str(exc.value) == "fstar: element index True is a bool, not an int"
    with pytest.raises(FrameError) as exc:
        identity_morphism(c3)(True)
    assert str(exc.value) == "element index True is a bool, not an int"


@pytest.mark.parametrize("up,message", [
    (["x", 2], "the up-set of 'a' is a str, not an int"),
    ([3, True], "the up-set of 'b' is a bool, not an int"),
], ids=["str", "bool"])
def test_an_up_set_that_is_not_an_int_is_refused(up, message):
    with pytest.raises(SpecError) as exc:
        Frame(["a", "b"], up)
    assert str(exc.value) == f"$.up: {message}"


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


@pytest.mark.parametrize("obj,message", [
    pytest.param([1, 2], "$: expected an object", id="not-an-object"),
    # a "labels" key is an unknown key like any other
    pytest.param({"elements": ["0", "1"], "leq": [["0", "1"]], "labels": {}}, "$: unknown key 'labels'",
                 id="frame-unknown-key"),
    pytest.param({"points": ["p"], "opens": [], "extra": 1}, "$: unknown key 'extra'", id="topology-unknown-key"),
    pytest.param({"elements": None, "leq": []}, "$.elements: expected an array, got NoneType", id="elements-null"),
    pytest.param({"elements": ["a", 1], "leq": []}, "$.elements[1]: element names must be strings",
                 id="element-name"),
    pytest.param({"elements": ["a"], "leq": "x"}, "$.leq: expected an array, got str", id="leq-not-an-array"),
    pytest.param({"elements": ["a"], "leq": ["ab"]}, "$.leq[0]: expected an array, got str", id="leq-pair-string"),
    pytest.param({"elements": ["a"], "leq": [["a"]]}, "$.leq[0]: expected a pair of element names",
                 id="leq-pair-short"),
    pytest.param({"points": ["p", 2], "opens": []}, "$.points[1]: point names must be strings", id="point-name"),
    pytest.param({"points": ["p"], "opens": 3}, "$.opens: expected an array, got int", id="opens-not-an-array"),
    pytest.param({"points": ["p"], "opens": [[], 5]}, "$.opens[1]: expected an array, got int",
                 id="open-not-an-array"),
    pytest.param({"points": ["p"], "opens": [[], ["p", 7]]}, "$.opens[1][1]: point names must be strings",
                 id="open-point-name"),
])
def test_malformed_frame_json_is_refused_at_its_path(obj, message):
    # both JSON forms, a frame's elements and leq and a topology's points
    # and opens, name the first bad value by its path from the root
    with pytest.raises(SpecError) as exc:
        spec_from_json(obj)
    assert str(exc.value) == message

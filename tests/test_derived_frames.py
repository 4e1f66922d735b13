"""The frames the library derives from their points, against the order
path: every leq pair written out by name in a FrameSpec and parsed back
by `build_frame` (name lookup, transitive closure, antisymmetry), or for
a topology each open's up-set computed from the opens holding its points,
and in each case checked by `Frame(elements, up)`. Both must give the
same elements in the same order, the same primes and point sets, and the
same meets, joins and Heyting arrows.
"""

import functools
import itertools
import operator
import random

import pytest

from locale_lab import measure_laws
from locale_lab.corpus import corpus_files, iter_corpus_frames, load
from locale_lab.frames import (
    Frame,
    FrameSpec,
    InvalidTopology,
    SpecError,
    TopologySpec,
    build_frame,
    open_set_name,
    topology_spec_from_json,
)
from locale_lab.laws import run_measure_suite
from locale_lab.morphisms import sum_frame
from locale_lab.sublocales import enumerate_sublocales, fixpoint_frame, is_subsublocale
from cli_contract import dyadic_grid
from test_frames import down_rows, scan_table, up_rows


def by_pairs(names, leq) -> Frame:
    """The frame on `names` whose order holds at (i, j) iff leq(i, j)."""
    n = len(names)
    return build_frame(FrameSpec.make(
        names, [(names[i], names[j]) for i in range(n) for j in range(n) if leq(i, j)]
    ))


def oracle_fixpoint_frame(x):
    amb, fix = x.frame, x.fixpoints
    return by_pairs([amb.elements[a] for a in fix], lambda i, j: amb.leq(fix[i], fix[j]))


def oracle_sum_frame(frames):
    combos = list(itertools.product(*(range(f.n) for f in frames)))
    return by_pairs(
        [tuple(f.elements[c] for f, c in zip(frames, combo)) for combo in combos],
        lambda s, t: all(f.leq(x, y) for f, x, y in zip(frames, combos[s], combos[t])),
    )


def oracle_from_topology(tspec):
    """The opens smallest first, each open's up-set the AND, over its
    points, of the opens that hold that point, checked as an order by
    `Frame(elements, up)`; each point's prime is the union of the opens
    that miss it, found by name."""
    ordered = sorted(set(tspec.opens), key=lambda o: (len(o), tuple(sorted(o))))
    holding = dict.fromkeys(tspec.points, 0)
    for j, o in enumerate(ordered):
        for p in o:
            holding[p] |= 1 << j
    full = (1 << len(ordered)) - 1
    up = [functools.reduce(operator.and_, map(holding.__getitem__, o), full) for o in ordered]
    frame = Frame([open_set_name(o) for o in ordered], up)
    frame.opens, frame.point_names = tuple(ordered), tuple(tspec.points)
    frame.point_primes = tuple(
        frame.primes.index(frame.index[open_set_name(frozenset().union(*(o for o in ordered if x not in o)))])
        for x in tspec.points
    )
    return frame


def same_frame(got, want):
    """The same elements in the same order, primes, point sets, bounds and
    topology fields, and the same order, meets, joins and Heyting arrows:
    on every pair up to 100 elements, else on 3,000 seeded pairs."""
    fields = ("elements", "primes", "primes_above", "bottom", "top", "opens", "point_names", "point_primes")
    if any(getattr(got, k) != getattr(want, k) for k in fields):
        return False
    n, rng = got.n, random.Random(got.n)
    pairs = (itertools.product(range(n), repeat=2) if n <= 100
             else [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)])
    return all(op(got, i, j) == op(want, i, j)
               for i, j in pairs for op in (Frame.leq, Frame.meet, Frame.join, Frame.heyting))


def test_fixpoint_frames_match_the_pairs_oracle():
    for name, fr in iter_corpus_frames():
        for x in enumerate_sublocales(fr):
            assert same_frame(fixpoint_frame(x)[0], oracle_fixpoint_frame(x)), (name, x)


def componentwise_up(frames):
    """The sum's up-sets by `Frame.leq` on every pair of tuples and every
    component."""
    combos = list(itertools.product(*(range(f.n) for f in frames)))
    return [sum(1 << j for j, b in enumerate(combos) if all(map(Frame.leq, frames, a, b)))
            for a in combos]


def test_sum_frames_match_the_pairs_oracle():
    small = [(name, fr) for name, fr in iter_corpus_frames() if fr.n <= 4]
    assert len(small) > 1
    for (an, a), (bn, b) in itertools.product(small, repeat=2):
        s = sum_frame([a, b])[0]
        assert same_frame(s, oracle_sum_frame([a, b])), (an, bn)
        assert up_rows(s) == componentwise_up([a, b]), (an, bn)
    # three components and one: the product order on longer tuples
    triple = [fr for _, fr in small[1:4]]
    assert same_frame(sum_frame(triple)[0], oracle_sum_frame(triple))
    assert up_rows(sum_frame(triple)[0]) == componentwise_up(triple)
    assert same_frame(sum_frame(triple[:1])[0], oracle_sum_frame(triple[:1]))


def closure_scan(tspec):
    """The closure check by every ordered pair of opens, as sets, in the
    order given: union before intersection."""
    family = set(tspec.opens)
    for a, b in itertools.product(tspec.opens, repeat=2):
        for law, op, c in (("union", "|", a | b), ("intersection", "&", a & b)):
            if c not in family:
                w = (sorted(a), sorted(b))
                raise InvalidTopology(f"not closed under {law}: {w[0]} {op} {w[1]}", w)


def random_topology(rng):
    """A family of sets on at most 4 points with the empty and the full set,
    closed under union and intersection half of the time, in random order."""
    pts = "abcd"[:rng.randrange(1, 5)]
    subsets = [frozenset(s) for r in range(len(pts) + 1) for s in itertools.combinations(pts, r)]
    family = {frozenset(), frozenset(pts)} | set(rng.sample(subsets, rng.randrange(len(subsets))))
    if rng.random() < 0.5:
        while True:
            more = {a | b for a in family for b in family} | {a & b for a in family for b in family}
            if more <= family:
                break
            family |= more
    opens = sorted(family, key=sorted)
    rng.shuffle(opens)
    return TopologySpec.make(pts, opens)


def test_topology_closure_matches_the_pairs_scan():
    rng = random.Random(36)
    refused = 0
    for _ in range(2000):
        tspec = random_topology(rng)
        try:
            closure_scan(tspec)
        except InvalidTopology as want:
            with pytest.raises(InvalidTopology) as exc:
                Frame.from_topology(tspec)
            assert (str(exc.value), exc.value.witness) == (str(want), want.witness)
            refused += 1
            continue
        assert same_frame(Frame.from_topology(tspec), oracle_from_topology(tspec))
    assert 200 < refused < 1800


def test_the_dyadic_grid_has_a_fibonacci_number_of_opens():
    # 2^level + 1 grid points and 2^level cells: a fence of m points,
    # whose opens number the Fibonacci number F(m + 2)
    assert [len(dyadic_grid(level).opens) for level in (0, 1, 2)] == [5, 13, 89]
    assert len(dyadic_grid(3).opens) == 4181


def test_the_level_2_grid_matches_the_oracle_and_the_scans():
    tspec = dyadic_grid(2)
    got, want = Frame.from_topology(tspec), oracle_from_topology(tspec)
    assert same_frame(got, want)
    assert (got.n, len(got.primes)) == (89, 9)
    meet, join = scan_table(got.elements, down_rows(got), "meet"), scan_table(got.elements, up_rows(got), "join")
    index = {o: k for k, o in enumerate(got.opens)}
    for i, j in itertools.product(range(got.n), repeat=2):
        a, b = got.opens[i], got.opens[j]
        assert got.meet(i, j) == meet[i][j] == index[a & b]
        assert got.join(i, j) == join[i][j] == index[a | b]


def test_the_level_3_grid_matches_the_oracle():
    tspec = dyadic_grid(3)
    got = Frame.from_topology(tspec)
    assert (got.n, len(got.primes)) == (4181, 17)
    assert same_frame(got, oracle_from_topology(tspec))


@pytest.mark.parametrize("k", range(13))
def test_the_discrete_topologies_match_the_oracle(k):
    pts = [f"p{i}" for i in range(k)]
    tspec = TopologySpec.make(pts, [[p for i, p in enumerate(pts) if m >> i & 1] for m in range(1 << k)])
    got = Frame.from_topology(tspec)
    assert (got.n, got.primes_above[got.bottom], got.boolean) == (1 << k, (1 << k) - 1, True)
    assert same_frame(got, oracle_from_topology(tspec))


def test_the_reduced_algebras_of_the_measure_suite_match_the_oracle(monkeypatch):
    built, real = [], measure_laws.reduced_algebra

    def kept(val):
        built.append(real(val))
        return built[-1]

    monkeypatch.setattr(measure_laws, "reduced_algebra", kept)
    rep = run_measure_suite()
    assert rep.violations == [] and len(built) > 1
    for alg in built:
        reps = alg.reps
        want = by_pairs(alg.frame.elements, lambda i, j: is_subsublocale(reps[i], reps[j]))
        assert same_frame(alg.frame, want), alg


@pytest.mark.parametrize("point", ["0/4", "2/4", "(1/4 2/4)"])
def test_the_level_2_grid_without_a_least_open_is_refused_as_the_scan_refuses_it(point):
    tspec = dyadic_grid(2)
    opens = [o for o in tspec.opens if o != min((o for o in tspec.opens if point in o), key=len)]
    tspec = TopologySpec.make(tspec.points, opens)
    with pytest.raises(InvalidTopology) as want:
        closure_scan(tspec)
    with pytest.raises(InvalidTopology) as exc:
        Frame.from_topology(tspec)
    assert (str(exc.value), exc.value.witness) == (str(want.value), want.value.witness)


def test_topology_frames_match_the_pairs_oracle():
    paths = [p for p in corpus_files() if p.parent.name == "topologies"]
    assert paths
    for path in paths:
        tspec = load(path, topology_spec_from_json)
        got, want = Frame.from_topology(tspec), oracle_from_topology(tspec)
        assert same_frame(got, want), path.stem


@pytest.mark.parametrize("spec", [
    TopologySpec.make(["a,b", "a", "b"], [[], ["a,b"], ["a", "b"], ["a,b", "a", "b"]]),
    TopologySpec.make(["x", ""], [[], ["x"], ["x", ""]]),
], ids=["comma", "empty"])
def test_a_point_name_that_could_name_two_opens_alike_is_refused(spec):
    with pytest.raises(SpecError) as exc:
        Frame.from_topology(spec)
    bad = next(i for i, p in enumerate(spec.points) if p == "" or "," in p)
    assert exc.value.where == f"$.points[{bad}]"
    assert len(str(exc.value).splitlines()) == 1

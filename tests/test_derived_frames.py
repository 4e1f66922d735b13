"""The frames the library derives, built from their order, against the
old construction: every leq pair written out by name in a FrameSpec and
parsed back by `build_frame` (name lookup, transitive closure,
antisymmetry). Both must give the same elements in the same order with
the same up-sets.
"""

import itertools
import random

import pytest

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
from locale_lab.morphisms import sum_frame
from locale_lab.sublocales import enumerate_sublocales, fixpoint_frame
from test_frames import scan_table


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
    ordered = sorted(set(tspec.opens), key=lambda o: (len(o), tuple(sorted(o))))
    frame = by_pairs([open_set_name(o) for o in ordered], lambda i, j: ordered[i] <= ordered[j])
    frame.opens, frame.point_names = tuple(ordered), tuple(tspec.points)
    return frame


def same_order(got, want):
    return got.elements == want.elements and got.up == want.up


def test_fixpoint_frames_match_the_pairs_oracle():
    for name, fr in iter_corpus_frames():
        for x in enumerate_sublocales(fr):
            assert same_order(fixpoint_frame(x)[0], oracle_fixpoint_frame(x)), (name, x)


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
        assert same_order(s, oracle_sum_frame([a, b])), (an, bn)
        assert list(s.up) == componentwise_up([a, b]), (an, bn)
    # three components and one: the product order on longer tuples
    triple = [fr for _, fr in small[1:4]]
    assert same_order(sum_frame(triple)[0], oracle_sum_frame(triple))
    assert list(sum_frame(triple)[0].up) == componentwise_up(triple)
    assert same_order(sum_frame(triple[:1])[0], oracle_sum_frame(triple[:1]))


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
        assert same_order(Frame.from_topology(tspec), oracle_from_topology(tspec))
    assert 200 < refused < 1800


def dyadic_grid(level):
    """The digital line on [0,1] at `level` (Khalimsky, Kopperman & Meyer,
    Topology Appl. 1990): its points are the k/2^level and the open cells
    between them, in order along the line. A cell's least open is itself,
    a grid point's is the point and its adjacent cells; the opens are the
    unions of least opens, smallest first."""
    d = 1 << level
    grid = [f"{k}/{d}" for k in range(d + 1)]
    points = [grid[0]]
    for a, b in zip(grid, grid[1:]):
        points += [f"({a} {b})", b]
    least = [frozenset(points[max(i - 1, 0):i + 2] if i % 2 == 0 else [p]) for i, p in enumerate(points)]
    family, todo = {frozenset()}, [frozenset()]
    for s in todo:
        for u in least:
            if s | u not in family:
                family.add(s | u)
                todo.append(s | u)
    return TopologySpec.make(points, sorted(family, key=lambda o: (len(o), sorted(o))))


def test_the_dyadic_grid_has_a_fibonacci_number_of_opens():
    # 2^level + 1 grid points and 2^level cells: a fence of m points,
    # whose opens number the Fibonacci number F(m + 2)
    assert [len(dyadic_grid(level).opens) for level in (0, 1, 2)] == [5, 13, 89]
    assert len(dyadic_grid(3).opens) == 4181


def test_the_level_2_grid_matches_the_oracle_and_the_scans():
    tspec = dyadic_grid(2)
    got, want = Frame.from_topology(tspec), oracle_from_topology(tspec)
    assert same_order(got, want)
    assert (got.opens, got.point_names) == (want.opens, want.point_names)
    assert (got.n, len(got.primes)) == (89, 9)
    meet, join = scan_table(got.elements, got.down, "meet"), scan_table(got.elements, got.up, "join")
    index = {o: k for k, o in enumerate(got.opens)}
    for i, j in itertools.product(range(got.n), repeat=2):
        a, b = got.opens[i], got.opens[j]
        assert got.meet(i, j) == meet[i][j] == index[a & b]
        assert got.join(i, j) == join[i][j] == index[a | b]


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
        assert same_order(got, want), path.stem
        assert (got.opens, got.point_names) == (want.opens, want.point_names), path.stem


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

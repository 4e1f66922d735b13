"""The frames the library derives, built from their order, against the
old construction: every leq pair written out by name in a FrameSpec and
parsed back by `build_frame` (name lookup, transitive closure,
antisymmetry). Both must give the same elements in the same order with
the same up-sets.
"""

import itertools

import pytest

from locale_lab.corpus import corpus_files, iter_corpus_frames, load
from locale_lab.frames import (
    Frame,
    FrameSpec,
    SpecError,
    TopologySpec,
    build_frame,
    open_set_name,
    topology_spec_from_json,
)
from locale_lab.morphisms import sum_frame
from locale_lab.sublocales import enumerate_sublocales, fixpoint_frame


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


def test_sum_frames_match_the_pairs_oracle():
    small = [(name, fr) for name, fr in iter_corpus_frames() if fr.n <= 4]
    assert len(small) > 1
    for (an, a), (bn, b) in itertools.product(small, repeat=2):
        assert same_order(sum_frame([a, b])[0], oracle_sum_frame([a, b])), (an, bn)
    # three components and one: the product order on longer tuples
    triple = [fr for _, fr in small[1:4]]
    assert same_order(sum_frame(triple)[0], oracle_sum_frame(triple))
    assert same_order(sum_frame(triple[:1])[0], oracle_sum_frame(triple[:1]))


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

import gc
import itertools
import operator
import weakref

import pytest

from locale_lab.corpus import boolean_spec, chain_spec, iter_corpus_frames
from locale_lab.frames import Frame, TopologySpec, build_frame
from locale_lab.morphisms import enumerate_morphisms, image, preimage
from locale_lab.sublocales import (
    FrameTooLarge,
    MixedFrames,
    NotIdempotent,
    NotInflationary,
    NotMeetPreserving,
    NucleusError,
    Sublocale,
    closed_sublocale,
    closure,
    complement_c,
    empty,
    entanglement,
    enumerate_sublocales,
    exterior,
    fixpoint_frame,
    generic,
    interior,
    intersect,
    intersect_all,
    is_boolean_sublocale,
    is_dense,
    is_subsublocale,
    open_sublocale,
    subspace_sublocale,
    union,
    union_all,
    validate_nucleus,
    whole,
)
from small_frames import chain, chain3, diamond, powerset


def sierpinski():
    return Frame.from_topology(TopologySpec.make(["p", "q"], [[], ["p"], ["p", "q"]]))


ZOO = [chain3, diamond, lambda: powerset("ab"), lambda: chain(4), sierpinski]


# ----------------------------------------------------------- validation

def test_validate_accepts_identity_and_constant_top():
    f = chain3()
    assert whole(f) == validate_nucleus(f, {"0": "0", "u": "u", "1": "1"})
    assert empty(f) == validate_nucleus(f, {"0": "1", "u": "1", "1": "1"})


def test_not_inflationary():
    f = chain3()
    with pytest.raises(NotInflationary):
        validate_nucleus(f, {"0": "0", "u": "0", "1": "1"})


def test_not_idempotent():
    f = chain3()
    with pytest.raises(NotIdempotent):
        validate_nucleus(f, {"0": "u", "u": "1", "1": "1"})


def test_not_meet_preserving():
    f = diamond()
    with pytest.raises(NotMeetPreserving):
        validate_nucleus(f, {"0": "1", "a": "a", "b": "1", "1": "1"})


def test_mixed_frames_rejected():
    with pytest.raises(MixedFrames):
        union(whole(chain3()), whole(chain3()))


def test_mixed_frames_rejected_at_every_position():
    f, g = chain3(), chain3()
    a, b, c = whole(f), empty(f), whole(g)
    for op in (union, intersect):
        for args in ((a, c), (c, a)):
            with pytest.raises(MixedFrames):
                op(*args)
    with pytest.raises(MixedFrames):
        is_subsublocale(a, c)
    with pytest.raises(MixedFrames):
        is_subsublocale(c, a)
    with pytest.raises(MixedFrames):
        entanglement(a, c)
    # the folds check every part against their frame, also a single part
    for fold in (union_all, intersect_all):
        for parts in ([c], [a, c], [c, a], [a, b, c], [a, c, b], [c, a, b]):
            with pytest.raises(MixedFrames):
                fold(f, parts)


def test_union_and_intersect_take_two_parts_and_the_folds_any_number():
    f = chain3()
    x, y, z = open_sublocale(f, "u"), closed_sublocale(f, "u"), generic(f)
    for op in (union, intersect):
        for args in ((), (x,), (x, y, z)):
            with pytest.raises(TypeError):
                op(*args)
    assert union_all(f, []) is empty(f) and intersect_all(f, []) is whole(f)
    assert union_all(f, [x]) is x and intersect_all(f, [x]) is x
    assert union_all(f, [x, y, z]) is union(union(x, y), z)
    assert intersect_all(f, [x, y, z]) is intersect(intersect(x, y), z)


# ---------------------------------------------------------- enumeration

def brute_sublocales(f):
    """Every map of the frame into itself satisfying the three laws."""
    out = []
    for e in itertools.product(range(f.n), repeat=f.n):
        if not all(f.leq(x, e[x]) for x in range(f.n)):
            continue
        if not all(e[e[x]] == e[x] for x in range(f.n)):
            continue
        if not all(
            e[f.meet(x, y)] == f.meet(e[x], e[y])
            for x in range(f.n)
            for y in range(f.n)
        ):
            continue
        out.append(e)
    return sorted(out)


@pytest.mark.parametrize("make", ZOO)
def test_enumeration_matches_all_maps_brute_force(make):
    f = make()
    got = sorted(s.nucleus for s in enumerate_sublocales(f))
    assert got == brute_sublocales(f)


def test_chain3_has_exactly_four_sublocales():
    subs = enumerate_sublocales(chain3())
    assert len(subs) == 4


def test_chain_sublocale_count_doubles():
    # on a chain every subset containing top is a fixpoint set
    for n in range(2, 6):
        assert len(enumerate_sublocales(chain(n))) == 2 ** (n - 1)


def test_boolean_frame_sublocales_are_all_open():
    for pts in ("a", "ab", "abc"):
        f = powerset(pts)
        subs = set(enumerate_sublocales(f))
        opens = {open_sublocale(f, u) for u in range(f.n)}
        assert subs == opens
        assert len(subs) == f.n


def test_enumeration_size_guard():
    with pytest.raises(FrameTooLarge):
        enumerate_sublocales(chain(6), max_size=5)


# ------------------------------------------------------ union, intersect

def lattice_oracle(f):
    subs = enumerate_sublocales(f)

    def least_upper(x, y):
        ub = [z for z in subs if is_subsublocale(x, z) and is_subsublocale(y, z)]
        best = [z for z in ub if all(is_subsublocale(z, w) for w in ub)]
        assert len(best) == 1
        return best[0]

    def greatest_lower(x, y):
        lb = [z for z in subs if is_subsublocale(z, x) and is_subsublocale(z, y)]
        best = [z for z in lb if all(is_subsublocale(w, z) for w in lb)]
        assert len(best) == 1
        return best[0]

    return subs, least_upper, greatest_lower


@pytest.mark.parametrize("make", ZOO)
def test_union_and_intersect_against_order_oracle(make):
    f = make()
    subs, lub, glb = lattice_oracle(f)
    for x in subs:
        for y in subs:
            assert union(x, y) == lub(x, y)
            assert intersect(x, y) == glb(x, y)


def test_union_intersect_folds():
    f = diamond()
    subs = enumerate_sublocales(f)
    assert union_all(f, []) == empty(f)
    assert intersect_all(f, []) == whole(f)
    assert union_all(f, subs) == whole(f)
    assert intersect_all(f, subs) == empty(f)


def test_chain3_pinned_intersection():
    f = chain3()
    assert intersect(open_sublocale(f, "u"), closed_sublocale(f, "u")) == empty(f)


def test_open_closed_pair_covers():
    # [u] and its closed complement always cover the whole frame
    for make in ZOO:
        f = make()
        for u in range(f.n):
            assert union(open_sublocale(f, u), closed_sublocale(f, u)) == whole(f)
            assert intersect(open_sublocale(f, u), closed_sublocale(f, u)) == empty(f)


# ------------------------------------------------- closure and friends

def test_chain3_topology_of_generic():
    f = chain3()
    g = generic(f)
    assert g == open_sublocale(f, "u")
    assert exterior(g) == f.bottom
    assert closure(g) == whole(f)
    assert f.name(interior(g)) == "u"
    # the boundary: the closure less the interior
    assert intersect(closure(g), closed_sublocale(f, interior(g))) == closed_sublocale(f, "u")


def test_closure_is_smallest_closed_cover():
    for make in ZOO:
        f = make()
        closed = [closed_sublocale(f, v) for v in range(f.n)]
        for x in enumerate_sublocales(f):
            c = closure(x)
            assert is_subsublocale(x, c)
            assert c in closed
            for other in closed:
                if is_subsublocale(x, other):
                    assert is_subsublocale(c, other)


def test_interior_is_largest_open_inside():
    for make in ZOO:
        f = make()
        for x in enumerate_sublocales(f):
            u = interior(x)
            assert is_subsublocale(open_sublocale(f, u), x)
            for w in range(f.n):
                if is_subsublocale(open_sublocale(f, w), x):
                    assert f.leq(w, u)


def test_generic_is_smallest_dense():
    for make in ZOO:
        f = make()
        g = generic(f)
        assert is_dense(g)
        for x in enumerate_sublocales(f):
            if is_dense(x):
                assert is_subsublocale(g, x)


def test_generic_on_boolean_frame_is_whole():
    f = powerset("ab")
    assert generic(f) == whole(f)


def test_complement_chain3():
    f = chain3()
    assert complement_c(open_sublocale(f, "u")) == closed_sublocale(f, "u")
    assert complement_c(closed_sublocale(f, "u")) == open_sublocale(f, "u")
    assert complement_c(whole(f)) == empty(f)
    assert complement_c(empty(f)) == whole(f)


def test_complement_is_minimal_cover():
    for make in ZOO:
        f = make()
        subs = enumerate_sublocales(f)
        w = whole(f)
        for x in subs:
            y = complement_c(x)
            assert union(x, y) == w
            for z in subs:
                if union(x, z) == w:
                    assert is_subsublocale(y, z)


def test_entanglement_of_generic_pair():
    # two dense sublocales entangle over the whole frame
    f = chain3()
    g = generic(f)
    assert entanglement(g, whole(f)) == whole(f)
    assert entanglement(g, closed_sublocale(f, "u")) == empty(f)


# ------------------------------------------------------ derived frames

def test_fixpoint_frame_of_closed_piece():
    f = chain3()
    omega, fix = fixpoint_frame(closed_sublocale(f, "u"))
    assert omega.n == 2
    assert [f.elements[i] for i in fix] == ["u", "1"]


def test_fixpoint_frame_joins_are_image_joins():
    f = diamond()
    for x in enumerate_sublocales(f):
        omega, fix = fixpoint_frame(x)
        back = {k: amb for k, amb in enumerate(fix)}
        fwd = {amb: k for k, amb in enumerate(fix)}
        for a in range(omega.n):
            for b in range(omega.n):
                amb_join = f.join(back[a], back[b])
                assert back[omega.join(a, b)] == x.nucleus[amb_join]
                assert back[omega.meet(a, b)] == f.meet(back[a], back[b])
        assert fwd  # embedding is total


def test_boolean_sublocales_chain3():
    f = chain3()
    flags = {
        s: is_boolean_sublocale(s) for s in enumerate_sublocales(f)
    }
    assert flags[whole(f)] is False
    assert flags[empty(f)] is True
    assert flags[generic(f)] is True
    assert flags[closed_sublocale(f, "u")] is True


def test_boolean_sublocale_means_boolean_fixpoint_frame():
    for make in ZOO:
        f = make()
        for s in enumerate_sublocales(f):
            omega, _ = fixpoint_frame(s)
            assert is_boolean_sublocale(s) == (omega.boolean and is_dense_in_closure(s))


def is_dense_in_closure(s):
    # dense inside its own closure: same closure as its closure
    return exterior(s) == exterior(closure(s))


# ----------------------------------------------------------- subspaces

def test_subspace_points_of_sierpinski():
    f = sierpinski()
    open_pt = subspace_sublocale(f, {"p"})
    closed_pt = subspace_sublocale(f, {"q"})
    assert open_pt == open_sublocale(f, "{p}")
    assert closed_pt == closed_sublocale(f, "{p}")
    assert subspace_sublocale(f, {"p", "q"}) == whole(f)
    assert subspace_sublocale(f, set()) == empty(f)


def test_indiscrete_subspaces_forget_points():
    # with only two opens, each singleton induces the whole sublocale:
    # the meet of the point sublocales exceeds the subspace of the
    # empty set, so sublocale meets track opens, not point sets
    f = Frame.from_topology(TopologySpec.make("xy", [[], ["x", "y"]]))
    sx = subspace_sublocale(f, {"x"})
    sy = subspace_sublocale(f, {"y"})
    assert sx == whole(f)
    assert sy == whole(f)
    assert intersect(sx, sy) == whole(f)
    assert subspace_sublocale(f, set()) == empty(f)


def test_subspace_of_discrete_space_is_open():
    f = powerset("abc")
    s = subspace_sublocale(f, {"a", "c"})
    assert s == open_sublocale(f, "{a,c}")


# ------------------------------------------- oracle for trusted results

def nuclei_by_fixpoint_sets(f):
    """Every nucleus on f, found without points: the least-fixpoint map of
    each meet-closed set containing top, kept when validate_nucleus
    accepts it."""
    others = [i for i in range(f.n) if i != f.top]
    out = set()
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            s = set(combo) | {f.top}
            if not all(f.meet(a, b) in s for a in s for b in s):
                continue
            e = tuple(f.meet_all(t for t in s if f.leq(x, t)) for x in range(f.n))
            try:
                validate_nucleus(f, e)
            except NucleusError:
                continue
            out.add(e)
    return out


def union_of_nuclei(f, a, b):
    """The union of two parts as the pointwise meet of their nuclei."""
    return tuple(f.meet(a[h], b[h]) for h in range(f.n))


def intersect_of_nuclei(f, a, b):
    """The meet of two parts: iterate both nuclei up to a common fixpoint."""
    out = []
    for h in range(f.n):
        cur = h
        while b[a[cur]] != cur:
            cur = b[a[cur]]
        out.append(cur)
    return tuple(out)


def test_trusted_constructors_build_nuclei():
    # the point-set constructors skip validation; validate_nucleus must
    # accept every nucleus they derive, and the nucleus algorithms must
    # agree with them
    for name, f in iter_corpus_frames():
        if f.n > 8:
            continue
        subs = enumerate_sublocales(f)
        assert len({s.nucleus for s in subs}) == len(subs)
        assert {s.nucleus for s in subs} == nuclei_by_fixpoint_sets(f), name
        built = list(subs) + [generic(f)]
        for a in subs:
            for b in subs:
                u, m = union(a, b), intersect(a, b)
                assert u.nucleus == union_of_nuclei(f, a.nucleus, b.nucleus), name
                assert m.nucleus == intersect_of_nuclei(f, a.nucleus, b.nucleus), name
                built += [u, m]
        if f.opens is not None:
            for r in range(len(f.point_names) + 1):
                for pts in itertools.combinations(f.point_names, r):
                    sub = subspace_sublocale(f, pts)
                    # e(V) is the largest open W whose points in pts lie in V
                    assert sub.nucleus == tuple(
                        f.join_all(w for w in range(f.n) if f.opens[w] & set(pts) <= f.opens[v])
                        for v in range(f.n)
                    ), name
                    built.append(sub)
        for s in built:
            assert validate_nucleus(f, s.nucleus) == s, name


# ---------------------------------------------- nuclei derived per frame

def nucleus_by_meets(f, mask):
    """e(a) as the meet of the part's points above a, with no memo."""
    return tuple(
        f.meet_all(p for i, p in enumerate(f.primes) if mask >> i & 1 and f.leq(a, p))
        for a in range(f.n)
    )


def test_nucleus_of_matches_the_direct_meets():
    # one run over many frames, so a memo shared between frames would
    # hand one frame's nucleus to another
    frames = [f for _, f in iter_corpus_frames()]
    frames += [build_frame(chain_spec(12)), build_frame(boolean_spec(5))]
    for f in frames:
        for mask in range(1 << len(f.primes)):
            part = Sublocale(f, mask)
            assert part.nucleus == nucleus_by_meets(f, mask), (f, mask)
            assert part.nucleus == f.nucleus_of(mask)
            assert Sublocale(f, mask) is part and part.frame is f


def test_nucleus_memo_holds_one_entry_per_part():
    f = build_frame(chain_spec(9))
    subs = enumerate_sublocales(f, max_size=f.n)
    index = {s.nucleus: i for i, s in enumerate(subs)}
    for a in subs:
        for b in subs:
            assert index[union(a, b).nucleus] == a.points | b.points
            assert index[intersect(a, b).nucleus] == a.points & b.points
    assert len(f._parts) == 1 << len(f.primes)


# ------------------------------------------------------ one object per part

def test_the_part_table_fills_on_demand_and_dies_with_its_frame():
    f = build_frame(chain_spec(9))
    assert len(f._parts) == 0
    open_sublocale(f, "c4")
    assert len(f._parts) == 1
    enumerate_sublocales(f, max_size=f.n)
    assert len(f._parts) == 2 ** len(f.primes)
    # the table and each part refer back to the frame; the cycle collector
    # frees all of them once the frame is dropped
    alive = weakref.ref(f)
    del f
    gc.collect()
    assert alive() is None

def test_every_constructor_returns_the_frames_one_part():
    frames = [chain3(), diamond(), powerset("ab"), build_frame(boolean_spec(3))]
    frames += [f for _, f in iter_corpus_frames() if f.n <= 7]
    for f in frames:
        subs = enumerate_sublocales(f)
        assert all(map(operator.is_, enumerate_sublocales(f), subs))
        built = [whole(f), empty(f), generic(f)]
        built += [open_sublocale(f, v) for v in range(f.n)]
        built += [closed_sublocale(f, v) for v in range(f.n)]
        built += [complement_c(a) for a in subs]
        built += [validate_nucleus(f, a.nucleus) for a in subs]
        for a, b in itertools.product(subs, repeat=2):
            built += [union(a, b), intersect(a, b)]
        if f.opens is not None:
            for r in range(len(f.point_names) + 1):
                built += [subspace_sublocale(f, pts)
                          for pts in itertools.combinations(f.point_names, r)]
        for x in built:
            assert x is subs[x.points], (f, x)
    for g, f in itertools.product(frames[:4], repeat=2):
        at_g, at_f = enumerate_sublocales(g), enumerate_sublocales(f)
        for m in enumerate_morphisms(g, f):
            for x in at_f:
                assert image(m, x) is at_g[image(m, x).points]
            for y in at_g:
                assert preimage(m, y) is at_f[preimage(m, y).points]


def test_two_frames_never_share_a_part():
    # one frame's parts, with their nuclei and fixpoint frames, are never
    # handed to another frame, also not to an equal one or for the same mask
    frames = [chain3(), chain3(), diamond(), powerset("ab")]
    for f, g in itertools.combinations(frames, 2):
        for mask in range(1 << min(len(f.primes), len(g.primes))):
            a, b = Sublocale(f, mask), Sublocale(g, mask)
            assert a is not b and a != b
            assert a.frame is f and b.frame is g
            assert a.nucleus == nucleus_by_meets(f, mask)
            assert b.nucleus == nucleus_by_meets(g, mask)
            assert fixpoint_frame(a)[0] is not fixpoint_frame(b)[0]

"""Planted faults in the views of a map, each caught by the morphism suite,
and in the library calls the sublocale suite's row forms reach.

Each fault is one wrong entry in a table every law reads through the
library: the last entry of `pulls` with its bit 0 cleared, the last entry
of `pushes` with its bit 0 flipped, and the last entry of `fstar` or of
`right_adjoint` replaced by its first. A fault in a library function is
applied by monkeypatch to every binding of it in a loaded `locale_lab`
module (`lattice` imports `right_adjoint` by name for the maps' tables,
`map_laws` for the scalar loops), and the suite runs capped at frames
of 4 elements. Its case count and the violations of each law are
pinned, so the pair kernels must read each map's own tables, and where a
kernel fails the per-map scalar loops must name every witness. The
representatives are picked by point maps alone (`_iso_reps`), which no
fault here touches, so every faulted run counts the 21,664 cases of the
clean one.

The `pushes` fault leaves a map out of a source without points, where a
bit 0 names no point: there `right_adjoint` reads a point that does not
exist and the suite raises IndexError before any map law runs.

The sublocale suite, capped at frames of 4 elements, gets two faults: a
Heyting arrow that answers bottom for U = top and H not top, which the
tables of `meet-nucleus-form` read through `Frame.heyting`, and an
entanglement that answers the closure of a when b is empty, which
`entanglement-zone` calls once per pair of parts. Their counts were
pinned before the part laws had row forms, so the row forms must still
reach the library.

Two faults sit in the points a frame is built from: one open's point set
in `Frame.from_topology`, and one fixpoint's in `fixpoint_frame`, each
with its lowest bit dropped at the middle element. Their frames are no
longer every up-set of their points, so a meet or a join of two such
sets can name no element. The topology fault reaches the frame and
sublocale suites as violations when they are capped at 4 elements, and
stops `laws all` with a KeyError in the frame suite. The fixpoint fault
is seen by `embedding-factorization` alone and stops the measure suite,
whose restricted valuations read fixpoint frames; the frame and
sublocale suites build no fixpoint frame and pass it.
"""

import sys
from collections import Counter

import pytest

from locale_lab import morphisms, sublocales
from locale_lab.frames import Frame
from locale_lab.laws import run_frame_suite, run_measure_suite, run_morphism_suite, run_sublocale_suite
from locale_lab.morphisms import FrameMorphism


def _patch_every_binding(monkeypatch, real, fault):
    """Bind `fault` wherever a loaded `locale_lab` module binds `real`."""
    for name, module in list(sys.modules.items()):
        if name.startswith("locale_lab."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, fault)


def _view(monkeypatch, name, fault):
    real = getattr(FrameMorphism, name).fget
    monkeypatch.setattr(FrameMorphism, name, property(lambda f: fault(f, real(f))))


def pulls(monkeypatch):
    _view(monkeypatch, "pulls", lambda f, t: t[:-1] + (t[-1] & ~1,))


def pushes(monkeypatch):
    _view(monkeypatch, "pushes", lambda f, t: t[:-1] + (t[-1] ^ 1 if f.source.primes else t[-1],))


def fstar(monkeypatch):
    _view(monkeypatch, "fstar", lambda f, t: t[:-1] + t[:1])


def adjoint(monkeypatch):
    real = morphisms.right_adjoint
    _patch_every_binding(monkeypatch, real, lambda f: real(f)[:-1] + real(f)[:1])


# (cases, violations by law) of each fault
CAUGHT = {
    pulls: (21_664, {
        "adjunction": 73, "embedding-three-ways": 16, "preimage-open-closed": 110,
        "image-preimage-galois": 20, "preimage-union-meet": 810, "composition": 1598,
        "embedding-factorization": 190, "sum-injections": 251,
    }),
    pushes: (21_664, {
        "adjunction": 88, "embedding-three-ways": 17, "image-union": 420,
        "image-preimage-galois": 72, "composition": 631, "embedding-factorization": 261,
    }),
    fstar: (21_664, {
        "adjunction": 137, "embedding-three-ways": 15, "preimage-open-closed": 110,
        "embedding-factorization": 193, "sum-injections": 422,
    }),
    adjoint: (21_664, {"adjunction": 115, "embedding-three-ways": 15, "embedding-factorization": 179}),
}


def test_the_capped_suite_is_clean_without_a_fault():
    rep = run_morphism_suite(max_size=4)
    assert (rep.cases, rep.violations) == (21_664, [])


@pytest.mark.parametrize("fault", CAUGHT, ids=lambda fault: fault.__name__)
def test_each_fault_is_caught_with_its_counts(monkeypatch, fault):
    fault(monkeypatch)
    rep = run_morphism_suite(max_size=4)
    assert (rep.cases, Counter(v.law for v in rep.violations)) == CAUGHT[fault]


def test_a_pushes_fault_on_a_source_without_points_stops_the_suite(monkeypatch):
    _view(monkeypatch, "pushes", lambda f, t: t[:-1] + (t[-1] ^ 1,))
    with pytest.raises(IndexError):
        run_morphism_suite(max_size=4)


def heyting(monkeypatch):
    real = Frame.heyting
    monkeypatch.setattr(
        Frame, "heyting", lambda fr, u, h: fr.bottom if u == fr.top and h != fr.top else real(fr, u, h)
    )


def entanglement(monkeypatch):
    real = sublocales.entanglement

    def fault(a, b):
        return sublocales.closure(a) if not b.points else real(a, b)

    _patch_every_binding(monkeypatch, real, fault)


# (cases, violations by law) of each fault in the capped sublocale suite
PART_CAUGHT = {
    heyting: (42_404, {"meet-nucleus-form": 148, "boolean-opens": 10}),
    entanglement: (42_404, {"entanglement-zone": 96}),
}


def test_the_capped_sublocale_suite_is_clean_without_a_fault():
    rep = run_sublocale_suite(max_size=4)
    assert (rep.cases, rep.violations) == (42_404, [])


@pytest.mark.parametrize("fault", PART_CAUGHT, ids=lambda fault: fault.__name__)
def test_each_part_fault_is_caught_with_its_counts(monkeypatch, fault):
    fault(monkeypatch)
    rep = run_sublocale_suite(max_size=4)
    assert (rep.cases, Counter(v.law for v in rep.violations)) == PART_CAUGHT[fault]


def _dropped(fr):
    """fr with the lowest bit of its middle element's point set dropped."""
    sets = list(fr.primes_above)
    sets[len(sets) // 2] &= sets[len(sets) // 2] - 1
    return Frame._of_points(fr.elements, fr.primes, sets)


def topology_points(monkeypatch):
    real = Frame.from_topology.__func__

    def fault(cls, tspec):
        fr = real(cls, tspec)
        out = _dropped(fr)
        out.opens, out.point_names, out.point_primes = fr.opens, fr.point_names, fr.point_primes
        return out

    monkeypatch.setattr(Frame, "from_topology", classmethod(fault))


def fixpoint_points(monkeypatch):
    real = sublocales.fixpoint_frame

    def fault(x):
        if x._fixpoint_frame is None:
            omega, fix = real(x)
            x._fixpoint_frame = _dropped(omega), fix
        return x._fixpoint_frame

    _patch_every_binding(monkeypatch, real, fault)


# (suite, fault) -> (cases, violations by law) of the suite capped at 4
# elements, or the exception that stops it
POINT_CAUGHT = {
    (run_frame_suite, topology_points): (2_618, {
        "boolean-definition": 8, "heyting-adjunction": 20, "finite-regular-is-boolean": 4,
    }),
    (run_sublocale_suite, topology_points): (41_728, {
        "closure-interior-extremal": 44, "subspace-laws": 92, "exterior-partition": 32,
        "generic-dense": 4, "boolean-generic-whole": 4, "boolean-opens": 12,
    }),
    (run_morphism_suite, topology_points): ValueError,
    (run_measure_suite, topology_points): KeyError,
    (run_frame_suite, fixpoint_points): (2_618, {}),
    (run_sublocale_suite, fixpoint_points): (42_404, {}),
    (run_morphism_suite, fixpoint_points): (21_664, {"embedding-factorization": 141}),
    (run_measure_suite, fixpoint_points): KeyError,
}


@pytest.mark.parametrize("suite,fault", POINT_CAUGHT, ids=lambda f: f.__name__)
def test_each_point_fault_is_caught_with_its_counts(monkeypatch, suite, fault):
    fault(monkeypatch)
    want = POINT_CAUGHT[suite, fault]
    if isinstance(want, type):
        with pytest.raises(want):
            suite(max_size=4)
    else:
        rep = suite(max_size=4)
        assert (rep.cases, Counter(v.law for v in rep.violations)) == want


def test_a_topology_point_fault_stops_the_whole_frame_suite(monkeypatch):
    topology_points(monkeypatch)
    with pytest.raises(KeyError):
        run_frame_suite()

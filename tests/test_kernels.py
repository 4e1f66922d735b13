"""The byte kernels of the law suites against the scalar loops they
replace (tests/scalar_laws.py): the same (cases, witnesses), in the same
order, on every corpus map and lattice, with intact tables, with one
planted flipped bit, and past 256 parts, where the laws fall back to
their scalar loops."""

from __future__ import annotations

import itertools
import random

import pytest

import scalar_laws
from locale_lab import laws
from locale_lab.corpus import chain_spec, iter_corpus_frames
from locale_lab.frames import build_frame
from locale_lab.laws import SubLattice, _Mapped, _iso_reps
from locale_lab.morphisms import enumerate_morphisms, identity_morphism, right_adjoint

UNCONFIRMED = [{"form": "byte kernel mismatch the scalar loop did not confirm"}]
MAP_LAWS = {law.name: law for law in laws.MAP_LAWS if law.name in scalar_laws.MAP_ORACLES}
LATTICE_LAWS = {
    law.name: law
    for law in laws.LATTICE_LAWS + laws.PART_LAWS
    if law.name in scalar_laws.LATTICE_ORACLES
}
# which law reads each table a fault is planted in
PLANTED = {"pre": "preimage-union-meet", "img": "image-union", "adj": "adjunction"}


@pytest.fixture(scope="module")
def corpus_maps():
    """Every map between the morphism suite's representatives, with its
    source and target lattices."""
    reps, _ = _iso_reps([(nm, fr) for nm, fr in iter_corpus_frames() if fr.n <= 8])
    lats = {nm: SubLattice(fr) for nm, fr in reps}
    return [
        _Mapped(f, lats[an], lats[bn])
        for (an, a), (bn, b) in itertools.product(reps, repeat=2)
        for f in enumerate_morphisms(a, b)
    ]


def flip(m, table: str, pos: int, bit: int):
    """Flip one bit of m's pre, img or adjoint table; returns the undo."""
    if table == "adj":
        old = right_adjoint(m.f)
        planted = list(old)
        planted[pos % len(planted)] ^= 1 << bit
        m.f._adjoint = tuple(planted)
        return lambda: setattr(m.f, "_adjoint", old)
    old = getattr(m, table)
    planted = list(old)
    planted[pos % len(planted)] ^= 1 << bit
    setattr(m, table, planted)
    return lambda: setattr(m, table, old)


def test_the_oracles_cover_every_kernel():
    assert set(MAP_LAWS) == set(scalar_laws.MAP_ORACLES)
    assert set(LATTICE_LAWS) == set(scalar_laws.LATTICE_ORACLES)


def test_map_kernels_match_the_scalar_loops(corpus_maps):
    assert len(corpus_maps) == 1490
    for m in corpus_maps:
        for name, law in MAP_LAWS.items():
            assert law.check(m) == scalar_laws.MAP_ORACLES[name](m), name


def test_map_kernels_match_the_scalar_loops_on_a_planted_fault(corpus_maps):
    # bits 0-8: most flips stay within a byte and reach the kernel; bit 8
    # pushes the value past 255, where the scalar loop runs alone
    rng = random.Random(15)
    found = 0
    for m in corpus_maps:
        for table, name in PLANTED.items():
            undo = flip(m, table, rng.randrange(256), rng.randrange(9))
            try:
                got = MAP_LAWS[name].check(m)
                assert got == scalar_laws.MAP_ORACLES[name](m), (table, name)
                found += bool(got[1])
            finally:
                undo()
    # most planted faults break their law
    assert found > len(corpus_maps)


def test_lattice_kernels_match_the_scalar_loops():
    for _, fr in iter_corpus_frames():
        L = SubLattice(fr)
        for name, law in LATTICE_LAWS.items():
            assert law.check(L) == scalar_laws.LATTICE_ORACLES[name](L), name


def test_above_256_parts_the_scalar_loops_run():
    f = identity_morphism(build_frame(chain_spec(10)))
    L = SubLattice(f.source)
    assert len(L.subs) == 512
    assert L.ordered_pairs is None and L.unordered_pairs is None
    m = _Mapped(f, L, L)
    for name, law in MAP_LAWS.items():
        assert law.check(m) == scalar_laws.MAP_ORACLES[name](m) == (law.check(m)[0], [])
    for table, name in PLANTED.items():
        undo = flip(m, table, 37, 2)
        try:
            got = MAP_LAWS[name].check(m)
            assert got == scalar_laws.MAP_ORACLES[name](m)
            assert got[1], (table, name)
        finally:
            undo()


def test_an_unconfirmed_kernel_mismatch_is_a_violation(monkeypatch, corpus_maps):
    m = next(m for m in reversed(corpus_maps) if m.f.source is not m.f.target)
    cases = {name: law.check(m)[0] for name, law in MAP_LAWS.items()}
    # a gather that reads i | j as 1 everywhere: the scalar loop finds nothing
    monkeypatch.setattr(laws, "_gather", lambda L, table: [0, 0, 1, 0])
    for name in ("preimage-union-meet", "image-union"):
        assert MAP_LAWS[name].check(m) == (cases[name], UNCONFIRMED)
    monkeypatch.setattr(m.f.source, "up_bytes", [bytes(256)] * m.f.source.n)
    assert MAP_LAWS["adjunction"].check(m) == (cases["adjunction"], UNCONFIRMED)

    L = SubLattice(build_frame(chain_spec(4)))
    intact = {name: law.check(L) for name, law in LATTICE_LAWS.items()}
    assert all(bad == [] for _, bad in intact.values())
    b1, b2, bm, ones = L.unordered_pairs
    L.unordered_pairs = (b1, b2, bm ^ 1, ones)
    for name, law in LATTICE_LAWS.items():
        assert law.check(L) == (intact[name][0], UNCONFIRMED)

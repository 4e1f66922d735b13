"""The byte kernels of the law suites against the scalar loops they
replace (tests/scalar_laws.py): the same (cases, witnesses), in the same
order, on every corpus map and lattice, with intact tables, with one
planted flipped bit, and past 256 parts, where the laws fall back to
their scalar loops. Likewise the finite-measure laws on integer tables
against their Fraction bodies, with intact tables and with one planted
entry, and the composition law on maps enumerated once against its body
that enumerates every triple anew, intact and with one planted composite."""

from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

import scalar_laws
from locale_lab import laws
from locale_lab.corpus import boolean_spec, chain_spec, iter_corpus_frames
from locale_lab.frames import build_frame
from locale_lab.laws import SubLattice, _boolean_valuations, _iso_reps, _Mapped, _scaled, _Valued
from locale_lab.measure import FiniteValuation, ValuationError
from locale_lab.morphisms import FrameMorphism, enumerate_morphisms, identity_morphism, right_adjoint

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


@pytest.fixture(scope="module")
def small_ctx():
    """The composition laws' context: the representatives with at most 4
    elements, their lattices, and every map between them."""
    reps, _ = _iso_reps([(nm, fr) for nm, fr in iter_corpus_frames() if fr.n <= 8])
    small = [(nm, fr) for nm, fr in reps if fr.n <= 4]
    lats = {nm: SubLattice(fr) for nm, fr in small}
    maps = {
        (an, bn): enumerate_morphisms(a, b)
        for (an, a), (bn, b) in itertools.product(small, repeat=2)
    }
    return small, lats, maps


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
    assert {law.name for law in laws.COMPOSITION_LAWS} >= set(scalar_laws.COMPOSITION_ORACLES)
    assert set(LATTICE_LAWS) == set(scalar_laws.LATTICE_ORACLES)
    assert [law.name for law in laws.FINITE_MEASURE_LAWS] == list(scalar_laws.MEASURE_ORACLES)


def test_map_kernels_match_the_scalar_loops(corpus_maps):
    assert len(corpus_maps) == 1490
    for m in corpus_maps:
        for name, law in MAP_LAWS.items():
            assert law.check(m) == scalar_laws.MAP_ORACLES[name](m), name


def test_map_tables_are_the_maps_own_read_only_lifts(corpus_maps):
    for m in corpus_maps:
        assert m.pre is m.f.pulls and m.img is m.f.pushes
        assert type(m.pre) is tuple and type(m.img) is tuple
    with pytest.raises(TypeError):
        corpus_maps[0].pre[0] = 1


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


@pytest.fixture(scope="module")
def valued():
    """Every corpus frame of at most 10 elements with each of its
    `_boolean_valuations`, Boolean or not, as (label, integer context,
    Fraction context)."""
    out = []
    for nm, fr in iter_corpus_frames():
        if fr.n <= 10:
            L = SubLattice(fr)
            for vi, val in enumerate(_boolean_valuations(fr)):
                out.append((f"{nm}/mu{vi}", _Valued(L, val), scalar_laws.Valued(L, val)))
    return out


def outcome(check, ctx):
    """(cases, witnesses), or the ValuationError raised, by type and text."""
    try:
        return check(ctx)
    except ValuationError as exc:
        return type(exc).__name__, str(exc)


def test_integer_measure_laws_match_the_fraction_bodies(valued):
    assert len(valued) == 128
    witnesses = raises = 0
    for label, ints, fracs in valued:
        assert [Fraction(x, ints.den) for x in ints.out] == fracs.out, label
        for law in laws.FINITE_MEASURE_LAWS:
            got = outcome(law.check, ints)
            assert got == outcome(scalar_laws.MEASURE_ORACLES[law.name], fracs), (label, law.name)
            if isinstance(got[0], str):
                raises += 1
            else:
                witnesses += len(got[1])
    # the non-Boolean frames break laws, so witnesses are compared too
    assert witnesses > 2000 and raises > 0


def test_integer_measure_laws_match_the_fraction_bodies_on_a_planted_entry(valued):
    # one table entry one unit low on the integer side is the same entry
    # 1/den low on the Fraction side
    rng = random.Random(19)
    broken = dict.fromkeys(scalar_laws.MEASURE_ORACLES, 0)
    filtered_sup = 0
    for label, ints, fracs in valued:
        e = rng.randrange(len(ints.out))
        ints, fracs = copy.copy(ints), copy.copy(fracs)
        ints.out = list(ints.out)
        ints.out[e] -= 1
        fracs.out = list(fracs.out)
        fracs.out[e] -= Fraction(1, ints.den)
        for law in laws.FINITE_MEASURE_LAWS:
            got = outcome(law.check, ints)
            assert got == outcome(scalar_laws.MEASURE_ORACLES[law.name], fracs), (label, law.name, e)
            if not isinstance(got[0], str):
                broken[law.name] += bool(got[1])
                filtered_sup += sum(w.get("form") == "filtered sup" for w in got[1])
    # every law that reads the table sees a planted entry somewhere; the
    # filtered-sup check of relative-modularity only ever fails here
    assert all(broken[name] for name in broken if name != "restriction-valid"), broken
    assert filtered_sup > 0


def test_the_integer_table_is_never_truncated():
    fr = build_frame(boolean_spec(2))
    val = FiniteValuation(fr, (Fraction(1, 2), Fraction(1, 3)))
    den = lcm(*(q.denominator for q in val.mu))
    assert den == 6
    assert _scaled(val.mu, den) == [int(q * den) for q in val.mu]
    without_last = lcm(*(q.denominator for q in val.mass[:-1]))
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        _scaled(val.mu, without_last)


COMPOSITION = next(law for law in laws.COMPOSITION_LAWS if law.name == "composition")


def test_composition_matches_its_oracle(small_ctx):
    got = COMPOSITION.check(small_ctx)
    assert got == scalar_laws.COMPOSITION_ORACLES["composition"](small_ctx)
    assert got[0] > 0 and got[1] == []


def test_composition_matches_its_oracle_on_a_planted_composite(monkeypatch, small_ctx):
    small, _, maps = small_ctx
    # a composite a -> b -> c whose point map gets one wrong entry
    an, bn, cn = next(
        (an, bn, cn)
        for (an, a), (bn, _), (cn, c) in itertools.product(small, repeat=3)
        if len(a.primes) >= 2 and c.primes and maps[an, bn] and maps[bn, cn]
    )
    f0, g0 = maps[an, bn][-1], maps[bn, cn][0]
    real = laws.compose

    def planted(g, f):
        h = real(g, f)
        if f != f0 or g != g0:
            return h
        points = list(h._points)
        points[0] = (points[0] + 1) % len(h.source.primes)
        return FrameMorphism(h.source, h.target, tuple(points))

    cases = COMPOSITION.check(small_ctx)[0]
    monkeypatch.setattr(laws, "compose", planted)
    monkeypatch.setattr(scalar_laws, "compose", planted)
    got = COMPOSITION.check(small_ctx)
    assert got == scalar_laws.COMPOSITION_ORACLES["composition"](small_ctx)
    assert got[0] == cases and got[1]
    assert {w["path"] for w in got[1]} == {f"{an}->{bn}->{cn}"}

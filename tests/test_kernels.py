"""The byte kernels of the law suites against the scalar loops they
replace (tests/scalar_laws.py): the same (cases, witnesses), in the same
order, on every corpus lattice and on every map, the maps of each pair of
frames checked at once against their oracles map by map, with intact
tables and with one planted flipped bit in each map in turn, some past a
byte, where the map laws run their scalar loops alone. The lattice laws
likewise with the library's Heyting arrow faulted, and with one byte
planted in each table they read, a mismatch no scalar loop confirms: on
every corpus lattice for the six laws that have no scalar loop. A frame
past 256 parts has no part lattice. Likewise the finite-measure laws on
integer tables against their Fraction bodies, with intact tables and
with one planted entry, and the composition law on maps enumerated once
against its body that enumerates every triple anew, intact and with one
planted composite."""

from __future__ import annotations

import copy
import itertools
import operator
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

import scalar_laws
from test_mutants import heyting as heyting_fault
from locale_lab import lattice, map_laws, measure_laws, part_laws
from locale_lab.corpus import boolean_spec, chain_spec, iter_corpus_frames
from locale_lab.frames import FrameError, build_frame
from locale_lab.lattice import SubLattice, _Maps, over_byte
from locale_lab.map_laws import _iso_reps
from locale_lab.measure import FiniteValuation, ValuationError
from locale_lab.measure_laws import _boolean_valuations, _scaled, _Valued
from locale_lab.morphisms import FrameMorphism, enumerate_morphisms, right_adjoint

UNCONFIRMED = {"form": "byte kernel mismatch the scalar loop did not confirm"}
MAP_LAWS = {law.name: law for law in map_laws.MAP_LAWS}
LATTICE_LAWS = {
    law.name: law
    for law in map_laws.LATTICE_LAWS + part_laws.PART_LAWS
    if law.name in scalar_laws.LATTICE_ORACLES
}
# the laws that read each table a fault is planted in, by its slot on the
# map
PLANTED = {
    "_back": ("preimage-union-meet", "preimage-open-closed", "image-preimage-galois"),
    "_forward": ("image-union", "image-preimage-galois"),
    "_fstar": ("adjunction", "embedding-three-ways", "preimage-open-closed"),
    "_adjoint": ("adjunction", "embedding-three-ways"),
}


@pytest.fixture(scope="module")
def corpus_pairs():
    """For every ordered pair of the morphism suite's representatives, the
    maps between them with their source and target lattices, every table
    of every map built."""
    reps, _ = _iso_reps([(nm, fr) for nm, fr in iter_corpus_frames() if fr.n <= 8])
    lats = {nm: SubLattice(fr) for nm, fr in reps}
    pairs = []
    for (an, a), (bn, b) in itertools.product(reps, repeat=2):
        fs = enumerate_morphisms(a, b)
        for f in fs:
            f.pulls, f.pushes, f.fstar, right_adjoint(f)
        pairs.append((f"{an}->{bn}", fs, lats[an], lats[bn]))
    return pairs


@pytest.fixture(params=[lattice.GATHER_BYTES, 8 << 10], ids=["default-budget", "runs-of-8"])
def gather_bytes(request, monkeypatch):
    """The byte budget of a pair kernel's runs of maps: the default, which
    holds every corpus pair in one run, and one that cuts chain6 -> chain6's
    126 maps, 32 parts each side, into runs of 8."""
    monkeypatch.setattr(lattice, "GATHER_BYTES", request.param)
    return request.param


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


def by_oracle(name, fs, FL, EL):
    """The oracle of map law `name` on each map in turn: the cases summed,
    and each witness with its map's index, as the pair kernels give them."""
    cases, bad = 0, []
    for mi, f in enumerate(fs):
        c, b = scalar_laws.MAP_ORACLES[name](f, FL, EL)
        cases += c
        bad += [(mi, w) for w in b]
    return cases, bad


def map_outcome(check, *args):
    """(cases, witnesses), or the IndexError raised, by type: a table
    value planted out of range is read as an index by both sides."""
    try:
        return check(*args)
    except IndexError as exc:
        return type(exc).__name__


def flip(f, slot: str, pos: int, bit: int):
    """Flip one bit of the table f keeps in `slot`; returns the undo."""
    old = getattr(f, slot)
    planted = list(old)
    planted[pos % len(planted)] ^= 1 << bit
    setattr(f, slot, tuple(planted))
    return lambda: setattr(f, slot, old)


def test_the_oracles_cover_every_kernel():
    assert set(MAP_LAWS) == set(scalar_laws.MAP_ORACLES)
    assert {law.name for law in map_laws.COMPOSITION_LAWS} >= set(scalar_laws.COMPOSITION_ORACLES)
    assert set(LATTICE_LAWS) == set(scalar_laws.LATTICE_ORACLES)
    planted = {name for names in LATTICE_PLANTS.values() for name in names}
    assert planted == set(LATTICE_LAWS) - {"entanglement-zone"}
    assert [law.name for law in measure_laws.FINITE_MEASURE_LAWS] == list(scalar_laws.MEASURE_ORACLES)


def test_map_kernels_match_the_scalar_loops(corpus_pairs, gather_bytes):
    assert len(corpus_pairs) == 121
    assert sum(len(fs) for _, fs, _, _ in corpus_pairs) == 1490
    # a frame with more points than another has no map onto it
    assert sum(not fs for _, fs, _, _ in corpus_pairs) > 0
    _, fs, FL, EL = max(corpus_pairs, key=lambda p: len(p[1]))
    runs = [len(run.fs) for run in _Maps(fs, FL, EL).runs]
    # runs of the budget over 32^2 parts' worth of maps, or all 126
    assert sum(runs) == 126 and max(runs) == min(126, gather_bytes // 32 ** 2)
    for label, fs, FL, EL in corpus_pairs:
        maps = _Maps(fs, FL, EL)
        for name, law in MAP_LAWS.items():
            assert law.check(maps) == by_oracle(name, fs, FL, EL), (label, name)
            if not fs:
                assert law.check(maps) == (0, [])


def test_map_tables_are_the_maps_own_read_only_lifts(corpus_pairs):
    for _, fs, FL, EL in corpus_pairs:
        maps = _Maps(fs, FL, EL)
        for mi, f in enumerate(fs):
            assert type(f.pulls) is tuple and type(f.pushes) is tuple
            assert maps.pulls[mi] == bytes(f.pulls).ljust(256, b"\0")
            assert maps.pushes[mi] == bytes(f.pushes).ljust(256, b"\0")
            assert maps.fstar[mi] == bytes(f.fstar)
            assert maps.adjoint[mi] == bytes(right_adjoint(f))
    with pytest.raises(TypeError):
        corpus_pairs[0][1][0].pulls[0] = 1


def spliced(per_map, mi, f, name, FL, EL):
    """The oracle of map law `name` on a pair whose map `mi`, f, is
    planted: the intact maps' results `per_map`, with map mi's read anew."""
    per_map = per_map[:mi] + [scalar_laws.MAP_ORACLES[name](f, FL, EL)] + per_map[mi + 1:]
    return sum(c for c, _ in per_map), [(i, w) for i, (_, b) in enumerate(per_map) for w in b]


def test_map_kernels_match_the_scalar_loops_on_a_planted_fault(corpus_pairs):
    # every map of every pair gets one flipped bit in each of its tables in
    # turn, at most one bit past the last index the table may hold: most
    # flips stay in range and reach the pair kernel. One plant of each pair
    # flips bit 8 instead, a value past 255, where the scalar loops run alone
    rng = random.Random(15)
    checks = found = reached = tables = wide = 0
    for label, fs, FL, EL in corpus_pairs:
        if not fs:
            continue
        intact = {
            name: [scalar_laws.MAP_ORACLES[name](f, FL, EL) for f in fs]
            for name in MAP_LAWS
        }
        limits = {
            "_back": len(EL.subs), "_forward": len(FL.subs), "_fstar": EL.frame.n, "_adjoint": FL.frame.n
        }
        past = (rng.randrange(len(fs)), rng.choice(list(PLANTED)))
        for mi, f in enumerate(fs):
            for slot, names in PLANTED.items():
                bit = 8 if (mi, slot) == past else rng.randrange((limits[slot] - 1).bit_length() + 1)
                undo = flip(f, slot, rng.randrange(256), bit)
                try:
                    wide += max(getattr(f, slot)) > 255
                    maps = _Maps(fs, FL, EL)
                    tables += 1
                    reached += maps.bytewise
                    for name in names:
                        got = map_outcome(MAP_LAWS[name].check, maps)
                        want = map_outcome(spliced, intact[name], mi, f, name, FL, EL)
                        assert got == want, (label, mi, slot, name)
                        if isinstance(got, tuple):
                            # the other maps are intact: each witness names the planted one
                            assert {i for i, _ in got[1]} <= {mi}, (label, slot, name)
                            found += bool(got[1])
                        checks += 1
                finally:
                    undo()
    # every map of the 126-map chain6 -> chain6 pair among them
    assert max(len(fs) for _, fs, _, _ in corpus_pairs) == 126
    assert tables == 4 * 1490 and wide >= 111
    # most planted faults reach the kernels, and most break their law
    assert reached > tables // 2
    assert found > checks // 2


def test_a_failing_run_is_halved_down_to_its_faulty_map(monkeypatch, corpus_pairs, gather_bytes):
    # chain6 to itself: one flipped fstar bit in one of its 126 maps. Each
    # law's kernel fails on the run that holds the map, then on one half at
    # each halving, down to the map alone: about 2 log2(126) kernel calls
    # past the pair's runs, and one scan, of the planted map
    _, fs, FL, EL = max(corpus_pairs, key=lambda p: len(p[1]))
    mi = 77
    calls, scanned = [], []
    each_map = map_laws._each_map

    def counting(maps, per_map, kernel, scan):
        calls.append(0)
        scanned.append([])

        def counted(run):
            calls[-1] += 1
            return kernel(run)

        def recorded(f):
            scanned[-1].append(fs.index(f))
            return scan(f)

        return each_map(maps, per_map, counted, recorded)

    monkeypatch.setattr(map_laws, "_each_map", counting)
    intact = {name: [scalar_laws.MAP_ORACLES[name](f, FL, EL) for f in fs] for name in PLANTED["_fstar"]}
    undo = flip(fs[mi], "_fstar", 3, 0)
    try:
        maps = _Maps(fs, FL, EL)
        runs = len(maps.runs)
        assert runs == (16 if gather_bytes == 8 << 10 else 1)
        # the planted map is in a run of 126 maps, or of 8
        depth = 7 if runs == 1 else 3
        broken = set()
        for k, name in enumerate(PLANTED["_fstar"]):
            got = MAP_LAWS[name].check(maps)
            assert got == spliced(intact[name], mi, fs[mi], name, FL, EL), name
            if got[1]:
                broken.add(name)
                assert {i for i, _ in got[1]} == {mi}, name
                assert runs + 2 * (depth - 1) <= calls[k] <= runs + 2 * depth, name
                assert scanned[k] == [mi], name
            else:  # a kernel that holds reads each run once and scans nothing
                assert (calls[k], scanned[k]) == (runs, []), name
        assert broken == {"adjunction", "preimage-open-closed"}
    finally:
        undo()


def test_lattice_kernels_match_the_scalar_loops():
    for _, fr in iter_corpus_frames():
        L = SubLattice(fr)
        for name, law in LATTICE_LAWS.items():
            assert law.check(L) == scalar_laws.LATTICE_ORACLES[name](L), name


def test_a_part_lattice_past_a_byte_is_refused():
    # one part per set of points: the 9-chain has 256, the 10-chain 512
    chain9, chain10 = build_frame(chain_spec(9)), build_frame(chain_spec(10))
    assert over_byte(chain9) is None
    assert over_byte(chain10) == "512 parts over the byte limit 256"
    with pytest.raises(FrameError) as refused:
        SubLattice(chain10)
    assert str(refused.value) == "no part lattice: 512 parts over the byte limit 256"


def test_an_unconfirmed_kernel_mismatch_is_a_violation(monkeypatch, corpus_pairs, gather_bytes):
    # chain6 to itself: 126 maps, the identity among them; each kernel is
    # fed a layout the maps' own tables do not have, so no scalar loop
    # confirms its mismatch. The tables are planted on a fresh pair before
    # its runs are first read, so they reach every run of its maps;
    # however many runs fail, the pair has one violation
    _, fs, FL, EL = max(corpus_pairs, key=lambda p: len(p[1]))
    cases = {name: law.check(_Maps(fs, FL, EL))[0] for name, law in MAP_LAWS.items()}
    unconfirmed = {name: (cases[name], [(None, UNCONFIRMED)]) for name in MAP_LAWS}
    maps = _Maps(fs, FL, EL)
    # fstar read as bottom everywhere, the adjoint as bottom, images as empty
    maps.fstar = [bytes(len(row)) for row in maps.fstar]
    maps.adjoint = [bytes(len(row)) for row in maps.adjoint]
    maps.pushes = [bytes(256)] * len(fs)
    for name in ("preimage-open-closed", "embedding-three-ways", "image-preimage-galois"):
        assert MAP_LAWS[name].check(maps) == unconfirmed[name]
    # a gather that reads i | j as 1 everywhere
    monkeypatch.setattr(map_laws, "_gather", lambda cols, tables: [0, 0, 1, 0][: len(cols)])
    for name in ("preimage-union-meet", "image-union"):
        assert MAP_LAWS[name].check(maps) == unconfirmed[name]
    # an order read as equality: v <= x only for x = v
    monkeypatch.setattr(FL, "up_rows", [bytes(x == y for y in range(256)) for x in range(FL.frame.n)])
    assert MAP_LAWS["adjunction"].check(maps) == unconfirmed["adjunction"]


def test_every_map_law_reads_the_same_runs(monkeypatch, corpus_pairs, gather_bytes):
    # chain6 to itself: the pair's tables are sliced into runs once, and
    # each of the six map laws reads those very runs: one of all 126 maps
    # at the default budget, or runs of at most 8
    _, fs, FL, EL = max(corpus_pairs, key=lambda p: len(p[1]))
    read = []
    each_map = map_laws._each_map

    def recording(maps, per_map, kernel, scan):
        read.append([])
        return each_map(maps, per_map, lambda run: read[-1].append(run) or kernel(run), scan)

    monkeypatch.setattr(map_laws, "_each_map", recording)
    maps = _Maps(fs, FL, EL)
    assert all(law.check(maps)[1] == [] for law in MAP_LAWS.values())
    assert len(read) == 6
    assert all(len(runs) == len(read[0]) and all(map(operator.is_, runs, read[0])) for runs in read)
    assert [len(run.fs) for run in read[0]] == ([8] * 15 + [6] if gather_bytes == 8 << 10 else [126])


def test_the_map_laws_on_chain8_gather_in_bounded_runs():
    # chain8 to itself: 1,716 maps over 128 parts, whose gathered columns
    # would each hold 1,716 * 128^2 bytes, 27 MiB, in one run
    fr = build_frame(chain_spec(8))
    L = SubLattice(fr)
    fs = enumerate_morphisms(fr, fr)
    assert (len(fs), len(L.subs)) == (1716, 128)
    tracemalloc.start()
    try:
        maps = _Maps(fs, L, L)
        got = {law.name: law.check(maps) for law in map_laws.MAP_LAWS}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == {
        "adjunction": (109_824, []),
        "embedding-three-ways": (1_716, []),
        "preimage-open-closed": (27_456, []),
        "preimage-union-meet": (56_229_888, []),
        "image-union": (28_114_944, []),
        "image-preimage-galois": (439_296, []),
    }
    assert peak < 48 << 20


def _set_byte(row: bytes, pos: int, value: int) -> bytes:
    return row[:pos] + bytes([value]) + row[pos + 1:]


def _plant_pairs(L):
    # the meet of the last pair i < j read one bit off
    b1, b2, bm, ones = L.unordered_pairs
    L.unordered_pairs = (b1, b2, bm ^ 1, ones)


def _plant_ordered(L):
    # the union of the first ordered pair and the meet of the last, each
    # read one bit off
    i, j, union, meet = L.ordered_pairs
    L.ordered_pairs = (i, j, _set_byte(union, 0, union[0] ^ 1), _set_byte(meet, len(meet) - 1, meet[-1] ^ 1))


def _plant_packed(L):
    # the union of the last ordered pair, the whole with itself, read one bit off
    i, j, union, meet, ones = L.packed_pairs
    L.packed_pairs = (i, j, union ^ 1, meet, ones)


def _plant_union_inside_bounds(L):
    # the union of the empty part with itself read as part 1: its bounds
    # hold, so only the least-upper-bound rows catch it
    i, j, union, meet, ones = L.packed_pairs
    L.packed_pairs = (i, j, union | 1 << 8 * (len(L.subs) ** 2 - 1), meet, ones)


def _plant_meet_inside_bounds(L):
    # the meet of the whole with itself read one point short: its bounds
    # hold, so only the greatest-lower-bound rows catch it
    i, j, union, meet, ones = L.packed_pairs
    L.packed_pairs = (i, j, union, meet ^ 1, ones)


def _plant_nucleus(L):
    # the nucleus of the empty part read as bottom at the top
    fr = L.frame
    L.nucleus_rows = [_set_byte(L.nucleus_rows[0], fr.top, fr.bottom), *L.nucleus_rows[1:]]


def _plant_heyting(L):
    # top => top read as bottom
    fr = L.frame
    rows = list(L.heyting_rows)
    rows[fr.top] = _set_byte(rows[fr.top], fr.top, fr.bottom)
    L.heyting_rows = rows


def _plant_join(L):
    # top v bottom read as bottom
    fr = L.frame
    rows = list(L.join_rows)
    rows[fr.bottom] = _set_byte(rows[fr.bottom], fr.top, fr.bottom)
    L.join_rows = rows


# a byte planted in each table the lattice kernels read, and the laws that
# read it; entanglement-zone has no byte kernel: it reads bit masks, and
# the library's entanglement of every pair
LATTICE_PLANTS = {
    _plant_pairs: ("join-over-meet", "meets-join-product"),
    _plant_ordered: ("meet-nucleus-form",),
    _plant_packed: (
        "boolean-combination-distributivity", "side-distributivity",
        "union-lub-intersect-glb", "meet-over-union-search",
    ),
    _plant_union_inside_bounds: (
        "boolean-combination-distributivity", "side-distributivity",
        "union-lub-intersect-glb", "meet-over-union-search",
    ),
    _plant_meet_inside_bounds: ("union-lub-intersect-glb", "meet-nucleus-form"),
    _plant_nucleus: ("meet-nucleus-form",),
    _plant_heyting: ("meet-nucleus-form",),
    _plant_join: ("meet-nucleus-form",),
}


# the lattice laws whose kernels compare identities of `|` and `&` on
# point masks: no scalar loop could name a witness, so a mismatch can only
# be a table fault
KERNEL_ONLY = (
    "side-distributivity", "union-lub-intersect-glb", "join-over-meet",
    "meet-over-union-search", "meets-join-product", "boolean-combination-distributivity",
)


@pytest.fixture(scope="module")
def kernel_only_cases():
    """The cases of each KERNEL_ONLY law on each corpus lattice with a
    point, intact: a frame without points has one part, and the plants
    set bits no case of it reads."""
    cases = {}
    for nm, fr in iter_corpus_frames():
        if fr.primes:
            L = SubLattice(fr)
            results = {name: LATTICE_LAWS[name].check(L) for name in KERNEL_ONLY}
            assert all(bad == [] for _, bad in results.values()), nm
            cases[nm] = {name: c for name, (c, _) in results.items()}
    return cases


@pytest.mark.parametrize("plant", LATTICE_PLANTS, ids=lambda plant: plant.__name__)
def test_an_unconfirmed_lattice_kernel_mismatch_is_a_violation(plant, kernel_only_cases):
    # each plant goes into a fresh lattice, so tables derived from the
    # planted one on first read are derived from the plant; the scalar
    # loops read the library, not the tables, and confirm nothing
    fr = build_frame(chain_spec(4))
    intact = {name: law.check(SubLattice(fr)) for name, law in LATTICE_LAWS.items()}
    assert all(bad == [] for _, bad in intact.values())
    L = SubLattice(fr)
    plant(L)
    for name, law in LATTICE_LAWS.items():
        want = (intact[name][0], [UNCONFIRMED]) if name in LATTICE_PLANTS[plant] else intact[name]
        assert law.check(L) == want, name
    # the laws without a scalar loop, on every corpus lattice with a point
    assert len(kernel_only_cases) == 42
    for nm, fr in iter_corpus_frames():
        if nm in kernel_only_cases:
            L = SubLattice(fr)
            plant(L)
            for name in KERNEL_ONLY:
                cases = kernel_only_cases[nm][name]
                want = (cases, [UNCONFIRMED] if name in LATTICE_PLANTS[plant] else [])
                assert LATTICE_LAWS[name].check(L) == want, (nm, name)


def test_entanglement_zone_matches_its_oracle_on_a_planted_closure():
    # the closure of each part in turn read as each other closed part: its
    # bit masks are derived from the planted closures, as the oracle reads them
    fr = build_frame(chain_spec(4))
    intact = SubLattice(fr)
    forms = set()
    for x, g in itertools.product(range(len(intact.subs)), intact.closed_parts):
        if g == intact.closure_idx[x]:
            continue
        L = SubLattice(fr)
        L.closure_idx = [g if i == x else c for i, c in enumerate(L.closure_idx)]
        got = LATTICE_LAWS["entanglement-zone"].check(L)
        assert got == scalar_laws.LATTICE_ORACLES["entanglement-zone"](L), (x, g)
        forms |= {w["form"] for w in got[1]}
    assert forms == {"closure of the meet", "zone not dense in itself", "not largest"}


def test_lattice_laws_match_the_scalar_loops_with_a_faulted_heyting_arrow(monkeypatch):
    # with the library's Heyting arrow faulted the row form of
    # meet-nucleus-form fails and its loop names the oracle's witnesses.
    # Lattices of at most 16 parts keep the k^4 oracles short
    heyting_fault(monkeypatch)
    witnesses = 0
    for nm, fr in iter_corpus_frames():
        L = SubLattice(fr)
        if len(L.subs) > 16:
            continue
        for name, law in LATTICE_LAWS.items():
            got = law.check(L)
            assert got == scalar_laws.LATTICE_ORACLES[name](L), (nm, name)
            witnesses += len(got[1])
    assert witnesses > 0


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
        for law in measure_laws.FINITE_MEASURE_LAWS:
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
        for law in measure_laws.FINITE_MEASURE_LAWS:
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


COMPOSITION = next(law for law in map_laws.COMPOSITION_LAWS if law.name == "composition")


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
    real = map_laws.compose

    def planted(g, f):
        h = real(g, f)
        if f != f0 or g != g0:
            return h
        points = list(h._points)
        points[0] = (points[0] + 1) % len(h.source.primes)
        return FrameMorphism(h.source, h.target, bytes(points))

    cases = COMPOSITION.check(small_ctx)[0]
    monkeypatch.setattr(map_laws, "compose", planted)
    monkeypatch.setattr(scalar_laws, "compose", planted)
    got = COMPOSITION.check(small_ctx)
    assert got == scalar_laws.COMPOSITION_ORACLES["composition"](small_ctx)
    assert got[0] == cases and got[1]
    assert {w["path"] for w in got[1]} == {f"{an}->{bn}->{cn}"}

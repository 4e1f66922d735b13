"""Acceptance gate: ten criteria, one pass/fail line each.

Run with -s (or read the captured stdout) to see the lines; each
criterion is also one test, so the -v listing mirrors them.
"""

import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from locale_lab.corpus import corpus_root, iter_negative_specs
from locale_lab.frames import (
    Frame,
    FrameError,
    build_frame,
    frame_spec_from_json,
    topology_spec_from_json,
)
from locale_lab.intervals import EMPTY_RO, parse_fin, parse_ratopen
from locale_lab.measure import (
    Lebesgue,
    LebesgueRestrictedTo,
    atomic,
    measure_bounds,
    mu_reduce_interval,
    mu_reduce_open,
    null_partner_interval,
    outer_measure_finite,
    reduced_algebra,
    strict_additivity_check,
    strict_additivity_interval,
    total_measure,
)
from locale_lab.measure_laws import _boolean_valuations, _meets_cell, _random_ratopen
from locale_lab.morphisms import validate_morphism
from locale_lab.presented import (
    RATIONALS,
    Closed,
    CoCountable,
    CountablePoints,
    Generic,
    Open,
    neighborhood,
    point_sublocale_meets_generic,
    structural_union_is_whole,
)
from locale_lab.sublocales import (
    closure,
    enumerate_sublocales,
    generic,
    interior,
    is_dense,
    is_subsublocale,
    open_sublocale,
)

import random

TOL = Fraction(1, 1000)


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        if budget is not None:
            elapsed = time.perf_counter() - t0
            assert elapsed < budget, f"runtime {elapsed:.2f}s over the {budget}s budget"
    except BaseException:
        print(f"criterion {num:2d} {name}: FAIL")
        raise
    print(f"criterion {num:2d} {name}: PASS")


@pytest.fixture(scope="module")
def root():
    return corpus_root()


@pytest.fixture(scope="module")
def corpus_frames(root):
    from locale_lab.corpus import iter_corpus_frames

    return iter_corpus_frames(root)


def test_c01_frame_gate(root):
    with criterion(1, "frame gate", budget=1.0):
        three = sorted((root / "topologies").glob("top-3pt-*.json"))
        assert len(three) == 29
        for p in sorted((root / "topologies").glob("*.json")):
            Frame.from_topology(topology_spec_from_json(json.loads(p.read_text())))
        negs = dict(iter_negative_specs(root))
        assert set(negs) == {"m3", "n5"}
        for stem, spec in negs.items():
            with pytest.raises(FrameError) as e:
                build_frame(spec)
            assert e.value.witness is not None


def test_c02_sublocale_counts(root):
    with criterion(2, "sublocale counts"):
        chain3 = build_frame(
            frame_spec_from_json(json.loads((root / "frames" / "chain3.json").read_text()))
        )
        assert len(enumerate_sublocales(chain3)) == 4
        for name, expected in (("chain1", 1), ("bool1", 2), ("bool2", 4), ("bool3", 8)):
            fr = build_frame(
                frame_spec_from_json(json.loads((root / "frames" / f"{name}.json").read_text()))
            )
            subs = enumerate_sublocales(fr)
            assert len(subs) == expected == fr.n
            opens = {open_sublocale(fr, v).nucleus for v in range(fr.n)}
            assert {s.nucleus for s in subs} == opens


def test_c03_part_laws(sublocale_report):
    with criterion(3, "part law suite", budget=300):
        assert sublocale_report.ok
        assert sublocale_report.violations == []
        assert sublocale_report.cases >= 442_257
        assert sublocale_report.seconds < 300


def test_c04_morphism_laws(morphism_report, sublocale_report):
    with criterion(4, "map law suite", budget=600):
        assert morphism_report.ok and sublocale_report.ok
        assert morphism_report.cases >= 2_201_853
        assert morphism_report.seconds < 600


def test_c05_generic_part(corpus_frames):
    with criterion(5, "generic part"):
        for name, fr in corpus_frames:
            g = generic(fr)
            assert g.nucleus[fr.bottom] == fr.bottom
            for h in range(fr.n):
                assert g.nucleus[h] == fr.neg(fr.neg(h))
                assert g.nucleus[h] == interior(closure(open_sublocale(fr, h)))
            for s in enumerate_sublocales(fr):
                if is_dense(s):
                    assert is_subsublocale(g, s)


def test_c06_finite_measure(measure_report, corpus_frames):
    with criterion(6, "finite measure", budget=300):
        assert measure_report.ok
        assert measure_report.seconds < 300
        boolean = [(n, f) for n, f in corpus_frames if f.boolean]
        assert boolean
        for name, fr in boolean:
            vals = _boolean_valuations(fr)
            if fr.n >= 2:
                assert len(vals) >= 3, name
            subs = enumerate_sublocales(fr)
            val = vals[0]
            for x, y in itertools.combinations(subs, 2):
                assert strict_additivity_check(val, x, y) == 0
            ra = reduced_algebra(val)
            assert ra.frame.boolean
            validate_morphism(fr, ra.frame, ra.quotient.fstar)
            for i in range(ra.frame.n):
                assert ra.valuation(i) == outer_measure_finite(val, ra.reps[i])


def test_c07_interval_measure():
    with criterion(7, "interval measure", budget=30):
        d = Lebesgue()
        bq = measure_bounds(CountablePoints(RATIONALS), d, TOL)
        assert bq.upper <= TOL
        bg = measure_bounds(Generic(), d, TOL)
        assert bg.upper <= TOL
        bi = measure_bounds(CoCountable(RATIONALS), d, TOL)
        assert 1 - TOL <= bi.lower <= bi.upper <= 1
        res = strict_additivity_interval(
            CountablePoints(RATIONALS), CoCountable(RATIONALS), d, TOL
        )
        assert res.lo == res.hi == 0
        rng = random.Random(7)
        for _ in range(100):
            u = _random_ratopen(rng)
            bo = measure_bounds(Open(u), d, TOL)
            bc = measure_bounds(Closed(u), d, TOL)
            assert bo.is_exact and bc.is_exact
            assert bo.upper + bc.upper == total_measure(d)


def test_c08_reduction_examples():
    with criterion(8, "reduction examples"):
        assert mu_reduce_open(Lebesgue(), parse_ratopen("(0,1/2)|(1/2,1)")) == parse_ratopen("(0,1)")
        r = mu_reduce_interval(atomic([(Fraction(1, 2), Fraction(1))]))
        assert isinstance(r, Closed) and r.of_open == parse_ratopen("[0,1/2)|(1/2,1]")
        r2 = mu_reduce_interval(LebesgueRestrictedTo(parse_fin("[0,1/2]")))
        assert isinstance(r2, Closed) and r2.of_open == parse_ratopen("(1/2,1]")


def test_c09_hidden_intersections():
    with criterion(9, "hidden intersections"):
        rats = CountablePoints(RATIONALS)
        irr = CoCountable(RATIONALS)
        # both halves certified dense, so their meet contains the generic
        # part and is itself dense
        de = 16
        for i in range(de):
            a, b = Fraction(i, de), Fraction(i + 1, de)
            assert _meets_cell(rats, a, b)
            assert _meets_cell(irr, a, b)
        assert structural_union_is_whole(rats, irr)
        partner, certs = null_partner_interval(rats, Lebesgue(), TOL)
        assert isinstance(partner, CoCountable)
        assert certs["union"].lower == certs["union"].upper == 1
        assert certs["intersection"].lower == certs["intersection"].upper == 0
        res = strict_additivity_interval(rats, irr, Lebesgue(), TOL)
        assert res.lo == res.hi == 0


def test_c10_footnote_counterexample():
    with criterion(10, "footnote counterexample"):
        probes = RATIONALS.prefix(100)
        for q in probes:
            assert not point_sublocale_meets_generic(q)
        # the generic part is nevertheless nonempty: its canonical
        # neighborhoods are dense (listed point i is covered from stage
        # i + 1 on), unlike the neighborhoods of the genuinely empty part
        stage = neighborhood(Generic(), 6).stage(len(probes))
        assert all(stage.contains(q) for q in probes)
        empty_stage = neighborhood(Open(EMPTY_RO), 6).stage(len(probes))
        assert not any(empty_stage.contains(q) for q in probes)

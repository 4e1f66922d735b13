import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from locale_lab import laws, map_laws, measure, measure_laws, part_laws
from locale_lab.corpus import _frame_json, boolean_spec, chain_spec, corpus_root, generate, iter_corpus_frames
from locale_lab.frames import Frame, FrameError, build_frame, frame_spec_from_json
from locale_lab.lattice import SubLattice, _Maps
from locale_lab.laws import (
    run_frame_suite,
    run_measure_suite,
    run_morphism_suite,
    run_sublocale_suite,
    run_suite,
)
from locale_lab.morphisms import enumerate_morphisms, identity_morphism, right_adjoint
from locale_lab.runner import _forall, format_text, report_from_json, report_to_json, reports_to_json
from locale_lab.sublocales import enumerate_sublocales, intersect, is_subsublocale, union, whole
from small_frames import chain3


def test_frame_suite_green(frame_report):
    assert frame_report.ok
    assert frame_report.violations == []
    assert frame_report.cases >= 10_136


def test_sublocale_suite_green(sublocale_report):
    assert sublocale_report.ok
    assert sublocale_report.cases >= 442_257


def test_sublocale_suite_notes(sublocale_report):
    joined = " ".join(sublocale_report.notes)
    assert "too small" in joined
    # the indiscrete two-point space shows why points are lossy
    assert "strictly below" in joined


def test_morphism_suite_green(morphism_report):
    assert morphism_report.ok
    assert morphism_report.cases >= 2_201_853
    joined = " ".join(morphism_report.notes)
    assert "up to isomorphism" in joined


def test_the_morphism_report_does_not_depend_on_map_order(morphism_report, monkeypatch):
    # the suite reads each list of maps as a set: listed backwards, the
    # maps give the same report, the representatives' as well
    for module in (laws, map_laws):
        monkeypatch.setattr(module, "enumerate_morphisms", lambda a, b: enumerate_morphisms(a, b)[::-1])
    backwards = run_morphism_suite()
    assert dataclasses.replace(backwards, seconds=0) == dataclasses.replace(morphism_report, seconds=0)


def test_measure_suite_green(measure_report):
    assert measure_report.ok
    assert measure_report.cases >= 19_478
    assert measure_report.tolerance == "1/1000"
    joined = " ".join(measure_report.notes)
    assert "-1/2" in joined  # the chain3 residual keeps the gate honest
    assert "zero valuation" in joined


def test_frame_suite_deterministic():
    a, b = run_frame_suite(), run_frame_suite()
    assert a.cases == b.cases
    assert a.violations == b.violations
    assert a.notes == b.notes


def test_report_json_round_trip(frame_report, measure_report):
    for rep in (frame_report, measure_report):
        text = report_to_json(rep)
        again = report_to_json(report_from_json(text))
        assert text == again
        obj = json.loads(text)
        assert obj["suite"] == rep.suite
        assert obj["cases"] == rep.cases


def test_reports_to_json_is_a_list(frame_report):
    obj = json.loads(reports_to_json([frame_report, frame_report]))
    assert isinstance(obj, list) and len(obj) == 2


# `locale-lab laws all --format json | grep -v '"seconds"'`, the one line
# of a report that differs between runs
LAWS_ALL = Path(__file__).with_name("laws_all.json")


def test_the_laws_all_report_is_pinned(frame_report, sublocale_report, morphism_report, measure_report):
    # the whole report, notes, layout and witnesses as well as counts
    text = reports_to_json([frame_report, sublocale_report, morphism_report, measure_report])
    untimed = "".join(ln for ln in text.splitlines(keepends=True) if not ln.lstrip().startswith('"seconds":'))
    assert untimed == LAWS_ALL.read_text()


def test_format_text_layout(frame_report):
    text = format_text(frame_report)
    assert text.startswith("suite: frame\n")
    assert "violations: 0" in text


def test_each_law_is_declared_once():
    # laws imports the other modules' registries it runs: each counts once
    registries = list({
        id(v): v for module in (laws, part_laws, map_laws, measure_laws)
        for k, v in vars(module).items() if k.endswith("_LAWS")
    }.values())
    declared = [law for reg in registries for law in reg]
    assert len(registries) == 10
    assert len({law.name for law in declared}) == len(declared) == 73
    assert all(law.identity and callable(law.check) for law in declared)


def test_the_quantifier_counts_and_names_its_cases():
    # a planted law over an element v and a part X of chain3's lattice, in
    # two forms: one fails at the top element, the other at the whole part
    L = SubLattice(chain3())
    declared = []
    _forall(declared, "planted", "v is not top; X is not the whole", lambda L: (L.frame, L), "vX", {
        "top": lambda L, v, x: v != L.frame.top,
        "whole": lambda L, v, x: x != L.whole_idx,
    }, key="side")
    cases, bad = declared[0].check(L)
    assert cases == 3 * 4 * 2
    # in loop order, v outermost and the form innermost
    assert bad == [
        {"v": "0", "x": "fix(0,u,1)", "side": "whole"},
        {"v": "u", "x": "fix(0,u,1)", "side": "whole"},
        {"v": "1", "x": "fix(1)", "side": "top"},
        {"v": "1", "x": "fix(0,1)", "side": "top"},
        {"v": "1", "x": "fix(u,1)", "side": "top"},
        {"v": "1", "x": "fix(0,u,1)", "side": "top"},
        {"v": "1", "x": "fix(0,u,1)", "side": "whole"},
    ]
    assert all(list(w) == ["v", "x", "side"] for w in bad)
    # one form: no form key, and the letters' order is the loop order
    _forall(declared, "planted-once", "X is not the whole", lambda L: (L.frame, L), "Xv",
            lambda L, x, v: x != L.whole_idx or v)
    assert declared[1].check(L) == (4 * 3, [{"x": "fix(0,u,1)", "v": "0"}])
    assert list(declared[1].check(L)[1][0]) == ["x", "v"]


def test_embedding_three_ways_reports_a_planted_adjoint_fault():
    law = next(law for law in map_laws.MAP_LAWS if law.name == "embedding-three-ways")
    f = identity_morphism(build_frame(chain_spec(3)))
    L = SubLattice(f.source)
    assert law.check(_Maps([f], L, L)) == (1, [])
    adj = list(right_adjoint(f))
    adj[0] = adj[1]
    f._adjoint = tuple(adj)
    assert law.check(_Maps([f], L, L)) == (
        1, [(0, {"surjective": "True", "adjoint injective": "False", "section": "False"})]
    )


def test_run_suite_dispatch():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_tampered_corpus_is_caught(tmp_path):
    generate(tmp_path)
    # a perfectly good frame planted as a negative must be flagged
    shutil.copy(tmp_path / "frames" / "chain2.json", tmp_path / "negative" / "chain2.json")
    # a non-distributive spec planted as a positive must be flagged too
    shutil.copy(tmp_path / "negative" / "m3.json", tmp_path / "frames" / "zz-m3.json")
    rep = run_frame_suite(root=tmp_path)
    assert not rep.ok
    laws = {v.law for v in rep.violations}
    assert laws == {"frame-valid", "negative-rejected"}
    wit = {v.frame: v.witness for v in rep.violations}
    assert "zz-m3" in wit and "chain2" in wit


def test_sublattice_tables_on_chain3():
    root = corpus_root()
    spec = frame_spec_from_json(json.loads((root / "frames" / "chain3.json").read_text()))
    L = SubLattice(build_frame(spec))
    k = len(L.subs)
    assert k == 4
    for i in range(k):
        assert L.subs[i].points == i
        assert i | L.empty_idx == i
        assert i & L.whole_idx == i
        for j in range(k):
            assert L.subs[i | j] == union(L.subs[i], L.subs[j])
            assert L.subs[i & j] == intersect(L.subs[i], L.subs[j])
            assert (i & j == i) == is_subsublocale(L.subs[i], L.subs[j])


def test_part_lattice_scales_past_the_corpus():
    # one part per set of points: 2^11 on the 12-chain, 2^4 on 2^4
    chain12 = build_frame(chain_spec(12))
    assert len(enumerate_sublocales(chain12, max_size=12)) == 2048
    bool16 = build_frame(boolean_spec(4))
    assert bool16.n == 16
    assert len(enumerate_sublocales(bool16, max_size=16)) == 16
    # a part lattice holds up to a byte of parts, 2^8 on the 9-chain
    chain9 = build_frame(chain_spec(9))
    L = SubLattice(chain9)
    assert len(L.subs) == 256
    assert L.whole_idx == 255
    assert L.subs[L.whole_idx] == whole(chain9)
    with pytest.raises(FrameError, match="2048 parts over the byte limit 256"):
        SubLattice(chain12)


def test_a_corpus_past_a_byte_finishes_with_a_note(tmp_path):
    # the 10-chain has 512 parts: the suites skip it with a note, where
    # the lattice laws' scalar loops once ran for minutes. The 9-chain's
    # 256 parts still run every part law by kernel; join-over-meet alone
    # is 256 * (C(256, 2) + C(256, 3)) = 715,816,960 of its cases
    generate(tmp_path)
    base = run_sublocale_suite(root=tmp_path, max_size=10)
    for n in (9, 10):
        (tmp_path / "frames" / f"chain{n}.json").write_text(json.dumps(_frame_json(chain_spec(n))))
    note = "chain10 skipped: 512 parts over the byte limit 256"
    rep = run_sublocale_suite(root=tmp_path, max_size=10)
    assert (rep.cases, rep.violations) == (base.cases + 768_302_229, [])
    assert note in rep.notes
    # the 9-chain's 6,435 maps to itself take seconds, in runs of maps
    # bounded in bytes (the CI's hostile-input step reads them), so the
    # morphism suite here reads the 10-chain beside the small frames only
    (tmp_path / "frames" / "chain9.json").unlink()
    rep = run_morphism_suite(root=tmp_path, max_size=10)
    assert rep.ok and rep.notes[0] == note


def test_size_cap_skips_with_note(tmp_path):
    generate(tmp_path)
    rep = run_sublocale_suite(root=tmp_path, max_size=2)
    assert rep.ok
    assert any("size cap" in n for n in rep.notes)


def test_the_capped_morphism_report_names_each_skipped_frame():
    rep = run_morphism_suite(max_size=4)
    over = [nm for nm, fr in iter_corpus_frames() if fr.n > 4]
    assert len(over) == 16
    for nm in over:
        assert any(n.startswith(f"{nm} skipped:") and "size cap 4" in n for n in rep.notes), nm


@pytest.mark.parametrize("tol, message", [
    ("0", "expected a positive rational, got '0'"),
    ("-1/10", "expected a positive rational, got '-1/10'"),
    ("1e-300", "tolerance '1e-300' is below 2^-100"),
], ids=["0", "-1/10", "1e-300"])
def test_the_measure_suite_refuses_a_bad_tolerance_before_any_law(monkeypatch, tol, message):
    def unreached(*args):
        raise AssertionError("a law ran before the tolerance was checked")

    monkeypatch.setattr(laws, "iter_corpus_frames", unreached)
    with pytest.raises(measure.BadTolerance) as exc:
        run_suite("measure", tol=tol)
    assert str(exc.value) == message


def test_a_tolerance_literal_reads_as_its_fraction_in_the_report(measure_report):
    rep = run_measure_suite(tol="1e-3")
    assert rep.tolerance == measure_report.tolerance == "1/1000"
    assert (rep.cases, rep.violations) == (measure_report.cases, [])


def test_the_gates_do_not_read_the_operations_they_check(monkeypatch):
    # a Heyting arrow that answers bottom for H = bottom and U neither
    # bottom nor top, so each such U has bottom for its pseudo-complement.
    # The flags that pick which frames the measure suite values and which
    # laws the sublocale suite runs are read off the points, so both
    # suites run every case they run on sound code, and the frame suite's
    # definition laws, which read the complements and the well-inside
    # relation, find the fault
    real = Frame.heyting

    def heyting(fr, u, h):
        return fr.bottom if h == fr.bottom and u not in (fr.bottom, fr.top) else real(fr, u, h)

    monkeypatch.setattr(Frame, "heyting", heyting)
    assert run_measure_suite().cases == 19_478
    assert run_sublocale_suite().cases == 442_257
    fired = {v.law for v in run_frame_suite().violations}
    assert {"boolean-definition", "regular-definition"} <= fired

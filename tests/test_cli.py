import contextlib
import io
import json
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from locale_lab import cli
from locale_lab.cli import _positive_rational, build_parser, main, parse_part
from locale_lab.corpus import generate
from locale_lab.intervals import parse_ratopen
from locale_lab.measure import TolNotReached, parse_descriptor, stream_bounds
from locale_lab.presented import (
    RATIONALS,
    Closed,
    CoCountable,
    CountablePoints,
    Generic,
    Meet,
    Open,
    Union,
    UnsupportedConstructor,
)
from locale_lab.runner import report_from_json, report_to_json


@pytest.fixture
def sierpinski(tmp_path):
    p = tmp_path / "sierp.json"
    p.write_text(json.dumps({"points": ["p", "q"], "opens": [[], ["p"], ["p", "q"]]}))
    return p


def test_frame_check_sierpinski(sierpinski, capsys):
    assert main(["frame-check", str(sierpinski)]) == 0
    out = capsys.readouterr().out
    assert "valid frame: 3 elements" in out
    assert "boolean: no" in out
    assert "regular: no" in out
    assert "points: 2" in out


def test_frame_check_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for path in (bad, tmp_path / "missing.json", latin, deep):
        assert main(["frame-check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err


def test_frame_check_invalid_frame(tmp_path, capsys):
    f = tmp_path / "cycle.json"
    f.write_text(json.dumps({"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]}))
    assert main(["frame-check", str(f)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_measure_exact_open(capsys):
    assert main(["measure", "lebesgue", "(0,1/2)"]) == 0
    assert capsys.readouterr().out.strip() == "mu = 1/2 (exact)"


# the README's example queries, each written `locale-lab measure ... # mu = ...`
README_MEASURES = [
    (shlex.split(command)[1:], answer.strip())
    for command, _, answer in (
        line.partition("  # ")
        for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        if line.startswith("locale-lab measure ") and "# mu = " in line
    )
]


def test_the_readme_has_its_measure_examples():
    assert len(README_MEASURES) == 6


@pytest.mark.parametrize("argv,answer", README_MEASURES, ids=[" ".join(a) for a, _ in README_MEASURES])
def test_the_readme_measure_examples_answer_as_written(argv, answer, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == f"{answer}\n"


def test_measure_atom_generic_exact_zero(capsys):
    assert main(["measure", "atoms 1/2:1", "generic"]) == 0
    assert capsys.readouterr().out.strip() == "mu = 0 (exact)"


def test_measure_rationals_within_tolerance(capsys):
    # the normal form answers exactly, with no stream
    assert main(["measure", "lebesgue", "rationals", "--tol", "1e-3"]) == 0
    assert capsys.readouterr().out.strip() == "mu = 0 (exact)"


def test_measure_rationals_past_1e_12(capsys):
    assert main(["measure", "lebesgue", "rationals", "--tol", "1/1000000000000000"]) == 0
    assert capsys.readouterr().out.strip() == "mu = 0 (exact)"


def stalled(descriptor, part):
    """The lines of the TolNotReached that stream_bounds raises at tol
    1/1000, its partners planted never to close (stuck_partners). measure
    answers exactly and streams nothing, so it cannot stall."""
    with pytest.raises(TolNotReached) as exc:
        stream_bounds(parse_part(part), parse_descriptor(descriptor), Fraction(1, 1000))
    return str(exc.value).splitlines()


def test_measure_failure_names_the_stalled_side(stuck_partners):
    # the true value is 1/2; the partner never closes, so the lower side stalls
    assert stalled("lebesgue", "meet-open(irrationals; (0,1/2))") == [
        "partner lower stalled: bounds stuck at [0, 1/2] after 40 neighborhoods of up to 80 stages"
    ]


def test_measure_failure_counts_the_held_atoms_on_both_sides(stuck_partners):
    # the length stalls at [0, 1/2] as above, and the held atom at 1/4
    # weighs in on both sides: the true value is 1 + 1/2
    part = "meet-open(union(irrationals; (1/8,3/8)); (0,1/2))"
    assert stalled("mix lebesgue + atoms 1/4:1", part) == [
        "partner lower stalled: bounds stuck at [1, 3/2] after 40 neighborhoods of up to 80 stages"
    ]


def test_measure_union_stall_keeps_the_union_upper(stuck_partners):
    # the union weighs 1/2, so its own upper stream must report 1/2
    part = "union(meet-open(irrationals; (0,1/4)); (1/2,3/4))"
    assert stalled("lebesgue", part) == [
        "partner lower stalled: bounds stuck at [0, 1/2] after 40 neighborhoods of up to 80 stages"
    ]


def test_measure_meets_any_parts_exactly(capsys):
    # the rationals and the irrationals meet in a part that is not empty
    # as a locale, yet holds no point and has no length
    assert main(["measure", "lebesgue", "meet(rationals; irrationals)"]) == 0
    assert capsys.readouterr().out == "mu = 0 (exact)\n"
    part = "meet(union(rationals; (0,1/2)); irrationals; closed (0,1/4))"
    assert main(["measure", "mix lebesgue + atoms 1/3:1/2", part]) == 0
    assert capsys.readouterr().out == "mu = 1/4 (exact)\n"


@pytest.mark.parametrize("part,exact", [
    # the atom lies outside the open part, so only the rationals hold it
    ("union(rationals; (1/2,3/4))", Fraction(3, 4)),
    # the rationals are null for length, and the open keeps the atom
    ("meet-open(rationals; (1/4,5/12))", Fraction(1, 2)),
])
def test_measure_adds_the_held_atoms_to_the_length(part, exact, capsys):
    assert main(["measure", "mix lebesgue + atoms 1/3:1/2", part]) == 0
    assert capsys.readouterr().out.strip() == f"mu = {exact} (exact)"


@pytest.mark.parametrize("descriptor", [
    "atoms 1/2:2", "atoms 1/2:1,1/2:1", "atoms 1/2:1,2/4:1", "mix atoms 1/2:1 + atoms 1/2:1",
])
def test_measure_adds_the_weights_given_at_one_point(descriptor, capsys):
    assert main(["measure", descriptor, "(0,1)"]) == 0
    assert capsys.readouterr().out == "mu = 2 (exact)\n"


def test_measure_closed_restricted(capsys):
    assert main(["measure", "restrict [0,1/2]", "closed (1/2,1]"]) == 0
    assert capsys.readouterr().out.strip() == "mu = 1/2 (exact)"


def test_measure_bad_descriptor(capsys):
    assert main(["measure", "bogus", "(0,1)"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_measure_bad_interval(capsys):
    assert main(["measure", "lebesgue", "(1/2,1/4)"]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["measure", "lebesgue", "(0,2)"],
    ["measure", "lebesgue", "union(rationals; (0,3))"],
    ["measure", "restrict [0,2]", "rationals"],
])
def test_measure_outside_the_unit_interval(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and "leaves [0,1]" in err


@pytest.mark.parametrize("part", ["", "union()", "union(rationals; )", "meet-open(generic; )",
                                  "meet()", "meet(generic; )"])
def test_measure_refuses_blank_parts(part, capsys):
    assert main(["measure", "lebesgue", part]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "blank" in err
    with pytest.raises(UnsupportedConstructor):
        parse_part(part)
    assert main(["measure", "lebesgue", "empty"]) == 0
    assert capsys.readouterr().out.strip() == "mu = 0 (exact)"


def test_measure_refuses_deep_nesting_in_one_line(capsys):
    deep = "union(" * 2000 + "rationals" + ")" * 2000
    assert main(["measure", "lebesgue", deep]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["part is nested too deeply"]


# A small grammar of measure arguments, a third of its fragments malformed.
DESCRIPTORS = st.sampled_from([
    "lebesgue", "atoms 1/2:1", "atoms 1/3:1/2,3/4:1/4", "restrict [0,1/2]",
    "restrict (1/4,1/2)|(3/4,1]", "mix lebesgue + atoms 1/3:1/2",
    "", "bogus", "atoms", "atoms 1/2", "atoms 2:1", "atoms 1/2:0", "atoms 1/0:1",
    "atoms a:1", "atoms 1/2:1,1/2:1", "restrict [0,2]", "restrict (1/2,1/4)",
    "restrict", "mix", "mix lebesgue +", "mix bogus + lebesgue",
])
LEAVES = st.sampled_from([
    "rationals", "irrationals", "generic", "empty", "(0,1/2)", "[0,1/4)|(1/2,1]",
    "closed (1/4,3/4)", " Rationals ",
    "", "bogus", "(0,2)", "(1/2,1/4)", "[1/4,1/2)", "closed", "closed rationals",
    "(0;1)", "union()", "union(rationals", "meet-open(generic)", "meet()",
])
OPENS = st.sampled_from(["(0,1/2)", "(1/4,1]", "empty", "(1/2,3/2)", "[1/3,1/2)", "rationals", ""])
PARTS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, min_size=1, max_size=3).map(lambda ps: f"union({'; '.join(ps)})"),
    st.lists(inner, min_size=1, max_size=3).map(lambda ps: f"meet({'; '.join(ps)})"),
    st.tuples(inner, OPENS).map(lambda t: f"meet-open({t[0]}; {t[1]})"),
    st.tuples(inner, OPENS).map(lambda t: f"meet-closed({t[0]}; {t[1]})"),
), max_leaves=4)


def answer(argv):
    """(exit code, stdout, stderr) of one in-process call, less the
    seconds line of a law report, the one line that differs between runs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    untimed = [ln for ln in out.getvalue().splitlines(keepends=True)
               if not ln.lstrip().startswith(("seconds:", '"seconds":'))]
    return code, "".join(untimed), err.getvalue()


@given(DESCRIPTORS, PARTS)
@settings(max_examples=150, deadline=None)
def test_measure_answers_any_arguments_in_one_line(descriptor, part):
    rc, out, err = answer(["measure", descriptor, part])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1
    if rc == 0:
        assert err == "" and len(out.splitlines()) == 1
    else:
        assert out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("size", ["0", "-1", "abc"])
def test_max_size_must_be_positive(size, capsys):
    with pytest.raises(SystemExit) as e:
        main(["laws", "morphism", "--max-size", size])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        f"--max-size: expected a positive integer, got {size!r}"
    )


@pytest.mark.parametrize("tol", ["nan", "abc", "0", "-1"])
@pytest.mark.parametrize("argv", [["measure", "lebesgue", "(0,1/2)"], ["laws", "measure"]])
def test_bad_tolerance_is_an_argument_error(argv, tol, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--tol", tol])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"--tol: expected a positive rational, got {tol!r}")


@pytest.mark.parametrize("tol", ["1e-300", f"1/{2 ** 100 + 1}"])
@pytest.mark.parametrize("argv", [["measure", "lebesgue", "rationals"], ["laws", "measure"]])
def test_tolerance_below_the_floor_is_an_argument_error(argv, tol, capsys):
    # parse only: without the floor the query would spin, not fail
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args(argv + ["--tol", tol])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"--tol: tolerance {tol!r} is below 2^-100")
    assert _positive_rational(f"1/{2 ** 100}") == Fraction(1, 2 ** 100)


def test_a_tolerance_too_long_to_build_is_refused_at_once(capsys):
    # Fraction would spend seconds on 10**10000000 before the floor check
    start = time.perf_counter()
    with pytest.raises(SystemExit) as e:
        main(["measure", "lebesgue", "(0,1/2)", "--tol", "1e-10000000"])
    assert time.perf_counter() - start < 1
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"locale-lab measure: error: argument --tol: tolerance '1e-10000000' "
        f"has more than {sys.get_int_max_str_digits()} digits"
    ]


@pytest.fixture
def no_digit_limit():
    """The interpreter as `python -X int_max_str_digits=0` starts it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_a_tolerance_too_long_is_refused_with_the_digit_limit_off(capsys, no_digit_limit):
    # the interpreter would build 10**10000000; the default limit still applies
    start = time.perf_counter()
    with pytest.raises(SystemExit) as e:
        main(["measure", "lebesgue", "(0,1/2)", "--tol", "1e-10000000"])
    assert time.perf_counter() - start < 1
    assert e.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"locale-lab measure: error: argument --tol: tolerance '1e-10000000' "
        f"has more than {sys.int_info.default_max_str_digits} digits"
    ]
    assert main(["measure", "lebesgue", "(0,1e-10000000)"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"bad rational '1e-10000000': more than {sys.int_info.default_max_str_digits} digits"
    ]


@pytest.mark.parametrize("argv", [
    ["measure", "lebesgue", "(0,1e-5000)"],
    ["measure", "lebesgue", "closed (0,1e-5000)"],
    ["measure", "lebesgue", "union(rationals; (0,1e-5000))"],
    ["measure", "atoms 1/2:1e-5000", "(0,1)"],
])
def test_a_literal_too_long_to_print_is_refused_in_one_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"bad rational '1e-5000': more than {sys.get_int_max_str_digits()} digits"
    ]


@pytest.mark.parametrize("spec", [
    {"points": ["a,b", "a", "b"], "opens": [[], ["a,b"], ["a", "b"], ["a,b", "a", "b"]]},
    {"points": [""], "opens": [[], [""]]},
], ids=["comma", "empty"])
def test_frame_check_refuses_a_point_name_that_names_two_opens_alike(spec, tmp_path, capsys):
    # "{a,b}" would name the open of the point "a,b" and the open of "a" and
    # "b" alike; "{}" the empty open and the open of the point ""
    f = tmp_path / "clash.json"
    f.write_text(json.dumps(spec))
    assert main(["frame-check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"invalid: $.points[0]: point name {spec['points'][0]!r} is empty or has a ','"
    ]


def test_parse_part_shapes():
    assert isinstance(parse_part("rationals"), CountablePoints)
    assert isinstance(parse_part("irrationals"), CoCountable)
    assert isinstance(parse_part("generic"), Generic)
    assert isinstance(parse_part("(0,1/2)|(1/2,1)"), Open)
    c = parse_part("closed (0,1/2)")
    assert isinstance(c, Closed)
    u = parse_part("union(rationals; (0,1/4); generic)")
    assert isinstance(u, Union) and len(u.parts) == 3
    m = parse_part("meet-open(union(rationals; generic); (0,1/2))")
    assert isinstance(m, Meet) and isinstance(m.parts[0], Union)
    assert m.parts[1] == Open(parse_ratopen("(0,1/2)"))
    assert parse_part("meet-closed(generic; (0,1/2))") == Meet((Generic(), Closed(parse_ratopen("(0,1/2)"))))
    assert parse_part("meet(rationals; irrationals; generic)") == Meet(
        (CountablePoints(RATIONALS), CoCountable(RATIONALS), Generic()))
    with pytest.raises(UnsupportedConstructor):
        parse_part("meet-open(generic; (0,1); (0,1/2))")


def test_laws_json_round_trips(capsys):
    assert main(["laws", "frame", "--format", "json"]) == 0
    text = capsys.readouterr().out
    rep = report_from_json(text)
    assert rep.suite == "frame" and rep.ok
    assert report_to_json(rep) == text


def test_laws_all_with_size_cap(capsys):
    assert main(["laws", "all", "--format", "json", "--max-size", "4"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in reports] == ["frame", "sublocale", "morphism", "measure"]
    assert all(r["violations"] == [] for r in reports)


def test_laws_text_output(capsys):
    assert main(["laws", "frame"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite: frame\n")
    assert "violations: 0" in out


def test_laws_flag_tampered_corpus(tmp_path, capsys):
    generate(tmp_path)
    shutil.copy(tmp_path / "negative" / "m3.json", tmp_path / "frames" / "zz-m3.json")
    assert main(["laws", "frame", "--corpus", str(tmp_path)]) == 1
    assert "FAIL frame-valid" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["sublocale", "morphism", "measure", "all"])
def test_laws_name_an_invalid_corpus_file(tmp_path, capsys, suite):
    generate(tmp_path)
    bad = tmp_path / "frames" / "zz-cycle.json"
    bad.write_text(json.dumps({"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]}))
    assert main(["laws", suite, "--corpus", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and str(bad) in err


def test_laws_missing_corpus(capsys):
    assert main(["laws", "frame", "--corpus", "/nonexistent"]) == 2


def test_laws_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as e:
        main(["laws", "bogus"])
    assert e.value.code == 2


def test_demos_run_clean(capsys):
    for name in ("generic", "rationals", "reduction", "hidden-intersections"):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert out.strip()
    # spot checks on the last one
    assert main(["demo", "reduction"]) == 0
    out = capsys.readouterr().out
    assert "it equals c(u): True" in out
    assert "(0,1)" in out


PINNED_DEMOS = {
    "generic": """\
the three-element chain 0 < u < 1 has exactly 4 parts (sublocales).
one of them is the least dense part: it sends H to not-not-H.
dense parts: 2; the least dense part is contained in every one of them: True

on [0,1] the same part has no points at all:
  meets the single point 0: False
  meets the single point 1: False
  meets the single point 1/2: False
  meets the single point 1/3: False
  meets the single point 2/3: False
yet every neighborhood of it contains every rational probed: True
and its outer measure is pinned under length: [0, 5/8192]
under a single atom at 1/2 it is exactly null: [0, 0]
""",
    "rationals": """\
the rational points of [0,1], all of them: mu in [0, 5/8192]
the interval minus the rationals:          mu in [8187/8192, 1]
additivity residual of the split: 0 (exact)
the two shapes cover the interval structurally: True
so length splits exactly across a countable set and its complement,
even though neither side is an open set.
""",
    "hidden-intersections": """\
as sets, the rationals and the irrationals partition [0,1] and
their intersection is empty. as parts of the locale it is not:
both are dense, and any two dense parts meet in a dense part.
  union carries full measure: 1
  the meet is only *measure* null: upper bound 0
  additivity residual of the split: 0 (exact)

a finite shadow of the same effect, on the chain 0 < u < 1:
  residual of the generic part against c(u): -1/2
  a naive additive reading loses mass there; the ledger only
  balances once hidden intersections are measured, not assumed empty.
""",
    "reduction": """\
chain 0 < u < 1 with mu(u) = 1/2, mu(1) = 1:
  outer measure of the whole space: 1
  the reduction keeps only what carries mass: ['1', 'u'] (outer measure 1)
  it equals c(u): True

on [0,1]:
  lebesgue on (0,1/2)|(1/2,1) reduces to (0,1) -- a massless missing point disappears
  a unit atom at 1/2 reduces the space to closed [0,1/2)|(1/2,1] -- everything but the atom disappears
""",
}


@pytest.mark.parametrize("name", sorted(PINNED_DEMOS))
def test_pinned_demo_output(name, capsys):
    # byte for byte: the generic demo weighs a unit atom through
    # stream_bounds, the rationals demo streams each half and reads the
    # exact residual and partner
    assert main(["demo", name]) == 0
    assert capsys.readouterr().out == PINNED_DEMOS[name]


def test_a_closed_stdout_ends_without_a_traceback():
    # the reader is gone before the first line is written
    with subprocess.Popen(
        [sys.executable, "-m", "locale_lab.cli", "demo", "hidden-intersections"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as p:
        p.stdout.close()
        err = p.stderr.read()
        assert p.wait(timeout=60) == 1
    assert err == b""


def test_console_script_is_wired():
    exe = shutil.which("locale-lab")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    r = subprocess.run(
        [exe, "measure", "lebesgue", "(0,1/4)"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == "mu = 1/4 (exact)"


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "locale_lab.cli", "measure", "lebesgue", "(3/4,1)"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == "mu = 1/4 (exact)"


# main reuses one parser for the whole process; each call must still
# answer as a fresh process would. The sequence pairs a call that could
# leave state behind in the parser with one that would read it.
REUSE_SEQUENCE = [
    ["measure", "lebesgue", "union(rationals; (0,1/2))", "--tol", "1/10"],
    ["measure", "lebesgue", "union(rationals; (0,1/2))"],
    ["laws", "frame", "--max-size", "3", "--format", "json"],
    ["laws", "frame"],
    ["measure", "lebesgue"],
    ["measure", "lebesgue", "(0,1/2)"],
    ["measure", "--help"],
    ["measure", "lebesgue", "closed (1/4,3/4)"],
    ["measure", "lebesgue", "rationals", "--tol", "1e-300"],
    ["measure", "lebesgue", "rationals"],
]


def test_one_parser_answers_each_call_as_a_fresh_one(monkeypatch):
    # measure_bounds is exact whatever the tolerance, so measure answers
    # through stream_bounds here, whose lower bound shows the tolerance used
    monkeypatch.setattr(cli, "measure_bounds", stream_bounds)
    fresh = []
    for argv in REUSE_SEQUENCE:
        build_parser.cache_clear()
        fresh.append(answer(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0, 0, 0, 2, 0]
    assert fresh[0][1] != fresh[1][1] and fresh[2][1] != fresh[3][1]
    build_parser.cache_clear()
    assert [answer(argv) for argv in REUSE_SEQUENCE] == fresh


def test_main_builds_its_parser_once(monkeypatch):
    built, init = [], cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    build_parser.cache_clear()
    assert main(["measure", "lebesgue", "(0,1/2)"]) == 0
    # the parser and its four subparsers
    assert len(built) == 5
    for argv in REUSE_SEQUENCE:
        answer(argv)
    assert len(built) == 5

import dataclasses
import json
import re
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

from cli_contract import ROWS, Inputs, Row, answer, answer_fresh, chain11_maps, failures, fresh_flags, mu, run


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


@given(DESCRIPTORS, PARTS)
@settings(max_examples=150, deadline=None)
def test_measure_answers_any_arguments_in_one_line(descriptor, part):
    rc, out, err, *_ = answer(["measure", descriptor, part])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1
    if rc == 0:
        assert err == "" and len(out.splitlines()) == 1
    else:
        assert out == "" and len(err.splitlines()) == 1


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
    assert [code for code, *_ in fresh] == [0, 0, 0, 0, 2, 0, 0, 0, 2, 0]
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


# ---------------------------------------------------------------------------
# the command-line contract (cli_contract.py): its rows in process, and
# its runner against one planted wrong expectation per row kind
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return Inputs(tmp_path_factory.mktemp("contract"))


@pytest.mark.parametrize("row", [row for row in ROWS if row.in_process], ids=lambda row: row.name)
def test_contract_row(row, inputs):
    assert failures(row, answer(inputs.argv(row))) == []


def test_a_closed_stdout_ends_without_a_traceback(inputs):
    # the two rows whose reader closes stdout early run in a fresh process only
    readers = [row for row in ROWS if row.close_after is not None]
    assert [row.close_after for row in readers] == [0, 1]
    for row in readers:
        assert failures(row, answer_fresh(row, inputs.argv(row))) == [], row.name


def test_every_fresh_answer_is_optimized_warnings_as_errors_at_hash_seed_0():
    # the in-process rows are compared with answers given under these
    # flags, so a flag dropped would leave the comparison showing less
    row = next(row for row in ROWS if row.call is fresh_flags)
    assert not row.in_process
    assert failures(row, answer_fresh(row, [])) == []


CHEAP = ("measure", "lebesgue", "(0,1/2)")


def test_the_runner_fails_a_wrong_exit_line_or_pattern():
    got = answer(CHEAP)
    assert failures(Row(CHEAP, 0, out=mu("1/2")), got) == []
    assert failures(Row(CHEAP, 1, out=mu("1/2")), got) == ["exit 0, expected 1"]
    assert failures(Row(CHEAP, 0, out=mu("1/3")), got)
    assert failures(Row(CHEAP, 0, out=re.compile(r"^mu = 1/3 ")), got)
    assert failures(Row(CHEAP, 0, out=mu("1/2"), err=re.compile("Traceback")), got)


def test_the_runner_fails_a_row_past_its_timeout():
    row = Row(CHEAP, 0, out=mu("1/2"))
    start = time.perf_counter()
    assert failures(row, answer_fresh(row, list(CHEAP))) == []
    wall = time.perf_counter() - start
    late = dataclasses.replace(row, timeout=wall / 2)
    assert failures(late, answer_fresh(late, list(CHEAP))) == [f"no answer within {wall / 2} s"]


def test_the_runner_fails_each_bound_set_just_below_its_measure():
    # chain11 -> chain11 in a fresh interpreter: its time, its peak and
    # its growth, each bound set 1% either side of what it measured
    row = Row(chain11_maps, 0, out=("chain11 -> chain11: 92378 maps",), seconds=30, rss_mib=1024, growth_mib=1024)
    got = answer_fresh(row, [])
    assert failures(row, got) == []
    measured = {"seconds": got.seconds, "rss_mib": got.peak_mib, "growth_mib": got.grown_mib}
    assert measured["growth_mib"] > 1
    for bound, value in measured.items():
        assert failures(dataclasses.replace(row, **{bound: value * 1.01}), got) == []
        assert len(failures(dataclasses.replace(row, **{bound: value * 0.99}), got)) == 1, bound


def test_the_runner_fails_a_row_answered_otherwise_in_process(monkeypatch, capsys):
    # a fresh process measures (0,1/2); this one, planted, measures (0,1/4)
    monkeypatch.setattr(cli, "parse_part", lambda text: parse_part("(0,1/4)"))
    failed = run([Row(CHEAP, 0, out=mu("1/2"))])
    assert len(failed) == 1 and failed[0].startswith(f"{' '.join(CHEAP)}: in process (0, 'mu = 1/4 (exact)")
    assert "FAIL" in capsys.readouterr().out

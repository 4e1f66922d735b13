"""The command-line contract, one row per check: each input exits with its
code and its lines, never a traceback, within its time and memory bounds.

A row holds a call, the exit code, the exact stdout and stderr lines (a
tuple) or a pattern (a compiled regex, searched), a timeout, and any time,
peak-RSS or RSS-growth bound. The call is a CLI argv, its input files named
by the builders that write them, or a probe: a function of this module
that does its work inside a `Span`. Seconds lines are dropped first.

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/cli_contract.py

answers each row in a fresh interpreter, `python -O -W error` with
`PYTHONHASHSEED=0`: as `python -m locale_lab.cli`, or if a probe or
bounded, through its probe or `cli.main` with the bounds read in that
process. Then it answers each `Row.in_process` row through `cli.main`, in
table order, in its own process with warnings as errors, and requires the
fresh answer. So each such answer depends on neither `-O`, nor the hash
seed (when this process runs under another), nor the calls made before it
in one process. It exits 1 if any row failed, and imports no pytest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
CHILD = f"import sys; sys.path.insert(0, {str(HERE)!r}); import cli_contract; cli_contract.child(*sys.argv[1:])"
FRESH = [sys.executable, "-O", "-W", "error"]  # asserts and `if __debug__:` blocks compiled out
DEFAULT_TIMEOUT = 5


@dataclass(frozen=True)
class Row:
    call: tuple | Callable
    code: int | tuple  # a tuple: any of these codes
    out: tuple | re.Pattern = ()
    err: tuple | re.Pattern = ()
    timeout: float = DEFAULT_TIMEOUT
    seconds: float | None = None
    rss_mib: float | None = None
    growth_mib: float | None = None
    close_after: int | None = None  # stdout lines read before the reader closes it

    @property
    def bounded(self) -> bool:
        return (self.seconds, self.rss_mib, self.growth_mib) != (None, None, None)

    @property
    def in_process(self) -> bool:
        """An argv, unbounded, its timeout the default, and its stdout read to the end."""
        return (not callable(self.call) and not self.bounded and self.timeout <= DEFAULT_TIMEOUT
                and self.close_after is None)

    @property
    def name(self) -> str:
        if callable(self.call):
            return self.call.__name__
        name = " ".join(a if isinstance(a, str) else f"<{a.__name__}>" for a in self.call)
        return name if self.close_after is None else f"{name} | head -{self.close_after}"


class Answer(NamedTuple):
    code: int | None  # None: no answer within the timeout
    out: str
    err: str
    seconds: float | None = None
    peak_mib: float | None = None
    grown_mib: float | None = None


def untimed(text: str) -> str:
    """The text less a law report's seconds lines, the one line that differs between runs."""
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.lstrip().startswith(("seconds:", '"seconds":')))


def failures(row: Row, got: Answer) -> list:
    """What in `got` breaks `row`; empty when the row holds."""
    if got.code is None:
        return [f"no answer within {row.timeout} s"]
    codes = row.code if isinstance(row.code, tuple) else (row.code,)
    found = [] if got.code in codes else [f"exit {got.code}, expected {row.code}"]
    for stream, want, text in (("stdout", row.out, got.out), ("stderr", row.err, got.err)):
        if isinstance(want, re.Pattern) and not want.search(text):
            found.append(f"{stream} {text!r} has no match for {want.pattern!r}")
        elif isinstance(want, tuple) and text.splitlines() != list(want):
            found.append(f"{stream} {text!r}, expected {list(want)!r}")
    if row.bounded and got.seconds is None:
        return found + ["no bound read: the fresh interpreter gave no answer"]
    for bound, value, what in ((row.seconds, got.seconds, "s"), (row.rss_mib, got.peak_mib, "MiB peak resident set"),
                               (row.growth_mib, got.grown_mib, "MiB growth")):
        if bound is not None and value >= bound:
            found.append(f"{value:.3f} {what}, bound {bound}")
    return found


class Span:
    """The wall time of the work inside `with`, its peak resident set and
    how far it grew that peak, read in the process that does it. The peak
    is this process's own, VmHWM: a spawned interpreter's RUSAGE_SELF starts
    at the peak of the process that spawned it, here a Python process."""

    def __enter__(self):
        self.before, self.start = peak_mib(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        self.peak_mib = peak_mib()
        self.grown_mib = self.peak_mib - self.before


def peak_mib() -> float:
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def captured(call, span=contextlib.nullcontext()) -> Answer:
    """The exit code `call()` returns or exits with inside `span`, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return Answer(code, untimed(out.getvalue()), err.getvalue())


def answer(argv, span=contextlib.nullcontext()) -> Answer:
    """One call of `cli.main` in this process."""
    from locale_lab import cli

    return captured(lambda: cli.main(list(argv)), span)


def child(probe, *argv) -> None:
    """A probe's or a bounded row's answer in this fresh interpreter,
    printed as JSON: its probe if named, else `cli.main(argv)`, inside one
    `Span`."""
    span = Span()
    got = captured(lambda: globals()[probe](span)) if probe else answer(argv, span)
    print(json.dumps(got._replace(seconds=span.seconds, peak_mib=span.peak_mib, grown_mib=span.grown_mib)))


def answer_fresh(row: Row, argv: list) -> Answer:
    """The row's answer from a fresh interpreter, within its timeout."""
    probe = row.call.__name__ if callable(row.call) else ""
    read_child = bool(probe) or row.bounded
    cmd = [*FRESH, "-c", CHILD, probe, *argv] if read_child else [*FRESH, "-m", "locale_lab.cli", *argv]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        if row.close_after is None:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=row.timeout, env=env)
            code, out, err = r.returncode, r.stdout, r.stderr
        else:
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as p:
                out = "".join(p.stdout.readline() for _ in range(row.close_after))
                p.stdout.close()
                try:
                    err, code = p.communicate(timeout=row.timeout)[1], p.returncode
                except subprocess.TimeoutExpired:
                    p.kill()
                    raise
    except subprocess.TimeoutExpired:
        return Answer(None, "", "")
    if read_child:
        try:
            return Answer(*json.loads(out))
        except ValueError:
            return Answer(code, "", err)
    return Answer(code, untimed(out), err)


class Inputs:
    """The input files the rows name, each written once, under `tmp`."""

    def __init__(self, tmp):
        self.tmp, self.built = Path(tmp), {}

    def argv(self, row: Row) -> list:
        if callable(row.call):
            return []
        for a in row.call:
            if callable(a) and a not in self.built:
                self.built[a] = str(a(self.tmp))
        return [self.built.get(a, a) for a in row.call]


def run(rows) -> list:
    """Each row answered fresh, then the in-process rows in one process;
    prints a line per row and returns the failures, one line each."""
    failed = []

    def mark(row, problems, note=""):
        print(f"{'FAIL' if problems else 'ok  '} {row.name}{note}", flush=True)
        failed.extend(f"{row.name}: {p}" for p in problems)
        for p in problems:
            print(f"     {p}")

    with tempfile.TemporaryDirectory() as tmp:
        inputs, fresh = Inputs(tmp), []
        for row in rows:
            argv = inputs.argv(row)
            start = time.perf_counter()
            got = answer_fresh(row, argv)
            note = f"  ({time.perf_counter() - start:.2f} s)"
            if got.seconds is not None:
                note += f"  {got.seconds:.3f} s, peak {got.peak_mib:.1f} MiB, grew {got.grown_mib:.1f} MiB"
            mark(row, failures(row, got), note)
            fresh.append((row, argv, got))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row, argv, want in fresh:
                if row.in_process:
                    got = answer(argv)
                    if got != want:
                        mark(row, [f"in process {got[:3]!r}, fresh {want[:3]!r}"], "  (in process)")
    return failed


def json_file(name, make):
    """A builder, named `name`, of the file `name`.json holding make()."""
    def build(tmp):
        (tmp / f"{name}.json").write_text(json.dumps(make()))
        return tmp / f"{name}.json"
    build.__name__ = name
    return build


CHAIN500 = [f"c{i}" for i in range(500)]
LINKS500 = [[a, b] for a, b in zip(CHAIN500, CHAIN500[1:])]
TWELVE = [f"p{i}" for i in range(12)]
comma = json_file("comma", lambda: {"points": ["a,b", "a", "b"], "opens": [[], ["a,b"], ["a", "b"], ["a,b", "a", "b"]]})
empty_name = json_file("empty", lambda: {"points": [""], "opens": [[], [""]]})
opens = json_file("opens", lambda: {"points": ["p"], "opens": [[], ["p", 7]]})
leq = json_file("leq", lambda: {"elements": ["a", "b"], "leq": [["a", 2]]})
cycle = json_file("cycle", lambda: {"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]})
sierpinski = json_file("sierpinski", lambda: {"points": ["p", "q"], "opens": [[], ["p"], ["p", "q"]]})
chain500 = json_file("chain500", lambda: {"elements": CHAIN500, "leq": LINKS500})
capped500 = json_file("capped500", lambda: {  # capped by M3: not distributive
    "elements": CHAIN500 + ["x", "y", "z", "1"], "leq": LINKS500 + [[CHAIN500[-1], m] for m in "xyz"] + [[m, "1"] for m in "xyz"]})
discrete12 = json_file("discrete12", lambda: {
    "points": TWELVE, "opens": [[p for i, p in enumerate(TWELVE) if m >> i & 1] for m in range(1 << 12)]})


def dyadic_grid(level):
    """The digital line on [0,1] at `level` (Khalimsky, Kopperman & Meyer,
    Topology Appl. 1990): its points are the k/2^level and the open cells
    between them, in order along the line. A cell's least open is itself,
    a grid point's is the point and its adjacent cells; the opens are the
    unions of least opens, smallest first."""
    from locale_lab.frames import TopologySpec

    d = 1 << level
    grid = [f"{k}/{d}" for k in range(d + 1)]
    points = [grid[0]]
    for a, b in zip(grid, grid[1:]):
        points += [f"({a} {b})", b]
    least = [frozenset(points[max(i - 1, 0):i + 2] if i % 2 == 0 else [p]) for i, p in enumerate(points)]
    family, todo = {frozenset()}, [frozenset()]
    for s in todo:
        for u in least:
            if s | u not in family:
                family.add(s | u)
                todo.append(s | u)
    return TopologySpec.make(points, sorted(family, key=lambda o: (len(o), sorted(o))))


def _grid3_less_one():
    """The level-3 grid without the least open of its point 4/8."""
    tspec = dyadic_grid(3)
    least = min((o for o in tspec.opens if "4/8" in o), key=len)
    return {"points": list(tspec.points), "opens": [sorted(o) for o in tspec.opens if o != least]}


grid3_less_one = json_file("grid3_less_one", _grid3_less_one)


def wide(tmp):
    """The corpus with a 9-chain, 256 parts, and a 10-chain, 512 parts."""
    from locale_lab.corpus import _dump, _frame_json, chain_spec, generate

    root = tmp / "wide"
    generate(root)
    for n in (9, 10):
        _dump(root / "frames" / f"chain{n}.json", _frame_json(chain_spec(n)))
    return root


def chain2(tmp):
    return HERE.parent / "corpus" / "frames" / "chain2.json"


def no_corpus_file(tmp):
    (tmp / "no-corpus-file" / "topologies").mkdir(parents=True)
    return tmp / "no-corpus-file"


def grid3(span):
    """The level-3 grid, 4,181 opens of 17 points, built from its points
    with no order walk."""
    from locale_lab.frames import Frame

    tspec = dyadic_grid(3)
    with span:
        fr = Frame.from_topology(tspec)
    print(f"{fr.n} elements, {len(fr.primes)} primes")
    return 0


def chain11_maps(span):
    """The frame maps chain11 -> chain11, C(19, 9) of them: the search
    holds one level of partial point maps at a time, each a bytes object."""
    from locale_lab.corpus import chain_spec
    from locale_lab.frames import build_frame
    from locale_lab.morphisms import enumerate_morphisms

    with span:
        chain11 = build_frame(chain_spec(11))
        maps = enumerate_morphisms(chain11, chain11)
    print(f"chain11 -> chain11: {len(maps)} maps")
    return 0


def fresh_flags(span):
    """The flags and hash seed of the fresh interpreter the runner starts."""
    with span:
        print(sys.flags.optimize, sys.warnoptions, os.environ.get("PYTHONHASHSEED"), sep="\n")
    return 0


def suites(*counts) -> re.Pattern:
    """A `--format json` law report of these (suite, cases), in order."""
    return re.compile("(?s)" + ".*".join(f'"cases": {n},.*"suite": "{s}"' for s, n in counts))


def mu(value) -> tuple:
    return (f"mu = {value} (exact)",)


# `laws all --format json` less its seconds lines, the one place its
# counts are written; the README's Tests section regenerates it
LAWS_ALL = (HERE / "laws_all.json").read_text()
CASES = {report["suite"]: report["cases"] for report in json.loads(LAWS_ALL)}
DIGITS = sys.get_int_max_str_digits()
PART = "union(meet-open(irrationals; (0,1/2)); closed (1/4,3/4))"
CHAIN10_NOTE = re.compile(r"^note: chain10 skipped: 512 parts over the byte limit 256$", re.M)

DEMOS = {
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
    "reduction": """\
chain 0 < u < 1 with mu(u) = 1/2, mu(1) = 1:
  outer measure of the whole space: 1
  the reduction keeps only what carries mass: ['1', 'u'] (outer measure 1)
  it equals c(u): True

on [0,1]:
  lebesgue on (0,1/2)|(1/2,1) reduces to (0,1) -- a massless missing point disappears
  a unit atom at 1/2 reduces the space to closed [0,1/2)|(1/2,1] -- everything but the atom disappears
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
    "rationals": """\
the rational points of [0,1], all of them: mu in [0, 5/8192]
the interval minus the rationals:          mu in [8187/8192, 1]
additivity residual of the split: 0 (exact)
the two shapes cover the interval structurally: True
so length splits exactly across a countable set and its complement,
even though neither side is an open set.
""",
}

ROWS = [
    # malformed frame JSON of each form: one line naming the first bad
    # value by its path; "{a,b}" would name the open of the point "a,b"
    # and the open of "a" and "b" alike, "{}" the empty open and {""}
    Row(("frame-check", comma), 1, err=("invalid: $.points[0]: point name 'a,b' is empty or has a ','",)),
    Row(("frame-check", empty_name), 1, err=("invalid: $.points[0]: point name '' is empty or has a ','",)),
    Row(("frame-check", opens), 1, err=("invalid: $.opens[1][1]: point names must be strings",)),
    Row(("frame-check", leq), 1, err=("invalid: $.leq[0]: expected a pair of element names",)),
    # the order check and the scans that name a refusal's witness are
    # O(n^2) mask operations, so a 500-chain answers within the timeout
    Row(("frame-check", chain500), 0, out=("valid frame: 500 elements", "boolean: no", "regular: no", "points: 499")),
    Row(("frame-check", capped500), 1, err=("invalid: 'z' meet ('x' join 'y') = 'z' but the join of the meets is 'c499'",)),
    Row(grid3, 0, out=("4181 elements, 17 primes",), timeout=10, seconds=0.25, rss_mib=64),
    Row(("frame-check", grid3_less_one), 1, timeout=30, err=(
        "invalid: not closed under intersection: ['(0/8 1/8)', '(3/8 4/8)', '(4/8 5/8)', '4/8'] "
        "& ['(1/8 2/8)', '(3/8 4/8)', '(4/8 5/8)', '4/8']",)),
    # boolean and regular are read off the points
    Row(("frame-check", discrete12), 0, out=("valid frame: 4096 elements", "boolean: yes", "regular: yes", "points: 12"),
        seconds=0.25),
    # past the byte a part index is, the 10-chain is skipped with a note;
    # chain9 -> chain9 has 6,435 maps over 256 parts, read by the kernels
    # in runs of maps bounded in bytes
    Row(("laws", "sublocale", "--corpus", wide), 0, out=CHAIN10_NOTE, timeout=30),
    Row(("laws", "morphism", "--max-size", "10", "--corpus", wide), 0, out=CHAIN10_NOTE, timeout=60, rss_mib=512),
    # one level of bytes point maps at a time grows the peak resident set
    # by 14-15 MiB from the peak before chain11 is built (tuples took 21-22)
    Row(chain11_maps, 0, out=("chain11 -> chain11: 92378 maps",), timeout=30, rss_mib=64, growth_mib=18),
    # every fresh answer is one with asserts compiled out, warnings as
    # errors and hash seed 0, so each in-process row, compared with it,
    # shows its answer depends on none of them
    Row(fresh_flags, 0, out=("1", "['error']", "0")),
    *(Row(argv, 1, err=(f"bad rational '1e-5000': more than {DIGITS} digits",)) for argv in [
        ("measure", "lebesgue", "(0,1e-5000)"),
        ("measure", "lebesgue", "closed (0,1e-5000)"),
        ("measure", "lebesgue", "union(rationals; (0,1e-5000))"),
        ("measure", "atoms 1/2:1e-5000", "(0,1)"),
    ]),
    # Fraction would spend seconds on 10**10000000 before the floor check
    Row(("measure", "lebesgue", "(0,1/2)", "--tol", "1e-10000000"), 2, seconds=1, err=(
        f"locale-lab measure: error: argument --tol: tolerance '1e-10000000' has more than {DIGITS} digits",)),
    Row(("measure", "lebesgue", "(0,1/2"), 1, err=("cannot parse piece '(0,1/2'",)),
    Row(("measure", "lebesgue", "meet(generic; )"), 1, err=("meet() has a blank argument",)),
    # literals other than n or n/d in ASCII digits are read by Fraction's
    # grammar: a zero denominator is refused, a decimal, '_' separators
    # (from Python 3.11 on) and other digits are read
    Row(("measure", "lebesgue", "(0,1/0)"), 1, err=("bad rational '1/0': Fraction(1, 0)",)),
    Row(("measure", "lebesgue", "(0,0.5)"), 0, out=mu("1/2")),
    Row(("measure", "lebesgue", "(0,1_0/2_0)"), 0, out=mu("1/2")) if sys.version_info >= (3, 11) else
    Row(("measure", "lebesgue", "(0,1_0/2_0)"), 1, err=("bad rational '1_0/2_0': Invalid literal for Fraction: '1_0/2_0'",)),
    Row(("measure", "atoms ١/٢:1", "rationals"), 0, out=mu(1)),
    # a reader that closes stdout early, before the first line or after
    # it: exit 1 if a write meets the closed pipe, as it does after the
    # first line when stdout is unbuffered
    Row(("demo", "hidden-intersections"), 1, close_after=0),
    Row(("demo", "hidden-intersections"), (0, 1), out=tuple(DEMOS["hidden-intersections"].splitlines()[:1]), close_after=1),
    # cli.main builds one parser per process and reuses it, and each frame
    # keeps the parts it hands out; argparse differs across versions
    Row(("measure", "mix lebesgue + atoms 1/3:1/2", PART, "--tol", "1e-9"), 0, out=mu("3/4")),
    Row(("measure", "mix lebesgue + atoms 1/3:1/2", PART), 0, out=mu("3/4")),
    Row(("measure", "lebesgue"), 2, err=("locale-lab measure: error: the following arguments are required: part",)),
    Row(("measure", "lebesgue", "rationals", "--tol", "1e-300"), 2, err=(
        "locale-lab measure: error: argument --tol: tolerance '1e-300' is below 2^-100",)),
    # the rationals and the irrationals meet in a part that is not empty
    # as a locale, yet holds no point and has no length
    Row(("measure", "lebesgue", "meet(rationals; irrationals)"), 0, out=mu(0)),
    Row(("laws", "frame", "--max-size", "3", "--format", "json"), 0, out=suites(("frame", 806))),
    Row(("laws", "frame"), 0, out=("suite: frame", f"cases: {CASES['frame']}", "violations: 0")),
    Row(("laws", "sublocale", "--format", "json"), 0, out=suites(("sublocale", CASES["sublocale"]))),
    Row(("laws", "morphism", "--max-size", "4", "--format", "json"), 0, out=suites(("morphism", 21664))),
    Row(("laws", "morphism", "--format", "json"), 0, out=suites(("morphism", CASES["morphism"]))),
    Row(("laws", "measure", "--format", "json"), 0, out=suites(("measure", CASES["measure"]))),
    # the whole report: notes, layout and witnesses as well as counts
    Row(("laws", "all", "--format", "json"), 0, out=tuple(LAWS_ALL.splitlines())),
    # large denominators in the interval sums; at the least tolerance,
    # 2^-100, the closed-complement law's stage budget follows it
    Row(("laws", "measure", "--tol", "1/1000000000000", "--format", "json"), 0, out=suites(("measure", 21877))),
    Row(("laws", "measure", "--tol", f"1/{2 ** 100}", "--format", "json"), 0, out=suites(("measure", 26678))),
    Row(("frame-check", chain2), 0, out=("valid frame: 2 elements", "boolean: yes", "regular: yes", "points: 1")),
    *(Row(("demo", name), 0, out=tuple(text.splitlines())) for name, text in DEMOS.items()),
    # single calls
    Row(("frame-check", sierpinski), 0, out=("valid frame: 3 elements", "boolean: no", "regular: no", "points: 2")),
    Row(("frame-check", cycle), 1, err=("invalid: antisymmetry fails: 'a' <= 'b' <= 'a'",)),
    Row(("measure", "lebesgue", "(0,1/2)"), 0, out=mu("1/2")),
    Row(("measure", "lebesgue", "(3/4,1)"), 0, out=mu("1/4")),
    Row(("measure", "restrict [0,1/2]", "closed (1/2,1]"), 0, out=mu("1/2")),
    Row(("measure", "atoms 1/2:1", "generic"), 0, out=mu(0)),
    Row(("measure", "mix lebesgue + atoms 1/3:1/2", "meet(union(rationals; (0,1/2)); irrationals; closed (0,1/4))"), 0,
        out=mu("1/4")),
    # the normal form answers exactly, with no stream
    Row(("measure", "lebesgue", "rationals", "--tol", "1e-3"), 0, out=mu(0)),
    Row(("measure", "lebesgue", "rationals", "--tol", "1/1000000000000000"), 0, out=mu(0)),
    # the atom lies outside the open part, so only the rationals hold it;
    # the rationals are null for length, and the open keeps the atom
    Row(("measure", "mix lebesgue + atoms 1/3:1/2", "union(rationals; (1/2,3/4))"), 0, out=mu("3/4")),
    Row(("measure", "mix lebesgue + atoms 1/3:1/2", "meet-open(rationals; (1/4,5/12))"), 0, out=mu("1/2")),
    *(Row(("measure", d, "(0,1)"), 0, out=mu(2))
      for d in ("atoms 1/2:2", "atoms 1/2:1,1/2:1", "atoms 1/2:1,2/4:1", "mix atoms 1/2:1 + atoms 1/2:1")),
    Row(("measure", "lebesgue", "(0,2)"), 1, err=("(0,2) leaves [0,1]",)),
    Row(("measure", "lebesgue", "union(rationals; (0,3))"), 1, err=("(0,3) leaves [0,1]",)),
    Row(("measure", "restrict [0,2]", "rationals"), 1, err=("[0,2] leaves [0,1]",)),
    Row(("measure", "bogus", "(0,1)"), 1, err=("unrecognized descriptor 'bogus'",)),
    Row(("measure", "lebesgue", "(1/2,1/4)"), 1, err=("endpoints out of order: (1/2,1/4)",)),
    Row(("laws", "bogus"), 2, err=re.compile(r"\Alocale-lab laws: error: argument suite: invalid choice: 'bogus' \(.*\)\n\Z")),
    Row(("laws", "all", "--format", "json", "--max-size", "4"), 0, out=suites(
        ("frame", 2618), ("sublocale", 42404), ("morphism", 21664), ("measure", 7614))),
    *(Row(("laws", "morphism", "--max-size", size), 2, err=(
        f"locale-lab laws: error: argument --max-size: expected a positive integer, got {size!r}",))
      for size in ("0", "-1", "abc")),
    *(Row((*argv, "--tol", tol), 2, err=(
        f"locale-lab {argv[0]}: error: argument --tol: expected a positive rational, got {tol!r}",))
      for argv in (("measure", "lebesgue", "(0,1/2)"), ("laws", "measure")) for tol in ("nan", "abc", "0", "-1")),
    Row(("laws", "frame", "--corpus", "/nonexistent"), 2, err=("/nonexistent has no topologies/ inside",)),
    # a corpus with no file would pass every suite with no case
    *(Row(("laws", suite, "--corpus", no_corpus_file), 2,
          err=re.compile(r"\A.*/no-corpus-file has no corpus file in topologies/ or frames/\n\Z"))
      for suite in ("frame", "sublocale", "morphism", "measure", "all")),
]


if __name__ == "__main__":
    start, failed = time.perf_counter(), run(ROWS)
    print(f"{len(ROWS)} rows, {len(failed)} failures, in {time.perf_counter() - start:.1f} s")
    sys.exit(1 if failed else 0)

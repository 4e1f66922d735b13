"""Command line front end.

Four subcommands: frame-check validates a single frame or topology file,
laws replays the law suites over the corpus, measure evaluates measure
bounds for a descriptor against a part of [0,1], and demo walks through
the scripted examples. Exit codes: 0 clean, 1 a violation or an
unsupported/invalid input, 2 argument or parse trouble.

`main` builds one argument parser per process, on its first call, and
reuses it: it may be called any number of times in one process, and each
call answers as a fresh `locale-lab` process would.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from locale_lab.corpus import CorpusError, chain_spec
from locale_lab.frames import FrameError, build_frame, spec_from_json
from locale_lab.intervals import InvalidInterval, parse_ratopen
from locale_lab.laws import SUITES, run_suite
from locale_lab.measure import (
    BadTolerance,
    Lebesgue,
    UnsupportedDescriptor,
    atomic,
    checked_tol,
    measure_bounds,
    mu_reduce,
    mu_reduce_interval,
    mu_reduce_open,
    null_partner_interval,
    outer_measure_finite,
    parse_descriptor,
    stream_bounds,
    strict_additivity_check,
    strict_additivity_interval,
    validate_valuation,
)
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
    neighborhood,
    point_sublocale_meets_generic,
    structural_union_is_whole,
)
from locale_lab.runner import format_text, report_to_json, reports_to_json
from locale_lab.sublocales import (
    closed_sublocale,
    enumerate_sublocales,
    generic,
    is_dense,
    is_subsublocale,
    whole,
)

USAGE_ERRORS = (
    UnsupportedConstructor,
    UnsupportedDescriptor,
    InvalidInterval,
)


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# frame-check
# ---------------------------------------------------------------------------

def cmd_frame_check(args) -> int:
    try:
        obj = json.loads(Path(args.path).read_text(encoding="utf-8"))
    except OSError as exc:
        _err(f"cannot read {args.path}: {exc}")
        return 2
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        _err(f"cannot parse {args.path}: {exc}")
        return 2
    try:
        fr = build_frame(spec_from_json(obj))
    except FrameError as exc:
        _err(f"invalid: {exc}")
        return 1
    print(f"valid frame: {fr.n} elements")
    print(f"boolean: {'yes' if fr.boolean else 'no'}")
    print(f"regular: {'yes' if fr.regular else 'no'}")
    print(f"points: {len(fr.primes)}")
    return 0


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def cmd_laws(args) -> int:
    try:
        got = run_suite(args.suite, args.corpus, args.max_size, args.tol)
    except (FileNotFoundError, CorpusError) as exc:
        _err(str(exc))
        return 2
    reports = got if args.suite == "all" else [got]
    if args.format == "json":
        sys.stdout.write(reports_to_json(got) if args.suite == "all" else report_to_json(got))
    else:
        for r in reports:
            sys.stdout.write(format_text(r))
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def _split_top(text: str) -> list:
    """Split on ';' at parenthesis depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_part(text: str):
    """A part of [0,1]: an open literal, a named shape, or a combination.

    Combinations use ';' as the separator because ',' already appears
    inside interval literals. A blank part or argument is refused; the
    empty open is written `empty`.
    """
    t = text.strip()
    if not t:
        raise UnsupportedConstructor("blank part; write 'empty' for the empty open")
    low = t.lower()
    if low == "rationals":
        return CountablePoints(RATIONALS)
    if low == "irrationals":
        return CoCountable(RATIONALS)
    if low == "generic":
        return Generic()
    if low.startswith("closed "):
        return Closed(parse_ratopen(t[len("closed "):]))
    for head in ("union", "meet", "meet-open", "meet-closed"):
        if low.startswith(head + "(") and t.endswith(")"):
            inner = _split_top(t[len(head) + 1:-1])
            if any(not p.strip() for p in inner):
                raise UnsupportedConstructor(f"{head}() has a blank argument")
            if head in ("union", "meet"):
                return (Union if head == "union" else Meet)(tuple(parse_part(p) for p in inner))
            if len(inner) != 2:
                raise UnsupportedConstructor(
                    f"{head} takes exactly two arguments separated by ';'"
                )
            part, u = parse_part(inner[0]), parse_ratopen(inner[1].strip())
            return Meet((part, Open(u) if head == "meet-open" else Closed(u)))
    return Open(parse_ratopen(t))


def cmd_measure(args) -> int:
    try:
        d = parse_descriptor(args.descriptor)
        x = parse_part(args.part)
        b = measure_bounds(x, d, args.tol)
    except USAGE_ERRORS as exc:
        _err(str(exc))
        return 1
    except RecursionError:
        _err("part is nested too deeply")
        return 1
    print(f"mu = {b.lower} (exact)")
    return 0


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def _demo_generic() -> None:
    fr = build_frame(chain_spec(3))
    subs = enumerate_sublocales(fr)
    g = generic(fr)
    print("the three-element chain 0 < u < 1 has exactly "
          f"{len(subs)} parts (sublocales).")
    print("one of them is the least dense part: it sends H to not-not-H.")
    dense = [s for s in subs if is_dense(s)]
    print(f"dense parts: {len(dense)}; the least dense part is contained "
          f"in every one of them: "
          f"{all(is_subsublocale(g, d) for d in dense)}")
    print()
    print("on [0,1] the same part has no points at all:")
    for q in RATIONALS.prefix(5):
        print(f"  meets the single point {q}: {point_sublocale_meets_generic(q)}")
    stage = neighborhood(Generic(), 5).stage(32)  # listed point i arrives at stage i + 1
    hits = all(stage.contains(q) for q in RATIONALS.prefix(32))
    print(f"yet every neighborhood of it contains every rational probed: {hits}")
    b = stream_bounds(Generic(), Lebesgue(), Fraction(1, 1000))
    print(f"and its outer measure is pinned under length: [{b.lower}, {b.upper}]")
    b2 = stream_bounds(Generic(), atomic([(Fraction(1, 2), Fraction(1))]), Fraction(1, 1000))
    print(f"under a single atom at 1/2 it is exactly null: [{b2.lower}, {b2.upper}]")


def _demo_rationals() -> None:
    tol = Fraction(1, 1000)
    d = Lebesgue()
    rats = CountablePoints(RATIONALS)
    irr = CoCountable(RATIONALS)
    bq = stream_bounds(rats, d, tol)
    bi = stream_bounds(irr, d, tol)
    print(f"the rational points of [0,1], all of them: mu in [{bq.lower}, {bq.upper}]")
    print(f"the interval minus the rationals:          mu in [{bi.lower}, {bi.upper}]")
    res = strict_additivity_interval(rats, irr, d, tol)
    print(f"additivity residual of the split: {res.lo} (exact)")
    print("the two shapes cover the interval structurally: "
          f"{structural_union_is_whole(rats, irr)}")
    print("so length splits exactly across a countable set and its complement,")
    print("even though neither side is an open set.")


def _demo_reduction() -> None:
    fr = build_frame(chain_spec(3))
    val = validate_valuation(fr, {"0": 0, "u": Fraction(1, 2), "1": 1})
    r = mu_reduce(val)
    print("chain 0 < u < 1 with mu(u) = 1/2, mu(1) = 1:")
    print(f"  outer measure of the whole space: {outer_measure_finite(val, whole(fr))}")
    print(f"  the reduction keeps only what carries mass: "
          f"{sorted(fr.name(h) for h in r.fixpoints)} "
          f"(outer measure {outer_measure_finite(val, r)})")
    c = closed_sublocale(fr, fr.el("u"))
    print(f"  it equals c(u): {r == c}")
    print()
    print("on [0,1]:")
    halves = parse_ratopen("(0,1/2)|(1/2,1)")
    print(f"  lebesgue on (0,1/2)|(1/2,1) reduces to {mu_reduce_open(Lebesgue(), halves)}"
          " -- a massless missing point disappears")
    r2 = mu_reduce_interval(atomic([(Fraction(1, 2), Fraction(1))]))
    print(f"  a unit atom at 1/2 reduces the space to closed {r2.of_open}"
          " -- everything but the atom disappears")


def _demo_hidden() -> None:
    tol = Fraction(1, 1000)
    d = Lebesgue()
    rats = CountablePoints(RATIONALS)
    irr = CoCountable(RATIONALS)
    print("as sets, the rationals and the irrationals partition [0,1] and")
    print("their intersection is empty. as parts of the locale it is not:")
    print("both are dense, and any two dense parts meet in a dense part.")
    partner, certs = null_partner_interval(rats, d, tol)
    print(f"  union carries full measure: {certs['union'].lower}")
    print(f"  the meet is only *measure* null: upper bound {certs['intersection'].upper}")
    res = strict_additivity_interval(rats, irr, d, tol)
    print(f"  additivity residual of the split: {res.lo} (exact)")
    print()
    fr = build_frame(chain_spec(3))
    val = validate_valuation(fr, {"0": 0, "u": Fraction(1, 2), "1": 1})
    g = generic(fr)
    c = closed_sublocale(fr, fr.el("u"))
    print("a finite shadow of the same effect, on the chain 0 < u < 1:")
    print(f"  residual of the generic part against c(u): "
          f"{strict_additivity_check(val, g, c)}")
    print("  a naive additive reading loses mass there; the ledger only")
    print("  balances once hidden intersections are measured, not assumed empty.")


DEMOS = {
    "generic": _demo_generic,
    "rationals": _demo_rationals,
    "reduction": _demo_reduction,
    "hidden-intersections": _demo_hidden,
}


def cmd_demo(args) -> int:
    DEMOS[args.name]()
    return 0


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def _positive_rational(text: str) -> Fraction:
    """The --tol type: the measure entry points' own check, refused at
    parse time as an argument error."""
    try:
        return checked_tol(text)
    except BadTolerance as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    """The --max-size type: a cap below one element would admit no frame
    and pass vacuously."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line without the usage; subparsers inherit it
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.

    Sharing it is safe as long as parsing leaves it unchanged: parse_args
    returns a fresh Namespace and runs string defaults such as --tol's
    through their type on every parse, and no command may change it.
    """
    p = _Parser(
        prog="locale-lab",
        description="finite frames, parts of spaces, and measure on [0,1]",
    )
    sub = p.add_subparsers(dest="command", required=True)

    fc = sub.add_parser("frame-check", help="validate a frame or topology file")
    fc.add_argument("path")
    fc.set_defaults(fn=cmd_frame_check)

    lw = sub.add_parser("laws", help="replay the law suites over the corpus")
    lw.add_argument("suite", choices=sorted(SUITES) + ["all"])
    lw.add_argument("--corpus", default=None, help="corpus directory")
    lw.add_argument("--max-size", type=_positive_int, default=None, help="frame size cap")
    lw.add_argument(
        "--tol", type=_positive_rational, default=None, help="tolerance for measure bounds"
    )
    lw.add_argument("--format", choices=("text", "json"), default="text")
    lw.set_defaults(fn=cmd_laws)

    ms = sub.add_parser("measure", help="bound the measure of a part of [0,1]")
    ms.add_argument("descriptor", help="e.g. 'lebesgue', 'atoms 1/2:1', 'restrict [0,1/2]'")
    ms.add_argument("part", help="e.g. '(0,1/2)', 'closed (0,1/2)', 'rationals', 'union(rationals; (0,1/4))'")
    ms.add_argument("--tol", type=_positive_rational, default="1/1000",
                    help="checked only: the answer is exact")
    ms.set_defaults(fn=cmd_measure)

    dm = sub.add_parser("demo", help="walk through a scripted example")
    dm.add_argument("name", choices=sorted(DEMOS))
    dm.set_defaults(fn=cmd_demo)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot fail again, and exit 1 (the idiom of the signal
        # module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

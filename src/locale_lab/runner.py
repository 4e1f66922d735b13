"""What every law suite shares: the law, its registration, and the run
that turns the laws' results into a report.

Each law is declared once, as a `Law` registered with the laws of one
kind of context: a corpus entry, a frame, a part lattice, a map, a
valuation or the interval arena. Its check runs the law's loop over one
context and returns the cases checked and the failure witnesses; one
runner, `_Run`, turns those into a RunReport: how many instances were
checked, which failed (with witnesses), timing, and honest notes about
phenomena the corpus is too small to exhibit. No violations is the pass
signal the CLI turns into exit code 0.

A law quantified over frame elements and parts is a declaration,
`_forall`, with no loop of its own: `_forall` alone decides its case
count and how its witnesses name their values.

A law with a byte kernel returns through `_settle`: a kernel mismatch is
reported as a violation, never dropped. A map law's witness names the
map it came from (`map_laws._each_map`).

A suite's report is its `RunReport`, filled in as its laws run; the JSON
form is the dataclass's fields.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One failed case: the law and its identity, the frame or entry it
    failed on, and the witness."""

    law: str
    identity: str
    frame: str
    witness: dict


@dataclass
class RunReport:
    """A suite's report: the cases checked, the violations, the time taken,
    the tolerance of a measure suite and the notes."""

    suite: str
    cases: int
    violations: list
    seconds: float
    tolerance: str | None = None
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def report_to_json(report: RunReport) -> str:
    """Canonical serialization, the report's fields by name; parsing and
    re-dumping is byte-identical."""
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def reports_to_json(reports) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> RunReport:
    obj = json.loads(text)
    obj["violations"] = [Violation(**v) for v in obj["violations"]]
    return RunReport(**obj)


def format_text(report: RunReport) -> str:
    lines = [
        f"suite: {report.suite}",
        f"cases: {report.cases}",
        f"violations: {len(report.violations)}",
    ]
    if report.tolerance is not None:
        lines.append(f"tolerance: {report.tolerance}")
    lines.append(f"seconds: {report.seconds}")
    for v in report.violations:
        wit = " ".join(f"{k}={v.witness[k]}" for k in sorted(v.witness))
        lines.append(f"FAIL {v.law} on {v.frame}: {v.identity} [{wit}]")
    for n in report.notes:
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# laws and the runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """One identity, declared once. `check(ctx)` replays it over one
    context and returns (cases checked, failure witnesses)."""

    name: str
    identity: str
    check: Callable


def _declare(laws: list, name: str, identity: str):
    """Register the decorated check as law `name` in `laws`."""

    def register(check):
        laws.append(Law(name, identity, check))
        return check

    return register


def _forall(laws: list, name: str, identity: str, over, letters: str, holds, key: str = "form"):
    """Register law `name` in `laws`: `holds(ctx, *values)` for every
    tuple of values, one per letter of `letters`, the first letter the
    outermost loop. A lower-case letter ranges over the elements of the
    frame, an upper-case one over the parts of the lattice, where
    `over(ctx)` is (frame, lattice). `holds` is one predicate, or a dict
    of forms, each a predicate, checked innermost. The cases are the
    product of the ranges times the forms; each failing case is a witness
    that names each value under its lower-case letter, an element by
    `Frame.name` and a part by `SubLattice.label`, and a failing form
    under `key`."""
    forms = holds if isinstance(holds, dict) else {None: holds}
    keys = letters.lower()

    def check(ctx):
        fr, L = over(ctx)
        axes = [(range(fr.n), fr.name) if c.islower() else (range(len(L.subs)), L.label) for c in letters]
        ranges = [r for r, _ in axes]
        cases = math.prod(map(len, ranges)) * len(forms)
        if all(all(itertools.starmap(ok, itertools.product((ctx,), *ranges))) for ok in forms.values()):
            return cases, []
        return cases, [
            {**{c: nm(x) for c, (_, nm), x in zip(keys, axes, case)}, **({} if form is None else {key: form})}
            for case in itertools.product(*ranges) for form, ok in forms.items() if not ok(ctx, *case)
        ]

    laws.append(Law(name, identity, check))


def _once(ok: bool, witness=None):
    """The result of a law that is one case."""
    return 1, [] if ok else [witness or {}]


class _Run:
    """One suite run: its report, filled in as the laws run, and a clock."""

    def __init__(self, name: str, tol=None):
        self.report = RunReport(name, 0, [], 0.0, None if tol is None else str(tol))
        self._t0 = time.perf_counter()

    def apply(self, laws, label: str, ctx):
        """Check every law in `laws` on `ctx`, reporting failures under
        `label`: a map law's witness (i, w), of map i, under `label#i`, and
        (None, w), of the pair, under `label`."""
        for law in laws:
            cases, bad = law.check(ctx)
            self.report.cases += cases
            for w in bad:
                mi, w = w if isinstance(w, tuple) else (None, w)
                where = label if mi is None else f"{label}#{mi}"
                self.report.violations.append(Violation(law.name, law.identity, where, dict(w)))

    def note(self, text):
        self.report.notes.append(text)

    def within(self, named_frames, max_size: int):
        """The frames under the size cap; each one over it becomes a note."""
        for name, fr in named_frames:
            if fr.n > max_size:
                self.note(f"{name} skipped: {fr.n} elements over the size cap {max_size}")
            else:
                yield name, fr

    def done(self) -> RunReport:
        """The report, timed."""
        self.report.seconds = round(time.perf_counter() - self._t0, 3)
        return self.report


_UNCONFIRMED = {"form": "byte kernel mismatch the scalar loop did not confirm"}


def _settle(cases: int, ok: bool, scan=list, unconfirmed=_UNCONFIRMED):
    """The result of a law whose byte kernel's verdict on every case is
    `ok`: unless it holds, the scalar loop `scan()` names the witnesses,
    and a mismatch it does not confirm, or that a law without a loop
    finds, is still a violation, `unconfirmed`."""
    if ok:
        return cases, []
    return cases, scan() or [unconfirmed]

"""Law suites: the algebraic identities the library rests on, replayed
exhaustively over the bundled corpus and, for measure, the unit interval.

Each law is declared once, as a `Law` registered with the laws of one
kind of context: a corpus entry, a frame, a part lattice, a map, a
valuation or the interval arena. Its check runs the law's loop over one
context and returns the cases checked and the failure witnesses; one
runner turns those into a RunReport: how many instances were checked,
which failed (with witnesses), timing, and honest notes about phenomena
the corpus is too small to exhibit. No violations is the pass signal the
CLI turns into exit code 0.

The largest laws on part lattices and maps are checked by byte kernels:
their operands are packed one case per byte, so a few operations on long
integers or `bytes.translate` calls compare every equation of the law,
byte by byte, and the case count is the count of equations compared.
Every byte table a kernel reads comes from `lattice`: a part lattice's
(`SubLattice`), and for a map law the tables of every map from frame a to
frame b side by side (`_Maps`). When a kernel finds a mismatch, the law's
scalar loop runs, map by map for a map law, and names the witnesses, a
map's under its label `a->b#i`; it also runs alone where a part index, a
table value or an element index is not a byte (`lattice.BYTE`). A kernel
mismatch the scalar loop does not confirm is reported as a violation,
never dropped (`_settle`).

A suite's report is its `RunReport`, filled in as its laws run; the JSON
form is the dataclass's fields.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb, lcm

from locale_lab import intervals as ivs
from locale_lab.corpus import CorpusError, corpus_files, iter_corpus_frames, iter_negative_specs, load
from locale_lab.frames import Frame, FrameError, build_frame
from locale_lab.intervals import RatOpen, frac, iv, normalize, parse_fin, parse_ratopen
from locale_lab.lattice import SubLattice, _gather, _Maps
from locale_lab.measure import (
    FiniteValuation,
    Lebesgue,
    LebesgueRestrictedTo,
    Mixture,
    atomic,
    measure_bounds,
    measure_ro,
    mu_reduce,
    mu_reduce_interval,
    mu_reduce_open,
    null_partner,
    null_partner_interval,
    reduced_algebra,
    restrict_valuation,
    stream_bounds,
    strict_additivity_check,
    strict_additivity_interval,
    total_measure,
    validate_valuation,
    vstar,
)
from locale_lab.morphisms import (
    atoms,
    compose,
    enumerate_morphisms,
    factors_through,
    image,
    is_embedding,
    preimage,
    right_adjoint,
    sublocale_embedding,
    sum_frame,
    validate_morphism,
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
    closed_neighborhood,
    neighborhood,
    point_sublocale_meets_generic,
    structural_union_is_whole,
)
from locale_lab.sublocales import (
    closed_sublocale,
    complement_c,
    entanglement,
    generic,
    is_boolean_sublocale,
    is_dense,
    is_subsublocale,
    union_all,
    validate_nucleus,
    whole,
)

__all__ = [
    "Law",
    "Violation",
    "RunReport",
    "SubLattice",
    "report_to_json",
    "report_from_json",
    "reports_to_json",
    "format_text",
    "run_frame_suite",
    "run_sublocale_suite",
    "run_morphism_suite",
    "run_measure_suite",
    "run_suite",
    "SUITES",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    law: str
    identity: str
    frame: str
    witness: dict


@dataclass
class RunReport:
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


def _once(ok: bool, witness=None):
    """The result of a law that is one case."""
    return 1, [] if ok else [witness or {}]


class _Run:
    """One suite run: its report, filled in as the laws run, and a clock."""

    def __init__(self, name: str, tol=None):
        self.report = RunReport(name, 0, [], 0.0, None if tol is None else str(tol))
        self._t0 = time.perf_counter()

    def apply(self, laws, label: str, ctx):
        """Check every law in `laws` on `ctx`, reporting failures under `label`."""
        for law in laws:
            cases, bad = law.check(ctx)
            self.report.cases += cases
            for w in bad:
                self.report.violations.append(Violation(law.name, law.identity, label, dict(w)))

    def apply_maps(self, laws, label, maps):
        """`apply` for the map laws: a failure of map i goes under `label#i`."""
        for law in laws:
            cases, bad = law.check(maps)
            self.report.cases += cases
            for mi, w in bad:
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


def _settle(cases: int, ok, scan, unconfirmed=_UNCONFIRMED):
    """The result of a law with a byte kernel. `ok` is the kernel's verdict
    on every case, or None where it cannot run. Unless it passed, the
    scalar loop `scan()` runs and names the witnesses; a kernel mismatch
    the scalar loop does not confirm is still a violation, `unconfirmed`."""
    if ok:
        return cases, []
    bad = scan()
    if ok is False and not bad:
        bad = [unconfirmed]
    return cases, bad


def _meets_distribute(L, parts):
    """The row form of R n (X u Y) = (R n X) u (R n Y) for every R in
    `parts` and every ordered pair X, Y of parts, one comparison per R; None
    where the lattice is not bytewise."""
    if L.bytewise:
        x, y, u, _, ones = L.packed_pairs
        return all(r & u == (r & x) | (r & y) for r in map(ones.__mul__, parts))


# ---------------------------------------------------------------------------
# frame isomorphism (to avoid re-running identical suites on relabeled
# copies; the corpus keeps the copies so loading stays honest)
# ---------------------------------------------------------------------------

def _iso_reps(named_frames):
    """One frame per isomorphism class, in order, and the number of copies
    skipped: a frame is a copy when one of its maps to an earlier
    representative of its size has a bijective fstar."""
    reps = []
    skipped = 0
    for name, fr in named_frames:
        if any(
            rf.n == fr.n
            and any(len(set(m.fstar)) == fr.n for m in enumerate_morphisms(fr, rf))
            for _, rf in reps
        ):
            skipped += 1
            continue
        reps.append((name, fr))
    return reps, skipped


# ---------------------------------------------------------------------------
# frame suite: corpus entries, negatives, and the laws of each frame
# ---------------------------------------------------------------------------

ENTRY_LAWS: list = []
NEGATIVE_LAWS: list = []
FRAME_LAWS: list = []


def run_frame_suite(root=None, max_size=None, tol=None) -> RunReport:
    max_size = 10 if max_size is None else max_size
    run = _Run("frame")
    entries = [(p.stem, _load_entry(p)) for p in corpus_files(root)]
    for stem, entry in entries:
        run.apply(ENTRY_LAWS, stem, entry)
    for stem, spec in iter_negative_specs(root):
        run.apply(NEGATIVE_LAWS, stem, spec)
    frames = [(stem, fr) for stem, fr in entries if isinstance(fr, Frame)]
    for stem, fr in run.within(frames, max_size):
        run.apply(FRAME_LAWS, stem, fr)
    return run.done()


def _load_entry(path):
    """The frame a corpus file describes, or the error that stopped it."""
    try:
        return load(path)
    except CorpusError as exc:
        return exc


@_declare(ENTRY_LAWS, "frame-valid", "every positive corpus entry builds a valid frame")
def _frame_valid(entry):
    return _once(isinstance(entry, Frame), {"error": str(entry)})


@_declare(NEGATIVE_LAWS, "negative-rejected",
          "every negative corpus entry is refused with a witness")
def _negative_rejected(spec):
    try:
        build_frame(spec)
    except FrameError as exc:
        return _once(getattr(exc, "witness", None) is not None, {"error": str(exc)})
    return _once(False, {"error": "built without complaint"})


@_declare(FRAME_LAWS, "heyting-adjunction", "W <= (U => H) iff W n U <= H")
def _heyting_adjunction(fr):
    n, nm = fr.n, fr.name
    bad = []
    for w in range(n):
        for u in range(n):
            for h in range(n):
                if fr.leq(w, fr.heyting(u, h)) != fr.leq(fr.meet(w, u), h):
                    bad.append({"w": nm(w), "u": nm(u), "h": nm(h)})
    return n ** 3, bad


@_declare(FRAME_LAWS, "meet-over-join", "A n (B u C) = (A n B) u (A n C)")
def _meet_over_join(fr):
    n, nm = fr.n, fr.name
    bad = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if fr.meet(a, fr.join(b, c)) != fr.join(fr.meet(a, b), fr.meet(a, c)):
                    bad.append({"a": nm(a), "b": nm(b), "c": nm(c)})
    return n ** 3, bad


@_declare(FRAME_LAWS, "boolean-definition",
          "the boolean flag means every element has a complement")
def _boolean_definition(fr):
    complemented = all(fr.join(x, fr.neg(x)) == fr.top for x in range(fr.n))
    return _once(fr.boolean == complemented, {"flag": str(fr.boolean)})


@_declare(FRAME_LAWS, "regular-definition",
          "the regular flag means every element is the join of elements well inside it")
def _regular_definition(fr):
    reg = all(
        fr.join_all(w for w in range(fr.n) if fr.well_inside(w, u)) == u
        for u in range(fr.n)
    )
    return _once(fr.regular == reg, {"flag": str(fr.regular)})


@_declare(FRAME_LAWS, "finite-regular-is-boolean",
          "on a finite frame regularity and complementation coincide")
def _finite_regular_is_boolean(fr):
    return _once(fr.regular == fr.boolean)


@_declare(FRAME_LAWS, "neg-of-join", "not(U u V) = not U n not V")
def _neg_of_join(fr):
    n, nm = fr.n, fr.name
    bad = []
    for u in range(n):
        for v in range(n):
            if fr.neg(fr.join(u, v)) != fr.meet(fr.neg(u), fr.neg(v)):
                bad.append({"u": nm(u), "v": nm(v)})
    return n * n, bad


@_declare(FRAME_LAWS, "triple-negation", "not not not U = not U")
def _triple_negation(fr):
    bad = []
    for u in range(fr.n):
        if fr.neg(fr.neg(fr.neg(u))) != fr.neg(u):
            bad.append({"u": fr.name(u)})
    return fr.n, bad


# ---------------------------------------------------------------------------
# sublocale suite: the laws of each part lattice
# ---------------------------------------------------------------------------

PART_LAWS: list = []


def run_sublocale_suite(root=None, max_size=None, tol=None) -> RunReport:
    max_size = 10 if max_size is None else max_size
    run = _Run("sublocale")
    lossy = None
    for name, fr in run.within(iter_corpus_frames(root), max_size):
        L = SubLattice(fr)
        run.apply(PART_LAWS, name, L)
        lossy = lossy or _lossy_note(name, L)
    if not any(v.law == "meet-over-union-search" for v in run.report.violations):
        run.note(
            "meet over arbitrary union: no violation found; every finite "
            "assembly of sublocales is a distributive lattice, so the corpus "
            "is too small to exhibit the failure (it needs an infinite join)"
        )
    if lossy:
        run.note(lossy)
    return run.done()


@_declare(PART_LAWS, "nucleus-valid",
          "every enumerated sublocale map is inflationary, idempotent, and meet-preserving")
def _nucleus_valid(L):
    bad = []
    for sub in L.subs:
        try:
            validate_nucleus(L.frame, sub.nucleus)
        except FrameError as exc:
            bad.append({"error": str(exc)})
    return len(L.subs), bad


@_declare(PART_LAWS, "open-order", "U <= V iff [U] inside [V]")
def _open_order(L):
    fr = L.frame
    bad = []
    for u in range(fr.n):
        for v in range(fr.n):
            ou, ov = L.open_idx[u], L.open_idx[v]
            if fr.leq(u, v) != (ou & ov == ou):
                bad.append({"u": fr.name(u), "v": fr.name(v)})
    return fr.n ** 2, bad


@_declare(PART_LAWS, "open-meet", "[U n V] = [U] n [V]")
def _open_meet(L):
    fr = L.frame
    bad = []
    for u in range(fr.n):
        for v in range(fr.n):
            if L.open_idx[fr.meet(u, v)] != L.open_idx[u] & L.open_idx[v]:
                bad.append({"u": fr.name(u), "v": fr.name(v)})
    return fr.n ** 2, bad


@_declare(PART_LAWS, "open-join", "[U u V] = [U] u [V]")
def _open_join(L):
    fr = L.frame
    bad = []
    for u in range(fr.n):
        for v in range(fr.n):
            if L.open_idx[fr.join(u, v)] != L.open_idx[u] | L.open_idx[v]:
                bad.append({"u": fr.name(u), "v": fr.name(v)})
    return fr.n ** 2, bad


@_declare(PART_LAWS, "closed-duality",
          "c reverses order, c(U u V) = c(U) n c(V), c(U n V) = c(U) u c(V)")
def _closed_duality(L):
    fr, nm = L.frame, L.frame.name
    bad = []
    for u in range(fr.n):
        for v in range(fr.n):
            cu, cv = L.closed_idx[u], L.closed_idx[v]
            if fr.leq(v, u) != (cu & cv == cu):
                bad.append({"law": "order", "u": nm(u), "v": nm(v)})
            if L.closed_idx[fr.join(u, v)] != L.closed_idx[u] & L.closed_idx[v]:
                bad.append({"law": "meet", "u": nm(u), "v": nm(v)})
            if L.closed_idx[fr.meet(u, v)] != L.closed_idx[u] | L.closed_idx[v]:
                bad.append({"law": "join", "u": nm(u), "v": nm(v)})
    return 3 * fr.n ** 2, bad


@_declare(PART_LAWS, "open-closed-partition", "[V] u c(V) = E and [V] n c(V) = empty")
def _open_closed_partition(L):
    fr = L.frame
    bad = []
    for v in range(fr.n):
        if (L.open_idx[v] | L.closed_idx[v]) != L.whole_idx:
            bad.append({"v": fr.name(v), "side": "union"})
        if (L.open_idx[v] & L.closed_idx[v]) != L.empty_idx:
            bad.append({"v": fr.name(v), "side": "meet"})
    return 2 * fr.n, bad


# the four equivalences pairing a sublocale against an open/closed pair
@_declare(PART_LAWS, "complement-characterizations",
          "union with one of the pair is everything iff the other is contained")
def _complement_characterizations(L):
    fr, k = L.frame, len(L.subs)
    bad = []
    for v in range(fr.n):
        ov, cv = L.open_idx[v], L.closed_idx[v]
        for x in range(k):
            if (x | cv == L.whole_idx) != (ov & x == ov):
                bad.append({"v": fr.name(v), "x": L.label(x), "form": "X u c(V) = E iff [V] in X"})
            if (x & ov == L.empty_idx) != (x & cv == x):
                bad.append({"v": fr.name(v), "x": L.label(x), "form": "X n [V] = 0 iff X in c(V)"})
            if (x | ov == L.whole_idx) != (cv & x == cv):
                bad.append({"v": fr.name(v), "x": L.label(x), "form": "X u [V] = E iff c(V) in X"})
            if (x & cv == L.empty_idx) != (x & ov == x):
                bad.append({"v": fr.name(v), "x": L.label(x), "form": "X n c(V) = 0 iff X in [V]"})
    return 4 * fr.n * k, bad


# meets with opens and closeds have closed-form nuclei
@_declare(PART_LAWS, "meet-nucleus-form",
          "([V] n X) maps H to V => e_X(H); (c(V) n X) maps H to e_X(H u V)")
def _meet_nucleus_form(L):
    """Per v the row form reads the rows of [V] n X for every X, read off
    the meet column, against every row read through V's Heyting row, and
    the rows of c(V) n X against V's join row read through every row."""
    fr, k = L.frame, len(L.subs)
    nm = fr.name
    ok = None
    if L.bytewise:
        rows, meets = L.nucleus_rows, L.ordered_pairs[3]
        every, tables = b"".join(rows), L.nucleus_tables
        ok = all(
            b"".join(map(rows.__getitem__, meets[ov * k:ov * k + k])) == every.translate(hv)
            and b"".join(map(rows.__getitem__, meets[cv * k:cv * k + k])) == b"".join(map(jv.translate, tables))
            for ov, cv, hv, jv in zip(L.open_idx, L.closed_idx, L.heyting_rows, L.join_rows)
        )

    def scan():
        bad = []
        nuclei = [s.nucleus for s in L.subs]
        for v in range(fr.n):
            ov, cv = L.open_idx[v], L.closed_idx[v]
            for x in range(k):
                ex = nuclei[x]
                open_meet = nuclei[ov & x]
                closed_meet = nuclei[cv & x]
                for h in range(fr.n):
                    if open_meet[h] != fr.heyting(v, ex[h]):
                        bad.append({"v": nm(v), "x": L.label(x), "h": nm(h), "side": "open"})
                    if closed_meet[h] != ex[fr.join(h, v)]:
                        bad.append({"v": nm(v), "x": L.label(x), "h": nm(h), "side": "closed"})
        return bad

    return _settle(2 * fr.n * k * fr.n, ok, scan)


# opens and closeds distribute over finite unions of sublocales
@_declare(PART_LAWS, "side-distributivity",
          "L n (X u Y) = (L n X) u (L n Y) for L open or closed")
def _side_distributivity(L):
    fr, k = L.frame, len(L.subs)

    def scan():
        bad = []
        for v in range(fr.n):
            for li in (L.open_idx[v], L.closed_idx[v]):
                for x in range(k):
                    for y in range(k):
                        if li & (x | y) != (li & x) | (li & y):
                            bad.append({"v": fr.name(v), "x": L.label(x), "y": L.label(y)})
        return bad

    return _settle(2 * fr.n * k * k, _meets_distribute(L, L.open_idx + L.closed_idx), scan)


@_declare(PART_LAWS, "union-lub-intersect-glb",
          "union is the least upper bound and intersection the greatest lower bound")
def _union_lub_intersect_glb(L):
    """The row form checks the bounds of every pair at once, then per z
    every pair's union outside z against its parts outside z, and z outside
    the meet against z outside its parts: where the bounds hold, a byte
    differs for some z exactly when the union is not least or the meet not
    greatest."""
    k = len(L.subs)
    ok = None
    if L.bytewise:
        x, y, u, m, ones = L.packed_pairs
        cx, cy, cm = ~x, ~y, ~m
        ok = x & u == x and y & u == y and m & x == m and m & y == m and all(
            u & ~z == (x & ~z) | (y & ~z) and z & cm == (z & cx) | (z & cy)
            for z in map(ones.__mul__, range(k))
        )
    if ok:
        return 2 * k * k * (1 + k), []
    # a pair whose bounds fail has no z cases, so the loop counts too
    checked, bad = 0, []
    for i in range(k):
        for j in range(k):
            u, m = i | j, i & j
            checked += 2
            if not (i & u == i and j & u == j) or not (m & i == m and m & j == m):
                bad.append({"x": L.label(i), "y": L.label(j), "form": "bounds"})
                continue
            checked += 2 * k
            for z in range(k):
                if i & z == i and j & z == j and u & z != u:
                    bad.append({"x": L.label(i), "y": L.label(j), "z": L.label(z), "form": "union not least"})
                if z & i == z and z & j == z and z & m != z:
                    bad.append({"x": L.label(i), "y": L.label(j), "z": L.label(z), "form": "meet not greatest"})
    return _settle(checked, ok, lambda: bad)


# finite unions distribute over meets (pairs and triples)
@_declare(PART_LAWS, "join-over-meet",
          "A u (B1 n B2 n ...) = (A u B1) n (A u B2) n ... over pairs and triples")
def _join_over_meet(L):
    k = len(L.subs)
    ok = None
    if L.bytewise:
        i2, j2, m2, ones2 = L.unordered_pairs
        i3, j3, h3, m3, ones3 = L.unordered_triples
        ok = all(r | m2 == (r | i2) & (r | j2) for r in (a * ones2 for a in range(k))) and all(
            r | m3 == (r | i3) & (r | j3) & (r | h3) for r in (a * ones3 for a in range(k))
        )

    def scan():
        bad = []
        for a in range(k):
            for i, j in itertools.combinations(range(k), 2):
                if a | (i & j) != (a | i) & (a | j):
                    bad.append({"a": L.label(a), "b1": L.label(i), "b2": L.label(j)})
            for i, j, h in itertools.combinations(range(k), 3):
                if a | (i & j & h) != (a | i) & (a | j) & (a | h):
                    bad.append({"a": L.label(a), "b1": L.label(i), "b2": L.label(j), "b3": L.label(h)})
        return bad

    return _settle(k * (comb(k, 2) + comb(k, 3)), ok, scan)


@_declare(PART_LAWS, "closure-interior-extremal",
          "closure is the least closed part above, interior the largest open inside")
def _closure_interior_extremal(L):
    fr, k = L.frame, len(L.subs)
    bad = []
    for i in range(k):
        ci = L.closure_idx[i]
        if i & ci != i:
            bad.append({"x": L.label(i), "form": "closure not above"})
        if ci not in L.closed_parts:
            bad.append({"x": L.label(i), "form": "closure not closed"})
        if L.closure_idx[ci] != ci:
            bad.append({"x": L.label(i), "form": "closure not idempotent"})
        for d in L.closed_parts:
            if i & d == i and ci & d != ci:
                bad.append({"x": L.label(i), "form": "closure not least", "d": L.label(d)})
        u = L.int_el[i]
        if L.open_idx[u] & i != L.open_idx[u] or any(
            L.open_idx[v] & i == L.open_idx[v] and not fr.leq(v, u) for v in range(fr.n)
        ):
            bad.append({"x": L.label(i), "form": "interior not greatest open inside"})
    return k * (4 + len(L.closed_parts)), bad


@_declare(PART_LAWS, "exterior-partition",
          "the exterior, interior, and boundary of a part tile the space")
def _exterior_partition(L):
    fr, k = L.frame, len(L.subs)
    bad = []
    for i in range(k):
        ext_i, int_i = L.ext[i], L.int_el[i]
        bd = L.closure_idx[i] & L.closed_idx[int_i]
        if L.closure_idx[i] != L.closed_idx[ext_i]:
            bad.append({"x": L.label(i), "form": "closure is c(Ext X)"})
        if bd != L.closed_idx[fr.join(int_i, ext_i)]:
            bad.append({"x": L.label(i), "form": "boundary is c(Int X u Ext X)"})
        if (L.open_idx[int_i] | bd) != L.closure_idx[i]:
            bad.append({"x": L.label(i), "form": "[Int X] u boundary = closure"})
        if (L.open_idx[ext_i] | bd) != L.closed_idx[int_i]:
            bad.append({"x": L.label(i), "form": "[Ext X] u boundary = c(Int X)"})
        dense = L.dense[i]
        if dense != (L.closure_idx[i] == L.whole_idx) or dense != is_dense(L.subs[i]):
            bad.append({"x": L.label(i), "form": "dense iff closure is everything"})
    return 5 * k, bad


@_declare(PART_LAWS, "generic-nucleus",
          "the least dense part maps H to not not H = Int closure [H]")
def _generic_nucleus(L):
    fr = L.frame
    g = L.subs[L.generic_idx].nucleus
    bad = []
    for h in range(fr.n):
        if g[h] != fr.neg(fr.neg(h)):
            bad.append({"h": fr.name(h), "form": "double negation"})
        if g[h] != L.int_el[L.closure_idx[L.open_idx[h]]]:
            bad.append({"h": fr.name(h), "form": "interior of closure"})
    return 2 * fr.n, bad


@_declare(PART_LAWS, "generic-dense", "the generic part is dense")
def _generic_dense(L):
    return _once(L.dense[L.generic_idx])


@_declare(PART_LAWS, "generic-least-dense",
          "the generic part is contained in every dense part")
def _generic_least_dense(L):
    bad = []
    for i in range(len(L.subs)):
        if L.dense[i] and L.generic_idx & i != L.generic_idx:
            bad.append({"d": L.label(i)})
    return sum(L.dense), bad


@_declare(PART_LAWS, "boolean-generic-whole",
          "on a complemented frame the generic part is everything")
def _boolean_generic_whole(L):
    if not L.frame.boolean:
        return 0, []
    return _once(L.generic_idx == L.whole_idx)


@_declare(PART_LAWS, "generic-boolean-part",
          "the generic part equals the generic part of its closure")
def _generic_boolean_part(L):
    return _once(is_boolean_sublocale(L.subs[L.generic_idx]))


@_declare(PART_LAWS, "generic-closed-swap", "generic n c(V) = generic n [not V]")
def _generic_closed_swap(L):
    fr, gi = L.frame, L.generic_idx
    bad = []
    for v in range(fr.n):
        if gi & L.closed_idx[v] != gi & L.open_idx[fr.neg(v)]:
            bad.append({"v": fr.name(v)})
    return fr.n, bad


@_declare(PART_LAWS, "smallest-cocover",
          "the complement is the least part whose union with X is everything")
def _smallest_cocover(L):
    k = len(L.subs)
    bad = []
    for i in range(k):
        yi = complement_c(L.subs[i]).points
        if i | yi != L.whole_idx:
            bad.append({"x": L.label(i), "form": "not a cover"})
        for z in range(k):
            if i | z == L.whole_idx and yi & z != yi:
                bad.append({"x": L.label(i), "z": L.label(z), "form": "not least"})
    return k * (1 + k), bad


@_declare(PART_LAWS, "boolean-opens",
          "open parts of a complemented frame equal the generic part of their closure")
def _boolean_opens(L):
    fr = L.frame
    if not fr.boolean:
        return 0, []
    bad = []
    for v in range(fr.n):
        if not is_boolean_sublocale(L.subs[L.open_idx[v]]):
            bad.append({"v": fr.name(v)})
    return fr.n, bad


@_declare(PART_LAWS, "entanglement-zone",
          "closure(A n B) is the largest closed F with A n F and B n F dense in F")
def _entanglement_zone(L):
    """The closed parts a and b are both dense in are the bits of
    `dense_masks[a] & dense_masks[b]`. eps, a closure, is a closed part,
    so the zone is dense in itself iff its bit is set."""
    k, dense, inside = len(L.subs), L.dense_masks, L.closed_inside
    bad = []
    for a in range(k):
        for b in range(k):
            eps = L.closure_idx[a & b]
            if entanglement(L.subs[a], L.subs[b]).points != eps:
                bad.append({"a": L.label(a), "b": L.label(b), "form": "closure of the meet"})
            both = dense[a] & dense[b]
            if not both >> eps & 1:
                bad.append({"a": L.label(a), "b": L.label(b), "form": "zone not dense in itself"})
            wider = both & ~inside[eps]
            for g in L.closed_parts if wider else ():
                if wider >> g & 1:
                    bad.append({"a": L.label(a), "b": L.label(b), "g": L.label(g), "form": "not largest"})
    return k * k * (2 + len(L.closed_parts)), bad


# expected to find nothing: every finite lattice of sublocales is
# distributive, and the failure needs an infinite join
@_declare(PART_LAWS, "meet-over-union-search",
          "search for a finite failure of X n (Y u Z) = (X n Y) u (X n Z)")
def _meet_over_union_search(L):
    k = len(L.subs)

    def scan():
        return [{"x": L.label(x), "y": L.label(y), "z": L.label(z)}
                for x in range(k) for y in range(k) for z in range(k) if x & (y | z) != (x & y) | (x & z)]

    return _settle(k ** 3, _meets_distribute(L, range(k)), scan)


@_declare(PART_LAWS, "subspace-laws",
          "point subsets embed compatibly with union, open meets, exterior, and closure")
def _subspace_laws(L):
    fr = L.frame
    if fr.opens is None or len(fr.point_names) > 3:
        return 0, []
    pts = frozenset(fr.point_names)
    idx_of = L.subspace_idx
    bad = []
    for xs, ix in idx_of.items():
        ee = fr.join_all(v for v in range(fr.n) if not (fr.opens[v] & xs))
        closure_pts = pts - fr.opens[ee]
        if L.ext[ix] != ee:
            bad.append({"X": set_label(xs), "form": "exterior matches the point picture"})
        if L.closure_idx[ix] != idx_of[closure_pts]:
            bad.append({"X": set_label(xs), "form": "closure matches the point picture"})
        ie = fr.join_all(v for v in range(fr.n) if fr.opens[v] <= xs)
        if not fr.leq(ie, L.int_el[ix]):
            bad.append({"X": set_label(xs), "form": "point interior inside localic interior"})
        bd = L.closure_idx[ix] & L.closed_idx[L.int_el[ix]]
        point_bd = idx_of[closure_pts - fr.opens[ie]]
        if bd & point_bd != bd:
            bad.append({"X": set_label(xs), "form": "boundary inside the point boundary"})
        for v in range(fr.n):
            if idx_of[frozenset(fr.opens[v] & xs)] != L.open_idx[v] & ix:
                bad.append({"X": set_label(xs), "U": fr.name(v), "form": "[U n X] = [U] n [X]"})
        for ys, iy in idx_of.items():
            if idx_of[xs | ys] != ix | iy:
                bad.append({"X": set_label(xs), "Y": set_label(ys), "form": "[X u Y] = [X] u [Y]"})
            both = idx_of[xs & ys]
            if both & ix & iy != both:
                bad.append({"X": set_label(xs), "Y": set_label(ys), "form": "[X n Y] inside [X] n [Y]"})
    s = len(idx_of)
    return s * (4 + fr.n + 2 * s), bad


def _lossy_note(name: str, L: SubLattice):
    """A note on the first pair of point subsets whose meet is strictly
    below the meet of their parts, or None."""
    fr = L.frame
    if fr.opens is None or len(fr.point_names) > 3:
        return None
    idx_of = L.subspace_idx
    for xs, ix in idx_of.items():
        for ys, iy in idx_of.items():
            both, meet = idx_of[xs & ys], ix & iy
            if both != meet and both & meet == both:
                return (
                    f"point picture is lossy on {name}: [X n Y] is strictly "
                    f"below [X] n [Y] for X={set_label(xs)}, Y={set_label(ys)}"
                )
    return None


def set_label(ss) -> str:
    return "{" + ",".join(sorted(ss)) + "}"


# ---------------------------------------------------------------------------
# morphism suite: the laws of each part lattice, of each map between
# representatives, and of composites
# ---------------------------------------------------------------------------

LATTICE_LAWS: list = []
MAP_LAWS: list = []
COMPOSITION_LAWS: list = []


def run_morphism_suite(root=None, max_size=None, tol=None) -> RunReport:
    max_size = 8 if max_size is None else max_size
    run = _Run("morphism")
    frames = list(run.within(iter_corpus_frames(root), max_size))
    reps, skipped = _iso_reps(frames)
    run.note(
        f"{len(frames)} corpus frames of size <= {max_size} collapse to "
        f"{len(reps)} up to isomorphism; maps are enumerated between representatives "
        f"({skipped} relabeled copies skipped)"
    )
    lats = {nm: SubLattice(fr) for nm, fr in reps}
    for nm, _ in reps:
        run.apply(LATTICE_LAWS, nm, lats[nm])
    small = [(nm, fr) for nm, fr in reps if fr.n <= 4]
    # maps between small representatives are kept for the composition laws
    maps = {}
    for (an, a), (bn, b) in itertools.product(reps, repeat=2):
        fs = enumerate_morphisms(a, b)
        run.apply_maps(MAP_LAWS, f"{an}->{bn}", _Maps(fs, lats[an], lats[bn]))
        if a.n <= 4 and b.n <= 4:
            maps[an, bn] = fs
    run.note(
        "composition laws checked on the representatives with at most 4 "
        "elements: " + ", ".join(nm for nm, _ in small)
    )
    run.apply(COMPOSITION_LAWS, "small representatives", (small, lats, maps))
    return run.done()


def _each_map(maps, cases, ok, scan):
    """`_settle` for a map law, `cases` per map: `scan(f)` names the
    witnesses of each map, paired with its index, and a kernel mismatch no
    map's loop confirms is the pair's, index None."""
    def scan_all():
        return [(mi, w) for mi, f in enumerate(maps.fs) for w in scan(f)]

    return _settle(cases * len(maps.fs), ok, scan_all, (None, _UNCONFIRMED))


@_declare(LATTICE_LAWS, "layer-decomposition", "every part is the meet over V of [V] u c(e(V))")
def _layer_decomposition(L):
    bad = []
    for i, sub in enumerate(L.subs):
        layers = [L.open_idx[v] | L.closed_idx[ev] for v, ev in enumerate(sub.nucleus)]
        if L.meet_fold(layers) != i:
            bad.append({"x": L.label(i)})
    return len(L.subs), bad


@_declare(LATTICE_LAWS, "boolean-combination-distributivity",
          "H n (A u B) = (H n A) u (H n B) for H a boolean combination of opens")
def _boolean_combination_distributivity(L):
    cell_parts = atoms(L.frame)
    cell_idx = [c.points for c in cell_parts]
    cells, k = len(cell_idx), len(L.subs)
    bad = []
    if cell_idx:
        if union_all(L.frame, cell_parts).points != L.whole_idx:
            bad.append({"form": "cells do not cover"})
        for i, j in itertools.combinations(range(cells), 2):
            if cell_idx[i] & cell_idx[j] != L.empty_idx:
                bad.append({"form": "cells overlap", "i": str(i), "j": str(j)})
    combos = {L.empty_idx}  # the unions of sets of cells
    for c in cell_idx:
        combos |= {h | c for h in combos}
    combos = sorted(combos)

    def scan():
        return [{"h": L.label(h), "a": L.label(x), "b": L.label(y)}
                for h in combos for x in range(k) for y in range(k) if h & (x | y) != (h & x) | (h & y)]

    cases, spread = _settle(len(combos) * k * k, _meets_distribute(L, combos), scan)
    return (1 + comb(cells, 2) if cells else 0) + cases, bad + spread


@_declare(LATTICE_LAWS, "meets-join-product",
          "(meet of As) u (meet of Bs) = meet over pairs of (Ai u Bj)")
def _meets_join_product(L):
    """The b-pairs are packed once; each a-pair checks all of them at once."""
    pairs = list(itertools.combinations(range(len(L.subs)), 2))
    ok = None
    if L.bytewise:
        b1, b2, bm, ones = L.unordered_pairs
        spread = [x * ones for x in range(len(L.subs))]
        ok = all(
            spread[a1 & a2] | bm
            == (spread[a1] | b1) & (spread[a1] | b2) & (spread[a2] | b1) & (spread[a2] | b2)
            for a1, a2 in pairs
        )

    def scan():
        bad = []
        for a1, a2 in pairs:
            for b1, b2 in pairs:
                if (a1 & a2) | (b1 & b2) != (a1 | b1) & (a1 | b2) & (a2 | b1) & (a2 | b2):
                    bad.append(
                        {"a1": L.label(a1), "a2": L.label(a2), "b1": L.label(b1), "b2": L.label(b2)}
                    )
        return bad

    return _settle(len(pairs) ** 2, ok, scan)


@_declare(MAP_LAWS, "adjunction", "fstar(V) <= U iff V <= fstar-adjoint(U)")
def _adjunction(maps):
    """The pair kernel reads, for each v, map and u in turn, the up-set of
    fstar(v) at u and the up-set of v at the adjoint of u."""
    src, tgt = maps.FL.frame, maps.EL.frame
    ok = None
    if maps.bytewise:
        rows = [up[: tgt.n] for up in maps.EL.up_rows]
        by_v = bytes(itertools.chain.from_iterable(zip(*maps.fstar)))
        adjoints = b"".join(maps.adjoint)
        ok = b"".join(map(rows.__getitem__, by_v)) == b"".join(
            [adjoints.translate(up) for up in maps.FL.up_rows]
        )

    def scan(f):
        fstar, adj = f.fstar, right_adjoint(f)
        return [{"v": src.name(v), "u": tgt.name(u)} for v in range(src.n) for u in range(tgt.n)
                if tgt.leq(fstar[v], u) != src.leq(v, adj[u])]

    return _each_map(maps, src.n * tgt.n, ok, scan)


@_declare(MAP_LAWS, "embedding-three-ways",
          "surjectivity of fstar, injectivity of the adjoint, and the section law agree")
def _embedding_three_ways(maps):
    """The pair kernel reads each flag as a byte per map: `is_embedding`,
    the adjoint's values counted, and the adjoint read through fstar."""
    n = maps.EL.frame.n
    ok = None
    if maps.bytewise:
        ok = (
            bytes(map(is_embedding, maps.fs))
            == bytes(map(n.__eq__, map(len, map(set, maps.adjoint))))
            == bytes(map(bytes(range(n)).__eq__, map(bytes.translate, maps.adjoint, maps.fstar_tables)))
        )

    def scan(f):
        adj = right_adjoint(f)
        flags = {
            "surjective": is_embedding(f),
            "adjoint injective": len(set(adj)) == n,
            "section": all(f.fstar[adj[u]] == u for u in range(n)),
        }
        return [] if len(set(flags.values())) == 1 else [{k: str(v) for k, v in flags.items()}]

    return _each_map(maps, 1, ok, scan)


@_declare(MAP_LAWS, "preimage-open-closed",
          "pullback of [V] is [fstar V]; pullback of c(V) is c(fstar V)")
def _preimage_open_closed(maps):
    """The pair kernel reads each map's pullback of the open and the closed
    part of every v against the parts of fstar(v), read off fstar."""
    FL, EL = maps.FL, maps.EL
    src = FL.frame
    sides = (("open", FL.open_idx, EL.open_idx), ("closed", FL.closed_idx, EL.closed_idx))
    ok = None
    if maps.bytewise:
        fstar = b"".join(maps.fstar)
        ok = all(
            b"".join(map(bytes(parts).translate, maps.pulls)) == fstar.translate(images)
            for (_, parts, _), images in zip(sides, maps.EL.side_tables)
        )

    def scan(f):
        return [{"v": src.name(v), "side": side} for v in range(src.n) for side, parts, images in sides
                if f.pulls[parts[v]] != images[f.fstar[v]]]

    return _each_map(maps, 2 * src.n, ok, scan)


@_declare(MAP_LAWS, "preimage-union-meet",
          "pullback commutes with binary unions and meets of parts")
def _preimage_union_meet(maps):
    FL, ks = maps.FL, range(len(maps.FL.subs))
    ok = None
    if maps.bytewise:
        a, b, union, meet = _gather(FL.ordered_pairs, maps.pulls)
        ok = union == a | b and meet == a & b

    def scan(f):
        pre, bad = f.pulls, []
        for i, j in itertools.product(ks, ks):
            if pre[i | j] != pre[i] | pre[j]:
                bad.append({"a": FL.label(i), "b": FL.label(j), "side": "union"})
            if pre[i & j] != pre[i] & pre[j]:
                bad.append({"a": FL.label(i), "b": FL.label(j), "side": "meet"})
        return bad

    return _each_map(maps, 2 * len(ks) ** 2, ok, scan)


@_declare(MAP_LAWS, "image-union", "the image of a union is the union of the images")
def _image_union(maps):
    EL, ks = maps.EL, range(len(maps.EL.subs))
    ok = None
    if maps.bytewise:
        a, b, union = _gather(EL.ordered_pairs[:3], maps.pushes)
        ok = union == a | b

    def scan(f):
        img = f.pushes
        return [{"x": EL.label(i), "y": EL.label(j)} for i, j in itertools.product(ks, ks)
                if img[i | j] != img[i] | img[j]]

    return _each_map(maps, len(ks) ** 2, ok, scan)


@_declare(MAP_LAWS, "image-preimage-galois",
          "image(pullback(Y)) inside Y and X inside pullback(image(X))")
def _image_preimage_galois(maps):
    """The pair kernel reads each map's pullback table through its image
    table, and its image table through its pullback table."""
    FL, EL = maps.FL, maps.EL
    ys, xs = range(len(FL.subs)), range(len(EL.subs))
    ok = None
    if maps.bytewise:
        (there,) = _gather([bytes(ys)], map(bytes.translate, maps.pulls, maps.pushes))
        (back,) = _gather([bytes(xs)], map(bytes.translate, maps.pushes, maps.pulls))
        y, x = (int.from_bytes(bytes(ids) * len(maps.fs), "big") for ids in (ys, xs))
        ok = there & y == there and x & back == x

    def scan(f):
        pre, img = f.pulls, f.pushes
        bad = [{"y": FL.label(i), "side": "image of pullback"} for i in ys if img[pre[i]] & i != img[pre[i]]]
        return bad + [{"x": EL.label(j), "side": "pullback of image"} for j in xs if j & pre[img[j]] != j]

    return _each_map(maps, len(ys) + len(xs), ok, scan)


@_declare(COMPOSITION_LAWS, "composition",
          "images and pullbacks compose along composite maps")
def _composition(ctx):
    small, lats, maps = ctx
    checked, bad = 0, []
    for (an, a), (bn, b), (cn, c) in itertools.product(small, repeat=3):
        AL, CL, path = lats[an], lats[cn], f"{an}->{bn}->{cn}"
        for f in maps[an, bn]:
            for g in maps[bn, cn]:
                h = compose(g, f)
                checked += len(CL.subs) + len(AL.subs)
                for x in CL.subs:
                    if image(h, x) != image(f, image(g, x)):
                        bad.append({"path": path, "x": CL.label(x.points)})
                for y in AL.subs:
                    if preimage(h, y) != preimage(g, preimage(f, y)):
                        bad.append({"path": path, "y": AL.label(y.points)})
    return checked, bad


@_declare(COMPOSITION_LAWS, "embedding-factorization",
          "f factors through the embedding of X iff its image lies in X, as g after the embedding")
def _embedding_factorization(ctx):
    """One case per map f: a -> b and part X of a. The embedding of each
    part has that part as its image."""
    small, lats, maps = ctx
    checked, bad = 0, []
    for an, a in small:
        for x in lats[an].subs:
            i, omega, _ = sublocale_embedding(x)
            label = f"{an}/{lats[an].label(x.points)}"
            if image(i, whole(omega)) != x:
                bad.append({"x": label, "form": "image of the embedding"})
            for bn, b in small:
                for mi, f in enumerate(maps[an, bn]):
                    checked += 1
                    where = {"x": label, "f": f"{an}->{bn}#{mi}"}
                    inside = is_subsublocale(image(f, whole(b)), x)
                    try:
                        ok, g = factors_through(f, i)
                    except FrameError as exc:
                        bad.append({**where, "error": str(exc)})
                        continue
                    if ok != inside or (ok and compose(g, i).fstar != f.fstar):
                        bad.append({**where, "factors": str(ok), "image inside": str(inside)})
    return checked, bad


@_declare(COMPOSITION_LAWS, "sum-injections",
          "the injections of a + b are frame maps, v -> (p*(v), q*(v)) is a bijection "
          "onto a x b, and the order is componentwise")
def _sum_injections(ctx):
    """One case per ordered pair of elements of each sum."""
    small = ctx[0]
    checked, bad = 0, []
    for (an, a), (bn, b) in itertools.product(small, repeat=2):
        path = f"{an}+{bn}"
        try:
            s, (p, q) = sum_frame([a, b])
        except FrameError as exc:
            bad.append({"sum": path, "error": str(exc)})
            continue
        for k, (side, inj) in enumerate((("p", p), ("q", q))):
            try:
                validate_morphism(s, inj.target, inj.fstar)
            except FrameError as exc:
                bad.append({"sum": path, "injection": side, "error": str(exc)})
            # fstar is derived from the point map, so compare it with the
            # projection read off the pair names as well
            if inj.fstar != tuple(inj.target.index[name[k]] for name in s.elements):
                bad.append({"sum": path, "injection": side, "form": "not the projection"})
        pairs = list(zip(p.fstar, q.fstar))
        if not len(set(pairs)) == s.n == a.n * b.n:
            bad.append({"sum": path, "form": "not a bijection"})
        checked += s.n * s.n
        for v, (pv, qv) in enumerate(pairs):
            for w, (pw, qw) in enumerate(pairs):
                if s.leq(v, w) != (a.leq(pv, pw) and b.leq(qv, qw)):
                    bad.append({"sum": path, "v": str(s.name(v)), "w": str(s.name(w))})
    return checked, bad


# ---------------------------------------------------------------------------
# measure suite
# ---------------------------------------------------------------------------

MEASURE_FRAME_LAWS: list = []
FINITE_MEASURE_LAWS: list = []
INTERVAL_LAWS: list = []


def _boolean_valuations(fr: Frame):
    """At least three distinct valuations on a complemented frame, one on
    the one-element frame (only the zero valuation exists there)."""
    ats = fr.join_irreducibles
    k = len(ats)
    if k == 0:
        return [FiniteValuation(fr, ())]
    rows = []
    if k == 1:
        rows = [(Fraction(1),), (Fraction(1, 2),), (Fraction(0),)]
    else:
        rows.append(tuple(Fraction(1, k) for _ in range(k)))
        t = k * (k + 1) // 2
        rows.append(tuple(Fraction(i + 1, t) for i in range(k)))
        rows.append((Fraction(0),) + tuple(Fraction(1, k - 1) for _ in range(k - 1)))
    # w[i] weighs ats[i]; the point p carries the weight of kappa(p)
    masses = dict.fromkeys(tuple(w[ats.index(j)] for j in fr.least_not_below) for w in rows)
    return [FiniteValuation(fr, mass) for mass in masses]


def run_measure_suite(root=None, max_size=None, tol=None) -> RunReport:
    max_size = 10 if max_size is None else max_size
    tol = Fraction(1, 1000) if tol is None else frac(tol)
    run = _Run("measure", tol)
    gated, tiny = [], []
    chain3 = None
    for nm, fr in run.within(iter_corpus_frames(root), max_size):
        vals = _boolean_valuations(fr) if fr.boolean else []
        run.apply(MEASURE_FRAME_LAWS, nm, (fr, vals))
        if not fr.boolean:
            gated.append(nm)
            if nm == "chain3":
                chain3 = fr
            continue
        if fr.n == 1:
            tiny.append(nm)
        L = SubLattice(fr)
        for vi, val in enumerate(vals):
            run.apply(FINITE_MEASURE_LAWS, f"{nm}/mu{vi}", _Valued(L, val))
    if gated:
        run.note(
            "no measure claims on the non-complemented frames: "
            + ", ".join(sorted(gated))
        )
    if chain3 is not None:
        val = validate_valuation(chain3, (Fraction(0), Fraction(1, 2), Fraction(1)))
        g = generic(chain3)
        c = closed_sublocale(chain3, chain3.el("u"))
        res = strict_additivity_check(val, g, c)
        run.note(
            "the gate is not vacuous: on chain3 the additivity residual of "
            f"the generic part against c(u) is {res}, not 0"
        )
    if tiny:
        run.note(
            "one-element frames admit only the zero valuation: "
            + ", ".join(sorted(tiny))
        )
    run.apply(INTERVAL_LAWS, "[0,1]", _Arena(tol))
    run.note(
        "both halves of the rational/irrational split are dense, so their "
        "meet contains the least dense part: the set picture's empty "
        "intersection is localically a dense, measure-null part"
    )
    run.note(
        "meet does not distribute over the countable union of points: "
        "the generic part meets every single point emptily, yet meets "
        "their dense union in all of itself"
    )
    return run.done()


@_declare(MEASURE_FRAME_LAWS, "regularity-gate",
          "measure identities are asserted only on complemented frames")
def _regularity_gate(ctx):
    fr, _ = ctx
    return (0, []) if fr.boolean else _once(not fr.regular)


@_declare(MEASURE_FRAME_LAWS, "valuation-count",
          "at least three distinct valuations per complemented frame")
def _valuation_count(ctx):
    fr, vals = ctx
    if not fr.boolean:
        return 0, []
    return _once(len(vals) >= (3 if fr.n > 1 else 1), {"got": str(len(vals))})


class _Valued:
    """A valuation on a frame's part lattice, as one table of integers.

    den is the least common denominator of the valuation's table and
    mu[v] is den * val(v). Multiplying by a positive integer keeps every
    = and <, so the laws compare these integers, and a witness that shows
    a value x shows Fraction(x, den). out[i] = mu[vstar(part i)] is the
    outer measure of part i and top the total mass, scaled alike; red[i]
    is the reduction of part i. The Fraction bodies these laws replace are
    the reference in tests/scalar_laws.py.
    """

    def __init__(self, L: SubLattice, val):
        self.L, self.val = L, val
        self.den = lcm(*(q.denominator for q in val.mu))
        self.mu = _scaled(val.mu, self.den)
        self.out = [self.mu[vstar(x)] for x in L.subs]
        self.top = self.mu[L.frame.top]
        self.red = [mu_reduce(val, x).points for x in L.subs]
        self.reduced = sorted(set(self.red))


def _scaled(values, den: int) -> list:
    """den * q for each rational q of values, as ints. Raises when den does
    not clear a denominator, rather than truncate."""
    out = []
    for q in values:
        n, r = divmod(q.numerator * den, q.denominator)
        if r:
            raise ValueError(f"{q} is not a multiple of 1/{den}")
        out.append(n)
    return out


@_declare(FINITE_MEASURE_LAWS, "outer-extends",
          "the outer measure of [V] is the valuation of V")
def _outer_extends(m):
    L, out, mu, fr = m.L, m.out, m.mu, m.L.frame
    bad = []
    for v in range(fr.n):
        if out[L.open_idx[v]] != mu[v]:
            bad.append({"v": fr.name(v)})
    return fr.n, bad


@_declare(FINITE_MEASURE_LAWS, "outer-monotone", "X inside Y gives mu(X) <= mu(Y)")
def _outer_monotone(m):
    L, out, k = m.L, m.out, len(m.L.subs)
    bad = []
    for i in range(k):
        for j in range(k):
            if i & j == i and out[i] > out[j]:
                bad.append({"x": L.label(i), "y": L.label(j)})
    return k * k, bad


@_declare(FINITE_MEASURE_LAWS, "strict-additivity",
          "mu(X u Y) + mu(X n Y) = mu(X) + mu(Y) for every pair")
def _strict_additivity(m):
    L, out, k = m.L, m.out, len(m.L.subs)
    bad = []
    for i in range(k):
        for j in range(k):
            if out[i | j] + out[i & j] != out[i] + out[j]:
                residual = Fraction(out[i | j] + out[i & j] - out[i] - out[j], m.den)
                bad.append({"x": L.label(i), "y": L.label(j), "residual": str(residual)})
    return k * k, bad


@_declare(FINITE_MEASURE_LAWS, "increasing-union-sup",
          "along an increasing chain the measure of the union is the sup")
def _increasing_union_sup(m):
    L, out, k = m.L, m.out, len(m.L.subs)
    checked, bad = 0, []
    for i in range(k):
        for j in range(k):
            if i & j != i:
                continue
            checked += 1
            if out[i | j] != max(out[i], out[j]):
                bad.append({"x": L.label(i), "y": L.label(j)})
            for h in range(k):
                if j & h != j:
                    continue
                checked += 1
                if out[i | j | h] != max(out[i], out[j], out[h]):
                    bad.append({"x": L.label(i), "y": L.label(j), "z": L.label(h)})
    return checked, bad


@_declare(FINITE_MEASURE_LAWS, "closed-complement", "mu[V] + mu(c(V)) is the total mass")
def _closed_complement(m):
    L, out, fr = m.L, m.out, m.L.frame
    bad = []
    for v in range(fr.n):
        if out[L.open_idx[v]] + out[L.closed_idx[v]] != m.top:
            bad.append({"v": fr.name(v)})
    return fr.n, bad


@_declare(FINITE_MEASURE_LAWS, "open-split", "mu(A n [V]) + mu(A n c(V)) = mu(A)")
def _open_split(m):
    L, out, fr = m.L, m.out, m.L.frame
    bad = []
    for i in range(len(L.subs)):
        for v in range(fr.n):
            if out[i & L.open_idx[v]] + out[i & L.closed_idx[v]] != out[i]:
                bad.append({"x": L.label(i), "v": fr.name(v)})
    return len(L.subs) * fr.n, bad


@_declare(FINITE_MEASURE_LAWS, "relative-modularity",
          "through any part A, opens stay modular and filtered joins reach the sup")
def _relative_modularity(m):
    L, out, fr = m.L, m.out, m.L.frame
    n, nm, ns = fr.n, fr.name, range(fr.n)
    joins = [[fr.join(u, v) for v in ns] for u in ns]
    meets = [[fr.meet(u, v) for v in ns] for u in ns]
    bad = []
    for i in range(len(L.subs)):
        row = [out[i & o] for o in L.open_idx]  # row[u]: the measure of A n [u]
        for u in ns:
            ru, join_u, meet_u = row[u], joins[u], meets[u]
            for v in ns:
                lhs, rv = row[join_u[v]], row[v]
                if lhs != ru + rv - row[meet_u[v]]:
                    bad.append({"x": L.label(i), "u": nm(u), "v": nm(v), "form": "relative modularity"})
                if lhs < ru or lhs < rv:
                    bad.append({"x": L.label(i), "u": nm(u), "v": nm(v), "form": "filtered sup"})
    return 2 * len(L.subs) * n * n, bad


@_declare(FINITE_MEASURE_LAWS, "decreasing-meet-inf",
          "downward filtered families reach the inf at their meet")
def _decreasing_meet_inf(m):
    L, out, mu, fr = m.L, m.out, m.mu, m.L.frame
    n, k = fr.n, len(L.subs)
    bad = []
    for u in range(n):
        for v in range(n):
            if out[L.open_idx[u] & L.open_idx[v]] != min(mu[u], mu[v], mu[fr.meet(u, v)]):
                bad.append({"u": fr.name(u), "v": fr.name(v)})
    for i in range(k):
        for j in range(k):
            if out[i & j] != min(out[i], out[j], out[i & j]):
                bad.append({"x": L.label(i), "y": L.label(j)})
    return n * n + k * k, bad


@_declare(FINITE_MEASURE_LAWS, "reduction",
          "the reduction is the least part of equal measure, and reducing twice changes nothing")
def _reduction(m):
    L, out, red, k = m.L, m.out, m.red, len(m.L.subs)
    bad = []
    for i in range(k):
        r = red[i]
        if r & i != r or out[r] != out[i]:
            bad.append({"x": L.label(i), "form": "reduction keeps measure inside"})
        if red[r] != r:
            bad.append({"x": L.label(i), "form": "idempotent"})
        for z in range(k):
            if z & i == z and out[z] == out[i] and r & z != r:
                bad.append({"x": L.label(i), "z": L.label(z), "form": "least full-measure part"})
    return k * (3 + k), bad


@_declare(FINITE_MEASURE_LAWS, "reduced-parts-algebra",
          "unions of reduced parts are reduced and meets distribute over their unions")
def _reduced_parts_algebra(m):
    L, red, reduced = m.L, m.red, m.reduced
    bad = []
    for r1 in reduced:
        for r2 in reduced:
            u = r1 | r2
            if red[u] != u:
                bad.append({"x": L.label(r1), "y": L.label(r2)})
    for r1 in reduced:
        for r2 in reduced:
            for r3 in reduced:
                if r1 & (r2 | r3) != (r1 & r2) | (r1 & r3):
                    bad.append({"x": L.label(r1), "y": L.label(r2), "z": L.label(r3)})
    return len(reduced) ** 2 + len(reduced) ** 3, bad


@_declare(FINITE_MEASURE_LAWS, "null-partner",
          "the partner restores the total mass while meeting X in measure zero")
def _null_partner(m):
    L, out = m.L, m.out
    bad = []
    for i in range(len(L.subs)):
        b = null_partner(m.val, L.subs[i])[0].points
        if out[i | b] != m.top:
            bad.append({"x": L.label(i), "form": "union short of total", "got": str(Fraction(out[i | b], m.den))})
        if out[i & b] != 0:
            bad.append({"x": L.label(i), "form": "meet not null", "got": str(Fraction(out[i & b], m.den))})
    return 2 * len(L.subs), bad


@_declare(FINITE_MEASURE_LAWS, "restriction-valid",
          "restricting the valuation to any part yields a valuation")
def _restriction_valid(m):
    L = m.L
    bad = []
    for i in range(len(L.subs)):
        try:
            restrict_valuation(m.val, L.subs[i])
        except FrameError as exc:
            bad.append({"x": L.label(i), "error": str(exc)})
    return len(L.subs), bad


@_declare(FINITE_MEASURE_LAWS, "reduced-algebra",
          "the reduced parts form a complemented frame with a measure-compatible quotient")
def _reduced_algebra(m):
    ra = reduced_algebra(m.val)
    ok = ra.frame.boolean and ra.frame.n == len(m.reduced)
    if ok:
        nu = _scaled(ra.valuation.mu, m.den)
        ok = all(m.out[r.points] == nu[i] for i, r in enumerate(ra.reps))
    return _once(ok, {"size": str(ra.frame.n)})


# -- interval side ----------------------------------------------------------

def _random_ratopen(rng: random.Random) -> RatOpen:
    den = rng.choice((8, 12, 16, 24))
    pieces = rng.randrange(0, 4)
    if pieces == 0:
        return ivs.EMPTY_RO
    cuts = sorted(rng.sample(range(0, den + 1), 2 * pieces))
    out = []
    for i in range(pieces):
        lo = Fraction(cuts[2 * i], den)
        hi = Fraction(cuts[2 * i + 1], den)
        out.append(iv(lo, hi, lo == 0 and rng.random() < 0.5, hi == 1 and rng.random() < 0.5))
    return RatOpen(normalize(out))


def _interval_descriptors():
    return [
        ("lebesgue", Lebesgue()),
        ("restrict[0,1/2]", LebesgueRestrictedTo(parse_fin("[0,1/2]"))),
        (
            "atoms{1/3:1/3,1/2:1}",
            atomic([(Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(1, 3))]),
        ),
        (
            "mix(lebesgue+atoms{1/2:1/2})",
            Mixture((Lebesgue(), atomic([(Fraction(1, 2), Fraction(1, 2))]))),
        ),
    ]


def _meets_cell(x, a, b) -> bool:
    """Certify the presentation reaches into (a, b)."""
    if isinstance(x, CountablePoints):
        return a < x.points.point(x.points.first_in(a, b)) < b
    # stages of the rest are the whole interval minus finitely many points
    # (or dense opens); no cell can be missed
    return isinstance(x, (CoCountable, Generic))


class _Arena:
    """[0,1] at one tolerance. The interval laws draw their random opens
    from one seeded stream, in declaration order."""

    def __init__(self, tol: Fraction):
        self.tol = tol
        self.rng = random.Random(20260822)
        self.descriptors = _interval_descriptors()
        self.rats = CountablePoints(RATIONALS)
        self.irr = CoCountable(RATIONALS)
        self.atom_half = atomic([(Fraction(1, 2), Fraction(1))])
        self.restricted = LebesgueRestrictedTo(parse_fin("[0,1/2]"))


@_declare(INTERVAL_LAWS, "closed-complement-interval",
          "mu(U) + mu(complement of U) is the total mass, attained by neighborhood stages")
def _closed_complement_interval(a):
    checked, bad = 0, []
    for t in range(100):
        u = _random_ratopen(a.rng)
        for dn, d in a.descriptors:
            total = total_measure(d)
            bo = measure_bounds(Open(u), d, a.tol)
            bc = measure_bounds(Closed(u), d, a.tol)
            checked += 1
            if not (bo.is_exact and bc.is_exact and bo.upper + bc.upper == total):
                bad.append({"u": str(u), "descriptor": dn})
        # the closed complement's mass is genuinely the inf over
        # neighborhood stages, not just a formula; stage kk leaves at most
        # 2**-(kk+1) of length, so one within tol comes by kk = bits of 1/tol
        exact = total_measure(Lebesgue()) - measure_ro(Lebesgue(), u)
        good = False
        for kk in range((a.tol.denominator // a.tol.numerator).bit_length() + 1):
            m = measure_ro(Lebesgue(), closed_neighborhood(u, kk))
            checked += 1
            if m < exact:
                bad.append({"u": str(u), "stage": str(kk), "form": "stage below the closed mass"})
                break
            if m - exact <= a.tol:
                good = True
                break
        if not good:
            bad.append({"u": str(u), "form": "neighborhood stages did not converge"})
    return checked, bad


@_declare(INTERVAL_LAWS, "countable-dense-null",
          "the rational-points part has outer measure at most the tolerance")
def _countable_dense_null(a):
    bq = stream_bounds(a.rats, Lebesgue(), a.tol)
    return _once(Fraction(0) <= bq.lower <= bq.upper <= a.tol, {"bounds": str(bq)})


@_declare(INTERVAL_LAWS, "cocountable-full",
          "removing countably many points keeps full measure within tolerance")
def _cocountable_full(a):
    bi = stream_bounds(a.irr, Lebesgue(), a.tol)
    return _once(1 - a.tol <= bi.lower <= bi.upper <= 1, {"bounds": str(bi)})


@_declare(INTERVAL_LAWS, "generic-null",
          "the least dense part has outer measure at most the tolerance")
def _generic_null(a):
    bad = []
    for dn, dd in a.descriptors:
        bg = stream_bounds(Generic(), dd, a.tol)
        if not bg.upper <= a.tol:
            bad.append({"descriptor": dn, "bounds": str(bg)})
    return len(a.descriptors), bad


@_declare(INTERVAL_LAWS, "additivity-residual",
          "the additivity residual of the rational/irrational split is exactly zero")
def _additivity_residual(a):
    # 0 by construction off the forms: each exact value must lie in its streams
    res = strict_additivity_interval(a.rats, a.irr, Lebesgue(), a.tol)
    parts = (a.rats, a.irr, Union((a.rats, a.irr)), Meet((a.rats, a.irr)))
    outside = [str(p) for p, b in zip(parts, (res.x, res.y, res.union, res.inter))
               if not stream_bounds(p, Lebesgue(), a.tol).contains(b.lower)]
    return _once(
        res.lo == res.hi == 0 and not outside,
        {"lo": str(res.lo), "hi": str(res.hi), "outside-its-streams": outside},
    )


@_declare(INTERVAL_LAWS, "additivity-open-pairs",
          "for opens the additivity residual is exactly zero")
def _additivity_open_pairs(a):
    bad = []
    for t in range(10):
        x, y = Open(_random_ratopen(a.rng)), Open(_random_ratopen(a.rng))
        r = strict_additivity_interval(x, y, Lebesgue(), a.tol)
        if not (r.lo == r.hi == 0):
            bad.append({"x": str(x.part), "y": str(y.part)})
    return 10, bad


@_declare(INTERVAL_LAWS, "reduce-fills-null-gap",
          "a missing massless point disappears under reduction")
def _reduce_fills_null_gap(a):
    halves = parse_ratopen("(0,1/2)|(1/2,1)")
    return _once(mu_reduce_open(Lebesgue(), halves) == parse_ratopen("(0,1)"))


@_declare(INTERVAL_LAWS, "reduce-to-atom",
          "a single atom reduces the space to the closed part carrying it")
def _reduce_to_atom(a):
    r = mu_reduce_interval(a.atom_half)
    return _once(isinstance(r, Closed) and r.of_open == parse_ratopen("[0,1/2)|(1/2,1]"))


@_declare(INTERVAL_LAWS, "reduce-to-support",
          "restricted length reduces the space to its support")
def _reduce_to_support(a):
    r = mu_reduce_interval(a.restricted)
    return _once(isinstance(r, Closed) and r.of_open == parse_ratopen("(1/2,1]"))


@_declare(INTERVAL_LAWS, "reduce-idempotent-interval", "reducing the reduction changes nothing")
def _reduce_idempotent_interval(a):
    bad = []
    for dn, dd in (("lebesgue", Lebesgue()), ("atoms", a.atom_half), ("restrict", a.restricted)):
        first = mu_reduce_interval(dd)
        if first != mu_reduce_interval(dd, first):
            bad.append({"descriptor": dn})
    return 3, bad


@_declare(INTERVAL_LAWS, "dense-probes",
          "both halves of the rational/irrational split reach into every dyadic cell")
def _dense_probes(a):
    cells = [(Fraction(i, 16), Fraction(i + 1, 16)) for i in range(16)]
    bad = []
    for part, pname in ((a.rats, "countable-points"), (a.irr, "cocountable")):
        for lo, hi in cells:
            if not _meets_cell(part, lo, hi):
                bad.append({"part": pname, "cell": f"({lo},{hi})"})
    return 2 * len(cells), bad


@_declare(INTERVAL_LAWS, "hidden-intersection",
          "the split is certified a cover with a null meet only by measure accounting, "
          "never by structural disjointness")
def _hidden_intersection(a):
    partner, certs = null_partner_interval(a.rats, Lebesgue(), a.tol)
    streamed = stream_bounds(Meet((a.rats, partner)), Lebesgue(), a.tol)
    return _once(
        structural_union_is_whole(a.rats, a.irr)
        and certs["union"].lower == certs["union"].upper == 1
        and certs["intersection"].lower == certs["intersection"].upper == 0
        and streamed.contains(0) and streamed.upper <= a.tol,
        {"intersection": str(certs["intersection"]), "streamed": str(streamed)},
    )


@_declare(INTERVAL_LAWS, "pointless-but-nonempty",
          "the generic part misses every sampled point yet every neighborhood of it is dense")
def _pointless_but_nonempty(a):
    points, probes = RATIONALS.prefix(100), RATIONALS.prefix(64)
    bad = []
    for q in points:
        if point_sublocale_meets_generic(q):
            bad.append({"q": str(q)})
    stage = neighborhood(Generic(), 5).stage(len(probes))  # point i arrives at stage i + 1
    for q in probes:
        if not stage.contains(q):
            bad.append({"form": "neighborhood stream misses a rational", "q": str(q)})
    return len(points) + len(probes), bad


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUITES = {
    "frame": run_frame_suite,
    "sublocale": run_sublocale_suite,
    "morphism": run_morphism_suite,
    "measure": run_measure_suite,
}


def run_suite(name: str, root=None, max_size=None, tol=None):
    """Run one suite, or all of them in declaration order."""
    if name == "all":
        return [fn(root, max_size, tol) for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](root, max_size, tol)

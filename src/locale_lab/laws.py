"""Law suites: the algebraic identities the library rests on, replayed
exhaustively over the bundled corpus and, for measure, the unit interval.

Each suite has one driver, `run_<suite>_suite`, which builds the
contexts its laws read and applies the laws to each through one
`runner._Run`. The frame suite's laws are declared here, its four
Heyting identities as quantified declarations (`runner._forall`) over a
frame's elements; the sublocale, morphism and measure suites' laws in
`part_laws`, `map_laws` and `measure_laws`. `SUITES` maps each suite's
name to its driver, in the order `run_suite("all")` runs them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from locale_lab.corpus import CorpusError, corpus_files, iter_corpus_frames, iter_negative_specs, load
from locale_lab.frames import Frame, FrameError, build_frame
from locale_lab.lattice import SubLattice, _Maps, over_byte
from locale_lab.map_laws import COMPOSITION_LAWS, LATTICE_LAWS, MAP_LAWS, _iso_reps
from locale_lab.measure import checked_tol, strict_additivity_check, validate_valuation
from locale_lab.measure_laws import (
    FINITE_MEASURE_LAWS,
    INTERVAL_LAWS,
    MEASURE_FRAME_LAWS,
    _Arena,
    _boolean_valuations,
    _Valued,
)
from locale_lab.morphisms import enumerate_morphisms
from locale_lab.part_laws import PART_LAWS, _lossy_note
from locale_lab.runner import RunReport, _declare, _forall, _once, _Run
from locale_lab.sublocales import closed_sublocale, generic


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


def _elements(fr):
    """A frame as `_forall` quantifies it: its elements, and no parts."""
    return fr, None


_forall(FRAME_LAWS, "heyting-adjunction", "W <= (U => H) iff W n U <= H", _elements, "wuh",
        lambda fr, w, u, h: fr.leq(w, fr.heyting(u, h)) == fr.leq(fr.meet(w, u), h))
_forall(FRAME_LAWS, "meet-over-join", "A n (B u C) = (A n B) u (A n C)", _elements, "abc",
        lambda fr, a, b, c: fr.meet(a, fr.join(b, c)) == fr.join(fr.meet(a, b), fr.meet(a, c)))


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


_forall(FRAME_LAWS, "neg-of-join", "not(U u V) = not U n not V", _elements, "uv",
        lambda fr, u, v: fr.neg(fr.join(u, v)) == fr.meet(fr.neg(u), fr.neg(v)))
_forall(FRAME_LAWS, "triple-negation", "not not not U = not U", _elements, "u",
        lambda fr, u: fr.neg(fr.neg(fr.neg(u))) == fr.neg(u))


# ---------------------------------------------------------------------------
# the drivers of the suites whose laws live in part_laws, map_laws and
# measure_laws
# ---------------------------------------------------------------------------

def _in_a_byte(run, name: str, fr: Frame) -> bool:
    """Whether a part index of `fr` is a byte, as its `SubLattice` needs; a
    frame past it becomes a note, as one over the size cap does."""
    why = over_byte(fr)
    if why:
        run.note(f"{name} skipped: {why}")
    return not why


def run_sublocale_suite(root=None, max_size=None, tol=None) -> RunReport:
    max_size = 10 if max_size is None else max_size
    run = _Run("sublocale")
    lossy = None
    for name, fr in run.within(iter_corpus_frames(root), max_size):
        if not _in_a_byte(run, name, fr):
            continue
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


def run_morphism_suite(root=None, max_size=None, tol=None) -> RunReport:
    max_size = 8 if max_size is None else max_size
    run = _Run("morphism")
    frames = [(nm, fr) for nm, fr in run.within(iter_corpus_frames(root), max_size) if _in_a_byte(run, nm, fr)]
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
        run.apply(MAP_LAWS, f"{an}->{bn}", _Maps(fs, lats[an], lats[bn]))
        if a.n <= 4 and b.n <= 4:
            maps[an, bn] = fs
    run.note(
        "composition laws checked on the representatives with at most 4 "
        "elements: " + ", ".join(nm for nm, _ in small)
    )
    run.apply(COMPOSITION_LAWS, "small representatives", (small, lats, maps))
    return run.done()


def run_measure_suite(root=None, max_size=None, tol=None) -> RunReport:
    max_size = 10 if max_size is None else max_size
    tol = Fraction(1, 1000) if tol is None else checked_tol(tol)
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
        if not _in_a_byte(run, nm, fr):
            continue
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

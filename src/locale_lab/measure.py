"""Measures on frames: exact finite valuations, and certified bounds on
the rational opens of [0,1].

Finite half. A valuation, zero at bottom, monotone and modular, is a sum
of non-negative masses on the points (Birkhoff, *Lattice Theory* ch. X;
Geissinger 1973), and a FiniteValuation stores just those masses; its
table mu(V), the mass of [V], is derived. validate_valuation reads a
table from outside, checking it along the covers of the frame. The
outer measure of a part X is the least mu(V) over the V with
e_X(V) = top, attained as those V form a filter. The parts of X carrying
its full measure are closed upwards, so X reduces to the points whose
removal loses measure. The reduced parts form a Boolean algebra, that of
the sets of points of positive mass, exactly when all of those are maximal.

Interval half. Every measure here is one Measure(regions, atoms): length
on each region plus point masses, a density part and an atomic part as
in the Lebesgue decomposition. Lebesgue measure is length on [0,1], a
restriction meets each region, and a mixture lists its parts' regions
side by side and adds the weights of atoms at one point. A Measure
measures RatOpens exactly, adding region lengths and atom weights as
integer pairs into one Fraction. Outer measure adds up over the
summands of a measure, because the opens around a sublocale form a
filter: an atom weighs in exactly when the sublocale holds its point.
So d restricts to a part x as one Measure d|x (restricted), read off the
normal form: x's outer measure is its total, and x's reduction is x
meet c(null_open(d|x)). The residual and partner certificates measure
the forms of unions and meets derived from their operands' forms; a
part's null partner is its dual (_dual), one construction for every part
and every measure. stream_bounds is the paper's construction, kept as
its certificate: it bounds the length within tol from streams alone,
upper bounds from the sublocale's neighborhood streams, each grow read
once, lower bounds from those of its dual, or an honest zero where the
dual is the whole.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from locale_lab import intervals as ivs
from locale_lab.frames import Frame, FrameError
from locale_lab.intervals import EMPTY_RO, FULL_RO, FinUnion, Iv, RatOpen, frac, parse_fin
from locale_lab.morphisms import FrameMorphism, _byte_points
from locale_lab.presented import (
    Closed,
    CoCountable,
    CountablePoints,
    Generic,
    LazyOpen,
    Meet,
    Open,
    PresentedSublocale,
    Union,
    held_by,
    join_forms,
    meet_forms,
    neighborhood,
    normal_form,
)
from locale_lab.sublocales import Sublocale, fixpoint_frame, intersect, union as sub_union, whole

# ---------------------------------------------------------------------------
# finite valuations
# ---------------------------------------------------------------------------


class ValuationError(FrameError):
    pass


class NotZeroAtBottom(ValuationError):
    def __init__(self, value):
        super().__init__(f"bottom carries measure {value}")


class NotMonotone(ValuationError):
    def __init__(self, a, b):
        super().__init__(f"{a!r} below {b!r} but measured above it")
        self.witness = (a, b)


class NotModular(ValuationError):
    def __init__(self, a, b):
        super().__init__(f"measure of join and meet of {a!r},{b!r} breaks modularity")
        self.witness = (a, b)


class FiniteValuation:
    """A valuation stored as its point masses: mass[i] is what the point
    primes[i] carries, trusted as given. mu, derived once, is the table:
    mu[V] is the mass of the points of [V], those not above V."""

    __slots__ = ("frame", "mass", "mu")

    def __init__(self, frame: Frame, mass: tuple):
        self.frame = frame
        self.mass = mass
        self.mu = tuple(
            sum((m for i, m in enumerate(mass) if not above >> i & 1), Fraction(0))
            for above in frame.primes_above
        )

    def __call__(self, v) -> Fraction:
        return self.mu[self.frame.el(v)]

    def __repr__(self):
        pairs = ", ".join(
            f"{self.frame.elements[i]}={self.mu[i]}" for i in range(self.frame.n)
        )
        return f"FiniteValuation({pairs})"


def validate_valuation(frame: Frame, table) -> FiniteValuation:
    """The valuation behind a table of values, one per element.

    Monotone along every cover means monotone. Modular at the first two
    lower covers a, c of each b that has two or more means modular: the
    lowest element where the masses mu(k) - mu(k meet p), k = kappa(p),
    fail to rebuild the table is no join-irreducible, whose mass fits by
    definition, so it has two lower covers that rebuild exactly.
    """
    try:
        mu = frame.table(table, frac, "valuation")
    except FrameError as exc:
        raise ValuationError(str(exc)) from None
    if mu[frame.bottom] != 0:
        raise NotZeroAtBottom(mu[frame.bottom])
    e = frame.elements
    # lower[b]: the elements b covers, in index order, each b's set with
    # one point more
    at = frame._at
    lower = [sorted(at[t] for t in (s | 1 << i for i in range(len(frame.primes))) if t != s and t in at)
             for s in frame.primes_above]
    for b, covers in enumerate(lower):
        for a in covers:
            if mu[a] > mu[b]:
                raise NotMonotone(e[a], e[b])
    for b, covers in enumerate(lower):
        if len(covers) > 1:
            a, c = covers[:2]
            if mu[b] + mu[frame.meet(a, c)] != mu[a] + mu[c]:
                raise NotModular(e[a], e[c])
    return FiniteValuation(frame, tuple(
        mu[k] - mu[frame.meet(k, p)] for k, p in zip(frame.least_not_below, frame.primes)
    ))


def vstar(x: Sublocale) -> int:
    """The smallest open neighborhood: the meet of all V with e_X(V) = top.
    Those V are the ones above kappa(p) for each point p of X: their join."""
    f = x.frame
    return f.join_all(k for i, k in enumerate(f.least_not_below) if x.points >> i & 1)


def outer_measure_finite(val: FiniteValuation, x: Sublocale) -> Fraction:
    if x.frame is not val.frame:
        raise FrameError("sublocale and valuation live on different frames")
    return val.mu[vstar(x)]


def null_partner(val: FiniteValuation, a: Sublocale):
    """The closed complement of a's smallest neighborhood.

    Every open around both a and the partner is the top, so the union
    carries the full measure; and a stays inside [V*], so the meet with
    the partner is empty. Both facts are returned as exact certificates.
    """
    v = vstar(a)
    b = val.frame._parts[val.frame.primes_above[v]]
    certs = {
        "union": outer_measure_finite(val, sub_union(a, b)),
        "intersection": outer_measure_finite(val, intersect(a, b)),
        "partner": outer_measure_finite(val, b),
    }
    return b, certs


def restrict_valuation(val: FiniteValuation, a: Sublocale):
    """The induced valuation on a's fixpoint frame: an open of a measures
    as the outer measure of its trace on a. Returns (valuation, fix). Off
    Boolean frames it can raise NotModular (corpus topology top-3pt-18)."""
    omega, fix = fixpoint_frame(a)
    parts, sets = val.frame._parts, val.frame.primes_above
    mu = tuple(outer_measure_finite(val, parts[a.points & ~sets[amb]]) for amb in fix)
    return validate_valuation(omega, mu), fix


def mu_reduce(val: FiniteValuation, a: Sublocale | None = None) -> Sublocale:
    """The smallest sublocale of a with the same outer measure as a.

    The parts of a carrying its full measure are closed upwards, so their
    meet is the set of points of a whose removal loses measure. Off Boolean
    frames that meet can fall short, which the certificate catches.
    """
    frame = val.frame
    if a is None:
        a = whole(frame)
    target = outer_measure_finite(val, a)
    parts = frame._parts
    r = parts[sum(
        1 << i for i in range(len(frame.primes))
        if a.points >> i & 1
        and outer_measure_finite(val, parts[a.points & ~(1 << i)]) < target
    )]
    if outer_measure_finite(val, r) != target:
        raise ValuationError(
            "the full-measure sublocales of this piece have no least member"
        )
    return r


def strict_additivity_check(val: FiniteValuation, x: Sublocale, y: Sublocale) -> Fraction:
    """The exact residual mu(X u Y) + mu(X n Y) - mu(X) - mu(Y).

    Zero on every pair when the frame is boolean; can be negative on
    non-regular frames, which is the point of reporting it.
    """
    return (
        outer_measure_finite(val, sub_union(x, y))
        + outer_measure_finite(val, intersect(x, y))
        - outer_measure_finite(val, x)
        - outer_measure_finite(val, y)
    )


@dataclass(frozen=True)
class ReducedAlgebra:
    """The frame of reduced sublocales, what `reduced_algebra` returns: the
    ambient part behind each element, the quotient and the valuation."""

    frame: Frame
    reps: tuple  # reps[i] is the ambient Sublocale behind frame element i
    quotient: object  # FrameMorphism from the ambient frame
    valuation: FiniteValuation


def reduced_algebra(val: FiniteValuation) -> ReducedAlgebra:
    """The frame of reduced sublocales, with its quotient map and measure.

    When every point of positive mass (the support) is maximal, a part
    reduces to its support points: the reduced parts are the sets of
    support points, and V -> [V] meet support is the quotient. A support
    point q below a point p leaves no reduced part above {q} and {p}. The
    frame is built from the inclusion order, the quotient from its point
    map: the support less q goes to q, and carries q's mass. A frame of
    more than a byte of points has no quotient point map, and is refused.
    """
    frame = val.frame
    _byte_points(len(frame.primes))
    masks = [0]  # the sets of support points, ending with the whole support
    for i, (p, m) in enumerate(zip(frame.primes, val.mass)):
        if m > 0:
            if frame.primes_above[p] != 1 << i:
                raise ValuationError(f"point {frame.elements[p]!r} carries mass "
                                     "below another point: no reduced algebra")
            masks += [s | 1 << i for s in masks]
    reps = [frame._parts[s] for s in masks]
    reps.sort(key=lambda r: (len(r.fixpoints), r.nucleus))
    # the points are the support less one point q, in index order, and a
    # set s of support points lies under that point iff q is not in s
    missing = [masks[-1] & ~r.points for r in reps]
    primes = [j for j, m in enumerate(missing) if m and not m & m - 1]
    points = bytes(missing[j].bit_length() - 1 for j in primes)
    red = Frame._of_points([f"r{i}" for i in range(len(reps))], primes,
                           [sum(1 << k for k, q in enumerate(points) if m >> q & 1) for m in missing])
    nu = FiniteValuation(red, tuple(val.mass[q] for q in points))
    return ReducedAlgebra(red, tuple(reps), FrameMorphism(frame, red, points), nu)


# ---------------------------------------------------------------------------
# interval descriptors
# ---------------------------------------------------------------------------


class UnsupportedDescriptor(ValueError):
    pass


class TolNotReached(RuntimeError):
    """Bounds left wider than tol once the budgets ran out.

    side names what stalled: "upper stream" (the neighbourhood stages
    were still falling, or never reached their tail tolerance) or
    "partner lower" (the partner's streams stopped short).
    """

    def __init__(self, msg, lower=None, upper=None, side=None):
        super().__init__(msg)
        self.lower = lower
        self.upper = upper
        self.side = side


@dataclass(frozen=True)
class Measure:
    """Length on each of the regions plus point masses at the atoms.

    A region listed twice counts twice. atoms is ((point, weight), ...)
    with strictly increasing points in [0,1] and positive weights. total,
    derived once in the pass that checks the atoms, is the whole mass.
    """

    regions: tuple = ()
    atoms: tuple = ()
    total: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        last = None
        n, d = 0, 1
        for r in self.regions:
            rn, rd = r._length_pair()
            n, d = n * rd + rn * d, d * rd
        for q, w in self.atoms:
            qn, qd, wn, wd = q.numerator, q.denominator, w.numerator, w.denominator
            if qn < 0 or qn > qd:
                raise UnsupportedDescriptor(f"atom {q} outside [0,1]")
            if wn <= 0:
                raise UnsupportedDescriptor(f"atom {q} has weight {w}")
            if last is not None and qn * last[1] <= last[0] * qd:
                raise UnsupportedDescriptor("atoms not strictly increasing")
            last = qn, qd
            n, d = n * wd + wn * d, d * wd
        object.__setattr__(self, "total", Fraction(n, d))


_LEBESGUE = Measure((ivs.FULL,))


def Lebesgue() -> Measure:
    """Length on [0,1]: one Measure, made once, as a Measure is frozen."""
    return _LEBESGUE


def LebesgueRestrictedTo(region: FinUnion) -> Measure:
    return Measure((region,))


def _summed_atoms(pairs) -> tuple:
    """Atoms (point, weight) by increasing point, the weights at one point
    added; each checked first, as a sum could hide one that is not positive.
    A point is keyed by its integer pair, which hashes faster than a Fraction."""
    atoms = {}
    for q, w in pairs:
        if w.numerator <= 0:
            raise UnsupportedDescriptor(f"atom {q} has weight {w}")
        key = q.numerator, q.denominator
        atoms[key] = (q, atoms[key][1] + w) if key in atoms else (q, w)
    return tuple(sorted(atoms.values()))


def atomic(pairs) -> Measure:
    return Measure(atoms=_summed_atoms((frac(q), frac(w)) for q, w in pairs))


def Mixture(parts) -> Measure:
    """The sum of the parts: their regions side by side, the weights of
    atoms at one point added."""
    if not parts:
        raise UnsupportedDescriptor("empty mixture")
    return Measure(tuple(r for p in parts for r in p.regions),
                   _summed_atoms(a for p in parts for a in p.atoms))


def _pair_sum(pairs) -> Fraction:
    """The sum of rationals given as integer pairs (numerator,
    denominator > 0), built as one Fraction."""
    n, d = 0, 1
    for pn, pd in pairs:
        n, d = n * pd + pn * d, d * pd
    return Fraction(n, d)


def measure_fin(d: Measure, fin: FinUnion) -> Fraction:
    return _pair_sum(itertools.chain(
        (ivs.intersect(fin, r)._length_pair() for r in d.regions),
        ((w.numerator, w.denominator) for q, w in d.atoms if fin.contains(q)),
    ))


def measure_ro(d: Measure, u: RatOpen) -> Fraction:
    return measure_fin(d, u.fin)


def total_measure(d: Measure) -> Fraction:
    return d.total


def point_mass(d: Measure, q) -> Fraction:
    q = frac(q)
    return next((w for p, w in d.atoms if p == q), Fraction(0))


def null_open(d: Measure) -> RatOpen:
    """The largest open of measure zero: the exterior of the support, the
    closure of the atoms and of the interiors of the regions, as an open
    meets a region in positive length exactly when it meets its interior."""
    support = ivs.closure(ivs.normalize(itertools.chain(
        (p for r in d.regions for p in ivs.interior(r).pieces),
        (Iv(q, q, True, True) for q, _ in d.atoms),
    )))
    return RatOpen(ivs.interior(ivs.complement(support)))


def restricted(d: Measure, x: PresentedSublocale) -> Measure:
    """d|x, the twin of restrict_valuation: an open V measures
    mu*(x meet o(V)) under it (see _restricted)."""
    return _restricted(normal_form(x), d)


def _restricted(form: dict, d: Measure) -> Measure:
    """d|x for the part x of this normal form: length on S_big meet each
    region of d, and the atoms of d that x holds. S_big is the union of
    the sets of the terms whose keys are made of co-listings alone, the
    whole (the empty key) included. The opens around x form a filter, so
    mu*(x meet o(V)) adds up over the summands of d: the length of S_big
    meet V on each region (see measure_bounds) plus the atoms x holds in V."""
    big = ivs.EMPTY
    for key, s in form.items():
        if all(isinstance(leaf, CoCountable) for leaf in key):
            big = ivs.add(big, s)
    return Measure(tuple([ivs.intersect(big, r) for r in d.regions]),
                   tuple([a for a in d.atoms if held_by(form, a[0])]))


# -- reduction ----------------------------------------------------------------


def _absorb_null_gaps(d, u: RatOpen) -> RatOpen:
    """Fill single-point holes of zero point mass. Two touching pieces of
    a canonical open both miss their common end, so its holes are those
    ends, and `intervals.add` joins the pieces around the null ones."""
    ps = u.fin.pieces
    holes = [Iv(a.hi, a.hi, True, True) for a, b in zip(ps, ps[1:])
             if a.hi == b.lo and point_mass(d, a.hi) == 0]
    return RatOpen(ivs.add(u.fin, FinUnion(tuple(holes))))


def mu_reduce_open(d, u: RatOpen) -> RatOpen:
    """The largest open above u of u's measure that holds an ambient end 0 or
    1 only where u or the exterior of the support does: (0,1) stays (0,1)."""
    return _absorb_null_gaps(d, ivs.join(u, null_open(d)))


def mu_reduce_interval(d, a: PresentedSublocale | None = None) -> PresentedSublocale:
    """The reduction of a (all of [0,1] when a is None): a meet c(N), N the
    largest open with mu*(a meet o(N)) = 0, that is N = null_open(d|a)
    (restricted). As a = (a meet o(N)) join (a meet c(N)), a meet c(N)
    keeps a's measure, and by additivity it is the least a meet c(V), V
    open, that does. Read a as the meet of its parts (of one, if lone):
    c(N) and its parts c(U_i) fold into Closed(N join U_1 join ...), whole
    parts drop and the rest stay, so reducing a reduction gives it back.
    """
    a = Open(FULL_RO) if a is None else a
    n = null_open(restricted(d, a))
    parts = a.parts if isinstance(a, Meet) else (a,)
    closed = Closed(ivs.join(n, *(p.of_open for p in parts if isinstance(p, Closed))))
    rest = tuple(p for p in parts if not isinstance(p, Closed) and p != Open(FULL_RO))
    return Meet((closed, *rest)) if rest else closed


# -- certified bounds -----------------------------------------------------------


# Below this the budgets, and the time spent before an honest failure,
# grow past what an interactive query should spend.
MIN_TOL = Fraction(1, 2 ** 100)


class BadTolerance(ValueError):
    pass


def checked_tol(tol) -> Fraction:
    """tol as a Fraction, refused with a one-line BadTolerance unless it is
    a rational of at least MIN_TOL: zero would divide by zero in the
    budgets, a negative tol would walk every neighbourhood, and a literal
    too long to print is refused before it is built. A Fraction is checked
    as it is and returned; anything else is read once by intervals._pair.
    Both bounds are tests on the numerator and denominator."""
    try:
        value = frac(tol)
    except ivs.InvalidInterval:
        if isinstance(tol, str) and ivs.too_long(tol):
            raise BadTolerance(f"tolerance {tol!r} has more than {ivs.digit_limit()} digits") from None
        value = None
    if value is None or value.numerator <= 0:
        raise BadTolerance(f"expected a positive rational, got {tol!r}")
    if value.numerator * MIN_TOL.denominator < MIN_TOL.numerator * value.denominator:
        raise BadTolerance(f"tolerance {tol!r} is below 2^-100")
    return value


@dataclass(frozen=True)
class MeasureBounds:
    """Certified bounds lower <= mu <= upper on an outer measure, with the
    names of the routes that certify them."""

    lower: Fraction
    upper: Fraction
    certificates: tuple

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, x) -> bool:
        return self.lower <= frac(x) <= self.upper

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    def __str__(self):
        if self.is_exact:
            return f"[{self.lower}, {self.upper}] (exact)"
        return f"[{self.lower}, {self.upper}]"


def _budgets(tol: Fraction) -> tuple:
    """(neighbourhoods, stages per neighbourhood) to try at tolerance tol.

    The k-th neighbourhood of a countable set has length below 2**-(k+1)
    and its stage n leaves at most 2**-(k+n+1) unseen, so both counts must
    grow with the bit length of 1/tol. The constant keeps tol 1/1000 at
    40 neighbourhoods of 80 stages, so no answer at the default tolerance
    moves; each further bit adds one neighbourhood and two stages.
    """
    k = (tol.denominator // tol.numerator).bit_length() + 30
    return k, 2 * k


def _stages(regions, lazy: LazyOpen):
    """(length of stage n on the regions, bound on that of the rest) for n =
    0, 1, ..., each an integer pair (numerator, denominator > 0).

    Each grow(n) is read once. A region keeps a running union of the grows
    met with it: meet distributes over finite unions, so that is stage(n)
    met with the region, and its carried length is the stage's measure
    there.
    """
    seen = [ivs.EMPTY] * len(regions)
    for n in itertools.count():
        new = lazy.grow(n).fin
        seen = [ivs.add(s, ivs.intersect(new, r)) for s, r in zip(seen, regions)]
        mn, md = 0, 1
        for s in seen:
            sn, sd = s._length_pair()
            mn, md = mn * sd + sn * md, md * sd
        tn, td = lazy._tail(n)
        yield (mn, md), (len(regions) * tn, td)


def _lazy_upper(regions, lazy: LazyOpen, inner_tol: Fraction, max_stage: int) -> Fraction:
    """The least stage bound m + rest of the stream, once rest <= inner_tol."""
    tn, td = inner_tol.numerator, inner_tol.denominator
    bn = bd = None
    for (mn, md), (rn, rd) in itertools.islice(_stages(regions, lazy), max_stage + 1):
        cn, cd = mn * rd + rn * md, md * rd
        if bn is None or cn * bd < bn * cd:
            bn, bd = cn, cd
        if rn * td <= tn * rd:
            return Fraction(bn, bd)
    raise TolNotReached("stage bound did not tighten enough", upper=Fraction(bn, bd))


def measure_bounds(x: PresentedSublocale, d: Measure, tol) -> MeasureBounds:
    """The outer measure of x, exactly, read off its normal form with no
    stream: v = the total of d|x (restricted), the length of S_big on the
    regions plus the atoms x holds.

    The opens around x form a filter, so its outer measure adds up over
    the summands of d, and an atom weighs in exactly when x holds its
    point (held_by). Outer measure is the infimum over the open
    neighbourhoods (Simpson, "Measure, randomness and sublocales", APAL
    2012). For the length, with x the join of K meet S_K (normal_form):
    - upper: the terms of S_big lie in its part, a key with a listing in
      covers of its points and one with generic in every dense open, so
      the opens around S_big joined with small covers of the rationals,
      less the atoms x does not hold, are neighbourhoods of x whose
      length falls to that of S_big;
    - lower: x lies above y = irrationals meet o(int S_big), as each
      term of S_big lies above irrationals meet o(int S_K), every
      co-listing being above the irrationals, and int S_big is the union
      of the int S_K but for finitely many rational ends, which the
      irrationals miss. rationals join c(int S_big) joins y to the whole,
      as a join distributes over meets in a coframe and rationals join
      irrationals and o(U) join c(U) are whole. So the outer length of x
      is at least the total less that of rationals join c(int S_big), the
      length of S_big. This is the proof that v is exact; no stream reads
      this part.

    tol is only checked; stream_bounds certifies v from the streams, its
    lower bound from those of the dual.
    """
    checked_tol(tol)
    return _exact(normal_form(x), d)


def _exact(form: dict, d: Measure) -> MeasureBounds:
    """measure_bounds, on the part of this normal form."""
    v = total_measure(_restricted(form, d))
    return MeasureBounds(v, v, (_route(form),))


def _route(form: dict) -> str:
    """The certificate: what kind of part the normal form shows x to be."""
    if any(s.pieces for key, s in form.items() if key):
        return "normal-form"
    ps = form.get(frozenset(), ivs.EMPTY).pieces
    if all((p.ln == 0 or not p.lo_in) and (p.hn == p.hd or not p.hi_in) for p in ps):
        return "exact-open"
    return "exact-closed" if all(p.lo_in and p.hi_in for p in ps) else "exact-locally-closed"


def stream_bounds(x: PresentedSublocale, d: Measure, tol) -> MeasureBounds:
    """Certified bounds on the outer measure of x, of width at most tol:
    the paper's construction, and the certificate of measure_bounds.

    Every x is measured by summand, with no formula for any shape: the
    atoms of d|x (restricted) weigh in exactly, and the length on the
    regions comes from the neighbourhood streams (_stream_bounds).
    """
    tol = checked_tol(tol)
    held = sum((w for _, w in restricted(d, x).atoms), Fraction(0))
    if not d.regions:
        return MeasureBounds(held, held, ("atoms-by-shape",))
    try:
        b = _stream_bounds(x, d.regions, tol)
    except TolNotReached as exc:
        if not held:
            raise
        raise _stalled(exc.side, exc.lower + held, exc.upper + held, tol) from None
    return MeasureBounds(b.lower + held, b.upper + held, b.certificates + ("atoms-by-shape",))


def _stalled(side: str, lower: Fraction, upper: Fraction, tol: Fraction) -> TolNotReached:
    max_k, max_stage = _budgets(tol)
    return TolNotReached(
        f"{side} stalled: bounds stuck at [{lower}, {upper}] after {max_k} "
        f"neighborhoods of up to {max_stage} stages",
        lower=lower,
        upper=upper,
        side=side,
    )


def _first_closing(closes, max_k: int):
    """The least k in 1..max_k with closes(k), found by doubling k and
    bisecting back, or None when no k tried closes.

    The least one when closing is monotone in k; wherever the search
    stops, the k it returns closes.
    """
    below, k = 0, 1
    while not closes(k):
        if k == max_k:
            return None
        below, k = k, min(2 * k, max_k)
    while k - below > 1:
        mid = (below + k) // 2
        if closes(mid):
            k = mid
        else:
            below = mid
    return k


def _stream_bounds(x: PresentedSublocale, regions: tuple, tol: Fraction) -> MeasureBounds:
    """Bounds on the outer measure of x under length on the regions: the
    upper from the neighbourhood streams of x, the lower from those of its
    partner, its dual: x join dual(x) is whole (see null_partner_interval),
    so mu*(x) >= total - mu*(dual(x)). Where the dual's normal form is
    the whole's, for x generic however it is written, there is no partner
    and the lower bound 0 is exact.

    The budgets follow from tol, and the neighbourhood used is found by
    doubling and bisection (see _first_closing): the bounds at every k
    are certified. When no k closes, every k is walked, keeping the best
    bound on each side, and the TolNotReached raised says which side
    stalled.
    """
    total = total_measure(Measure(regions))
    partner = _dual(x)
    if normal_form(partner) == {frozenset(): ivs.FULL}:  # the whole
        partner = None
    certs = ("stream-upper", "lower-zero" if partner is None else "partner-lower")
    inner = tol / 4
    max_k, max_stage = _budgets(tol)

    @functools.cache
    def at(k):
        """(lower, upper, whether the upper stream was cut) from the k-th
        neighbourhoods of x and of its partner."""
        try:
            upper, cut = _lazy_upper(regions, neighborhood(x, k), inner, max_stage), False
        except TolNotReached as exc:
            upper, cut = exc.upper, True
        low = Fraction(0)
        if partner is not None:
            try:
                rest = _lazy_upper(regions, neighborhood(partner, k), inner, max_stage)
            except TolNotReached as exc:
                rest = exc.upper
            low = max(low, total - rest)
        return low, min(upper, total), cut

    k = _first_closing(lambda k: at(k)[1] - at(k)[0] <= tol, max_k)
    if k is not None:
        return MeasureBounds(*at(k)[:2], certs)
    lower, upper = Fraction(0), total
    for k in range(1, max_k + 1):
        last_upper = upper
        low, up, upper_cut = at(k)
        lower, upper = max(lower, low), min(upper, up)
        if upper - lower <= tol:
            return MeasureBounds(lower, upper, certs)
    # with no partner the lower bound 0 is exact; otherwise a gap that the
    # upper stream's last step could not have closed belongs to the partner
    if partner is None or upper_cut or last_upper - upper >= upper - lower - tol:
        side = "upper stream"
    else:
        side = "partner lower"
    raise _stalled(side, lower, upper, tol)


@dataclass(frozen=True)
class ResidualBounds:
    """Bounds lo <= mu(X u Y) + mu(X n Y) - mu(X) - mu(Y) <= hi, with the
    bounds on the four measures they are made of."""

    lo: Fraction
    hi: Fraction
    union: MeasureBounds
    inter: MeasureBounds
    x: MeasureBounds
    y: MeasureBounds


def strict_additivity_interval(x, y, d, tol) -> ResidualBounds:
    """mu(XuY) + mu(XnY) - mu(X) - mu(Y), exactly: zero on every pair.

    The four parts are measured as measure_bounds measures them, off the
    normal forms of X and Y, built once, and the forms of the union and
    the meet derived from those (join_forms, meet_forms). S_big of the
    union is B(X) cup B(Y), that of the meet B(X) cap B(Y) (B as in
    _restricted), and the meet holds a point exactly when X and Y both do; so
    length and atoms add up, as Simpson proves for sublocales ("Measure,
    randomness and sublocales", APAL 2012).
    """
    checked_tol(tol)
    fx, fy = normal_form(x), normal_form(y)
    bx, by, bu, bi = (_exact(f, d) for f in (fx, fy, join_forms(fx, fy), meet_forms(fx, fy)))
    r = bu.lower + bi.lower - bx.lower - by.lower
    return ResidualBounds(lo=r, hi=r, union=bu, inter=bi, x=bx, y=by)


def _dual(x: PresentedSublocale) -> PresentedSublocale:
    """o(U) and c(U) swap, as do a listing and its co-listing; generic goes
    to the whole, a union to the meet of the duals, a meet to their union."""
    if isinstance(x, Open):
        return Closed(x.part)
    if isinstance(x, Closed):
        return Open(x.of_open)
    if isinstance(x, CountablePoints):
        return CoCountable(x.points)
    if isinstance(x, CoCountable):
        return CountablePoints(x.points)
    if isinstance(x, Generic):
        return Closed(EMPTY_RO)
    if isinstance(x, Union):
        return Meet(tuple(map(_dual, x.parts)))
    return Union(tuple(map(_dual, x.parts)))


def null_partner_interval(x: PresentedSublocale, d, tol):
    """A partner b = _dual(x), which depends on no measure, whose union
    with x carries full measure while the meet is null, with certificates.

    x join b is whole, by induction on x: o(U) join c(U) and a listing
    join its co-listing are whole, and joins distribute over meets in the
    coframe of parts. Read as a set of points (held_by), or as a set up to
    length (S_big, see measure_bounds), b is the complement of x with
    generic read as empty, so x meet b holds no point and has no length.
    So under every Measure the union measures the total, the meet 0 and b
    the total less mu*(x), each exactly, off the normal forms of x and b.
    """
    checked_tol(tol)
    b = _dual(x)
    fx, fb = normal_form(x), normal_form(b)
    return b, {"union": _exact(join_forms(fx, fb), d), "intersection": _exact(meet_forms(fx, fb), d),
               "partner": _exact(fb, d)}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_descriptor(text: str):
    """Parse the command-line grammar:

        lebesgue
        restrict [0,1/2]|(3/4,1)
        atoms 1/2:1,3/4:1/3
        mix lebesgue + atoms 1/2:1
    """
    text = text.strip()
    if text == "lebesgue":
        return Lebesgue()
    if text.startswith("restrict "):
        return LebesgueRestrictedTo(parse_fin(text[len("restrict "):]))
    if text.startswith("atoms "):
        pairs = []
        for chunk in text[len("atoms "):].replace(",", " ").split():
            if ":" not in chunk:
                raise UnsupportedDescriptor(f"atom {chunk!r} is not point:weight")
            q, _, w = chunk.partition(":")
            pairs.append((q, w))
        if not pairs:
            raise UnsupportedDescriptor("no atoms given")
        return atomic(pairs)
    if text.startswith("mix "):
        parts = [p.strip() for p in text[len("mix "):].split("+")]
        if not all(parts):
            raise UnsupportedDescriptor("empty mixture component")
        return Mixture(tuple(parse_descriptor(p) for p in parts))
    raise UnsupportedDescriptor(f"unrecognized descriptor {text!r}")

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
filter: an atom weighs in exactly when the sublocale holds its point,
decided by shape. measure_bounds reads the length off the normal form,
exactly, and the residual and partner certificates measure through it.
stream_bounds is the paper's construction, kept as its certificate: it
bounds the length within tol from streams alone, upper bounds from the
sublocale's neighborhood streams, each grow read once, lower bounds from
the one partner its normal form gives, or an honest zero.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from locale_lab import intervals as ivs
from locale_lab.frames import Frame, FrameError, _bits
from locale_lab.intervals import EMPTY_RO, FULL_RO, FinUnion, Iv, RatOpen, frac, parse_fin
from locale_lab.morphisms import FrameMorphism
from locale_lab.presented import (
    RATIONALS,
    WHOLE,
    Closed,
    CoCountable,
    CountablePoints,
    IntersectWithOpen,
    LazyOpen,
    Open,
    PresentedSublocale,
    Union,
    UnsupportedConstructor,
    full_minus_points,
    holds_point,
    neighborhood,
    normal_form,
)
from locale_lab.sublocales import (
    Sublocale,
    closed_sublocale,
    fixpoint_frame,
    intersect,
    is_subsublocale,
    open_sublocale,
    union as sub_union,
    whole,
)

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
    lower = []  # lower[b]: the elements b covers, in index order
    for b, down in enumerate(frame.down):
        below = down & ~(1 << b)
        lower.append([a for a in _bits(below) if frame.up[a] & below == 1 << a])
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
    b = closed_sublocale(val.frame, v)
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
    mu = tuple(
        outer_measure_finite(val, intersect(a, open_sublocale(val.frame, amb)))
        for amb in fix
    )
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
    r = Sublocale(frame, sum(
        1 << i for i in range(len(frame.primes))
        if a.points >> i & 1
        and outer_measure_finite(val, Sublocale(frame, a.points & ~(1 << i))) < target
    ))
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
    map: the support less q goes to q, and carries q's mass.
    """
    frame = val.frame
    masks = [0]  # the sets of support points, ending with the whole support
    for i, (p, m) in enumerate(zip(frame.primes, val.mass)):
        if m > 0:
            if frame.primes_above[p] != 1 << i:
                raise ValuationError(f"point {frame.elements[p]!r} carries mass "
                                     "below another point: no reduced algebra")
            masks += [s | 1 << i for s in masks]
    reps = [Sublocale(frame, s) for s in masks]
    reps.sort(key=lambda r: (len(r.fixpoints), r.nucleus))
    up = [sum(1 << j for j, y in enumerate(reps) if is_subsublocale(x, y)) for x in reps]
    red = Frame([f"r{i}" for i in range(len(reps))], up)
    points = tuple((masks[-1] & ~reps[p].points).bit_length() - 1 for p in red.primes)
    nu = FiniteValuation(red, tuple(val.mass[q] for q in points))
    return ReducedAlgebra(red, tuple(reps), FrameMorphism(frame, red, points), nu)


# ---------------------------------------------------------------------------
# interval descriptors
# ---------------------------------------------------------------------------


class UnsupportedDescriptor(ValueError):
    pass


class UnsupportedCombination(ValueError):
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
    with strictly increasing points in [0,1] and positive weights.
    """

    regions: tuple = ()
    atoms: tuple = ()

    def __post_init__(self):
        last = None
        for q, w in self.atoms:
            if not (0 <= q <= 1):
                raise UnsupportedDescriptor(f"atom {q} outside [0,1]")
            if w <= 0:
                raise UnsupportedDescriptor(f"atom {q} has weight {w}")
            if last is not None and q <= last:
                raise UnsupportedDescriptor("atoms not strictly increasing")
            last = q


def Lebesgue() -> Measure:
    return Measure((ivs.FULL,))


def LebesgueRestrictedTo(region: FinUnion) -> Measure:
    return Measure((region,))


def atomic(pairs) -> Measure:
    return Measure(atoms=tuple(sorted((frac(q), frac(w)) for q, w in pairs)))


def Mixture(parts) -> Measure:
    """The sum of the parts: their regions side by side, the weights of
    atoms at one point added."""
    if not parts:
        raise UnsupportedDescriptor("empty mixture")
    weights = {}
    for p in parts:
        for q, w in p.atoms:
            weights[q] = weights.get(q, 0) + w
    return Measure(tuple(r for p in parts for r in p.regions), tuple(sorted(weights.items())))


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
    return _pair_sum(itertools.chain(
        (r._length_pair() for r in d.regions),
        ((w.numerator, w.denominator) for _, w in d.atoms),
    ))


def point_mass(d: Measure, q) -> Fraction:
    q = frac(q)
    return next((w for p, w in d.atoms if p == q), Fraction(0))


def null_open(d: Measure) -> RatOpen:
    """The largest open of measure zero: the exterior of the support, the
    closure of the regions' nondegenerate pieces and of the atoms."""
    support = ivs.closure(ivs.normalize(itertools.chain(
        (p for r in d.regions for p in r.pieces if p.lo < p.hi),
        (Iv(q, q, True, True) for q, _ in d.atoms),
    )))
    return RatOpen(ivs.interior(ivs.complement(support)))


def restrict_to_open(d: Measure, u: RatOpen) -> Measure:
    return _restrict_fin(d, u.fin)


def restrict_to_closed(d: Measure, u: RatOpen) -> Measure:
    """Restrict to the closed complement of u."""
    return _restrict_fin(d, ivs.complement(u.fin))


def _restrict_fin(d: Measure, fin: FinUnion) -> Measure:
    return Measure(
        tuple(ivs.intersect(r, fin) for r in d.regions),
        tuple((q, w) for q, w in d.atoms if fin.contains(q)),
    )


# -- reduction ----------------------------------------------------------------


def _absorb_null_gaps(d, u: RatOpen) -> RatOpen:
    """Fill single-point holes of zero point mass."""
    pieces = list(u.fin.pieces)
    if not pieces:
        return u
    out = [pieces[0]]
    for p in pieces[1:]:
        a = out[-1]
        if a.hi == p.lo and not a.hi_in and not p.lo_in and point_mass(d, a.hi) == 0:
            out[-1] = Iv(a.lo, p.hi, a.lo_in, p.hi_in)
        else:
            out.append(p)
    return RatOpen(FinUnion(tuple(out)))


def mu_reduce_open(d, u: RatOpen) -> RatOpen:
    """The largest open with the same measure as u: join the exterior of
    the support, then absorb massless single-point gaps."""
    return _absorb_null_gaps(d, ivs.join(u, null_open(d)))


def mu_reduce_interval(d, a: PresentedSublocale | None = None) -> PresentedSublocale:
    """The reduction of a as a presented sublocale (its closed hull shape).

    Supported for a = None (all of [0,1]), opens, and closed complements;
    anything else raises UnsupportedConstructor.
    """
    if a is None:
        return Closed(mu_reduce_open(d, EMPTY_RO))
    if isinstance(a, Open):
        if a.part == FULL_RO:
            return Closed(mu_reduce_open(d, EMPTY_RO))
        inner = restrict_to_open(d, a.part)
        return IntersectWithOpen(Closed(mu_reduce_open(inner, EMPTY_RO)), a.part)
    if isinstance(a, Closed):
        inner = restrict_to_closed(d, a.of_open)
        hull = mu_reduce_open(inner, EMPTY_RO)
        return Closed(ivs.join(a.of_open, hull))
    raise UnsupportedConstructor(
        f"reduction not supported for {type(a).__name__}"
    )


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
    too long to print is refused before it is built."""
    if isinstance(tol, str) and ivs.too_long(tol):
        raise BadTolerance(f"tolerance {tol!r} has more than {ivs.digit_limit()} digits")
    try:
        value = Fraction(tol)
    except (ValueError, ZeroDivisionError, TypeError):
        value = None
    if value is None or value <= 0:
        raise BadTolerance(f"expected a positive rational, got {tol!r}")
    if value < MIN_TOL:
        raise BadTolerance(f"tolerance {tol!r} is below 2^-100")
    return value


@dataclass(frozen=True)
class MeasureBounds:
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


def _held(x: PresentedSublocale, d: Measure) -> Fraction:
    """The weight of the atoms of d whose points x holds."""
    return sum((w for q, w in d.atoms if holds_point(x, q)), Fraction(0))


def _big(form: dict) -> FinUnion:
    """S_big: the union of the sets of the whole and co-listing terms."""
    return functools.reduce(ivs.add, (s for leaf, s in form.items()
                                      if leaf is WHOLE or isinstance(leaf, CoCountable)), ivs.EMPTY)


def measure_bounds(x: PresentedSublocale, d: Measure, tol) -> MeasureBounds:
    """The outer measure of x, exactly, read off its normal form with no
    stream: v = the length of S_big on the regions plus the atoms x holds.

    The opens around x form a filter, so its outer measure adds up over
    the summands of d, and an atom weighs in exactly when x holds its
    point (_held). Outer measure is the infimum over the open
    neighbourhoods (Simpson, "Measure, randomness and sublocales", APAL
    2012). For the length, with x the join of L meet S_L (normal_form):
    - upper: the whole and co-listing terms lie in the part of S_big, the
      listings in covers of their points and generic in every dense
      open, so the opens around S_big joined with small covers of the
      rationals, less the atoms x does not hold, are neighbourhoods of x
      whose length falls to that of S_big;
    - lower: x lies above y = irrationals meet o(int S_big), as each
      whole or co-listing term lies above irrationals meet o(int S_L),
      and int S_big is the union of the int S_L but for finitely many
      rational ends, which the irrationals miss. The partner rationals
      join c(int S_big) joins y to the whole, as a join distributes over
      meets in a coframe and rationals join irrationals and o(U) join
      c(U) are whole. So the outer length of x is at least the total
      less the partner's, the length of S_big.

    tol is only checked; stream_bounds certifies v from the streams.
    """
    checked_tol(tol)
    form = normal_form(x)
    big = _big(form)
    v = _pair_sum(itertools.chain(
        (ivs.intersect(big, r)._length_pair() for r in d.regions),
        ((w.numerator, w.denominator) for q, w in d.atoms if holds_point(x, q)),
    ))
    return MeasureBounds(v, v, (_route(form),))


def _route(form: dict) -> str:
    """The certificate: what kind of part the normal form shows x to be."""
    if any(s.pieces for leaf, s in form.items() if leaf is not WHOLE):
        return "normal-form"
    ps = form.get(WHOLE, ivs.EMPTY).pieces
    if all((p.ln == 0 or not p.lo_in) and (p.hn == p.hd or not p.hi_in) for p in ps):
        return "exact-open"
    return "exact-closed" if all(p.lo_in and p.hi_in for p in ps) else "exact-locally-closed"


def stream_bounds(x: PresentedSublocale, d: Measure, tol) -> MeasureBounds:
    """Certified bounds on the outer measure of x, of width at most tol:
    the paper's construction, and the certificate of measure_bounds.

    Every x is measured by summand, with no formula for any shape: the
    atoms x holds weigh in exactly, by shape, and the length on the
    regions comes from the neighbourhood streams (_stream_bounds).
    """
    tol = checked_tol(tol)
    held = _held(x, d)
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


def _partner(x: PresentedSublocale):
    """rationals join c(int S_big), which joins x to the whole (see
    measure_bounds), or None where int S_big is empty and the lower is 0."""
    inner = RatOpen(ivs.interior(_big(normal_form(x))))
    if inner.is_empty:
        return None
    rationals = CountablePoints(RATIONALS)
    return rationals if inner == FULL_RO else Union((rationals, Closed(inner)))


def _stream_bounds(x: PresentedSublocale, regions: tuple, tol: Fraction) -> MeasureBounds:
    """Bounds on the outer measure of x under length on the regions: the
    upper from the neighbourhood streams of x, the lower from those of
    its partner.

    The budgets follow from tol, and the neighbourhood used is found by
    doubling and bisection (see _first_closing): the bounds at every k
    are certified. When no k closes, every k is walked, keeping the best
    bound on each side, and the TolNotReached raised says which side
    stalled.
    """
    total = total_measure(Measure(regions))
    partner = _partner(x)
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
    lo: Fraction
    hi: Fraction
    union: MeasureBounds
    inter: MeasureBounds
    x: MeasureBounds
    y: MeasureBounds

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def strict_additivity_interval(x, y, d, tol) -> ResidualBounds:
    """Interval arithmetic on mu(XuY) + mu(XnY) - mu(X) - mu(Y).

    X, Y and their union are measured exactly (measure_bounds); the
    intersection is bounded by monotonicity, or measured exactly when
    both arguments are plain opens.
    """
    tol = checked_tol(tol)
    bx, by, bu = (measure_bounds(p, d, tol) for p in (x, y, Union((x, y))))
    if isinstance(x, Open) and isinstance(y, Open):
        bi = measure_bounds(IntersectWithOpen(x, y.part), d, tol)
    else:
        bi = _meet_cap(bx, by, bu)
    return ResidualBounds(
        lo=bu.lower + bi.lower - bx.upper - by.upper,
        hi=bu.upper + bi.upper - bx.lower - by.lower,
        union=bu,
        inter=bi,
        x=bx,
        y=by,
    )


def _meet_cap(bx: MeasureBounds, by: MeasureBounds, bu: MeasureBounds) -> MeasureBounds:
    """Bounds on mu(XnY) from those on X, Y and XuY: at most either
    part, and at most what the parts carry beyond their union."""
    cap = min(bx.upper, by.upper, bx.upper + by.upper - bu.lower)
    return MeasureBounds(Fraction(0), max(cap, Fraction(0)), ("monotone-intersection",))


# Each shape and its complement shape: their union is all of [0,1].
_COMPLEMENTS = {
    Open: lambda x: Closed(x.part),
    Closed: lambda x: Open(x.of_open),
    CountablePoints: lambda x: CoCountable(x.points),
    CoCountable: lambda x: CountablePoints(x.points),
}


def null_partner_interval(x: PresentedSublocale, d, tol):
    """A partner b whose union with x carries full measure while the meet
    stays null, with certificates.

    Opens, closed sets and the listings pair with their complement shape
    (_COMPLEMENTS). Any other x measured null within tol gets the closed
    complement of a small neighborhood stage; a shape that is neither
    paired nor null has no partner here. The partner and the union are
    measured exactly (measure_bounds), and the meet is capped as in
    strict_additivity_interval.
    """
    tol = checked_tol(tol)
    complement = _COMPLEMENTS.get(type(x))
    bx = measure_bounds(x, d, tol)
    if complement is not None:
        b = complement(x)
    elif bx.upper > tol:
        raise UnsupportedCombination(
            f"{type(x).__name__} is not certified null (upper {bx.upper}) "
            "and has no structural partner"
        )
    else:
        b = Closed(_small_stage(x, d, tol))
    bb, bu = measure_bounds(b, d, tol), measure_bounds(Union((x, b)), d, tol)
    return b, {"union": bu, "intersection": _meet_cap(bx, bb, bu), "partner": bb}


def _small_stage(x, d, tol) -> RatOpen:
    """A neighborhood stage of x, less the atoms x does not hold, of
    measure at most 2*tol: its length on the regions and the held atoms
    stay within that. The k-th neighbourhood offers its first stage with
    a rest within tol, and k is found as in _stream_bounds."""
    held = _held(x, d)
    max_k, max_stage = _budgets(tol)

    @functools.cache
    def small(k):
        nb = neighborhood(x, k)
        for n, (m, (rn, rd)) in enumerate(itertools.islice(_stages(d.regions, nb), max_stage + 1)):
            if rn * tol.denominator <= tol.numerator * rd:
                return nb.stage(n) if Fraction(*m) + held <= 2 * tol else None
        return None

    k = _first_closing(lambda k: small(k) is not None, max_k)
    if k is None:
        raise TolNotReached(
            f"upper stream stalled: no stage of measure at most {2 * tol} after "
            f"{max_k} neighborhoods of up to {max_stage} stages",
            side="upper stream",
        )
    missed = full_minus_points(q for q, _ in d.atoms if not holds_point(x, q))
    return ivs.meet(small(k), missed)


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

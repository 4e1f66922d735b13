"""The measure suite's laws: the gate on each corpus frame
(`MEASURE_FRAME_LAWS`), the laws of each valuation on a complemented
frame's part lattice (`FINITE_MEASURE_LAWS`, over `_Valued`), and those
of [0,1] at one tolerance (`INTERVAL_LAWS`, over `_Arena`), the finite
laws of elements and parts alone declared through `runner._forall`. An
interval law that draws random opens draws them from a seeded stream of
its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from locale_lab import intervals as ivs
from locale_lab.frames import Frame, FrameError
from locale_lab.intervals import RatOpen, iv, normalize, parse_fin, parse_ratopen
from locale_lab.lattice import SubLattice
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
    strict_additivity_interval,
    total_measure,
    vstar,
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
from locale_lab.runner import _declare, _forall, _once


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


def _valued(m):
    """A valuation as `_forall` quantifies it: its frame's elements, its parts."""
    return m.L.frame, m.L


_forall(FINITE_MEASURE_LAWS, "outer-extends", "the outer measure of [V] is the valuation of V", _valued, "v",
        lambda m, v: m.out[m.L.open_idx[v]] == m.mu[v])
_forall(FINITE_MEASURE_LAWS, "outer-monotone", "X inside Y gives mu(X) <= mu(Y)", _valued, "XY",
        lambda m, i, j: i & j != i or m.out[i] <= m.out[j])


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


_forall(FINITE_MEASURE_LAWS, "closed-complement", "mu[V] + mu(c(V)) is the total mass", _valued, "v",
        lambda m, v: m.out[m.L.open_idx[v]] + m.out[m.L.closed_idx[v]] == m.top)
_forall(FINITE_MEASURE_LAWS, "open-split", "mu(A n [V]) + mu(A n c(V)) = mu(A)", _valued, "Xv",
        lambda m, i, v: m.out[i & m.L.open_idx[v]] + m.out[i & m.L.closed_idx[v]] == m.out[i])


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
    """[0,1] at one tolerance."""

    def __init__(self, tol: Fraction):
        self.tol = tol
        self.descriptors = _interval_descriptors()
        self.rats = CountablePoints(RATIONALS)
        self.irr = CoCountable(RATIONALS)
        self.atom_half = atomic([(Fraction(1, 2), Fraction(1))])
        self.restricted = LebesgueRestrictedTo(parse_fin("[0,1/2]"))


@_declare(INTERVAL_LAWS, "closed-complement-interval",
          "mu(U) + mu(complement of U) is the total mass, attained by neighborhood stages")
def _closed_complement_interval(a):
    checked, bad, rng = 0, [], random.Random(20260822)
    for t in range(100):
        u = _random_ratopen(rng)
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
    bad, rng = [], random.Random(20260823)
    for t in range(10):
        x, y = Open(_random_ratopen(rng)), Open(_random_ratopen(rng))
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

"""Sublocales of [0,1] presented by constructors, with open neighborhoods.

The frame here is the rational-endpoint opens of [0,1], so sublocales are
given symbolically: opens, closed complements, countable point sets and
their complements, the smallest dense sublocale, and unions and meets of
those. Each presentation has a neighborhood stream: `neighborhood(x, k)`
is an open containing x, and its measures converge down to the outer
measure. Whether x holds a point is read off its normal form (see
held_by), so point masses never ride in a neighborhood stream.

Countable point sets are listings read off binary trees of rationals by
descent (see Enumerator): they keep no state and find points without scans.

A neighborhood is a LazyOpen whose stages grow forever with a certified
length bound on the unseen rest. Stage n is stage n-1 with the pieces
that arrive at n inserted (see LazyOpen): the same set, hence the same
canonical tuple, as a rebuild from the whole prefix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from locale_lab import intervals as ivs
from locale_lab.intervals import EMPTY_RO, RatOpen, frac


class UnsupportedConstructor(ValueError):
    pass


# -- countable point sets -----------------------------------------------------

def _mediant(ln, ld, hn, hd):
    return ln + hn, ld + hd


def _midpoint(ln, ld, hn, hd):
    d = max(ld, hd)  # both powers of two: the larger is a common denominator
    return ln * (d // ld) + hn * (d // hd), 2 * d


@dataclass(frozen=True)
class Enumerator:
    """A listing of rationals in [0,1] with decidable membership.

    The listing is 0, 1, then in level order the binary tree `split` grows
    on [0,1]: node split(lo, hi) has children split(lo, node) and
    split(node, hi). Position i >= 2 is the path spelt by the bits of i - 1
    after the leading one, 0 left and 1 right. The tree is sorted in order,
    so the first node met inside (a, b) going down is the shallowest there,
    hence the first listed. `split` maps numerators and denominators.
    """

    name: str
    split: object
    membership: object

    def point(self, i: int) -> Fraction:
        """The i-th point of the listing."""
        return Fraction(*self._point(i))

    def _point(self, i: int) -> tuple:
        """The i-th point as an integer pair in lowest terms: a mediant of
        Stern-Brocot neighbours is in lowest terms, and so is a dyadic
        midpoint, whose numerator is odd."""
        if i < 2:
            return i, 1
        ln, ld, hn, hd = 0, 1, 1, 1
        for bit in bin(i - 1)[3:]:
            n, d = self.split(ln, ld, hn, hd)
            if bit == "1":
                ln, ld = n, d
            else:
                hn, hd = n, d
        return self.split(ln, ld, hn, hd)

    def _in_order(self, k: int):
        """The first k listed points as integer pairs, in increasing order.

        Position i >= 2 is node i - 1 of the tree numbered as a heap (root
        1, children 2h and 2h + 1), and the tree is sorted in order, so an
        in-order walk of the nodes below k - 1 lists them sorted.
        """
        def walk(h, ln, ld, hn, hd):
            if h < k - 1:
                n, d = self.split(ln, ld, hn, hd)
                yield from walk(2 * h, ln, ld, n, d)
                yield n, d
                yield from walk(2 * h + 1, n, d, hn, hd)

        if k > 0:
            yield 0, 1
        yield from walk(1, 0, 1, 1, 1)
        if k > 1:
            yield 1, 1

    def first_in(self, a, b) -> int:
        """The position of the first listed point strictly inside (a, b) in [0,1]."""
        a, b = frac(a), frac(b)
        if not 0 <= a < b <= 1:
            raise ValueError(f"({a}, {b}) is not an interval inside [0,1]")
        ln, ld, hn, hd, path = 0, 1, 1, 1, 1  # path: the binary digits of position - 1
        while True:
            n, d = self.split(ln, ld, hn, hd)
            if n * a.denominator <= a.numerator * d:
                ln, ld, path = n, d, 2 * path + 1
            elif n * b.denominator >= b.numerator * d:
                hn, hd, path = n, d, 2 * path
            else:
                return path + 1

    def prefix(self, k: int) -> list:
        return [self.point(i) for i in range(k)]

    def contains(self, q) -> bool:
        q = frac(q)
        return Fraction(0) <= q <= Fraction(1) and self.membership(q)

    def __repr__(self):
        return f"Enumerator({self.name})"


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


# The mediant grows the Stern-Brocot tree, which holds every rational in
# (0,1) once (Graham, Knuth and Patashnik, *Concrete Mathematics* 4.5).
RATIONALS = Enumerator("rationals-stern-brocot", _mediant, lambda q: True)
DYADICS = Enumerator("dyadics", _midpoint, _is_dyadic)


# -- lazy opens ----------------------------------------------------------------

class LazyOpen:
    """An open given by increasing stages plus a length bound on the rest.

    grow(n) is the open that arrives at stage n; stage(n) is the union of
    grow(0..n), built once from stage(n-1) and kept, as is each grow(n)
    that went into it. _tail(n) bounds the total length of
    limit-minus-stage(n), as an integer pair (numerator, denominator > 0);
    tail(n) is the same bound as a Fraction. Stages only grow, so a stream
    derived from this one by a finite-union-preserving operation can apply
    it to grow alone.
    """

    def __init__(self, grow, tail):
        self.grow = grow
        self._tail = tail
        self._grows = []
        self._stages = []

    def stage(self, n: int) -> RatOpen:
        stages = self._stages
        while len(stages) <= n:
            new = self.grow(len(stages))
            self._grows.append(new)
            if stages:
                prev = stages[-1]
                new = prev if new.is_empty else ivs._trusted_open(ivs.add(prev.fin, new.fin))
            stages.append(new)
        return stages[n]

    def tail(self, n: int) -> Fraction:
        return Fraction(*self._tail(n))


def as_lazy(u: RatOpen) -> LazyOpen:
    return LazyOpen(lambda n: EMPTY_RO if n else u, lambda n: (0, 1))


def lazy_cover(points: Enumerator, eps) -> LazyOpen:
    """An open covering every enumerated point, of total length below eps/2.

    Point i gets the interval (q_i - r, q_i + r) with r = eps / 2**(i+3),
    clipped to [0,1], and arrives at stage i+1; the pieces past stage n
    sum to at most eps / 2**(n+1). Each piece is canonical by
    construction: r > 0, and an end is closed only where it is clipped to
    0 or 1.
    """
    eps = frac(eps)
    if eps <= 0:
        raise UnsupportedConstructor("cover needs a positive eps")
    en, ed = eps.numerator, eps.denominator

    def grow(n):
        if n == 0:
            return EMPTY_RO
        qn, qd = points._point(n - 1)
        # q - r and q + r over the common denominator d, with r = en / rd
        rd = ed << (n + 2)
        d, mid, r = qd * rd, qn * rd, en * qd
        lo, hi = mid - r, mid + r
        ln, ld = ivs._reduced(lo, d) if lo > 0 else (0, 1)
        hn, hd = ivs._reduced(hi, d) if hi < d else (1, 1)
        piece = ivs._piece(ln, ld, hn, hd, lo < 0, hi > d)
        return ivs._trusted_open(ivs._trusted((piece,)))

    return LazyOpen(grow, lambda n: (en, ed << (n + 1)))


def lazy_join(a: LazyOpen, b: LazyOpen) -> LazyOpen:
    def tail(n):
        (an, ad), (bn, bd) = a._tail(n), b._tail(n)
        return an * bd + bn * ad, ad * bd

    return LazyOpen(lambda n: ivs._trusted_open(ivs.add(a.grow(n).fin, b.grow(n).fin)), tail)


def lazy_meet(a: LazyOpen, b: LazyOpen) -> LazyOpen:
    """Stage n is the meet of the two stages n: what arrives at n is
    a.grow(n) met with b.stage(n), and a.stage(n) met with b.grow(n). The
    grows are the ones the operands' stages kept, so each operand grows
    once per stage. The rest lies in one of the two rests, so it has the
    join's tail."""
    def grow(n):
        sa, sb = a.stage(n), b.stage(n)
        gb = b._grows[n]
        new = ivs.intersect(a._grows[n].fin, sb.fin)
        if not gb.is_empty:
            new = ivs.add(new, ivs.intersect(sa.fin, gb.fin))
        return ivs._trusted_open(new)

    return LazyOpen(grow, lazy_join(a, b)._tail)


def full_minus_points(pts) -> RatOpen:
    """[0,1] minus finitely many points of [0,1]: the gaps between them, in
    one pass. A point outside [0,1] is refused with OutOfAmbient."""
    qs = sorted(frac(p) for p in pts)
    if qs and (qs[0] < 0 or qs[-1] > 1):
        raise ivs.OutOfAmbient(f"point {qs[0] if qs[0] < 0 else qs[-1]} lies outside [0,1]")
    return _gaps((q.numerator, q.denominator) * 2 for q in qs)


def _gaps(cores) -> RatOpen:
    """[0,1] minus closed cores [a, b], given in order as integer pairs
    (an, ad, bn, bd), each one equal to the last or after it.

    A gap is kept only when it is nonempty, which drops repeated cores and
    the gap before a core at 0; the gaps are separated by the cores, so the
    result is canonical by construction.
    """
    out, ln, ld, lo_in = [], 0, 1, True
    for an, ad, bn, bd in cores:
        if ln * ad < an * ld:
            out.append(ivs._piece(ln, ld, an, ad, lo_in, False))
        ln, ld, lo_in = bn, bd, False
    if ln < ld:
        out.append(ivs._piece(ln, ld, 1, 1, lo_in, True))
    return ivs._trusted_open(ivs._trusted(tuple(out)))


# -- presentations --------------------------------------------------------------

@dataclass(frozen=True)
class PresentedSublocale:
    """A sublocale of [0,1] given by a constructor; the subclasses are the
    constructors."""


@dataclass(frozen=True)
class Open(PresentedSublocale):
    """The open sublocale of a rational open."""

    part: RatOpen

    def __post_init__(self):
        if not isinstance(self.part, RatOpen):
            raise UnsupportedConstructor(
                f"an open part is a RatOpen, not a {type(self.part).__name__}"
            )


@dataclass(frozen=True)
class Closed(PresentedSublocale):
    """The closed complement of an open: the sublocale [0,1] minus of_open."""

    of_open: RatOpen


@dataclass(frozen=True)
class CountablePoints(PresentedSublocale):
    """The join of the enumerated points of [0,1]."""

    points: Enumerator


@dataclass(frozen=True)
class CoCountable(PresentedSublocale):
    """Everything except the enumerated points."""

    points: Enumerator


@dataclass(frozen=True)
class Generic(PresentedSublocale):
    """The smallest dense sublocale."""


@dataclass(frozen=True)
class _Combination(PresentedSublocale):
    """A union or a meet of one or more parts."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise UnsupportedConstructor(f"{type(self).__name__.lower()} of nothing")


class Union(_Combination):
    """The join of the parts."""


class Meet(_Combination):
    """The meet of the parts."""


def normal_form(x: PresentedSublocale) -> dict:
    """x as a join of K meet S_K, one term per key K: {K: S_K}.

    A key is a frozenset of leaves (CountablePoints, CoCountable,
    Generic()) that stands for their meet, the empty key for the whole,
    and S_K is a FinUnion. The parts form a coframe (Picado and Pultr,
    *Frames and Locales*, 2012, ch. III and VI), so meets distribute over
    the joins of terms (meet_forms), and o(U) and c(U) meet a term in its
    set. The sets are exact: the Boolean combinations of opens form, as
    parts and as sets, the Boolean algebra the opens generate.
    """
    if isinstance(x, Open):
        return {frozenset(): x.part.fin}
    if isinstance(x, Closed):
        return {frozenset(): ivs.complement(x.of_open.fin)}
    if isinstance(x, (CountablePoints, CoCountable, Generic)):
        return {frozenset((x,)): ivs.FULL}
    if isinstance(x, Union):
        return join_forms(*map(normal_form, x.parts))
    if isinstance(x, Meet):
        return meet_forms(*map(normal_form, x.parts))
    raise UnsupportedConstructor(f"no normal form for {type(x).__name__}")


def join_forms(*forms) -> dict:
    """The normal form of the join of the parts of these forms: the sets
    of one key joined."""
    out = {}
    for form in forms:
        for key, s in form.items():
            out[key] = ivs.add(out[key], s) if key in out else s
    return out


def meet_forms(*forms) -> dict:
    """The normal form of the meet of the parts of these forms: the join
    of (K1 meet K2) meet (S1 cap S2) over every pair of terms."""
    return functools.reduce(lambda f, g: join_forms(*(
        {k1 | k2: ivs.intersect(s1, s2)} for k1, s1 in f.items() for k2, s2 in g.items()
    )), forms)


def closed_neighborhood(u: RatOpen, k: int) -> RatOpen:
    """An open around the closed complement of u, shrinking as k grows.

    Each piece of u keeps a closed core, grown toward the full piece as k
    increases; the gaps between the cores are the neighborhood. The cores
    lie inside u's separated pieces and miss their open ends, so they come
    in order and apart.
    """
    def cores():
        for p in u.fin.pieces:
            # an open end moves in by d = (hi - lo) / 2**(k+2) = dn / dd
            dn, dd = p.hn * p.ld - p.ln * p.hd, (p.hd * p.ld) << (k + 2)
            a = (p.ln, p.ld) if p.lo_in else ivs._reduced(p.ln * dd + dn * p.ld, p.ld * dd)
            b = (p.hn, p.hd) if p.hi_in else ivs._reduced(p.hn * dd - dn * p.hd, p.hd * dd)
            yield a + b

    return _gaps(cores())


def neighborhood(x: PresentedSublocale, k: int) -> LazyOpen:
    """The k-th open neighborhood of x; measures converge down along k."""
    if isinstance(x, Open):
        return as_lazy(x.part)
    if isinstance(x, Closed):
        return as_lazy(closed_neighborhood(x.of_open, k))
    if isinstance(x, CountablePoints):
        return lazy_cover(x.points, Fraction(1, 2 ** k))
    if isinstance(x, CoCountable):
        return as_lazy(_gaps(q * 2 for q in x.points._in_order(k)))
    if isinstance(x, Generic):
        return lazy_cover(RATIONALS, Fraction(1, 2 ** k))
    if isinstance(x, Union):
        return functools.reduce(lazy_join, (neighborhood(part, k) for part in x.parts))
    if isinstance(x, Meet):
        return functools.reduce(lazy_meet, (neighborhood(part, k) for part in x.parts))
    raise UnsupportedConstructor(f"no neighborhood stream for {type(x).__name__}")


def held_by(form: dict, q) -> bool:
    """Does the part of this normal form hold the point q? Exact: it is the
    outer measure under a unit mass at q. A point is an atom of the parts,
    so a term K meet S holds q exactly when q is in S and each leaf of K
    does: a listing its listed points, a co-listing the others, generic
    none, as a dense open stays dense less a point. Where every term misses
    q, [0,1] minus q lies around a leaf of K or the part of S for each term.
    """
    q = frac(q)
    return any(
        s.contains(q) and all(
            isinstance(leaf, CountablePoints) and leaf.points.contains(q)
            or isinstance(leaf, CoCountable) and not leaf.points.contains(q)
            for leaf in key
        )
        for key, s in form.items()
    )


def structural_union_is_whole(a: PresentedSublocale, b: PresentedSublocale) -> bool:
    """Certificate that a union b is all of [0,1], off its normal form: the
    whole term's set, joined with each set where a listing and its own
    co-listing both sit alone as keys, is [0,1], as each S_K is complemented
    and so (listing meet S) join (co-listing meet S) is whole meet S. Sound,
    not complete: no listed point counts alone, so (0,1) with the
    rationals, whole by the ends 0 and 1, is not certified.
    """
    form = normal_form(Union((a, b)))
    alone = {leaf: s for key, s in form.items() if len(key) == 1 for leaf in key}
    cover = form.get(frozenset(), ivs.EMPTY)
    for leaf, s in alone.items():
        if isinstance(leaf, CountablePoints):
            cover = ivs.add(cover, ivs.intersect(s, alone.get(CoCountable(leaf.points), ivs.EMPTY)))
    return cover == ivs.FULL


def point_sublocale_meets_generic(q) -> bool:
    """Whether the point's sublocale meets the smallest dense sublocale.

    The meet is empty exactly when the point's open complement is dense,
    which holds for every point of [0,1]; a point outside [0,1] is refused
    with OutOfAmbient.
    """
    w = full_minus_points([q])
    return not ivs.is_dense(w)

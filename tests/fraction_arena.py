"""The interval arena with Fraction endpoints: the reference that the
integer-pair arena in locale_lab.intervals is checked against.

A piece is an FIv with Fraction ends and a union is a tuple of FIvs, in
the canonical form of locale_lab.intervals. Each operation is the one the
package used before its ends became integer pairs: sorting by Fraction
keys, bisect with key=, and lengths summed as Fractions. `measure_fin`
and `total_measure` are the measures of locale_lab.measure summed the
same way, over its Measure's regions and atoms. `frac` is the reader of
a rational literal that the package used before intervals._pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from locale_lab.intervals import InvalidInterval, digit_limit, too_long


def frac(x) -> Fraction:
    """x as a Fraction: too_long, then Fraction(x), each refusal one
    InvalidInterval."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and too_long(x):
        raise InvalidInterval(f"bad rational {x!r}: more than {digit_limit()} digits")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InvalidInterval(f"bad rational {x!r}: {exc}") from None


@dataclass(frozen=True)
class FIv:
    lo: Fraction
    hi: Fraction
    lo_in: bool
    hi_in: bool

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and not (self.lo_in and self.hi_in)

    def contains(self, x: Fraction) -> bool:
        if self.lo < x < self.hi:
            return True
        return (x == self.lo and self.lo_in) or (x == self.hi and self.hi_in)


def of(piece) -> FIv:
    """A piece of locale_lab.intervals as an FIv."""
    return FIv(piece.lo, piece.hi, piece.lo_in, piece.hi_in)


def _start_key(p: FIv):
    return (p.lo, not p.lo_in)


def _end_key(p: FIv):
    return (p.hi, 1 if p.hi_in else 0)


def _mergeable(a: FIv, b: FIv) -> bool:
    return b.lo < a.hi or (b.lo == a.hi and (a.hi_in or b.lo_in))


def _merged(a: FIv, b: FIv) -> FIv:
    if _end_key(b) > _end_key(a):
        return FIv(a.lo, b.hi, a.lo_in, b.hi_in)
    return a


def normalize(pieces) -> tuple:
    live = sorted((p for p in pieces if not p.is_empty), key=_start_key)
    out = []
    for p in live:
        if out and _mergeable(out[-1], p):
            out[-1] = _merged(out[-1], p)
        else:
            out.append(p)
    return tuple(out)


def length(u: tuple) -> Fraction:
    return sum((p.hi - p.lo for p in u), Fraction(0))


def add(u: tuple, v: tuple) -> tuple:
    """Insert each piece of v by bisection on its start key."""
    if not u:
        return v
    out = list(u)
    for p in v:
        i = bisect_left(out, _start_key(p), key=_start_key)
        if i and _mergeable(out[i - 1], p):
            i -= 1
            p = _merged(out[i], p)
        j = i
        while j < len(out) and _mergeable(p, out[j]):
            p = _merged(p, out[j])
            j += 1
        out[i:j] = [p]
    return tuple(out)


def intersect(u: tuple, v: tuple) -> tuple:
    got = []
    for a in u:
        for b in v:
            if a.lo > b.lo or (a.lo == b.lo and not a.lo_in):
                lo, lo_in = a.lo, a.lo_in and (b.lo < a.lo or b.lo_in)
            else:
                lo, lo_in = b.lo, b.lo_in and (a.lo < b.lo or a.lo_in)
            if a.hi < b.hi or (a.hi == b.hi and not a.hi_in):
                hi, hi_in = a.hi, a.hi_in and (b.hi > a.hi or b.hi_in)
            else:
                hi, hi_in = b.hi, b.hi_in and (a.hi > b.hi or a.hi_in)
            if lo < hi or (lo == hi and lo_in and hi_in):
                got.append(FIv(lo, hi, lo_in, hi_in))
    return normalize(got)


def complement(u: tuple) -> tuple:
    out = []
    cur, cur_in = Fraction(0), True
    for p in u:
        if cur < p.lo or (cur == p.lo and cur_in and not p.lo_in):
            out.append(FIv(cur, p.lo, cur_in, not p.lo_in))
        cur, cur_in = p.hi, not p.hi_in
    if cur < 1 or (cur == 1 and cur_in):
        out.append(FIv(cur, Fraction(1), cur_in, True))
    return normalize(out)


def contains(u: tuple, x: Fraction) -> bool:
    i = bisect_right(u, x, key=attrgetter("lo"))
    return i > 0 and u[i - 1].contains(x)


def gaps(cores) -> tuple:
    """[0,1] minus closed cores [a, b] of Fractions, given in order."""
    out, lo, lo_in = [], Fraction(0), True
    for a, b in cores:
        if lo < a:
            out.append(FIv(lo, a, lo_in, False))
        lo, lo_in = b, False
    if lo < 1:
        out.append(FIv(lo, Fraction(1), lo_in, True))
    return tuple(out)


def closed_cores(u: tuple, k: int):
    """The cores of closed_neighborhood(u, k), as Fraction pairs."""
    for p in u:
        d = (p.hi - p.lo) / 2 ** (k + 2)
        yield (p.lo if p.lo_in else p.lo + d, p.hi if p.hi_in else p.hi - d)


def measure_fin(d, fin) -> Fraction:
    """The length of fin on each region of the Measure d, plus the weights
    of d's atoms in fin, summed as Fractions."""
    u = tuple(map(of, fin.pieces))
    lengths = sum((length(intersect(u, tuple(map(of, r.pieces)))) for r in d.regions), Fraction(0))
    return lengths + sum((w for q, w in d.atoms if contains(u, q)), Fraction(0))


def total_measure(d) -> Fraction:
    lengths = sum((length(tuple(map(of, r.pieces))) for r in d.regions), Fraction(0))
    return lengths + sum((w for _, w in d.atoms), Fraction(0))

"""Exact finite unions of rational intervals inside the ambient [0,1].

Everything is a FinUnion: a canonical, sorted, pairwise-separated tuple of
Iv pieces with Fraction endpoints. Canonical means no empty pieces and no
two pieces whose union is again an interval, so set equality is tuple
equality. RatOpen restricts to the relatively open sets of [0,1]: pieces
may only include an endpoint at the ambient boundary.

All interior/closure talk is relative to [0,1]; [0,1/4) is open here.

The canonical check runs at the edges: the public FinUnion and Iv
constructors and parse_fin (which the JSON and command-line paths use).
normalize, add, intersect and presented's gap builders make canonical
output by construction and skip it through _trusted; add also carries the
length along, so a union sums its pieces at most once.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter


class InvalidInterval(ValueError):
    pass


class OutOfAmbient(InvalidInterval):
    pass


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InvalidInterval(f"bad rational {x!r}: {exc}") from None


@dataclass(frozen=True)
class Iv:
    lo: Fraction
    hi: Fraction
    lo_in: bool
    hi_in: bool

    def __post_init__(self):
        object.__setattr__(self, "lo", frac(self.lo))
        object.__setattr__(self, "hi", frac(self.hi))
        if self.lo > self.hi:
            raise InvalidInterval(f"endpoints out of order: {self}")
        if self.lo < 0 or self.hi > 1:
            raise OutOfAmbient(f"{self} leaves [0,1]")

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and not (self.lo_in and self.hi_in)

    def contains(self, x: Fraction) -> bool:
        if self.lo < x < self.hi:
            return True
        return (x == self.lo and self.lo_in) or (x == self.hi and self.hi_in)

    def __str__(self):
        lb = "[" if self.lo_in else "("
        rb = "]" if self.hi_in else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


def iv(lo, hi, lo_in=False, hi_in=False) -> Iv:
    return Iv(frac(lo), frac(hi), lo_in, hi_in)


def _start_key(p: Iv):
    return (p.lo, not p.lo_in)


def _end_key(p: Iv):
    return (p.hi, 1 if p.hi_in else 0)


def _mergeable(a: Iv, b: Iv) -> bool:
    # b starts at or after a; their union is one interval iff they overlap
    # or touch at a point at least one of them includes
    return b.lo < a.hi or (b.lo == a.hi and (a.hi_in or b.lo_in))


def _merged(a: Iv, b: Iv) -> Iv:
    # b starts at or after a and merges with it
    if _end_key(b) > _end_key(a):
        return Iv(a.lo, b.hi, a.lo_in, b.hi_in)
    return a


def normalize(pieces) -> "FinUnion":
    live = sorted(
        (p for p in pieces if not p.is_empty),
        key=_start_key,
    )
    out: list[Iv] = []
    for p in live:
        if out and _mergeable(out[-1], p):
            out[-1] = _merged(out[-1], p)
        else:
            out.append(p)
    return _trusted(tuple(out))


@dataclass(frozen=True)
class FinUnion:
    pieces: tuple
    _length: Fraction | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, p in enumerate(self.pieces):
            if p.is_empty:
                raise InvalidInterval(f"piece {i} is empty; not canonical")
            if i and _mergeable(self.pieces[i - 1], p):
                raise InvalidInterval(f"pieces {i - 1},{i} merge; not canonical")
            if i and p.lo < self.pieces[i - 1].lo:
                raise InvalidInterval("pieces out of order; not canonical")

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def length(self) -> Fraction:
        if self._length is None:
            total = sum((p.hi - p.lo for p in self.pieces), Fraction(0))
            object.__setattr__(self, "_length", total)
        return self._length

    def contains(self, x) -> bool:
        # starts strictly increase and pieces are separated, so only the
        # last piece starting at or before x can hold it
        x = frac(x)
        i = bisect_right(self.pieces, x, key=attrgetter("lo"))
        return i > 0 and self.pieces[i - 1].contains(x)

    def __str__(self):
        if not self.pieces:
            return "empty"
        return "|".join(str(p) for p in self.pieces)


def _trusted(pieces: tuple, length: Fraction | None = None) -> FinUnion:
    """A FinUnion of pieces canonical by construction, unchecked."""
    u = object.__new__(FinUnion)
    object.__setattr__(u, "pieces", pieces)
    object.__setattr__(u, "_length", length)
    return u


EMPTY = FinUnion(())
FULL = FinUnion((Iv(Fraction(0), Fraction(1), True, True),))


def union(*us) -> FinUnion:
    return normalize(p for u in us for p in u.pieces)


def add(u: FinUnion, v: FinUnion) -> FinUnion:
    """The union of u with a v of few pieces.

    Each piece of v goes into u's sorted pieces by bisection and swallows
    the neighbours it merges with, so u is not sorted again. The result is
    canonical by construction and is not checked again; its length is u's,
    less the swallowed pieces, plus the pieces that replace them. An empty
    u gives v itself.
    """
    if not u.pieces:
        return v
    out = list(u.pieces)
    length = u.length()
    for p in v.pieces:
        i = bisect_left(out, _start_key(p), key=_start_key)
        if i and _mergeable(out[i - 1], p):
            i -= 1
            p = _merged(out[i], p)
        j = i
        while j < len(out) and _mergeable(p, out[j]):
            p = _merged(p, out[j])
            j += 1
        length += p.hi - p.lo - sum((q.hi - q.lo for q in out[i:j]), Fraction(0))
        out[i:j] = [p]
    return _trusted(tuple(out), length)


def intersect(*us) -> FinUnion:
    us = [u for u in us if u is not FULL] or [FULL]  # meeting [0,1] changes nothing
    acc = us[0]
    for other in us[1:]:
        got = []
        for a in acc.pieces:
            for b in other.pieces:
                if a.lo > b.lo or (a.lo == b.lo and not a.lo_in):
                    lo, lo_in = a.lo, a.lo_in and (b.lo < a.lo or b.lo_in)
                else:
                    lo, lo_in = b.lo, b.lo_in and (a.lo < b.lo or a.lo_in)
                if a.hi < b.hi or (a.hi == b.hi and not a.hi_in):
                    hi, hi_in = a.hi, a.hi_in and (b.hi > a.hi or b.hi_in)
                else:
                    hi, hi_in = b.hi, b.hi_in and (a.hi > b.hi or a.hi_in)
                if lo < hi or (lo == hi and lo_in and hi_in):
                    got.append(Iv(lo, hi, lo_in, hi_in))
        # meets inside one piece of acc are sorted and separated like the
        # pieces of other, and those of later pieces of acc come after them
        acc = _trusted(tuple(got))
    return acc


def complement(u: FinUnion) -> FinUnion:
    """Set complement inside [0,1]."""
    out = []
    cur, cur_in = Fraction(0), True
    for p in u.pieces:
        cand = (cur, p.lo, cur_in, not p.lo_in)
        if cand[0] < cand[1] or (cand[0] == cand[1] and cand[2] and cand[3]):
            out.append(Iv(*cand))
        cur, cur_in = p.hi, not p.hi_in
    if cur < 1 or (cur == 1 and cur_in):
        out.append(Iv(cur, Fraction(1), cur_in, True))
    return normalize(out)


def interior(u: FinUnion) -> FinUnion:
    # canonical pieces are separated, so the interior works piecewise;
    # inclusion survives only at the ambient boundary
    out = []
    for p in u.pieces:
        q = Iv(p.lo, p.hi, p.lo_in and p.lo == 0, p.hi_in and p.hi == 1)
        if not q.is_empty:
            out.append(q)
    return normalize(out)


def closure(u: FinUnion) -> FinUnion:
    return normalize(Iv(p.lo, p.hi, True, True) for p in u.pieces)


# -- the relatively open sets -----------------------------------------------


@dataclass(frozen=True)
class RatOpen:
    fin: FinUnion

    def __post_init__(self):
        for p in self.fin.pieces:
            if p.lo_in and p.lo != 0:
                raise InvalidInterval(f"{p} includes an interior left endpoint")
            if p.hi_in and p.hi != 1:
                raise InvalidInterval(f"{p} includes an interior right endpoint")

    @property
    def is_empty(self) -> bool:
        return self.fin.is_empty

    def length(self) -> Fraction:
        return self.fin.length()

    def contains(self, x) -> bool:
        return self.fin.contains(x)

    def __str__(self):
        return str(self.fin)


EMPTY_RO = RatOpen(EMPTY)
FULL_RO = RatOpen(FULL)


def join(*us) -> RatOpen:
    return RatOpen(union(*(u.fin for u in us)))


def meet(*us) -> RatOpen:
    return RatOpen(intersect(*(u.fin for u in us)))


def heyting_ro(u: RatOpen, h: RatOpen) -> RatOpen:
    """Largest open W with W meet u inside h."""
    return RatOpen(interior(union(complement(u.fin), h.fin)))


def is_dense(u: RatOpen) -> bool:
    """Dense in [0,1]: the pseudo-complement is empty."""
    return heyting_ro(u, EMPTY_RO).is_empty


# -- parsing ------------------------------------------------------------------

_PIECE = re.compile(
    r"^\s*([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])\s*$"
)


def parse_fin(text: str) -> FinUnion:
    text = text.strip()
    if text in ("empty", ""):
        return EMPTY
    pieces = []
    for part in text.split("|"):
        m = _PIECE.match(part)
        if m is None:
            raise InvalidInterval(f"cannot parse piece {part.strip()!r}")
        lb, lo, hi, rb = m.groups()
        p = Iv(frac(lo), frac(hi), lb == "[", rb == "]")
        if p.is_empty:
            raise InvalidInterval(f"piece {part.strip()!r} is empty")
        pieces.append(p)
    return normalize(pieces)


def parse_ratopen(text: str) -> RatOpen:
    return RatOpen(parse_fin(text))

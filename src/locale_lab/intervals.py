"""Exact finite unions of rational intervals inside the ambient [0,1].

Everything is a FinUnion: a canonical, sorted, pairwise-separated tuple of
Iv pieces. Canonical means no empty pieces and no two pieces whose union is
again an interval, so set equality is tuple equality. RatOpen restricts to
the relatively open sets of [0,1]: pieces may only include an endpoint at
the ambient boundary.

All interior/closure talk is relative to [0,1]; [0,1/4) is open here.

An endpoint is an integer pair, numerator and denominator > 0 in lowest
terms, so equal rationals are equal pairs. Two ends compare by
cross-multiplication and a computed end is reduced by one gcd, the
standard method for exact rational arithmetic (Knuth, *TAOCP* vol. 2,
4.5.1). A carried length is an integer pair too. _pair reads each
literal once into such a pair: text of the form n or n/d in ASCII digits
by int() and one gcd, and only the other forms (signs, decimals,
exponents, separators, other digits) through Fraction's grammar. The
public Iv constructor, and so parse_fin, checks its ends on those pairs.
Fraction stays at the edges: Iv.lo and Iv.hi and FinUnion.length() give
Fractions, and a printed end reads as the Fraction's str.

The canonical check runs at the edges: the public FinUnion and Iv
constructors and parse_fin (which the JSON and command-line paths use).
normalize, add, intersect, complement and presented's gap builders make
canonical output by construction and skip it through _trusted; add also
carries the length along, so a union sums its pieces at most once.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd


class InvalidInterval(ValueError):
    pass


class OutOfAmbient(InvalidInterval):
    pass


_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)([\d_]*)(?:\.([\d_]*))?[eE]([-+]?\d[\d_]*)\s*")


def digit_limit() -> int:
    """The interpreter's limit on the digits of an int read from text, or
    its default limit where the limit is off (0)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def too_long(text: str) -> bool:
    """Would the literal, as its digits times a power of ten, have a numerator
    or denominator longer than digit_limit()? Read off the digits and
    exponent before Fraction builds the power; without an exponent a
    literal that long does not parse at all, unless the limit is off."""
    m, limit = _EXPONENT.fullmatch(text), digit_limit()
    if m is None:
        return False
    whole, part, exp = (g.replace("_", "") for g in m.groups(""))
    if len(exp.lstrip("+-0")) > len(str(limit)):
        return True
    digits = (whole + part).lstrip("0")
    shift = int(exp) - len(part) + len(digits) - len(digits.rstrip("0"))
    return len(digits.rstrip("0")) + shift > limit or -shift >= limit


def frac(x) -> Fraction:
    """x as a Fraction: a Fraction as it is, anything else read by _pair."""
    return x if isinstance(x, Fraction) else Fraction(*_pair(x))


# the most digits _pair reads in a numerator or denominator without
# Fraction; digit_limit() is at least 640 where it is on
_FAST_DIGITS = 50


def _pair(x) -> tuple:
    """x as an integer pair in lowest terms: the one reader of a rational.

    A Fraction gives its numerator and denominator, and text n or n/d in
    ASCII digits, at most _FAST_DIGITS each and d nonzero, is read by int()
    and one gcd. Anything else (a sign, space, decimal, exponent, '_'
    separator, other digit, zero denominator or longer digit string) goes
    through too_long, then Fraction(x), each refusal one InvalidInterval.
    """
    if type(x) is str and x.isascii():
        n, slash, d = x.partition("/")
        if n.isdigit() and len(n) <= _FAST_DIGITS:
            if not slash:
                return int(n), 1
            if d.isdigit() and len(d) <= _FAST_DIGITS:
                n, d = int(n), int(d)
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
    elif isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, str) and too_long(x):
        raise InvalidInterval(f"bad rational {x!r}: more than {digit_limit()} digits")
    try:
        x = Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InvalidInterval(f"bad rational {x!r}: {exc}") from None
    return x.numerator, x.denominator


def _reduced(n: int, d: int) -> tuple:
    g = gcd(n, d)
    return n // g, d // g


def _show(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


class Iv:
    """The piece of [0,1] from lo to hi, each end included or not.

    lo is ln/ld and hi is hn/hd, integer pairs in lowest terms. Iv(lo, hi,
    lo_in, hi_in) reads rationals or their literals by _pair and checks
    them on the pairs; the arena makes its pieces through _piece,
    unchecked. A piece is a value: nothing assigns to it once it is made.
    """

    __slots__ = ("ln", "ld", "hn", "hd", "lo_in", "hi_in")

    def __init__(self, lo, hi, lo_in, hi_in):
        self.ln, self.ld = ln, ld = _pair(lo)
        self.hn, self.hd = hn, hd = _pair(hi)
        self.lo_in, self.hi_in = bool(lo_in), bool(hi_in)
        if ln * hd > hn * ld:
            raise InvalidInterval(f"endpoints out of order: {self}")
        if ln < 0 or hn > hd:
            raise OutOfAmbient(f"{self} leaves [0,1]")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.ln, self.ld)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hn, self.hd)

    @property
    def is_empty(self) -> bool:
        return self.ln == self.hn and self.ld == self.hd and not (self.lo_in and self.hi_in)

    def _key(self) -> tuple:
        return self.ln, self.ld, self.hn, self.hd, self.lo_in, self.hi_in

    def __eq__(self, other):
        if type(other) is not Iv:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Iv(lo={self.lo!r}, hi={self.hi!r}, lo_in={self.lo_in!r}, hi_in={self.hi_in!r})"

    def __str__(self):
        lb = "[" if self.lo_in else "("
        rb = "]" if self.hi_in else ")"
        return f"{lb}{_show(self.ln, self.ld)},{_show(self.hn, self.hd)}{rb}"


_new = object.__new__


def _piece(ln: int, ld: int, hn: int, hd: int, lo_in: bool, hi_in: bool) -> Iv:
    """An Iv from ends already in lowest terms, unchecked."""
    p = _new(Iv)
    p.ln = ln
    p.ld = ld
    p.hn = hn
    p.hd = hd
    p.lo_in = lo_in
    p.hi_in = hi_in
    return p


def iv(lo, hi, lo_in=False, hi_in=False) -> Iv:
    return Iv(lo, hi, lo_in, hi_in)


def _holds(p: Iv, xn: int, xd: int) -> bool:
    """Does p hold xn/xd?"""
    a, b = p.ln * xd, xn * p.ld
    if a > b or (a == b and not p.lo_in):
        return False
    a, b = xn * p.hd, p.hn * xd
    return a < b or (a == b and p.hi_in)


def _starts_before(a: Iv, b: Iv) -> bool:
    """Does a start strictly before b? At one end, an included end first."""
    x, y = a.ln * b.ld, b.ln * a.ld
    return x < y or (x == y and a.lo_in and not b.lo_in)


def _start_cmp(a: Iv, b: Iv) -> int:
    return -1 if _starts_before(a, b) else 1 if _starts_before(b, a) else 0


_START = cmp_to_key(_start_cmp)


def _mergeable(a: Iv, b: Iv) -> bool:
    # b starts at or after a; their union is one interval iff they overlap
    # or touch at a point at least one of them includes
    x, y = b.ln * a.hd, a.hn * b.ld
    return x < y or (x == y and (a.hi_in or b.lo_in))


def _merged(a: Iv, b: Iv) -> Iv:
    # b starts at or after a and merges with it
    x, y = b.hn * a.hd, a.hn * b.hd
    if x > y or (x == y and b.hi_in and not a.hi_in):
        return _piece(a.ln, a.ld, b.hn, b.hd, a.lo_in, b.hi_in)
    return a


def normalize(pieces) -> "FinUnion":
    live = sorted((p for p in pieces if not p.is_empty), key=_START)
    out: list[Iv] = []
    for p in live:
        if out and _mergeable(out[-1], p):
            out[-1] = _merged(out[-1], p)
        else:
            out.append(p)
    return _trusted(tuple(out))


@dataclass(frozen=True)
class FinUnion:
    """A finite union of intervals of [0,1]: its canonical `pieces`, sorted
    and pairwise separated, checked on construction."""

    pieces: tuple
    # the length as an integer pair in lowest terms, once known
    _length: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, p in enumerate(self.pieces):
            if p.is_empty:
                raise InvalidInterval(f"piece {i} is empty; not canonical")
            if i and _mergeable(self.pieces[i - 1], p):
                raise InvalidInterval(f"pieces {i - 1},{i} merge; not canonical")
            if i and p.ln * self.pieces[i - 1].ld < self.pieces[i - 1].ln * p.ld:
                raise InvalidInterval("pieces out of order; not canonical")

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def _length_pair(self) -> tuple:
        if self._length is None:
            n, d = 0, 1
            for p in self.pieces:
                pd = p.hd * p.ld
                n, d = _reduced(n * pd + (p.hn * p.ld - p.ln * p.hd) * d, d * pd)
            object.__setattr__(self, "_length", (n, d))
        return self._length

    def length(self) -> Fraction:
        return Fraction(*self._length_pair())

    def contains(self, x) -> bool:
        # starts strictly increase and pieces are separated, so only the
        # last piece starting at or before x can hold it
        xn, xd = _pair(x)
        ps = self.pieces
        lo, hi = 0, len(ps)
        while lo < hi:
            mid = (lo + hi) // 2
            if xn * ps[mid].ld < ps[mid].ln * xd:
                hi = mid
            else:
                lo = mid + 1
        return lo > 0 and _holds(ps[lo - 1], xn, xd)

    def __str__(self):
        if not self.pieces:
            return "empty"
        return "|".join(str(p) for p in self.pieces)


def _trusted(pieces: tuple, length: tuple | None = None) -> FinUnion:
    """A FinUnion of pieces canonical by construction, unchecked; length,
    when known, is its length as an integer pair in lowest terms."""
    u = _new(FinUnion)
    object.__setattr__(u, "pieces", pieces)
    object.__setattr__(u, "_length", length)
    return u


EMPTY = FinUnion(())
FULL = FinUnion((Iv(0, 1, True, True),))


def union(*us) -> FinUnion:
    return normalize(p for u in us for p in u.pieces)


def add(u: FinUnion, v: FinUnion) -> FinUnion:
    """The union of u with a v of few pieces.

    Each piece of v goes into u's sorted pieces by bisection and swallows
    the neighbours it merges with, so u is not sorted again. The result is
    canonical by construction and is not checked again; its length is u's,
    less the swallowed pieces, plus the pieces that replace them. An empty
    u gives v itself, and an empty v gives u.
    """
    if not u.pieces:
        return v
    if not v.pieces:
        return u
    out = list(u.pieces)
    n, d = u._length_pair()
    for p in v.pieces:
        # the first piece of out that p does not start after
        i, hi = 0, len(out)
        while i < hi:
            mid = (i + hi) // 2
            if _starts_before(out[mid], p):
                i = mid + 1
            else:
                hi = mid
        if i and _mergeable(out[i - 1], p):
            i -= 1
            p = _merged(out[i], p)
        j = i
        while j < len(out) and _mergeable(p, out[j]):
            p = _merged(p, out[j])
            j += 1
        pd = p.hd * p.ld
        n, d = n * pd + (p.hn * p.ld - p.ln * p.hd) * d, d * pd
        for q in out[i:j]:
            qd = q.hd * q.ld
            n, d = n * qd - (q.hn * q.ld - q.ln * q.hd) * d, d * qd
        n, d = _reduced(n, d)
        out[i:j] = [p]
    return _trusted(tuple(out), (n, d))


def intersect(*us) -> FinUnion:
    us = [u for u in us if u is not FULL] or [FULL]  # meeting [0,1] changes nothing
    acc = us[0]
    for other in us[1:]:
        got = []
        for a in acc.pieces:
            for b in other.pieces:
                # the later start and the earlier end
                x, y = a.ln * b.ld, b.ln * a.ld
                if x > y or (x == y and not a.lo_in):
                    ln, ld, lo_in = a.ln, a.ld, a.lo_in and (x > y or b.lo_in)
                else:
                    ln, ld, lo_in = b.ln, b.ld, b.lo_in and (x < y or a.lo_in)
                x, y = a.hn * b.hd, b.hn * a.hd
                if x < y or (x == y and not a.hi_in):
                    hn, hd, hi_in = a.hn, a.hd, a.hi_in and (x < y or b.hi_in)
                else:
                    hn, hd, hi_in = b.hn, b.hd, b.hi_in and (x > y or a.hi_in)
                x, y = ln * hd, hn * ld
                if x < y or (x == y and lo_in and hi_in):
                    got.append(_piece(ln, ld, hn, hd, lo_in, hi_in))
        # meets inside one piece of acc are sorted and separated like the
        # pieces of other, and those of later pieces of acc come after them
        acc = _trusted(tuple(got))
    return acc


def complement(u: FinUnion) -> FinUnion:
    """Set complement inside [0,1].

    The gaps between u's pieces come in order, and a nonempty piece of u
    separates each from the next, so the result is canonical by
    construction.
    """
    out = []
    cn, cd, cur_in = 0, 1, True
    for p in u.pieces:
        x, y = cn * p.ld, p.ln * cd
        if x < y or (x == y and cur_in and not p.lo_in):
            out.append(_piece(cn, cd, p.ln, p.ld, cur_in, not p.lo_in))
        cn, cd, cur_in = p.hn, p.hd, not p.hi_in
    if cn < cd or cur_in:
        out.append(_piece(cn, cd, 1, 1, cur_in, True))
    return _trusted(tuple(out))


def interior(u: FinUnion) -> FinUnion:
    # canonical pieces are separated, so the interior works piecewise;
    # inclusion survives only at the ambient boundary
    out = []
    for p in u.pieces:
        q = _piece(p.ln, p.ld, p.hn, p.hd, p.lo_in and p.ln == 0, p.hi_in and p.hn == p.hd)
        if not q.is_empty:
            out.append(q)
    return normalize(out)


def closure(u: FinUnion) -> FinUnion:
    return normalize(_piece(p.ln, p.ld, p.hn, p.hd, True, True) for p in u.pieces)


# -- the relatively open sets -----------------------------------------------


@dataclass(frozen=True)
class RatOpen:
    """A rational open of [0,1]: a FinUnion whose pieces hold an endpoint
    only at the ambient boundary, 0 or 1."""

    fin: FinUnion

    def __post_init__(self):
        for p in self.fin.pieces:
            if p.lo_in and p.ln != 0:
                raise InvalidInterval(f"{p} includes an interior left endpoint")
            if p.hi_in and p.hn != p.hd:
                raise InvalidInterval(f"{p} includes an interior right endpoint")

    @property
    def is_empty(self) -> bool:
        return self.fin.is_empty

    def contains(self, x) -> bool:
        return self.fin.contains(x)

    def __str__(self):
        return str(self.fin)


def _trusted_open(fin: FinUnion) -> RatOpen:
    """A RatOpen of a FinUnion open in [0,1] by construction, unchecked."""
    u = _new(RatOpen)
    object.__setattr__(u, "fin", fin)
    return u


EMPTY_RO = RatOpen(EMPTY)
FULL_RO = RatOpen(FULL)


def join(*us) -> RatOpen:
    return RatOpen(union(*(u.fin for u in us)))


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
        p = Iv(lo, hi, lb == "[", rb == "]")
        if p.is_empty:
            raise InvalidInterval(f"piece {part.strip()!r} is empty")
        pieces.append(p)
    return normalize(pieces)


def parse_ratopen(text: str) -> RatOpen:
    return RatOpen(parse_fin(text))

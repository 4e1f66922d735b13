"""The sublocale lattice of a finite frame, as point sets, for the law
suites: every part indexed by its set of points, the parts derived from
each, and the index bytes of pairs and triples of parts that the byte
kernels of the laws read.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from locale_lab.frames import Frame
from locale_lab.sublocales import (
    closed_sublocale,
    enumerate_sublocales,
    exterior,
    generic,
    interior,
    open_sublocale,
    subspace_sublocale,
)


class SubLattice:
    """Every sublocale of a finite frame, indexed by its set of points.

    `subs[m]` is the part whose points are the bitmask m, so the union,
    the meet and the inclusion of parts i and j are `i | j`, `i & j` and
    `i & j == i`, and the exhaustive law checks reduce to integer
    arithmetic.

    The byte kernels of the laws read the index bytes of pairs and
    triples of parts, derived once per lattice: `ordered_pairs` for the
    `bytes.translate` gathers of maps' tables, `unordered_pairs` and
    `unordered_triples` packed into integers one case per byte. A kernel
    still compares every equation of its law, byte by byte. A part index
    is a byte only up to 256 parts; above that these are None and the laws
    run their scalar loops.
    """

    def __init__(self, frame: Frame):
        self.frame = frame
        self.subs = enumerate_sublocales(frame, max(10, frame.n))
        self.open_idx = [open_sublocale(frame, v).points for v in range(frame.n)]
        self.closed_idx = [closed_sublocale(frame, v).points for v in range(frame.n)]
        self.whole_idx = self.open_idx[frame.top]
        self.empty_idx = self.open_idx[frame.bottom]
        # derived per-sublocale data
        self.ext = [exterior(s) for s in self.subs]
        self.closure_idx = [self.closed_idx[e] for e in self.ext]
        self.int_el = [interior(s) for s in self.subs]
        self.dense = [e == frame.bottom for e in self.ext]

    @cached_property
    def closed_parts(self) -> list:
        return sorted(set(self.closed_idx))

    @cached_property
    def generic_idx(self) -> int:
        return generic(self.frame).points

    @cached_property
    def subspace_idx(self) -> dict:
        """Point subset -> index of its subspace part (topology frames only)."""
        pts = self.frame.point_names
        return {
            frozenset(c): subspace_sublocale(self.frame, c).points
            for r in range(len(pts) + 1)
            for c in itertools.combinations(pts, r)
        }

    @cached_property
    def ordered_pairs(self):
        """For every ordered pair (i, j) of parts, i the major index, the
        bytes of i, of j, of i | j and of i & j; None above 256 parts."""
        k = len(self.subs)
        if k > 256:
            return None
        ks = range(k)
        return (
            bytes(i for i in ks for _ in ks),
            bytes(ks) * k,
            bytes(i | j for i in ks for j in ks),
            bytes(i & j for i in ks for j in ks),
        )

    @cached_property
    def unordered_pairs(self):
        """The pairs i < j of parts in `combinations` order, packed as
        (i's, j's, (i & j)'s, ones) by `_packed`; None above 256 parts."""
        if len(self.subs) > 256:
            return None
        return _packed(((i, j, i & j) for i, j in itertools.combinations(range(len(self.subs)), 2)), 3)

    @cached_property
    def unordered_triples(self):
        """The triples i < j < h of parts in `combinations` order, packed as
        (i's, j's, h's, (i & j & h)'s, ones); None above 256 parts."""
        if len(self.subs) > 256:
            return None
        rows = ((i, j, h, i & j & h) for i, j, h in itertools.combinations(range(len(self.subs)), 3))
        return _packed(rows, 4)

    def label(self, i: int) -> str:
        fixed = [str(self.frame.elements[h]) for h in self.subs[i].fixpoints]
        return "fix(" + ",".join(fixed) + ")"

    def meet_fold(self, idxs) -> int:
        out = self.whole_idx
        for i in idxs:
            out &= i
        return out


def _packed(rows, width: int) -> tuple:
    """Column c of `rows` as one integer with row r in byte r, for each c
    below `width`, then `ones`, which has a 1 in every byte: x * ones puts
    the byte x in every row, and `|` and `&` on packed integers act on
    each byte alone."""
    flat = bytes(itertools.chain.from_iterable(rows))
    cols = [flat[c::width] for c in range(width)] + [b"\1" * (len(flat) // width)]
    return tuple(int.from_bytes(col, "big") for col in cols)

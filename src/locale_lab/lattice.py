"""The byte layout the law kernels read: the sublocale lattice of a finite
frame as point sets, and the maps between two frames side by side.

A kernel reads a part index, an element index or a table value as one
byte, so it runs only below `BYTE` of each, and a table it reads through
`bytes.translate` is padded to `BYTE` bytes by `_table`, here or as it is
read. The byte tables kernels read are built here: per part lattice
(`SubLattice`), the index bytes of pairs and triples of parts, the up-set,
Heyting row and join row of each element and the nucleus of each part;
per pair of frames (`_Maps`), the maps' own tables, read in runs of maps
whose gathered columns stay under `GATHER_BYTES`. A frame has one part
per set of its points, and one past a byte of parts (`over_byte`) has no
`SubLattice`: the suites skip it with a note. `BYTE` comes from
`morphisms`, whose point maps are bytes too.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from locale_lab.frames import Frame, FrameError
from locale_lab.morphisms import BYTE, _lift, right_adjoint
from locale_lab.sublocales import enumerate_sublocales, exterior, generic, interior

GATHER_BYTES = 4 << 20  # the most a pair kernel's gathered column holds


def over_byte(frame: Frame) -> str | None:
    """Why a part index of `frame` is not a byte, or None: its part count,
    one part per set of points, past BYTE."""
    parts = 1 << len(frame.primes)
    return f"{parts} parts over the byte limit {BYTE}" if parts > BYTE else None


def _table(row) -> bytes:
    """`row`, byte values, as a `bytes.translate` table: zero bytes pad it
    to BYTE."""
    return bytes(row).ljust(BYTE, b"\0")


class SubLattice:
    """Every sublocale of a finite frame, indexed by its set of points.

    `subs[m]` is the part whose points are the bitmask m, so the union,
    the meet and the inclusion of parts i and j are `i | j`, `i & j` and
    `i & j == i`, and the exhaustive law checks reduce to integer
    arithmetic.

    The byte kernels of the laws read the index bytes of pairs and
    triples of parts, derived once per lattice: `packed_pairs`,
    `unordered_pairs` and `unordered_triples` packed into integers one
    case per byte, and `ordered_pairs`, the same ordered pairs as bytes,
    for the gathers of maps' tables and of nucleus rows. The part laws
    read the nucleus of each part (`nucleus_rows`) and the Heyting arrow
    and join of each element (`heyting_rows`, `join_rows`) as rows. A
    kernel still compares every equation of its law, byte by byte. A part
    index is a byte, so a frame `over_byte` is refused. `dense_masks` and
    `closed_inside` are bit masks, not byte tables.
    """

    def __init__(self, frame: Frame):
        why = over_byte(frame)
        if why:
            raise FrameError(f"no part lattice: {why}")
        self.frame = frame
        self.subs = enumerate_sublocales(frame, max(10, frame.n))
        self.closed_idx = list(frame.primes_above)
        self.open_idx = [(len(self.subs) - 1) & ~s for s in self.closed_idx]
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
    def subspace_idx(self) -> tuple:
        """Point-subset mask, bit i for point_names[i] -> index of its
        subspace part (topology frames only): the OR of the points' primes."""
        return _lift([1 << k for k in self.frame.point_primes])

    @cached_property
    def packed_pairs(self):
        """Every ordered pair (i, j) of parts, i the major index, packed one
        case per byte in `_packed`'s layout, as (i's, j's, (i | j)'s,
        (i & j)'s, ones): the union and meet columns are one `|` and one
        `&` of the first two."""
        k = len(self.subs)
        cols = (b"".join(bytes([i]) * k for i in range(k)), bytes(range(k)) * k, b"\1" * k * k)
        i, j, ones = (int.from_bytes(col, "big") for col in cols)
        return i, j, i | j, i & j, ones

    @cached_property
    def ordered_pairs(self):
        """The columns of `packed_pairs` as bytes: i's, j's, (i | j)'s and
        (i & j)'s."""
        size = len(self.subs) ** 2
        return tuple(col.to_bytes(size, "big") for col in self.packed_pairs[:4])

    @cached_property
    def unordered_pairs(self):
        """The pairs i < j of parts in `combinations` order, packed as
        (i's, j's, (i & j)'s, ones) by `_packed`."""
        return _packed(((i, j, i & j) for i, j in itertools.combinations(range(len(self.subs)), 2)), 3)

    @cached_property
    def unordered_triples(self):
        """The triples i < j < h of parts in `combinations` order, packed as
        (i's, j's, h's, (i & j & h)'s, ones)."""
        rows = ((i, j, h, i & j & h) for i, j, h in itertools.combinations(range(len(self.subs)), 3))
        return _packed(rows, 4)

    @cached_property
    def side_tables(self) -> tuple:
        """The index of the open and of the closed part of each element, as
        two translate tables."""
        return _table(self.open_idx), _table(self.closed_idx)

    @cached_property
    def up_rows(self) -> list:
        """up_rows[v] has byte x set to 1 iff v <= x: a translate table that
        tests v <= x for a whole row of elements x at once. An element index
        is a byte, as a frame has at most as many elements as parts."""
        sets = self.frame.primes_above
        return [_table(s & ~t == 0 for s in sets) for t in sets]

    @cached_property
    def nucleus_rows(self) -> list:
        """The nucleus of each part as a row, byte h its value at h."""
        return [bytes(s.nucleus) for s in self.subs]

    @cached_property
    def nucleus_tables(self) -> list:
        """`nucleus_rows` as translate tables."""
        return list(map(_table, self.nucleus_rows))

    @cached_property
    def heyting_rows(self) -> list:
        """heyting_rows[v] maps y to v => y, `Frame.heyting`, as a translate
        table."""
        fr = self.frame
        return [_table(fr.heyting(v, y) for y in range(fr.n)) for v in range(fr.n)]

    @cached_property
    def join_rows(self) -> list:
        """join_rows[v] has byte h set to h v v."""
        fr = self.frame
        return [bytes(fr.join(h, v) for h in range(fr.n)) for v in range(fr.n)]

    @cached_property
    def dense_masks(self) -> list:
        """dense_masks[a] has bit g set for each closed part g that part a
        is dense in: the closure of a n g is g."""
        cl = self.closure_idx
        return [sum(1 << g for g in self.closed_parts if cl[a & g] == g) for a in range(len(self.subs))]

    @cached_property
    def closed_inside(self) -> list:
        """closed_inside[p] has bit g set for each closed part g inside part p."""
        return [sum(1 << g for g in self.closed_parts if g & p == g) for p in range(len(self.subs))]

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


class _Maps:
    """The maps `fs` from frame a to frame b, with the part lattices FL of
    a and EL of b, and the maps' own tables side by side, one per map in
    map order, which the pair kernels read in `runs`: `pulls` and `pushes`
    as translate tables, `fstar` and `adjoint` (`right_adjoint`) as rows.
    They are there when `bytewise`: every table holds an index of what it
    names; else they are None and the laws run their scalar loops."""

    def __init__(self, fs, FL, EL):
        self.fs, self.FL, self.EL = fs, FL, EL
        self.pulls = self.pushes = self.fstar = self.adjoint = None
        views = (
            [f.pulls for f in fs],
            [f.pushes for f in fs],
            [f.fstar for f in fs],
            [right_adjoint(f) for f in fs],
        )
        limits = len(EL.subs), len(FL.subs), EL.frame.n, FL.frame.n
        try:
            rows = [list(map(bytes, v)) for v in views]
        except ValueError:  # a value past a byte
            rows = None
        # deleting every index from a table's bytes leaves the values past them
        self.bytewise = rows is not None and not any(
            b"".join(r).translate(None, bytes(range(n))) for r, n in zip(rows, limits)
        )
        if self.bytewise:
            pulls, pushes, self.fstar, self.adjoint = rows
            self.pulls, self.pushes = (list(map(_table, t)) for t in (pulls, pushes))

    def _slice(self, at: int, stop: int) -> _Maps:
        """The maps fs[at:stop], a `_Maps` of their own, with these tables
        sliced alike."""
        run = object.__new__(_Maps)
        run.FL, run.EL, run.bytewise = self.FL, self.EL, True
        for name in ("fs", "pulls", "pushes", "fstar", "adjoint"):
            setattr(run, name, getattr(self, name)[at:stop])
        return run

    @cached_property
    def runs(self) -> list:
        """The maps, when bytewise, in runs that are `_Maps` of their own,
        sliced from the pair's tables as they stand at the first read, and
        read by every map law after: a gathered column holds a byte per map
        and pair of parts, so a run holds GATHER_BYTES over the larger part
        count squared of maps, at least one."""
        step = max(1, GATHER_BYTES // max(len(self.FL.subs), len(self.EL.subs)) ** 2)
        return [self._slice(at, at + step) for at in range(0, len(self.fs), step)]


def _gather(cols, tables):
    """Each column of part indices read through every table, the maps side
    by side: one integer per column, a byte per map and case."""
    return [int.from_bytes(b"".join(map(col.translate, tables)), "big") for col in cols]

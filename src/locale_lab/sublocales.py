"""Sublocales of a finite frame, represented by their sets of points.

Every finite frame is spatial (Birkhoff's representation theorem) and
every finite T0 space is T_D (Picado & Pultr, *Frames and Locales*), so
the sublocales of a finite frame correspond exactly to the sets of its
points, the primes in `Frame.primes`. A sublocale stores that set as a
bitmask; union, intersection and inclusion are `|`, `&` and a subset
test, and the part lattice is the Boolean algebra of point sets. The
nucleus is a derived view: e(a) is the meet of the part's points above a.

A frame's part table (`Frame._parts`, mask -> part) is the one way a part
is built or found. It builds a part on a miss, with its nucleus derived
then (`Frame.nucleus_of`), and every later union, image or enumeration
that lands on the same set finds that object with one subscription.
`Sublocale` lives in `frames`, next to the table, and is imported here;
`Sublocale(frame, mask)` is the same lookup. The table and its parts
refer to their frame, so the three form a reference cycle, which the
cycle collector frees once none is reachable.

`union` and `intersect` are the binary join and meet, one `|` or `&` of
two parts of one frame; `union_all` and `intersect_all` fold any number
of parts, none included.

Validation happens at the edges: `validate_nucleus` reads a nucleus
table supplied from outside with `Frame.table`, checks it, and returns
the part made of the primes it fixes.
The library's own constructors read the part table directly; the tests
keep the nucleus algorithms as a differential oracle.
"""

from __future__ import annotations

from locale_lab.frames import Frame, FrameError, Sublocale, _bits


class NucleusError(FrameError):
    pass


class NotInflationary(NucleusError):
    def __init__(self, x, ex):
        super().__init__(f"e({x!r}) = {ex!r} is not above {x!r}")
        self.witness = x


class NotIdempotent(NucleusError):
    def __init__(self, x, ex, eex):
        super().__init__(f"e(e({x!r})) = {eex!r} but e({x!r}) = {ex!r}")
        self.witness = x


class NotMeetPreserving(NucleusError):
    def __init__(self, x, y):
        super().__init__(f"e({x!r} meet {y!r}) differs from e({x!r}) meet e({y!r})")
        self.witness = (x, y)


class MixedFrames(FrameError):
    def __init__(self):
        super().__init__("sublocales live on different frames")


class FrameTooLarge(FrameError):
    def __init__(self, n, bound):
        super().__init__(f"frame has {n} elements; enumeration is capped at {bound}")


def _all_points(frame: Frame) -> int:
    return (1 << len(frame.primes)) - 1


def validate_nucleus(frame: Frame, mapping) -> Sublocale:
    e = frame.table(mapping, frame.el, "nucleus")
    names = frame.elements
    for x in range(frame.n):
        if not frame.leq(x, e[x]):
            raise NotInflationary(names[x], names[e[x]])
    for x in range(frame.n):
        if e[e[x]] != e[x]:
            raise NotIdempotent(names[x], names[e[x]], names[e[e[x]]])
    for x in range(frame.n):
        for y in range(x, frame.n):
            if e[frame.meet(x, y)] != frame.meet(e[x], e[y]):
                raise NotMeetPreserving(names[x], names[y])
    return frame._parts[sum(1 << i for i, p in enumerate(frame.primes) if e[p] == p)]


# -- basic constructors ---------------------------------------------------

def whole(frame: Frame) -> Sublocale:
    return frame._parts[_all_points(frame)]


def empty(frame: Frame) -> Sublocale:
    return frame._parts[0]


def open_sublocale(frame: Frame, u) -> Sublocale:
    """[u]: the points not above u."""
    u = frame.el(u)
    return frame._parts[_all_points(frame) & ~frame.primes_above[u]]


def closed_sublocale(frame: Frame, v) -> Sublocale:
    """c(v): the points above v."""
    v = frame.el(v)
    return frame._parts[frame.primes_above[v]]


def generic(frame: Frame) -> Sublocale:
    """The smallest dense sublocale: the points fixed by double negation."""
    return frame._parts[_generic_points(frame, frame.bottom)]


def _generic_points(frame: Frame, a: int) -> int:
    """The points of the smallest dense part of c(a): the points p above a
    with (p => a) => a = p, double negation in the frame of c(a)."""
    def neg(h):
        return frame.heyting(h, a)

    return sum(
        1 << i for i, p in enumerate(frame.primes)
        if frame.leq(a, p) and neg(neg(p)) == p
    )


# -- lattice of sublocales -------------------------------------------------

def union(x: Sublocale, y: Sublocale) -> Sublocale:
    """Join in the sublocale lattice: the union of the point sets."""
    frame = x.frame
    if y.frame is not frame:
        raise MixedFrames()
    return frame._parts[x.points | y.points]


def intersect(x: Sublocale, y: Sublocale) -> Sublocale:
    """Meet in the sublocale lattice: the common points."""
    frame = x.frame
    if y.frame is not frame:
        raise MixedFrames()
    return frame._parts[x.points & y.points]


def union_all(frame: Frame, subs) -> Sublocale:
    """The join of any number of parts of `frame`; the empty part for none."""
    points = 0
    for s in subs:
        if s.frame is not frame:
            raise MixedFrames()
        points |= s.points
    return frame._parts[points]


def intersect_all(frame: Frame, subs) -> Sublocale:
    """The meet of any number of parts of `frame`; the whole for none."""
    points = _all_points(frame)
    for s in subs:
        if s.frame is not frame:
            raise MixedFrames()
        points &= s.points
    return frame._parts[points]


def is_subsublocale(x: Sublocale, y: Sublocale) -> bool:
    """x is contained in y iff every point of x is a point of y."""
    if x.frame is not y.frame:
        raise MixedFrames()
    return x.points & ~y.points == 0


# -- topology of sublocales -------------------------------------------------

def exterior(x: Sublocale) -> int:
    """The largest open missing x: the meet of its points."""
    return x.frame.meet_of_primes(x.points)


def closure(x: Sublocale) -> Sublocale:
    return x.frame._parts[x.frame.primes_above[exterior(x)]]


def interior(x: Sublocale) -> int:
    """The largest open u with [u] contained in x: the meet of the points
    outside x."""
    return exterior(complement_c(x))


def is_dense(x: Sublocale) -> bool:
    return exterior(x) == x.frame.bottom


# -- enumeration -------------------------------------------------------------

def enumerate_sublocales(frame: Frame, max_size: int = 10) -> list:
    """Every sublocale of the frame: one per set of points, so that the
    part at position m has `points == m`."""
    if frame.n > max_size:
        raise FrameTooLarge(frame.n, max_size)
    parts = frame._parts
    return [parts[m] for m in range(1 << len(frame.primes))]


def complement_c(x: Sublocale) -> Sublocale:
    """Smallest y with x union y = whole: the points outside x."""
    return x.frame._parts[_all_points(x.frame) & ~x.points]


def entanglement(a: Sublocale, b: Sublocale) -> Sublocale:
    """Largest closed piece on which a and b are both dense."""
    return closure(intersect(a, b))


# -- derived frames -----------------------------------------------------------

def fixpoint_frame(x: Sublocale):
    """The frame of fixpoints of x's nucleus, with its ambient embedding.

    Built from x's points: its primes are the ambient primes in x, and
    each fixpoint's set is its ambient set met with x's points, so its
    meets agree with the ambient frame and its joins are e(ambient join).
    Returns (frame, fix) where fix[k] is the ambient index of element k.
    Both are built once per part and kept on it.
    """
    if x._fixpoint_frame is None:
        amb, fix = x.frame, x.fixpoints
        kept = list(_bits(x.points))  # the ambient primes in x, in order
        x._fixpoint_frame = Frame._of_points(
            [amb.elements[a] for a in fix], [fix.index(amb.primes[i]) for i in kept],
            [sum(1 << k for k, i in enumerate(kept) if amb.primes_above[a] >> i & 1) for a in fix],
        ), fix
    return x._fixpoint_frame


def is_boolean_sublocale(b: Sublocale) -> bool:
    """A sublocale is Boolean iff it is the smallest dense part of its closure."""
    return b.points == _generic_points(b.frame, exterior(b))


def subspace_sublocale(frame: Frame, pts) -> Sublocale:
    """The sublocale a subset of points induces on its topology's frame.

    Its points are the primes P_x, for x in the subset, where P_x is the
    largest open missing x, read off `point_primes`. Several points x can
    share one prime, so the picture can lose information. Requires a frame
    built from a topology.
    """
    if frame.point_primes is None:
        raise FrameError("subspace_sublocale needs a frame built from a topology")
    pts = frozenset(pts)
    prime_of = dict(zip(frame.point_names, frame.point_primes))
    unknown = pts - prime_of.keys()
    if unknown:
        raise FrameError(f"unknown point {sorted(unknown)[0]!r}")
    points = 0
    for x in pts:
        points |= 1 << prime_of[x]
    return frame._parts[points]

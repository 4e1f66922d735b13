"""Sublocales of a finite frame, represented by their nuclei.

A sublocale is stored as the full graph of its nucleus (a tuple indexed by
frame elements). Two sublocales are equal exactly when their nuclei agree,
and X is contained in Y exactly when e_X >= e_Y pointwise. The fixpoint
set determines the nucleus (e(x) is the least fixpoint above x), which is
what `enumerate_sublocales` exploits.

Validation happens at the edges: `validate_nucleus` checks a mapping
supplied from outside, and `enumerate_sublocales` uses it to filter its
candidates. The library's own constructors (open, closed, generic,
subspace, union, intersect here; image and preimage in `morphisms`) build
`Sublocale` directly, because their results are nuclei by standard
closure facts (Picado & Pultr, *Frames and Locales*, ch. III); the tests
keep `validate_nucleus` on them as an oracle.
"""

from __future__ import annotations

import itertools

from locale_lab.frames import Frame, FrameError, build_frame, FrameSpec


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


class Sublocale:
    """A nucleus on a frame. Immutable; hashable.

    The constructor trusts its argument; use `validate_nucleus` for a
    mapping that does not come from the library's own constructors.
    """

    __slots__ = ("frame", "nucleus", "fixpoints", "_hash")

    def __init__(self, frame: Frame, nucleus: tuple):
        self.frame = frame
        self.nucleus = nucleus
        self.fixpoints = tuple(i for i in range(frame.n) if nucleus[i] == i)
        self._hash = hash((id(frame), nucleus))

    def fix(self, h: int) -> int:
        return self.nucleus[h]

    @property
    def is_whole(self) -> bool:
        return len(self.fixpoints) == self.frame.n

    @property
    def is_empty(self) -> bool:
        # only top is fixed
        return self.fixpoints == (self.frame.top,)

    def __eq__(self, other):
        if not isinstance(other, Sublocale):
            return NotImplemented
        return self.frame is other.frame and self.nucleus == other.nucleus

    def __hash__(self):
        return self._hash

    def __repr__(self):
        names = ",".join(str(self.frame.elements[i]) for i in self.fixpoints)
        return f"Sublocale[{names}]"


def _as_map(frame: Frame, mapping) -> tuple:
    if isinstance(mapping, dict):
        out = [None] * frame.n
        for k, v in mapping.items():
            out[frame.el(k)] = frame.el(v)
        missing = [i for i, v in enumerate(out) if v is None]
        if missing:
            raise FrameError(f"nucleus is undefined on {frame.elements[missing[0]]!r}")
        return tuple(out)
    mapping = tuple(frame.el(x) for x in mapping)
    if len(mapping) != frame.n:
        raise FrameError(f"nucleus map has {len(mapping)} entries, frame has {frame.n}")
    return mapping


def validate_nucleus(frame: Frame, mapping) -> Sublocale:
    e = _as_map(frame, mapping)
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
    return Sublocale(frame, e)


def _same_frame(*subs):
    f = subs[0].frame
    for s in subs[1:]:
        if s.frame is not f:
            raise MixedFrames()
    return f


# -- basic constructors ---------------------------------------------------

def whole(frame: Frame) -> Sublocale:
    return Sublocale(frame, tuple(range(frame.n)))


def empty(frame: Frame) -> Sublocale:
    return Sublocale(frame, (frame.top,) * frame.n)


def open_sublocale(frame: Frame, u) -> Sublocale:
    u = frame.el(u)
    return Sublocale(frame, tuple(frame.heyting(u, h) for h in range(frame.n)))


def closed_sublocale(frame: Frame, v) -> Sublocale:
    v = frame.el(v)
    return Sublocale(frame, tuple(frame.join(h, v) for h in range(frame.n)))


def generic(frame: Frame) -> Sublocale:
    """The smallest dense sublocale: double pseudo-complementation."""
    return Sublocale(frame, tuple(frame.neg(frame.neg(h)) for h in range(frame.n)))


# -- lattice of sublocales -------------------------------------------------

def union(*subs) -> Sublocale:
    """Join in the sublocale lattice: pointwise meet of nuclei."""
    frame = _same_frame(*subs)
    e = tuple(
        frame.meet_all(s.nucleus[h] for s in subs) for h in range(frame.n)
    )
    # a pointwise meet of nuclei is again a nucleus, idempotence included
    return Sublocale(frame, e)


def intersect(*subs) -> Sublocale:
    """Meet in the sublocale lattice: least common fixpoints above each h."""
    frame = _same_frame(*subs)
    e = []
    for h in range(frame.n):
        cur = h
        while True:
            nxt = cur
            for s in subs:
                nxt = s.nucleus[nxt]
            if nxt == cur:
                break
            cur = nxt
        e.append(cur)
    return Sublocale(frame, tuple(e))


def union_all(frame: Frame, subs) -> Sublocale:
    subs = list(subs)
    if not subs:
        return empty(frame)
    return union(*subs)


def intersect_all(frame: Frame, subs) -> Sublocale:
    subs = list(subs)
    if not subs:
        return whole(frame)
    return intersect(*subs)


def is_subsublocale(x: Sublocale, y: Sublocale) -> bool:
    """x is contained in y iff e_x dominates e_y pointwise."""
    frame = _same_frame(x, y)
    return all(frame.leq(y.nucleus[h], x.nucleus[h]) for h in range(frame.n))


# -- topology of sublocales -------------------------------------------------

def exterior(x: Sublocale) -> int:
    """The largest open missing x: e_x(bottom)."""
    return x.nucleus[x.frame.bottom]


def closure(x: Sublocale) -> Sublocale:
    return closed_sublocale(x.frame, exterior(x))


def interior(x: Sublocale) -> int:
    """The largest open u with [u] contained in x, as a frame element."""
    frame = x.frame
    opens = [
        u for u in range(frame.n)
        if is_subsublocale(open_sublocale(frame, u), x)
    ]
    return frame.join_all(opens)


def boundary(x: Sublocale) -> Sublocale:
    return intersect(closure(x), closed_sublocale(x.frame, interior(x)))


def is_dense(x: Sublocale) -> bool:
    return exterior(x) == x.frame.bottom


# -- enumeration -------------------------------------------------------------

def enumerate_sublocales(frame: Frame, max_size: int = 10) -> list:
    """Every sublocale of the frame, via meet-closed fixpoint sets.

    A subset S containing top is the fixpoint set of a nucleus iff it is
    closed under meets and the map x -> least member of S above x preserves
    binary meets. Candidates not satisfying the latter are dropped, so the
    result is exactly the nuclei, each one validated.
    """
    if frame.n > max_size:
        raise FrameTooLarge(frame.n, max_size)
    others = [i for i in range(frame.n) if i != frame.top]
    seen = set()
    out = []
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            s = set(combo)
            s.add(frame.top)
            # meet-closed?
            ok = all(frame.meet(a, b) in s for a in s for b in s)
            if not ok:
                continue
            e = []
            for x in range(frame.n):
                e.append(frame.meet_all(t for t in s if frame.leq(x, t)))
            e = tuple(e)
            try:
                sub = validate_nucleus(frame, e)
            except NucleusError:
                continue
            if sub.nucleus not in seen:
                seen.add(sub.nucleus)
                out.append(sub)
    return out


def complement_c(x: Sublocale, all_subs=None, max_size: int = 10) -> Sublocale:
    """Smallest y with x union y = whole.

    The family of such y is closed under intersections (unions distribute
    over intersections in the sublocale lattice), so its intersection is
    the least member.
    """
    frame = x.frame
    if all_subs is None:
        all_subs = enumerate_sublocales(frame, max_size)
    w = whole(frame)
    covers = [y for y in all_subs if union(x, y) == w]
    return intersect_all(frame, covers)


def entanglement(a: Sublocale, b: Sublocale) -> Sublocale:
    """Largest closed piece on which a and b are both dense."""
    _same_frame(a, b)
    return closure(intersect(a, b))


# -- derived frames -----------------------------------------------------------

def fixpoint_frame(x: Sublocale):
    """The frame of fixpoints of x's nucleus, with its ambient embedding.

    Meets agree with the ambient frame; joins are e(ambient join), which
    the order-theoretic rebuild produces automatically. Returns (frame,
    fix) where fix[k] is the ambient index of element k.
    """
    amb = x.frame
    fix = x.fixpoints
    names = [amb.elements[i] for i in fix]
    leq = [
        (amb.elements[a], amb.elements[b])
        for a in fix
        for b in fix
        if amb.leq(a, b)
    ]
    omega = build_frame(FrameSpec.make(names, leq))
    return omega, fix


def is_boolean_sublocale(b: Sublocale) -> bool:
    """A sublocale is Boolean iff it is the smallest dense part of its closure."""
    frame = b.frame
    cl = closure(b)
    omega, fix = fixpoint_frame(cl)
    amb_to_om = {amb: k for k, amb in enumerate(fix)}
    gamma = generic(omega)
    lifted = tuple(
        fix[gamma.nucleus[amb_to_om[cl.nucleus[h]]]] for h in range(frame.n)
    )
    return Sublocale(frame, lifted) == b


def subspace_sublocale(frame: Frame, pts) -> Sublocale:
    """The sublocale a subset of points induces on its topology's frame.

    e(V) is the largest open W with W intersect pts inside V. Requires a
    frame built from a topology.
    """
    if frame.opens is None:
        raise FrameError("subspace_sublocale needs a frame built from a topology")
    pts = frozenset(pts)
    unknown = pts - set(frame.point_names)
    if unknown:
        raise FrameError(f"unknown point {sorted(unknown)[0]!r}")
    e = []
    for v in range(frame.n):
        ws = [
            w for w in range(frame.n)
            if frame.opens[w] & pts <= frame.opens[v]
        ]
        e.append(frame.join_all(ws))
    return Sublocale(frame, tuple(e))

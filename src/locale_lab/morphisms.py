"""Frame morphisms and the pieces of locale-map calculus built on them.

A FrameMorphism is a frame homomorphism fstar from `source` to `target`;
read as a map of locales it points the other way, from the locale of
`target` to the locale of `source`. A map is stored as its point map
only: the right adjoint f_* sends each point (prime) of the target to a
point of the source (Birkhoff duality; Picado & Pultr, *Frames and
Locales*). Two lifts of point sets, tables built once per map, give
every other view. Pushing target points forward gives the image of a
part, and f_*(u) is the meet of the points pushed forward from c(u).
Pulling source points back gives the preimage of a part, and fstar(a) is
the meet of the points pulled back from c(a), which is the
`preimage-open-closed` identity.

A point map is a bytes object, one byte per target point: it holds no
references, so the cycle collector does not track it, it caches its
hash, and composing two maps is one C call. Its bytes are source point
indices, so a map's source has at most `BYTE` (256) points, the limit
`lattice.BYTE` also sets on a part index (it is defined here, and
`lattice` imports it). Every function that makes a point map, here and
`measure.reduced_algebra`, refuses a wider source with one `FrameError`
naming its point count.

Maps are enumerated as monotone maps of points, built one target point
at a time over every partial point map at once. An fstar table from
outside enters through `validate_morphism`, which finds its points with
one join per target prime, an element's image tested against the prime
by one bit of the image's point set; a sum and its injections, and the
embedding of a part, are built from their points directly.
"""

from __future__ import annotations

import functools
import itertools
import operator

from locale_lab.frames import Frame, FrameError, _bits
# union and whole are not used here but stay importable from this module
from locale_lab.sublocales import MixedFrames, Sublocale, fixpoint_frame, intersect_all, union, whole

BYTE = 256  # the values of one byte


def _byte_points(points: int) -> None:
    """Refuse a source of this many points: its point indices are not bytes."""
    if points > BYTE:
        raise FrameError(f"{points} points over the byte limit {BYTE} of a point map")


class NotAFrameMorphism(FrameError):
    def __init__(self, law: str, witness):
        super().__init__(f"fstar does not preserve {law}: witness {witness!r}")
        self.law = law
        self.witness = witness


def _lift(cols) -> tuple:
    """The union of cols[k] over the bits k of m, at every mask m, one `|`
    an entry: t[b | m] = t[m] | cols[k] for m < b = 1 << k."""
    t = [0]
    for c in cols:
        t += [m | c for m in t]
    return tuple(t)


class FrameMorphism:
    """A frame homomorphism fstar: source -> target, stored as its point
    map, a bytes object: byte j is the index in `source.primes` of f_*(q)
    for the target prime q = target.primes[j], so the source has at most
    `BYTE` points. The constructor trusts the map; use
    `validate_morphism` for an fstar table from outside.

    Every view is read off two lifts of point sets, tables over every
    mask built when first asked for and kept, 2^p + 2^q entries between
    frames with p and q points: `pulls` takes source points back and
    `pushes` moves target points forward. fstar(a) is the meet of the
    target points pulled back from c(a), the source points above a.
    """

    __slots__ = ("source", "target", "_points", "_fstar", "_adjoint", "_back", "_forward")

    def __init__(self, source: Frame, target: Frame, points: bytes):
        self.source, self.target, self._points = source, target, points
        self._fstar = self._adjoint = self._back = self._forward = None

    @property
    def pulls(self) -> tuple:
        """Source-point mask -> the target points that go into it."""
        if self._back is None:
            cols = [0] * len(self.source.primes)
            for j, i in enumerate(self._points):
                cols[i] |= 1 << j
            self._back = _lift(cols)
        return self._back

    @property
    def pushes(self) -> tuple:
        """Target-point mask -> the source points it goes to."""
        if self._forward is None:
            self._forward = _lift([1 << i for i in self._points])
        return self._forward

    @property
    def fstar(self) -> tuple:
        if self._fstar is None:
            meet, pulls = self.target.meet_of_primes, self.pulls
            self._fstar = tuple(meet(pulls[above]) for above in self.source.primes_above)
        return self._fstar

    def __call__(self, v) -> int:
        return self.fstar[self.source.el(v)]

    def __eq__(self, other):
        if not isinstance(other, FrameMorphism):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self._points == other._points
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self._points))

    def __repr__(self):
        pairs = ", ".join(
            f"{self.source.elements[i]}->{self.target.elements[self.fstar[i]]}"
            for i in range(self.source.n)
        )
        return f"FrameMorphism({pairs})"


def validate_morphism(source: Frame, target: Frame, mapping) -> FrameMorphism:
    """The map with this fstar table, checked to be a frame homomorphism.
    Its points are found with one join per target prime q: f_*(q) is the
    join of the V with fstar(V) <= q, those whose fstar(V) has q among
    its points. The table is kept as fstar."""
    _byte_points(len(source.primes))
    f = source.table(mapping, target.el, "fstar")
    if f[source.bottom] != target.bottom:
        raise NotAFrameMorphism("bottom", source.elements[source.bottom])
    if f[source.top] != target.top:
        raise NotAFrameMorphism("top", source.elements[source.top])
    # the witness is built only to raise
    sm, sj, tm, tj = source.meet, source.join, target.meet, target.join
    for a, fa in enumerate(f):
        for b in range(a, source.n):
            fb = f[b]
            if f[sm(a, b)] != tm(fa, fb):
                raise NotAFrameMorphism("meet", (source.elements[a], source.elements[b]))
            if f[sj(a, b)] != tj(fa, fb):
                raise NotAFrameMorphism("join", (source.elements[a], source.elements[b]))
    sets = target.primes_above
    m = FrameMorphism(source, target, bytes(
        source.primes.index(source.join_all(v for v, fv in enumerate(f) if sets[fv] >> j & 1))
        for j in range(len(target.primes))
    ))
    m._fstar = f
    return m


def identity_morphism(frame: Frame) -> FrameMorphism:
    _byte_points(len(frame.primes))
    return FrameMorphism(frame, frame, bytes(range(len(frame.primes))))


def compose(g: FrameMorphism, f: FrameMorphism) -> FrameMorphism:
    """(g after f) on the star maps, built from its point map: f's after
    g's, each byte of g's looked up in f's in one C call. Its source is
    f's, already within a byte of points."""
    if f.target is not g.source:
        raise MixedFrames()
    return FrameMorphism(f.source, g.target, bytes(map(f._points.__getitem__, g._points)))


def right_adjoint(f: FrameMorphism) -> tuple:
    """f_* : target -> source, largest V with fstar(V) below the argument.

    Every element u is the meet of the primes above it and f_* preserves
    meets, so f_*(u) is the meet of the source points pushed forward from
    c(u), the target points above u."""
    if f._adjoint is None:
        meet, pushes = f.source.meet_of_primes, f.pushes
        f._adjoint = tuple(meet(pushes[above]) for above in f.target.primes_above)
    return f._adjoint


def is_embedding(f: FrameMorphism) -> bool:
    """fstar surjective; equivalently f_* is injective, or fstar o f_* = id
    (the `embedding-three-ways` law compares the three)."""
    return len(set(f.fstar)) == f.target.n


def sublocale_embedding(x: Sublocale):
    """The embedding of a sublocale: its fixpoint frame mapped in by e.

    Returns (morphism, fixpoint_frame, fix) with fstar(v) = e(v) read in
    the fixpoint frame. f_* is the inclusion of the fixpoints, so each
    point of the fixpoint frame goes to itself in the ambient frame.
    """
    _byte_points(len(x.frame.primes))
    omega, fix = fixpoint_frame(x)
    points = bytes(x.frame.primes.index(fix[q]) for q in omega.primes)
    return FrameMorphism(x.frame, omega, points), omega, fix


def image(f: FrameMorphism, x: Sublocale) -> Sublocale:
    """Forward image of a sublocale of the target locale: its points pushed
    along the point map, one read of `pushes`. Its nucleus is
    V -> f_*(e_x(fstar(V)))."""
    if x.frame is not f.target:
        raise MixedFrames()
    return f.source._parts[f.pushes[x.points]]


def preimage(f: FrameMorphism, y: Sublocale) -> Sublocale:
    """Inverse image: the target points the point map sends into y, one
    read of `pulls`. Its nucleus is the meet over V of the layers
    [fstar(V)] union c(fstar(e_y(V)))."""
    if y.frame is not f.source:
        raise MixedFrames()
    return f.target._parts[f.pulls[y.points]]


def factors_through(f: FrameMorphism, i: FrameMorphism):
    """Does f, read as a locale map, land inside the embedding i?

    f and i share their source frame. True iff the image nucleus of f
    dominates that of i pointwise; the mediating morphism g is returned
    validated, and the `embedding-factorization` law checks that
    gstar(istar(V)) = fstar(V).
    """
    if f.source is not i.source:
        raise MixedFrames()
    if not is_embedding(i):
        raise FrameError("factors_through needs an embedding to factor through")
    src = f.source
    f_adj, i_adj = right_adjoint(f), right_adjoint(i)
    for v in range(src.n):
        if not src.leq(i_adj[i.fstar[v]], f_adj[f.fstar[v]]):
            return False, None
    gstar = tuple(f.fstar[i_adj[w]] for w in range(i.target.n))
    return True, validate_morphism(i.target, f.target, gstar)


# -- sums ---------------------------------------------------------------

def sum_frame(frames):
    """Product of the frames (the sum of their locales).

    Elements are tuples of component elements, ordered componentwise.
    Its points are the disjoint union of the components' points: a prime
    is a prime of one component with top in every other, and a tuple's
    set is the union of its entries' sets. Returns (frame, injections)
    where injections[i] is the morphism whose fstar projects onto
    component i. The sum's points are refused past `BYTE` before its
    elements, the product of the components', are built.
    """
    frames = list(frames)
    if not frames:
        raise FrameError("sum of no frames")
    _byte_points(sum(len(f.primes) for f in frames))
    names = list(itertools.product(*(f.elements for f in frames)))
    index = {c: j for j, c in enumerate(itertools.product(*(range(f.n) for f in frames)))}
    # prime i of component k is the tuple with it there and top elsewhere;
    # the tuples sort in index order, and bit place[k, i] is that prime's
    held = sorted(
        (tuple(p if m == k else g.top for m, g in enumerate(frames)), k, i)
        for k, f in enumerate(frames) for i, p in enumerate(f.primes)
    )
    place = {(k, i): b for b, (_, k, i) in enumerate(held)}
    lifted = [[sum(1 << place[k, i] for i in _bits(s)) for s in f.primes_above] for k, f in enumerate(frames)]
    sets = [functools.reduce(operator.or_, t) for t in itertools.product(*lifted)]
    s = Frame._of_points(names, [index[c] for c, _, _ in held], sets)
    # The injection onto component k is the projection, so f_*(q) for a
    # prime q of that component is q there and top everywhere else.
    injections = [
        FrameMorphism(s, f, bytes(place[k, i] for i in range(len(f.primes))))
        for k, f in enumerate(frames)
    ]
    return s, injections


# -- boolean combinations -------------------------------------------------

def atoms(frame: Frame) -> list:
    """Atoms of the boolean algebra of sublocales the opens generate.

    A nonempty cell, the meet of the open or the closed part of each
    element, holds exactly one point: of two distinct points p and q, q
    not below p, the open [q] holds p and not q. So the cells are one per
    point p, the meet over every element v of [v] where p is in it (v not
    below p) and c(v) where it is not. They partition the whole frame and
    every open/closed combination is a union of them.
    """
    parts, sets, every = frame._parts, frame.primes_above, (1 << len(frame.primes)) - 1
    return [
        intersect_all(frame, [parts[s if frame.leq(v, p) else every & ~s] for v, s in enumerate(sets)])
        for p in frame.primes
    ]


# -- enumeration ----------------------------------------------------------

def enumerate_morphisms(source: Frame, target: Frame) -> list:
    """All frame homomorphisms source -> target, built from their points.

    By Birkhoff duality the frame maps are exactly the monotone maps from
    the target's primes to the source's primes, q -> f_*(q). The target
    primes are placed by down-set size, one level at a time: every
    partial point map is extended by each source prime above the images
    of the new prime's lower covers, which bound it as all the primes
    below it do, since up-sets of source primes shrink along the order.
    Below one cover, the allowed primes are a tuple read by the cover's
    image; below more, the AND of the covers' up-set masks, each mask's
    tuple built once. A partial map with no allowed prime ends there.
    Each point map's fstar is derived on demand. The maps come in the
    order of the placement: lexicographic in the point map, with the
    target primes taken by down-set size and each tried on the source
    primes in index order.

    Every partial point map is bytes, extended by concatenating one byte,
    so the cycle collector tracks no partial map: the `FrameMorphism`
    objects returned are the only tracked objects the search allocates
    per map. A source of more than `BYTE` points is refused.
    """
    _byte_points(len(source.primes))
    primes, leq, sets = target.primes, target.leq, target.primes_above
    # by down-set size: the elements whose sets hold the prime's set
    order = sorted(range(len(primes)), key=lambda j: sum(sets[primes[j]] & ~s == 0 for s in sets))
    lt = lambda k, j: k != j and leq(primes[k], primes[j])
    # the lower covers of each prime, by their places in the order
    covers = [
        [pos for pos, k in enumerate(order) if lt(k, j) and not any(lt(k, m) and lt(m, j) for m in order)]
        for j in order
    ]
    above = [source.primes_above[p] for p in source.primes]
    ones = [bytes((i,)) for i in range(len(above))]
    ups = [tuple(one for one in ones if a >> one[0] & 1) for a in above]
    allowed = {}
    level = [b""]  # the partial point maps, in placement order
    for below in covers:
        if not below:
            level = [t + one for t in level for one in ones]
        elif len(below) == 1:
            (c,) = below
            level = [t + one for t in level for one in ups[t[c]]]
        else:
            c, *rest = below
            masks = [above[t[c]] for t in level]
            for c in rest:
                masks = [m & above[t[c]] for m, t in zip(masks, level)]
            for m in set(masks).difference(allowed):
                allowed[m] = tuple(one for one in ones if m >> one[0] & 1)
            level = [t + one for t, m in zip(level, masks) for one in allowed[m]]
    if order != sorted(order):  # each point map back in index order
        level = map(bytes, map(operator.itemgetter(*map(order.index, range(len(order)))), level))
    return [FrameMorphism(source, target, points) for points in level]

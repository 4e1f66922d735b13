"""Finite frames: complete distributive lattices with validated axioms.

Elements are integer indexes into a label tuple, and each element is its
set of points, the primes above it, as a bitmask: a finite frame is the
up-sets of its points (Birkhoff, "Rings of sets", Duke Math. J. 1937).
That is the one form of the order: a meet is the element of the union of
two point sets and a join that of their intersection, one dict lookup.
Every frame is made from its points by one constructor. Only an order
from outside is checked, once, at the boundary: distinct names, `up` a
partial order (`Frame.build` closes one read from outside) and the
bounded order a distributive lattice; only a refused order is scanned
pair by pair, to name its witness. Boolean and regular are read off the
points, so no operation a law checks picks the frames it runs on. A
frame's parts (`Sublocale`) are defined here, next to the part table.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property


class FrameError(ValueError):
    """Base class for construction and validation failures."""


class SpecError(FrameError):
    """Malformed input spec: duplicate names, unknown keys, bad shapes."""

    def __init__(self, message: str, where: str = "$"):
        super().__init__(f"{where}: {message}")
        self.where = where


class NotAPartialOrder(FrameError):
    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


class MissingBound(FrameError):
    def __init__(self, which: str):
        super().__init__(f"no {which} element")
        self.which = which


class NotALattice(FrameError):
    def __init__(self, kind: str, a, b):
        super().__init__(f"{kind} of {a!r} and {b!r} does not exist")
        self.kind = kind
        self.witness = (a, b)


class NotDistributive(FrameError):
    def __init__(self, w, v1, v2, lhs, rhs):
        super().__init__(
            f"{w!r} meet ({v1!r} join {v2!r}) = {lhs!r} "
            f"but the join of the meets is {rhs!r}"
        )
        self.witness = (w, v1, v2)


class InvalidTopology(FrameError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class FrameSpec:
    """An order presentation: element names plus generating leq pairs."""

    elements: tuple
    leq: tuple

    @staticmethod
    def make(elements, leq) -> "FrameSpec":
        return FrameSpec(tuple(elements), tuple((a, b) for a, b in leq))


@dataclass(frozen=True)
class TopologySpec:
    """A finite point set with its open-set family."""

    points: tuple
    opens: tuple  # tuple of frozensets

    @staticmethod
    def make(points, opens) -> "TopologySpec":
        return TopologySpec(tuple(points), tuple(frozenset(o) for o in opens))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _irreducibles(cones, duals) -> list:
    """The x that are not the meet of the elements strictly above them, for
    cones = up-sets and duals = down-sets (the join of those below, for
    the mirror): the AND of those elements' duals from the full mask is
    more than duals[x]. Past an element taken, its cone adds nothing."""
    out, full = [], (1 << len(cones)) - 1
    for x, cone in enumerate(cones):
        bounds, rest = full, cone & ~(1 << x)
        while rest:
            y = (rest & -rest).bit_length() - 1
            bounds &= duals[y]
            rest &= ~cones[y]
        if bounds != duals[x]:
            out.append(x)
    return out


def _refuse(e, up, down):
    """Raise the refusal of a bounded order, names e with up- and
    down-sets, that is no distributive lattice: the first pair without a
    meet, in row-major order, then the first without a join, each found
    by looking its cone up, then the first pair v1 < v2 whose join is
    above a join-irreducible below neither (a finite lattice is
    distributive iff every join-irreducible is join-prime)."""
    n = len(e)
    at_meet, at_join = ({c: k for k, c in enumerate(cone)} for cone in (down, up))
    for kind, cone, at in (("meet", down, at_meet), ("join", up, at_join)):
        for i, j in itertools.product(range(n), repeat=2):
            if cone[i] & cone[j] not in at:
                raise NotALattice(kind, e[i], e[j])
    irr = sum(1 << j for j in _irreducibles(down, up))
    for v1, v2 in itertools.combinations(range(n), 2):
        v = at_join[up[v1] & up[v2]]
        if bad := down[v] & irr & ~(down[v1] | down[v2]):
            j = next(_bits(bad))
            m = [at_meet[down[j] & down[x]] for x in (v, v1, v2)]
            raise NotDistributive(e[j], e[v1], e[v2], e[m[0]], e[at_join[up[m[1]] & up[m[2]]]])
    raise FrameError("not a distributive lattice")


class Frame:
    """A validated finite frame. Elements are 0..n-1; `elements` holds names.

    The order is stored once, as point sets: `primes_above[v]` has bit k
    set iff primes[k] is above v, v's set of points, which no other
    element has, so u <= v iff v's set is inside u's, meet(i, j) is the
    element of the union of two sets and join(i, j) that of their
    intersection, each one dict lookup. The primes, in index order, are
    the elements other than top that are not the meet of the elements
    strictly above them. No up- or down-set is kept. Values read off sets
    of primes are derived once per frame and kept while it lives: the
    meet of each set of primes (`meet_of_primes`) and its one `Sublocale`.

    One trusted constructor, `_of_points`, takes the names, the primes and
    their point sets; `from_topology` and the derived frames, which know
    their points, call it at once. `Frame(elements, up)` is the boundary
    for an order from outside (`Frame.build`, JSON): it checks `up` as a
    bounded partial order, then accepts it iff every union of the primes'
    up-sets is some element's set, O(n * points) lookups, and scans a
    refused order pair by pair to name its witness (`_refuse`).

    `_parts` is the part table, the one way a part is built or found: a
    dict from point mask to part whose `__missing__` builds the part on
    first use, with its nucleus (`nucleus_of`), so a part that exists
    costs one subscription, `frame._parts[mask]`. Nothing is built before
    it is asked for. The table and every part refer back to the frame, so
    a frame is a reference cycle, freed by the cycle collector.
    """

    def __init__(self, elements, up):
        e = tuple(elements)
        n = len(e)
        index = {name: i for i, name in enumerate(e)}
        if len(index) != n:
            dup = next(x for i, x in enumerate(e) if index[x] != i)
            raise SpecError(f"duplicate element {dup!r}", "$.elements")
        up = tuple(up)
        full = (1 << n) - 1
        if len(up) != n:
            raise SpecError(f"{len(up)} up-sets for {n} elements", "$.up")
        for name, above in zip(e, up):
            if type(above) is not int:
                raise SpecError(f"the up-set of {name!r} is a {type(above).__name__}, not an int", "$.up")
            if above & ~full:
                raise SpecError(f"the up-set of {name!r} names an element past the last", "$.up")
        down = [0] * n
        for i, above in enumerate(up):  # a partial order, by bitmasks
            if not above >> i & 1:
                raise NotAPartialOrder(f"reflexivity fails: {e[i]!r} is not <= itself", (e[i],))
            outside = ~above
            for j in _bits(above):
                down[j] |= 1 << i
                if up[j] & outside:
                    k = e[(up[j] & outside).bit_length() - 1]
                    raise NotAPartialOrder(f"transitivity fails: {e[i]!r} <= {e[j]!r} <= {k!r} "
                                           f"but not {e[i]!r} <= {k!r}", (e[i], e[j], k))
                if j != i and up[j] >> i & 1:
                    raise NotAPartialOrder(f"antisymmetry fails: {e[i]!r} <= {e[j]!r} <= {e[i]!r}",
                                           (e[i], e[j]))
        if full not in up:
            raise MissingBound("bottom")
        if full not in down:
            raise MissingBound("top")

        # every v is the meet of the primes above it (down from top: a v
        # that is no prime is the meet of the elements strictly above it),
        # so v -> its set of primes is one to one and reverses the order.
        # It is onto the up-sets of the primes, and the order a distributive
        # lattice (Birkhoff), iff its image holds each set's union with
        # each prime's
        primes = tuple(_irreducibles(up, down))
        sets = tuple(sum(1 << k for k, p in enumerate(primes) if above >> p & 1) for above in up)
        at = set(sets)
        if not all(s | sets[p] in at for s in sets for p in primes):
            _refuse(e, up, down)
        self._adopt(e, primes, sets)

    @classmethod
    def _of_points(cls, elements, primes, primes_above) -> "Frame":
        """The trusted constructor: element v is named elements[v] and has
        the point set primes_above[v], bit k for primes[k], the primes as
        element indices ascending and the sets every up-set of them once."""
        frame = object.__new__(cls)
        frame._adopt(tuple(elements), tuple(primes), tuple(primes_above))
        return frame

    def _adopt(self, elements, primes, primes_above):
        self.elements, self.n = elements, len(elements)
        self.primes, self.primes_above = primes, primes_above
        self.index = {name: i for i, name in enumerate(elements)}
        self._at = at = {mask: v for v, mask in enumerate(primes_above)}
        self.bottom, self.top = at[(1 << len(primes)) - 1], at[0]
        self._prime_meets = {}
        self._parts = _Parts(self)
        # Set by from_topology alone: the open behind each element, aligned
        # with `elements`, and each point's prime, as its index in `primes`
        self.opens = self.point_names = self.point_primes = None

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, spec: FrameSpec) -> "Frame":
        names = list(spec.elements)
        if not names:
            raise SpecError("empty element list", "$.elements")
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        up = [1 << i for i in range(n)]
        for a, b in spec.leq:
            if a not in index:
                raise SpecError(f"unknown element {a!r}", "$.leq")
            if b not in index:
                raise SpecError(f"unknown element {b!r}", "$.leq")
            up[index[a]] |= 1 << index[b]
        for k in range(n):  # reflexive-transitive closure, Warshall's order
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return cls(names, up)

    @classmethod
    def from_topology(cls, tspec: TopologySpec) -> "Frame":
        """The frame of a finite topology, built from its points: point x's
        prime is the union of the least opens that miss x, and open v's
        points are the classes of the points not in v (alike in every open)."""
        pts = list(tspec.points)
        if len(set(pts)) != len(pts):
            raise SpecError("duplicate point", "$.points")
        for i, p in enumerate(pts):  # open_set_name joins point names with ","
            if str(p) == "" or "," in str(p):
                raise SpecError(f"point name {p!r} is empty or has a ','", f"$.points[{i}]")
        pset = set(pts)
        opens = []
        for o in tspec.opens:
            if not o <= pset:
                raise InvalidTopology(
                    f"open set {sorted(o)} contains unknown points", sorted(o - pset)
                )
            opens.append(frozenset(o))
        if len(set(opens)) != len(opens):
            raise SpecError("duplicate open set", "$.opens")
        family = set(opens)
        if frozenset() not in family:
            raise InvalidTopology("the empty set is not open", [])
        if frozenset(pset) not in family:
            raise InvalidTopology("the full point set is not open", pts)
        # each open as a bitmask over the points. The family is closed iff
        # it is the unions of the points' least opens, each the AND of the
        # opens that hold it (Alexandrov), iff it holds each open's union
        # with each least open. Only a refused family is scanned for its
        # first failing pair, row i from open i on (a pair and its mirror
        # have the same union and intersection)
        bit = {p: 1 << i for i, p in enumerate(pts)}
        masks = [sum(map(bit.__getitem__, o)) for o in opens]
        closed = set(masks)
        least = [(1 << len(pts)) - 1] * len(pts)
        for m in masks:
            for i in _bits(m):
                least[i] &= m
        if not closed.issuperset(m | u for m in masks for u in least):
            for i, a in enumerate(masks):
                rest = masks[i:]
                if closed.issuperset(map(a.__or__, rest)) and closed.issuperset(map(a.__and__, rest)):
                    continue
                for b, o in zip(rest, opens[i:]):
                    for law, op, c in (("union", "|", a | b), ("intersection", "&", a & b)):
                        if c not in closed:
                            w = (sorted(opens[i]), sorted(o))
                            raise InvalidTopology(f"not closed under {law}: {w[0]} {op} {w[1]}", w)
        ordered = sorted(zip(opens, masks), key=lambda om: (len(om[0]), tuple(sorted(om[0]))))
        place = {m: v for v, (_, m) in enumerate(ordered)}
        # each point's prime, the largest open missing it, as an element
        prime_of = [place[functools.reduce(operator.or_, (u for u in least if not u >> x & 1), 0)]
                    for x in range(len(pts))]
        primes = sorted(set(prime_of))
        first = [prime_of.index(p) for p in primes]  # a point of each class
        sets = [sum(1 << k for k, x in enumerate(first) if not m >> x & 1) for _, m in ordered]
        frame = cls._of_points([open_set_name(o) for o, _ in ordered], primes, sets)
        frame.opens, frame.point_names = tuple(o for o, _ in ordered), tuple(pts)
        frame.point_primes = tuple(map(primes.index, prime_of))
        return frame

    # -- lattice operations --------------------------------------------

    def el(self, x) -> int:
        """Accept an element name or an index; return the index."""
        if isinstance(x, bool):
            raise FrameError(f"element index {x} is a bool, not an int")
        if isinstance(x, int):
            if not 0 <= x < self.n:
                raise FrameError(f"element index {x} out of range")
            return x
        try:
            return self.index[x]
        except KeyError:
            raise FrameError(f"unknown element {x!r}") from None

    def name(self, i: int):
        return self.elements[i]

    def table(self, mapping, value, what: str) -> tuple:
        """A value for every element, read from a dict keyed by element name
        or index, or from a list or tuple in element order; `value` parses
        each entry. Anything else, an element given twice, and any entry
        that does not parse raise a one-line FrameError that names the
        table as `what`."""
        if isinstance(mapping, dict):
            try:
                entries = [(self.el(k), v) for k, v in mapping.items()]
            except FrameError as exc:
                raise FrameError(f"{what}: {exc}") from None
        elif isinstance(mapping, (list, tuple)):
            if len(mapping) != self.n:
                raise FrameError(f"{what} has {len(mapping)} entries for {self.n} elements")
            entries = enumerate(mapping)
        else:
            raise FrameError(f"{what} must be a dict or a list, not {type(mapping).__name__}")
        out = [None] * self.n
        for i, v in entries:
            if out[i] is not None:
                raise FrameError(f"{what} has two entries for {self.elements[i]!r}")
            try:
                out[i] = value(v)
            except (ValueError, TypeError) as exc:
                raise FrameError(f"{what} at {self.elements[i]!r}: {exc}") from None
        if None in out:
            raise FrameError(f"{what} is undefined on {self.elements[out.index(None)]!r}")
        return tuple(out)

    def leq(self, i: int, j: int) -> bool:
        return self.primes_above[j] & ~self.primes_above[i] == 0

    def meet(self, i: int, j: int) -> int:
        return self._at[self.primes_above[i] | self.primes_above[j]]

    def join(self, i: int, j: int) -> int:
        return self._at[self.primes_above[i] & self.primes_above[j]]

    def meet_all(self, items) -> int:
        return self._at[functools.reduce(operator.or_, map(self.primes_above.__getitem__, items), 0)]

    def join_all(self, items) -> int:
        sets = self.primes_above
        return self._at[functools.reduce(operator.and_, map(sets.__getitem__, items), sets[self.bottom])]

    def heyting(self, u: int, h: int) -> int:
        """Largest W with W meet U <= H (right adjoint of meet by U): the
        meet of the points above H and not above U."""
        return self.meet_of_primes(self.primes_above[h] & ~self.primes_above[u])

    def neg(self, u: int) -> int:
        return self.heyting(u, self.bottom)

    # -- predicates ------------------------------------------------------

    def well_inside(self, w: int, u: int) -> bool:
        return self.join(self.neg(w), u) == self.top

    @cached_property
    def boolean(self) -> bool:
        """Every element has a complement: k points have 2^k up-sets iff none lies below another."""
        return self.n == 1 << len(self.primes)

    @cached_property
    def regular(self) -> bool:
        """Every element is the join of those well inside it: iff no point lies below another."""
        return all(self.primes_above[p] == 1 << k for k, p in enumerate(self.primes))

    @cached_property
    def join_irreducibles(self) -> tuple:
        """In index order; kappa maps the primes onto them one to one."""
        return tuple(sorted(self.least_not_below))

    @cached_property
    def least_not_below(self) -> tuple:
        """least_not_below[i] is kappa(primes[i]), the least element not
        below it: its points are every prime but those at or below
        primes[i]."""
        sets = [self.primes_above[p] for p in self.primes]
        return tuple(self._at[sum(1 << k for k, s in enumerate(sets) if not s >> i & 1)]
                     for i in range(len(sets)))

    def meet_of_primes(self, mask: int) -> int:
        """The meet of the primes whose bits are set in `mask`; top if none."""
        try:
            return self._prime_meets[mask]
        except KeyError:
            out = self.meet_all(self.primes[i] for i in _bits(mask))
            self._prime_meets[mask] = out
            return out

    def nucleus_of(self, mask: int) -> tuple:
        """The nucleus of the part whose points are the primes set in `mask`:
        e(a) is the meet of those points above a. Derived anew on every
        call; the part table calls it once per part and keeps the result."""
        return tuple(self.meet_of_primes(mask & above) for above in self.primes_above)

    # -- misc -----------------------------------------------------------

    def __repr__(self):
        return f"Frame({self.n} elements, bottom={self.elements[self.bottom]!r}, top={self.elements[self.top]!r})"


class Sublocale:
    """A part of a finite frame: a set of its points. Immutable.

    `points` is a bitmask over `frame.primes` (bit i for primes[i]). Every
    finite frame is spatial and every finite T0 space is T_D, so the parts
    correspond exactly to these sets. The nucleus is derived from them:
    e(a) is the meet of the points in the part that lie above a.

    A frame hands out one object per set of points, from its part table:
    `frame._parts[points]`, or the public spelling `Sublocale(frame,
    points)`, returns the frame's part for that set, built on the first
    miss with its nucleus, so equal parts are the same object and
    equality and hashing are by identity. Both trust the mask; use
    `sublocales.validate_nucleus` for a mapping that does not come from
    the library's own constructors.
    """

    __slots__ = ("frame", "points", "nucleus", "_fixpoint_frame")

    def __new__(cls, frame: Frame, points: int):
        return frame._parts[points]

    @property
    def fixpoints(self) -> tuple:
        e = self.nucleus
        return tuple(i for i in range(self.frame.n) if e[i] == i)

    def __repr__(self):
        names = ",".join(str(self.frame.elements[i]) for i in self.fixpoints)
        return f"Sublocale[{names}]"


class _Parts(dict):
    """A frame's part table: point mask -> its one `Sublocale`, the part
    built on the first miss."""

    __slots__ = ("frame",)

    def __init__(self, frame: Frame):
        self.frame = frame

    def __missing__(self, points: int) -> Sublocale:
        part = object.__new__(Sublocale)
        part.frame = self.frame
        part.points = points
        part.nucleus = self.frame.nucleus_of(points)
        part._fixpoint_frame = None
        self[points] = part
        return part


def open_set_name(o) -> str:
    return "{" + ",".join(str(p) for p in sorted(o)) + "}"


def build_frame(spec) -> Frame:
    """The frame of a FrameSpec or a TopologySpec."""
    if isinstance(spec, TopologySpec):
        return Frame.from_topology(spec)
    return Frame.build(spec)


# -- JSON loading -------------------------------------------------------

FRAME_KEYS = {"elements", "leq"}
TOPOLOGY_KEYS = {"points", "opens"}


def _expect_list(obj, where):
    if not isinstance(obj, list):
        raise SpecError(f"expected an array, got {type(obj).__name__}", where)
    return obj


def _expect_object(obj, keys):
    """obj, a JSON object with no key outside `keys`."""
    if not isinstance(obj, dict):
        raise SpecError("expected an object")
    unknown = set(obj) - keys
    if unknown:
        raise SpecError(f"unknown key {sorted(unknown)[0]!r}")
    return obj


def _expect_names(obj, where, what):
    """obj, an array of `what` names, each a string."""
    for i, x in enumerate(_expect_list(obj, where)):
        if not isinstance(x, str):
            raise SpecError(f"{what} names must be strings", f"{where}[{i}]")
    return obj


def frame_spec_from_json(obj) -> FrameSpec:
    obj = _expect_object(obj, FRAME_KEYS)
    elements = _expect_names(obj.get("elements"), "$.elements", "element")
    leq = []
    for i, pair in enumerate(_expect_list(obj.get("leq"), "$.leq")):
        pw = f"$.leq[{i}]"
        pair = _expect_list(pair, pw)
        if len(pair) != 2 or not all(isinstance(x, str) for x in pair):
            raise SpecError("expected a pair of element names", pw)
        leq.append((pair[0], pair[1]))
    return FrameSpec.make(elements, leq)


def topology_spec_from_json(obj) -> TopologySpec:
    obj = _expect_object(obj, TOPOLOGY_KEYS)
    pts = _expect_names(obj.get("points"), "$.points", "point")
    opens = enumerate(_expect_list(obj.get("opens"), "$.opens"))
    return TopologySpec.make(pts, [frozenset(_expect_names(o, f"$.opens[{i}]", "point")) for i, o in opens])


def spec_from_json(obj):
    """A frame or topology spec from parsed JSON; a "points" key selects
    the topology form. Pass the result to `build_frame`."""
    if isinstance(obj, dict) and "points" in obj:
        return topology_spec_from_json(obj)
    return frame_spec_from_json(obj)

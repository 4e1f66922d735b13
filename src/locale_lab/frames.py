"""Finite frames: complete distributive lattices with validated axioms.

Elements are integer indexes into a label tuple; after construction every
lattice operation is a table lookup. A Frame checks on construction that
its names are distinct, that `up` is a partial order (`Frame.build` closes
one read from outside) and the bound, lattice and distributivity laws;
law suites never re-prove them. Each check is O(n^2) bitmask work: a
meet or join is found by looking its cone up, and distributivity is
tested on pairs, not triples, since a finite lattice is distributive iff
every join-irreducible is join-prime (Birkhoff, "Rings of sets", Duke
Math. J. 1937). A frame's parts (`Sublocale`) are defined here, next to
the part table that builds them; the `sublocales` module holds what is
done with them.
"""

from __future__ import annotations

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


class Frame:
    """A validated finite frame. Elements are 0..n-1; `elements` holds names.

    `up[i]` / `down[i]` are bitmasks of the elements above / below i, so the
    order tests used by the law suites are single AND operations. The
    constructor checks every law in O(n^2) mask operations: meet(i, j) is
    the element whose down-set is down[i] & down[j], found in a dict from
    cone to element, and the frame is distributive iff for every pair
    v1, v2 the join-irreducibles below v1 join v2 lie below v1 or v2. Values
    read off sets of primes are derived once per frame and kept as long as
    the frame lives, at most one entry per set: the meet of each set of
    primes (`meet_of_primes`) and the one `Sublocale` of each set.

    `_parts` is the part table, the one way a part is built or found: a
    dict from point mask to part whose `__missing__` builds the part on
    first use, with its nucleus (`nucleus_of`), so a part that exists
    costs one subscription, `frame._parts[mask]`. Nothing is built before
    it is asked for. The table and every part refer back to the frame, so
    a frame is a reference cycle, freed by the cycle collector.
    """

    def __init__(self, elements, up, *, opens=None, point_names=None):
        self.elements = e = tuple(elements)
        self.n = len(e)
        self.index = {name: i for i, name in enumerate(e)}
        if len(self.index) != self.n:
            dup = next(x for i, x in enumerate(e) if self.index[x] != i)
            raise SpecError(f"duplicate element {dup!r}", "$.elements")
        self.up = tuple(up)
        full = (1 << self.n) - 1
        if len(self.up) != self.n:
            raise SpecError(f"{len(self.up)} up-sets for {self.n} elements", "$.up")
        for name, above in zip(e, self.up):
            if above & ~full:
                raise SpecError(f"the up-set of {name!r} names an element past the last", "$.up")
        down = [0] * self.n
        for i, above in enumerate(self.up):  # a partial order, by bitmasks
            if not above >> i & 1:
                raise NotAPartialOrder(f"reflexivity fails: {e[i]!r} is not <= itself", (e[i],))
            for j in _bits(above):
                down[j] |= 1 << i
                if self.up[j] & ~above:
                    k = e[(self.up[j] & ~above).bit_length() - 1]
                    raise NotAPartialOrder(f"transitivity fails: {e[i]!r} <= {e[j]!r} <= {k!r} "
                                           f"but not {e[i]!r} <= {k!r}", (e[i], e[j], k))
                if j != i and self.up[j] >> i & 1:
                    raise NotAPartialOrder(f"antisymmetry fails: {e[i]!r} <= {e[j]!r} <= {e[i]!r}",
                                           (e[i], e[j]))
        self.down = tuple(down)

        bottom = [i for i in range(self.n) if self.up[i] == full]
        top = [i for i in range(self.n) if self.down[i] == full]
        if not bottom:
            raise MissingBound("bottom")
        if not top:
            raise MissingBound("top")
        self.bottom = bottom[0]
        self.top = top[0]

        self._meet = self._binary_table(self.down, "meet")
        self._join = self._binary_table(self.up, "join")
        self._check_distributive()
        self._prime_meets = {}
        self._parts = _Parts(self)

        # Only set when the frame came from a TopologySpec: the open set
        # behind each element, aligned with `elements`.
        self.opens = opens
        self.point_names = point_names

    # -- construction -------------------------------------------------

    def _binary_table(self, cone, kind):
        # meet(i,j) is the element whose down-set is down[i] & down[j], if
        # there is one: one lookup in a dict from cone to element per pair.
        # The first pair without one, in row-major order, is the witness.
        at = {c: k for k, c in enumerate(cone)}
        table = []
        for i, ci in enumerate(cone):
            row = tuple([at.get(ci & c) for c in cone])
            if None in row:
                raise NotALattice(kind, self.elements[i], self.elements[row.index(None)])
            table.append(row)
        return tuple(table)

    def _check_distributive(self):
        # Birkhoff: a finite lattice is distributive iff every
        # join-irreducible j is join-prime, j <= v1 join v2 only if j <= v1
        # or j <= v2. j is join-irreducible iff the elements strictly below
        # it do not join to it: their common upper bounds, the AND of their
        # up-sets from the full mask (so bottom is not counted), are more
        # than up[j]. With irr[v] the join-irreducibles below v, the test
        # is irr[v1 join v2] == irr[v1] | irr[v2] for every pair.
        up, full = self.up, (1 << self.n) - 1
        irr_mask = 0
        for j, below in enumerate(self.down):
            bounds = full
            for k in _bits(below & ~(1 << j)):
                bounds &= up[k]
            if bounds != up[j]:
                irr_mask |= 1 << j
        irr = [below & irr_mask for below in self.down]
        for v1, row in enumerate(self._join):
            i1 = irr[v1]
            got = [irr[v] for v in row]
            if got != [i1 | i2 for i2 in irr]:
                # pairs below v1 were checked in their own rows, so the
                # first failing v2 is above v1; j is the first
                # join-irreducible below v1 join v2 and below neither
                v2 = next(v for v in range(v1 + 1, self.n) if got[v] != i1 | irr[v])
                j = next(_bits(got[v2] & ~(i1 | irr[v2])))
                meet, join, e = self._meet[j], self._join, self.elements
                raise NotDistributive(e[j], e[v1], e[v2], e[meet[row[v2]]],
                                      e[join[meet[v1]][meet[v2]]])

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
        # each open as a bitmask over the points; a pair and its mirror
        # have the same union and intersection, so row i starts at open i
        bit = {p: 1 << i for i, p in enumerate(pts)}
        masks = [sum(map(bit.__getitem__, o)) for o in opens]
        closed = set(masks)
        for i, a in enumerate(masks):
            rest = masks[i:]
            if closed.issuperset(map(a.__or__, rest)) and closed.issuperset(map(a.__and__, rest)):
                continue
            for b, o in zip(rest, opens[i:]):
                for law, op, c in (("union", "|", a | b), ("intersection", "&", a & b)):
                    if c not in closed:
                        w = (sorted(opens[i]), sorted(o))
                        raise InvalidTopology(f"not closed under {law}: {w[0]} {op} {w[1]}", w)
        ordered = sorted(family, key=lambda o: (len(o), tuple(sorted(o))))
        # the opens above a are those holding each of its points: the AND,
        # over its points, of the opens that hold that point
        holding = dict.fromkeys(pts, 0)
        for j, o in enumerate(ordered):
            for p in o:
                holding[p] |= 1 << j
        full = (1 << len(ordered)) - 1
        up = []
        for o in ordered:
            above = full
            for p in o:
                above &= holding[p]
            up.append(above)
        return cls([open_set_name(o) for o in ordered], up,
                   opens=tuple(ordered), point_names=tuple(pts))

    # -- lattice operations --------------------------------------------

    def el(self, x) -> int:
        """Accept an element name or an index; return the index."""
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
        return (self.up[i] >> j) & 1 == 1

    def meet(self, i: int, j: int) -> int:
        return self._meet[i][j]

    def join(self, i: int, j: int) -> int:
        return self._join[i][j]

    def meet_all(self, items) -> int:
        acc = self.top
        for i in items:
            acc = self._meet[acc][i]
        return acc

    def join_all(self, items) -> int:
        acc = self.bottom
        for i in items:
            acc = self._join[acc][i]
        return acc

    def heyting(self, u: int, h: int) -> int:
        """Largest W with W meet U <= H (right adjoint of meet by U): the
        meet of the points above H and not above U."""
        return self.meet_of_primes(self.primes_above[h] & ~self.primes_above[u])

    def neg(self, u: int) -> int:
        return self.heyting(u, self.bottom)

    # -- predicates ------------------------------------------------------

    def well_inside(self, w: int, u: int) -> bool:
        return self._join[self.neg(w)][u] == self.top

    @cached_property
    def boolean(self) -> bool:
        return all(self._join[u][self.neg(u)] == self.top for u in range(self.n))

    @cached_property
    def regular(self) -> bool:
        for u in range(self.n):
            cover = self.join_all(
                w for w in range(self.n) if self.well_inside(w, u)
            )
            if cover != u:
                return False
        return True

    @cached_property
    def join_irreducibles(self) -> tuple:
        """In index order; kappa maps the primes onto them one to one."""
        return tuple(sorted(self.least_not_below))

    @cached_property
    def primes(self) -> tuple:
        """The meet-irreducible elements other than top, in index order.

        In a distributive lattice these are exactly the prime elements,
        i.e. the points of the frame.
        """
        out = []
        for x in range(self.n):
            if x == self.top:
                continue
            above = self.meet_all(y for y in _bits(self.up[x]) if y != x)
            if above != x:
                out.append(x)
        return tuple(out)

    @cached_property
    def primes_above(self) -> tuple:
        """primes_above[v] has bit i set iff primes[i] is above v."""
        return tuple(
            sum(1 << i for i, p in enumerate(self.primes) if self.leq(v, p))
            for v in range(self.n)
        )

    @cached_property
    def least_not_below(self) -> tuple:
        """least_not_below[i] is kappa(primes[i]): the meet of the elements
        not below it, which are closed under meets as primes[i] is prime."""
        everything = self.up[self.bottom]
        return tuple(self.meet_all(_bits(everything & ~self.down[p])) for p in self.primes)

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

"""Finite frames: complete distributive lattices with validated axioms.

Elements are integer indexes into a label tuple; after construction every
lattice operation is a table lookup. A Frame checks on construction that
its names are distinct, that `up` is a partial order (`Frame.build` closes
one read from outside) and the bound, lattice and distributivity laws;
law suites never re-prove them.
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
    order tests used by the law suites are single AND operations. Values
    read off sets of primes are derived once per frame and kept as long as
    the frame lives: the meet of each set of primes (`meet_of_primes`), the
    nucleus of each part (`nucleus_of`) and the fixpoint frame of each part
    (`sublocales.fixpoint_frame`), at most one entry per part.
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
        self._nuclei = {}
        self._fixpoint_frames = {}

        # Only set when the frame came from a TopologySpec: the open set
        # behind each element, aligned with `elements`.
        self.opens = opens
        self.point_names = point_names

    # -- construction -------------------------------------------------

    def _binary_table(self, cone, kind):
        # meet(i,j) is the greatest element of down[i] & down[j]; such an
        # element exists iff the intersection equals its own cone.
        n = self.n
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                common = cone[i] & cone[j]
                found = -1
                for k in _bits(common):
                    if cone[k] == common:
                        found = k
                        break
                if found < 0:
                    raise NotALattice(kind, self.elements[i], self.elements[j])
                row.append(found)
            table.append(tuple(row))
        return tuple(table)

    def _check_distributive(self):
        n = self.n
        meet, join = self._meet, self._join
        for w in range(n):
            mw = meet[w]
            for v1 in range(n):
                a = mw[v1]
                for v2 in range(n):
                    lhs = mw[join[v1][v2]]
                    rhs = join[a][mw[v2]]
                    if lhs != rhs:
                        e = self.elements
                        raise NotDistributive(e[w], e[v1], e[v2], e[lhs], e[rhs])

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
        for a in opens:
            for b in opens:
                for law, op, c in (("union", "|", a | b), ("intersection", "&", a & b)):
                    if c not in family:
                        w = (sorted(a), sorted(b))
                        raise InvalidTopology(f"not closed under {law}: {w[0]} {op} {w[1]}", w)
        ordered = sorted(family, key=lambda o: (len(o), tuple(sorted(o))))
        up = [sum(1 << j for j, b in enumerate(ordered) if a <= b) for a in ordered]
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
    def up_bytes(self) -> tuple:
        """up_bytes[i] has byte j set to 1 iff i <= j, padded with zero
        bytes to 256: a `bytes.translate` table (for frames of at most 256
        elements) that tests i <= x for a whole row of elements x at once."""
        return tuple(
            bytes(self.up[i] >> j & 1 for j in range(self.n)).ljust(256, b"\0")
            for i in range(self.n)
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
        e(a) is the meet of those points above a."""
        try:
            return self._nuclei[mask]
        except KeyError:
            out = tuple(self.meet_of_primes(mask & above) for above in self.primes_above)
            self._nuclei[mask] = out
            return out

    # -- misc -----------------------------------------------------------

    def __repr__(self):
        return f"Frame({self.n} elements, bottom={self.elements[self.bottom]!r}, top={self.elements[self.top]!r})"


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


def frame_spec_from_json(obj, where="$") -> FrameSpec:
    if not isinstance(obj, dict):
        raise SpecError("expected an object", where)
    unknown = set(obj) - FRAME_KEYS
    if unknown:
        raise SpecError(f"unknown key {sorted(unknown)[0]!r}", where)
    elements = _expect_list(obj.get("elements"), f"{where}.elements")
    for i, e in enumerate(elements):
        if not isinstance(e, str):
            raise SpecError("element names must be strings", f"{where}.elements[{i}]")
    leq_raw = _expect_list(obj.get("leq"), f"{where}.leq")
    leq = []
    for i, pair in enumerate(leq_raw):
        pw = f"{where}.leq[{i}]"
        pair = _expect_list(pair, pw)
        if len(pair) != 2 or not all(isinstance(x, str) for x in pair):
            raise SpecError("expected a pair of element names", pw)
        leq.append((pair[0], pair[1]))
    return FrameSpec.make(elements, leq)


def topology_spec_from_json(obj, where="$") -> TopologySpec:
    if not isinstance(obj, dict):
        raise SpecError("expected an object", where)
    unknown = set(obj) - TOPOLOGY_KEYS
    if unknown:
        raise SpecError(f"unknown key {sorted(unknown)[0]!r}", where)
    pts = _expect_list(obj.get("points"), f"{where}.points")
    for i, p in enumerate(pts):
        if not isinstance(p, str):
            raise SpecError("point names must be strings", f"{where}.points[{i}]")
    opens_raw = _expect_list(obj.get("opens"), f"{where}.opens")
    opens = []
    for i, o in enumerate(opens_raw):
        ow = f"{where}.opens[{i}]"
        o = _expect_list(o, ow)
        for j, p in enumerate(o):
            if not isinstance(p, str):
                raise SpecError("point names must be strings", f"{ow}[{j}]")
        opens.append(frozenset(o))
    return TopologySpec.make(pts, opens)


def spec_from_json(obj):
    """A frame or topology spec from parsed JSON; a "points" key selects
    the topology form. Pass the result to `build_frame`."""
    if isinstance(obj, dict) and "points" in obj:
        return topology_spec_from_json(obj)
    return frame_spec_from_json(obj)

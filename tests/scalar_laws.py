"""The laws that locale_lab.part_laws and locale_lab.map_laws check with
byte kernels, as scalar loops, and the finite-measure laws of
locale_lab.measure_laws, in Fraction arithmetic: the references the
fast bodies are compared with.

Each function is the law's check as it was before its kernel: it takes
the same context (a `SubLattice`) and returns (cases checked, failure
witnesses) in the same order. The part laws' oracles read each nucleus,
Heyting arrow, join and entanglement through the library, case by case,
where the row forms read them off the lattice's tables and bit masks. A map law's oracle takes one map f with
the part lattices FL of its source and EL of its target, and reads the
map's own tables; the suite checks every map from one frame to another
at once. The right adjoint is given by its definition, the join of the
V with fstar(V) below u.

`push` and `pull` lift one set of points along a map's point map by a
loop over the points: the references for the map's `pushes` and `pulls`
tables. The composition law's oracle enumerates the maps of every triple
anew and lifts each part through them, where the suite reads the tables
of maps it enumerated once.

The finite-measure bodies read a `Valued`, whose table `out` holds each
part's outer measure as a Fraction (`outer_measure_finite`), where the
suite reads integers scaled by a common denominator. null-partner and
reduced-algebra read the outer measures of the partner's union and meet
and of the reduced parts off that table too: the numbers the
certificates of `null_partner` and `outer_measure_finite` give, so a
fault planted in the table reaches both bodies alike.
"""

from __future__ import annotations

import itertools
from math import comb

from locale_lab.measure import mu_reduce, null_partner, outer_measure_finite, reduced_algebra
from locale_lab.measure_laws import _reduced_parts_algebra, _restriction_valid
from locale_lab.morphisms import atoms, compose, enumerate_morphisms, right_adjoint
from locale_lab.sublocales import closed_sublocale, entanglement, open_sublocale, union_all


def join_over_meet(L):
    k = len(L.subs)
    bad = []
    for a in range(k):
        for i, j in itertools.combinations(range(k), 2):
            if a | (i & j) != (a | i) & (a | j):
                bad.append({"a": L.label(a), "b1": L.label(i), "b2": L.label(j)})
        for i, j, h in itertools.combinations(range(k), 3):
            if a | (i & j & h) != (a | i) & (a | j) & (a | h):
                bad.append({"a": L.label(a), "b1": L.label(i), "b2": L.label(j), "b3": L.label(h)})
    return k * (comb(k, 2) + comb(k, 3)), bad


def meets_join_product(L):
    pairs = list(itertools.combinations(range(len(L.subs)), 2))
    bad = []
    for a1, a2 in pairs:
        for b1, b2 in pairs:
            if (a1 & a2) | (b1 & b2) != (a1 | b1) & (a1 | b2) & (a2 | b1) & (a2 | b2):
                bad.append(
                    {"a1": L.label(a1), "a2": L.label(a2), "b1": L.label(b1), "b2": L.label(b2)}
                )
    return len(pairs) ** 2, bad


def push(f, mask: int) -> int:
    """The source points that the target points in `mask` go to."""
    out = 0
    for j, i in enumerate(f._points):
        if mask >> j & 1:
            out |= 1 << i
    return out


def pull(f, mask: int) -> int:
    """The target points that go to source points in `mask`."""
    out = 0
    for j, i in enumerate(f._points):
        if mask >> i & 1:
            out |= 1 << j
    return out


def adjunction(f, FL, EL):
    src, tgt, fstar = f.source, f.target, f.fstar
    adj = right_adjoint(f)
    bad = []
    for v in range(src.n):
        for u in range(tgt.n):
            if tgt.leq(fstar[v], u) != src.leq(v, adj[u]):
                bad.append({"v": src.name(v), "u": tgt.name(u)})
    return src.n * tgt.n, bad


def embedding_three_ways(f, FL, EL):
    n = f.target.n
    adj = right_adjoint(f)
    flags = {
        "surjective": len(set(f.fstar)) == n,
        "adjoint injective": len(set(adj)) == n,
        "section": all(f.fstar[adj[u]] == u for u in range(n)),
    }
    return 1, [] if len(set(flags.values())) == 1 else [{k: str(v) for k, v in flags.items()}]


def preimage_open_closed(f, FL, EL):
    src = f.source
    bad = []
    for v in range(src.n):
        if f.pulls[open_sublocale(src, v).points] != EL.open_idx[f.fstar[v]]:
            bad.append({"v": src.name(v), "side": "open"})
        if f.pulls[closed_sublocale(src, v).points] != EL.closed_idx[f.fstar[v]]:
            bad.append({"v": src.name(v), "side": "closed"})
    return 2 * src.n, bad


def preimage_union_meet(f, FL, EL):
    pre = f.pulls
    kf = len(FL.subs)
    bad = []
    for i in range(kf):
        pi = pre[i]
        for j in range(kf):
            if pre[i | j] != pi | pre[j]:
                bad.append({"a": FL.label(i), "b": FL.label(j), "side": "union"})
            if pre[i & j] != pi & pre[j]:
                bad.append({"a": FL.label(i), "b": FL.label(j), "side": "meet"})
    return 2 * kf * kf, bad


def image_union(f, FL, EL):
    img = f.pushes
    ke = len(EL.subs)
    bad = []
    for i in range(ke):
        for j in range(ke):
            if img[i | j] != img[i] | img[j]:
                bad.append({"x": EL.label(i), "y": EL.label(j)})
    return ke * ke, bad


def image_preimage_galois(f, FL, EL):
    pre, img = f.pulls, f.pushes
    bad = []
    for i in range(len(FL.subs)):
        if img[pre[i]] & i != img[pre[i]]:
            bad.append({"y": FL.label(i), "side": "image of pullback"})
    for j in range(len(EL.subs)):
        if j & pre[img[j]] != j:
            bad.append({"x": EL.label(j), "side": "pullback of image"})
    return len(FL.subs) + len(EL.subs), bad


def composition(ctx):
    small, lats = ctx[0], ctx[1]
    checked, bad = 0, []
    for (an, a), (bn, b), (cn, c) in itertools.product(small, repeat=3):
        AL, CL = lats[an], lats[cn]
        for f in enumerate_morphisms(a, b):
            for g in enumerate_morphisms(b, c):
                h = compose(g, f)
                checked += len(CL.subs) + len(AL.subs)
                for x in range(len(CL.subs)):
                    if push(h, x) != push(f, push(g, x)):
                        bad.append({"path": f"{an}->{bn}->{cn}", "x": CL.label(x)})
                for y in range(len(AL.subs)):
                    if pull(h, y) != pull(g, pull(f, y)):
                        bad.append({"path": f"{an}->{bn}->{cn}", "y": AL.label(y)})
    return checked, bad


def boolean_combination_distributivity(L):
    cell_parts = atoms(L.frame)
    cell_idx = [c.points for c in cell_parts]
    cells, k = len(cell_idx), len(L.subs)
    bad = []
    if cell_idx:
        if union_all(L.frame, cell_parts).points != L.whole_idx:
            bad.append({"form": "cells do not cover"})
        for i, j in itertools.combinations(range(cells), 2):
            if cell_idx[i] & cell_idx[j] != L.empty_idx:
                bad.append({"form": "cells overlap", "i": str(i), "j": str(j)})
    combos = set()
    for r in range(cells + 1):
        for picked in itertools.combinations(cell_idx, r):
            h = L.empty_idx
            for c in picked:
                h |= c
            combos.add(h)
    for h in sorted(combos):
        for x in range(k):
            for y in range(k):
                if h & (x | y) != (h & x) | (h & y):
                    bad.append({"h": L.label(h), "a": L.label(x), "b": L.label(y)})
    cover_cases = 1 + comb(cells, 2) if cells else 0
    return cover_cases + len(combos) * k * k, bad


def meet_nucleus_form(L):
    fr, k = L.frame, len(L.subs)
    nm = fr.name
    bad = []
    nuclei = [s.nucleus for s in L.subs]
    for v in range(fr.n):
        ov, cv = L.open_idx[v], L.closed_idx[v]
        for x in range(k):
            ex = nuclei[x]
            open_meet = nuclei[ov & x]
            closed_meet = nuclei[cv & x]
            for h in range(fr.n):
                if open_meet[h] != fr.heyting(v, ex[h]):
                    bad.append({"v": nm(v), "x": L.label(x), "h": nm(h), "side": "open"})
                if closed_meet[h] != ex[fr.join(h, v)]:
                    bad.append({"v": nm(v), "x": L.label(x), "h": nm(h), "side": "closed"})
    return 2 * fr.n * k * fr.n, bad


def side_distributivity(L):
    fr, k = L.frame, len(L.subs)
    bad = []
    for v in range(fr.n):
        for li in (L.open_idx[v], L.closed_idx[v]):
            for x in range(k):
                for y in range(k):
                    if li & (x | y) != (li & x) | (li & y):
                        bad.append({"v": fr.name(v), "x": L.label(x), "y": L.label(y)})
    return 2 * fr.n * k * k, bad


def union_lub_intersect_glb(L):
    k = len(L.subs)
    checked, bad = 0, []
    for i in range(k):
        for j in range(k):
            u, m = i | j, i & j
            checked += 2
            if not (i & u == i and j & u == j) or not (m & i == m and m & j == m):
                bad.append({"x": L.label(i), "y": L.label(j), "form": "bounds"})
                continue
            checked += 2 * k
            for z in range(k):
                if i & z == i and j & z == j and u & z != u:
                    bad.append({"x": L.label(i), "y": L.label(j), "z": L.label(z), "form": "union not least"})
                if z & i == z and z & j == z and z & m != z:
                    bad.append({"x": L.label(i), "y": L.label(j), "z": L.label(z), "form": "meet not greatest"})
    return checked, bad


def entanglement_zone(L):
    k = len(L.subs)
    bad = []
    for a in range(k):
        for b in range(k):
            eps = L.closure_idx[a & b]
            if entanglement(L.subs[a], L.subs[b]).points != eps:
                bad.append({"a": L.label(a), "b": L.label(b), "form": "closure of the meet"})

            def dense_in(g):
                return L.closure_idx[a & g] == g and L.closure_idx[b & g] == g

            if not dense_in(eps):
                bad.append({"a": L.label(a), "b": L.label(b), "form": "zone not dense in itself"})
            for g in L.closed_parts:
                if dense_in(g) and g & eps != g:
                    bad.append({"a": L.label(a), "b": L.label(b), "g": L.label(g), "form": "not largest"})
    return k * k * (2 + len(L.closed_parts)), bad


def meet_over_union_search(L):
    k = len(L.subs)
    bad = []
    for x in range(k):
        for y in range(k):
            for z in range(k):
                if x & (y | z) != (x & y) | (x & z):
                    bad.append({"x": L.label(x), "y": L.label(y), "z": L.label(z)})
    return k ** 3, bad


LATTICE_ORACLES = {
    "join-over-meet": join_over_meet,
    "meets-join-product": meets_join_product,
    "boolean-combination-distributivity": boolean_combination_distributivity,
    "meet-nucleus-form": meet_nucleus_form,
    "side-distributivity": side_distributivity,
    "union-lub-intersect-glb": union_lub_intersect_glb,
    "entanglement-zone": entanglement_zone,
    "meet-over-union-search": meet_over_union_search,
}
MAP_ORACLES = {
    "adjunction": adjunction,
    "embedding-three-ways": embedding_three_ways,
    "preimage-open-closed": preimage_open_closed,
    "preimage-union-meet": preimage_union_meet,
    "image-union": image_union,
    "image-preimage-galois": image_preimage_galois,
}
COMPOSITION_ORACLES = {"composition": composition}


def right_adjoint_by_definition(f) -> tuple:
    """f_*(u): the join of every V with fstar(V) <= u."""
    src, tgt = f.source, f.target
    return tuple(
        src.join_all(v for v in range(src.n) if tgt.leq(f.fstar[v], u)) for u in range(tgt.n)
    )


class Valued:
    """A valuation on a frame's part lattice, with the outer measure and
    the reduction of every part."""

    def __init__(self, L, val):
        self.L, self.val = L, val
        self.out = [outer_measure_finite(val, x) for x in L.subs]
        self.top = val(L.frame.top)
        self.red = [mu_reduce(val, x).points for x in L.subs]
        self.reduced = sorted(set(self.red))


def outer_extends(m):
    L, out, fr = m.L, m.out, m.L.frame
    bad = []
    for v in range(fr.n):
        if out[L.open_idx[v]] != m.val(v):
            bad.append({"v": fr.name(v)})
    return fr.n, bad


def outer_monotone(m):
    L, out, k = m.L, m.out, len(m.L.subs)
    bad = []
    for i in range(k):
        for j in range(k):
            if i & j == i and out[i] > out[j]:
                bad.append({"x": L.label(i), "y": L.label(j)})
    return k * k, bad


def strict_additivity(m):
    L, out, k = m.L, m.out, len(m.L.subs)
    bad = []
    for i in range(k):
        for j in range(k):
            if out[i | j] + out[i & j] != out[i] + out[j]:
                bad.append(
                    {
                        "x": L.label(i),
                        "y": L.label(j),
                        "residual": str(out[i | j] + out[i & j] - out[i] - out[j]),
                    }
                )
    return k * k, bad


def increasing_union_sup(m):
    L, out, k = m.L, m.out, len(m.L.subs)
    checked, bad = 0, []
    for i in range(k):
        for j in range(k):
            if i & j != i:
                continue
            checked += 1
            if out[i | j] != max(out[i], out[j]):
                bad.append({"x": L.label(i), "y": L.label(j)})
            for h in range(k):
                if j & h != j:
                    continue
                checked += 1
                if out[i | j | h] != max(out[i], out[j], out[h]):
                    bad.append({"x": L.label(i), "y": L.label(j), "z": L.label(h)})
    return checked, bad


def closed_complement(m):
    L, out, fr = m.L, m.out, m.L.frame
    bad = []
    for v in range(fr.n):
        if out[L.open_idx[v]] + out[L.closed_idx[v]] != m.top:
            bad.append({"v": fr.name(v)})
    return fr.n, bad


def open_split(m):
    L, out, fr = m.L, m.out, m.L.frame
    bad = []
    for i in range(len(L.subs)):
        for v in range(fr.n):
            if out[i & L.open_idx[v]] + out[i & L.closed_idx[v]] != out[i]:
                bad.append({"x": L.label(i), "v": fr.name(v)})
    return len(L.subs) * fr.n, bad


def relative_modularity(m):
    L, out, fr = m.L, m.out, m.L.frame
    n, nm = fr.n, fr.name
    bad = []
    for i in range(len(L.subs)):
        for u in range(n):
            for v in range(n):
                iu, iv = out[i & L.open_idx[u]], out[i & L.open_idx[v]]
                lhs = out[i & L.open_idx[fr.join(u, v)]]
                if lhs != iu + iv - out[i & L.open_idx[fr.meet(u, v)]]:
                    bad.append({"x": L.label(i), "u": nm(u), "v": nm(v), "form": "relative modularity"})
                if lhs != max(iu, iv, lhs):
                    bad.append({"x": L.label(i), "u": nm(u), "v": nm(v), "form": "filtered sup"})
    return 2 * len(L.subs) * n * n, bad


def decreasing_meet_inf(m):
    L, out, val, fr = m.L, m.out, m.val, m.L.frame
    n, k = fr.n, len(L.subs)
    bad = []
    for u in range(n):
        for v in range(n):
            if out[L.open_idx[u] & L.open_idx[v]] != min(
                val(u), val(v), val(fr.meet(u, v))
            ):
                bad.append({"u": fr.name(u), "v": fr.name(v)})
    for i in range(k):
        for j in range(k):
            if out[i & j] != min(out[i], out[j], out[i & j]):
                bad.append({"x": L.label(i), "y": L.label(j)})
    return n * n + k * k, bad


def reduction(m):
    L, out, red, k = m.L, m.out, m.red, len(m.L.subs)
    bad = []
    for i in range(k):
        r = red[i]
        if r & i != r or out[r] != out[i]:
            bad.append({"x": L.label(i), "form": "reduction keeps measure inside"})
        if red[r] != r:
            bad.append({"x": L.label(i), "form": "idempotent"})
        for z in range(k):
            if z & i == z and out[z] == out[i] and r & z != r:
                bad.append({"x": L.label(i), "z": L.label(z), "form": "least full-measure part"})
    return k * (3 + k), bad


def null_partner_law(m):
    L, out = m.L, m.out
    bad = []
    for i in range(len(L.subs)):
        b = null_partner(m.val, L.subs[i])[0].points
        union, meet = out[i | b], out[i & b]
        if union != m.top:
            bad.append({"x": L.label(i), "form": "union short of total", "got": str(union)})
        if meet != 0:
            bad.append({"x": L.label(i), "form": "meet not null", "got": str(meet)})
    return 2 * len(L.subs), bad


def reduced_algebra_law(m):
    ra = reduced_algebra(m.val)
    ok = ra.frame.boolean and ra.frame.n == len(m.reduced)
    ok = ok and all(
        m.out[ra.reps[i].points] == ra.valuation(i)
        for i in range(ra.frame.n)
    )
    return 1, [] if ok else [{"size": str(ra.frame.n)}]


# reduced-parts-algebra and restriction-valid read no measure values: the
# suite's own bodies serve on either context
MEASURE_ORACLES = {
    "outer-extends": outer_extends,
    "outer-monotone": outer_monotone,
    "strict-additivity": strict_additivity,
    "increasing-union-sup": increasing_union_sup,
    "closed-complement": closed_complement,
    "open-split": open_split,
    "relative-modularity": relative_modularity,
    "decreasing-meet-inf": decreasing_meet_inf,
    "reduction": reduction,
    "reduced-parts-algebra": _reduced_parts_algebra,
    "null-partner": null_partner_law,
    "restriction-valid": _restriction_valid,
    "reduced-algebra": reduced_algebra_law,
}

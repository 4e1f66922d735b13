"""The sublocale suite's laws (`PART_LAWS`): the identities of one part
lattice, a `lattice.SubLattice`.

The largest are checked by byte kernels, row forms that read the
lattice's byte tables: their operands are packed one case per byte, so a
few operations on long integers or `bytes.translate` calls compare every
equation of the law, byte by byte, and the case count is the count of
equations compared. When the kernel of `meet-nucleus-form` finds a
mismatch, its scalar loop runs and names the witnesses. The other kernels
compare Boolean-algebra identities of point masks, `|` and `&` of part
indices, so they have no loop: their only possible violation is a fault
in a table, reported unconfirmed (`runner._settle`).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from locale_lab.frames import FrameError, open_set_name
from locale_lab.lattice import SubLattice
from locale_lab.runner import _declare, _once, _settle
from locale_lab.sublocales import complement_c, entanglement, is_boolean_sublocale, is_dense, validate_nucleus


PART_LAWS: list = []


def _meets_distribute(L, parts):
    """The row form of R n (X u Y) = (R n X) u (R n Y) for every R in
    `parts` and every ordered pair X, Y of parts, one comparison per R."""
    x, y, u, _, ones = L.packed_pairs
    return all(r & u == (r & x) | (r & y) for r in map(ones.__mul__, parts))


@_declare(PART_LAWS, "nucleus-valid",
          "every enumerated sublocale map is inflationary, idempotent, and meet-preserving")
def _nucleus_valid(L):
    bad = []
    for sub in L.subs:
        try:
            validate_nucleus(L.frame, sub.nucleus)
        except FrameError as exc:
            bad.append({"error": str(exc)})
    return len(L.subs), bad


@_declare(PART_LAWS, "open-order", "U <= V iff [U] inside [V]")
def _open_order(L):
    fr = L.frame
    bad = []
    for u in range(fr.n):
        for v in range(fr.n):
            ou, ov = L.open_idx[u], L.open_idx[v]
            if fr.leq(u, v) != (ou & ov == ou):
                bad.append({"u": fr.name(u), "v": fr.name(v)})
    return fr.n ** 2, bad


@_declare(PART_LAWS, "open-meet", "[U n V] = [U] n [V]")
def _open_meet(L):
    fr = L.frame
    bad = []
    for u in range(fr.n):
        for v in range(fr.n):
            if L.open_idx[fr.meet(u, v)] != L.open_idx[u] & L.open_idx[v]:
                bad.append({"u": fr.name(u), "v": fr.name(v)})
    return fr.n ** 2, bad


@_declare(PART_LAWS, "open-join", "[U u V] = [U] u [V]")
def _open_join(L):
    fr = L.frame
    bad = []
    for u in range(fr.n):
        for v in range(fr.n):
            if L.open_idx[fr.join(u, v)] != L.open_idx[u] | L.open_idx[v]:
                bad.append({"u": fr.name(u), "v": fr.name(v)})
    return fr.n ** 2, bad


@_declare(PART_LAWS, "closed-duality",
          "c reverses order, c(U u V) = c(U) n c(V), c(U n V) = c(U) u c(V)")
def _closed_duality(L):
    fr, nm = L.frame, L.frame.name
    bad = []
    for u in range(fr.n):
        for v in range(fr.n):
            cu, cv = L.closed_idx[u], L.closed_idx[v]
            if fr.leq(v, u) != (cu & cv == cu):
                bad.append({"law": "order", "u": nm(u), "v": nm(v)})
            if L.closed_idx[fr.join(u, v)] != L.closed_idx[u] & L.closed_idx[v]:
                bad.append({"law": "meet", "u": nm(u), "v": nm(v)})
            if L.closed_idx[fr.meet(u, v)] != L.closed_idx[u] | L.closed_idx[v]:
                bad.append({"law": "join", "u": nm(u), "v": nm(v)})
    return 3 * fr.n ** 2, bad


@_declare(PART_LAWS, "open-closed-partition", "[V] u c(V) = E and [V] n c(V) = empty")
def _open_closed_partition(L):
    fr = L.frame
    bad = []
    for v in range(fr.n):
        if (L.open_idx[v] | L.closed_idx[v]) != L.whole_idx:
            bad.append({"v": fr.name(v), "side": "union"})
        if (L.open_idx[v] & L.closed_idx[v]) != L.empty_idx:
            bad.append({"v": fr.name(v), "side": "meet"})
    return 2 * fr.n, bad


# the four equivalences pairing a sublocale against an open/closed pair
@_declare(PART_LAWS, "complement-characterizations",
          "union with one of the pair is everything iff the other is contained")
def _complement_characterizations(L):
    fr, k = L.frame, len(L.subs)
    bad = []
    for v in range(fr.n):
        ov, cv = L.open_idx[v], L.closed_idx[v]
        for x in range(k):
            if (x | cv == L.whole_idx) != (ov & x == ov):
                bad.append({"v": fr.name(v), "x": L.label(x), "form": "X u c(V) = E iff [V] in X"})
            if (x & ov == L.empty_idx) != (x & cv == x):
                bad.append({"v": fr.name(v), "x": L.label(x), "form": "X n [V] = 0 iff X in c(V)"})
            if (x | ov == L.whole_idx) != (cv & x == cv):
                bad.append({"v": fr.name(v), "x": L.label(x), "form": "X u [V] = E iff c(V) in X"})
            if (x & cv == L.empty_idx) != (x & ov == x):
                bad.append({"v": fr.name(v), "x": L.label(x), "form": "X n c(V) = 0 iff X in [V]"})
    return 4 * fr.n * k, bad


# meets with opens and closeds have closed-form nuclei
@_declare(PART_LAWS, "meet-nucleus-form",
          "([V] n X) maps H to V => e_X(H); (c(V) n X) maps H to e_X(H u V)")
def _meet_nucleus_form(L):
    """Per v the row form reads the rows of [V] n X for every X, read off
    the meet column, against every row read through V's Heyting row, and
    the rows of c(V) n X against V's join row read through every row."""
    fr, k = L.frame, len(L.subs)
    nm = fr.name
    rows, meets = L.nucleus_rows, L.ordered_pairs[3]
    every, tables = b"".join(rows), L.nucleus_tables
    ok = all(
        b"".join(map(rows.__getitem__, meets[ov * k:ov * k + k])) == every.translate(hv)
        and b"".join(map(rows.__getitem__, meets[cv * k:cv * k + k])) == b"".join(map(jv.translate, tables))
        for ov, cv, hv, jv in zip(L.open_idx, L.closed_idx, L.heyting_rows, L.join_rows)
    )

    def scan():
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
        return bad

    return _settle(2 * fr.n * k * fr.n, ok, scan)


# opens and closeds distribute over finite unions of sublocales
@_declare(PART_LAWS, "side-distributivity",
          "L n (X u Y) = (L n X) u (L n Y) for L open or closed")
def _side_distributivity(L):
    return _settle(2 * L.frame.n * len(L.subs) ** 2, _meets_distribute(L, L.open_idx + L.closed_idx))


@_declare(PART_LAWS, "union-lub-intersect-glb",
          "union is the least upper bound and intersection the greatest lower bound")
def _union_lub_intersect_glb(L):
    """The row form checks the bounds of every pair at once, then per z
    every pair's union outside z against its parts outside z, and z outside
    the meet against z outside its parts: where the bounds hold, a byte
    differs for some z exactly when the union is not least or the meet not
    greatest."""
    k = len(L.subs)
    x, y, u, m, ones = L.packed_pairs
    cx, cy, cm = ~x, ~y, ~m
    ok = x & u == x and y & u == y and m & x == m and m & y == m and all(
        u & ~z == (x & ~z) | (y & ~z) and z & cm == (z & cx) | (z & cy)
        for z in map(ones.__mul__, range(k))
    )
    return _settle(2 * k * k * (1 + k), ok)


# finite unions distribute over meets (pairs and triples)
@_declare(PART_LAWS, "join-over-meet",
          "A u (B1 n B2 n ...) = (A u B1) n (A u B2) n ... over pairs and triples")
def _join_over_meet(L):
    k = len(L.subs)
    i2, j2, m2, ones2 = L.unordered_pairs
    i3, j3, h3, m3, ones3 = L.unordered_triples
    ok = all(r | m2 == (r | i2) & (r | j2) for r in (a * ones2 for a in range(k))) and all(
        r | m3 == (r | i3) & (r | j3) & (r | h3) for r in (a * ones3 for a in range(k))
    )
    return _settle(k * (comb(k, 2) + comb(k, 3)), ok)


@_declare(PART_LAWS, "closure-interior-extremal",
          "closure is the least closed part above, interior the largest open inside")
def _closure_interior_extremal(L):
    fr, k = L.frame, len(L.subs)
    bad = []
    for i in range(k):
        ci = L.closure_idx[i]
        if i & ci != i:
            bad.append({"x": L.label(i), "form": "closure not above"})
        if ci not in L.closed_parts:
            bad.append({"x": L.label(i), "form": "closure not closed"})
        if L.closure_idx[ci] != ci:
            bad.append({"x": L.label(i), "form": "closure not idempotent"})
        for d in L.closed_parts:
            if i & d == i and ci & d != ci:
                bad.append({"x": L.label(i), "form": "closure not least", "d": L.label(d)})
        u = L.int_el[i]
        if L.open_idx[u] & i != L.open_idx[u] or any(
            L.open_idx[v] & i == L.open_idx[v] and not fr.leq(v, u) for v in range(fr.n)
        ):
            bad.append({"x": L.label(i), "form": "interior not greatest open inside"})
    return k * (4 + len(L.closed_parts)), bad


@_declare(PART_LAWS, "exterior-partition",
          "the exterior, interior, and boundary of a part tile the space")
def _exterior_partition(L):
    fr, k = L.frame, len(L.subs)
    bad = []
    for i in range(k):
        ext_i, int_i = L.ext[i], L.int_el[i]
        bd = L.closure_idx[i] & L.closed_idx[int_i]
        if L.closure_idx[i] != L.closed_idx[ext_i]:
            bad.append({"x": L.label(i), "form": "closure is c(Ext X)"})
        if bd != L.closed_idx[fr.join(int_i, ext_i)]:
            bad.append({"x": L.label(i), "form": "boundary is c(Int X u Ext X)"})
        if (L.open_idx[int_i] | bd) != L.closure_idx[i]:
            bad.append({"x": L.label(i), "form": "[Int X] u boundary = closure"})
        if (L.open_idx[ext_i] | bd) != L.closed_idx[int_i]:
            bad.append({"x": L.label(i), "form": "[Ext X] u boundary = c(Int X)"})
        dense = L.dense[i]
        if dense != (L.closure_idx[i] == L.whole_idx) or dense != is_dense(L.subs[i]):
            bad.append({"x": L.label(i), "form": "dense iff closure is everything"})
    return 5 * k, bad


@_declare(PART_LAWS, "generic-nucleus",
          "the least dense part maps H to not not H = Int closure [H]")
def _generic_nucleus(L):
    fr = L.frame
    g = L.subs[L.generic_idx].nucleus
    bad = []
    for h in range(fr.n):
        if g[h] != fr.neg(fr.neg(h)):
            bad.append({"h": fr.name(h), "form": "double negation"})
        if g[h] != L.int_el[L.closure_idx[L.open_idx[h]]]:
            bad.append({"h": fr.name(h), "form": "interior of closure"})
    return 2 * fr.n, bad


@_declare(PART_LAWS, "generic-dense", "the generic part is dense")
def _generic_dense(L):
    return _once(L.dense[L.generic_idx])


@_declare(PART_LAWS, "generic-least-dense",
          "the generic part is contained in every dense part")
def _generic_least_dense(L):
    bad = []
    for i in range(len(L.subs)):
        if L.dense[i] and L.generic_idx & i != L.generic_idx:
            bad.append({"d": L.label(i)})
    return sum(L.dense), bad


@_declare(PART_LAWS, "boolean-generic-whole",
          "on a complemented frame the generic part is everything")
def _boolean_generic_whole(L):
    if not L.frame.boolean:
        return 0, []
    return _once(L.generic_idx == L.whole_idx)


@_declare(PART_LAWS, "generic-boolean-part",
          "the generic part equals the generic part of its closure")
def _generic_boolean_part(L):
    return _once(is_boolean_sublocale(L.subs[L.generic_idx]))


@_declare(PART_LAWS, "generic-closed-swap", "generic n c(V) = generic n [not V]")
def _generic_closed_swap(L):
    fr, gi = L.frame, L.generic_idx
    bad = []
    for v in range(fr.n):
        if gi & L.closed_idx[v] != gi & L.open_idx[fr.neg(v)]:
            bad.append({"v": fr.name(v)})
    return fr.n, bad


@_declare(PART_LAWS, "smallest-cocover",
          "the complement is the least part whose union with X is everything")
def _smallest_cocover(L):
    k = len(L.subs)
    bad = []
    for i in range(k):
        yi = complement_c(L.subs[i]).points
        if i | yi != L.whole_idx:
            bad.append({"x": L.label(i), "form": "not a cover"})
        for z in range(k):
            if i | z == L.whole_idx and yi & z != yi:
                bad.append({"x": L.label(i), "z": L.label(z), "form": "not least"})
    return k * (1 + k), bad


@_declare(PART_LAWS, "boolean-opens",
          "open parts of a complemented frame equal the generic part of their closure")
def _boolean_opens(L):
    fr = L.frame
    if not fr.boolean:
        return 0, []
    bad = []
    for v in range(fr.n):
        if not is_boolean_sublocale(L.subs[L.open_idx[v]]):
            bad.append({"v": fr.name(v)})
    return fr.n, bad


@_declare(PART_LAWS, "entanglement-zone",
          "closure(A n B) is the largest closed F with A n F and B n F dense in F")
def _entanglement_zone(L):
    """The closed parts a and b are both dense in are the bits of
    `dense_masks[a] & dense_masks[b]`. eps, a closure, is a closed part,
    so the zone is dense in itself iff its bit is set."""
    k, dense, inside = len(L.subs), L.dense_masks, L.closed_inside
    bad = []
    for a in range(k):
        for b in range(k):
            eps = L.closure_idx[a & b]
            if entanglement(L.subs[a], L.subs[b]).points != eps:
                bad.append({"a": L.label(a), "b": L.label(b), "form": "closure of the meet"})
            both = dense[a] & dense[b]
            if not both >> eps & 1:
                bad.append({"a": L.label(a), "b": L.label(b), "form": "zone not dense in itself"})
            wider = both & ~inside[eps]
            for g in L.closed_parts if wider else ():
                if wider >> g & 1:
                    bad.append({"a": L.label(a), "b": L.label(b), "g": L.label(g), "form": "not largest"})
    return k * k * (2 + len(L.closed_parts)), bad


# expected to find nothing: every finite lattice of sublocales is
# distributive, and the failure needs an infinite join
@_declare(PART_LAWS, "meet-over-union-search",
          "search for a finite failure of X n (Y u Z) = (X n Y) u (X n Z)")
def _meet_over_union_search(L):
    k = len(L.subs)
    return _settle(k ** 3, _meets_distribute(L, range(k)))


def _point_picture(fr):
    """A topology's frame of at most three points: its point subsets as
    masks, bit i for point_names[i], by size in `combinations` order, its
    opens as masks, aligned with its elements, and a mask's name; or None."""
    if fr.opens is None or len(fr.point_names) > 3:
        return None
    bit = {p: 1 << i for i, p in enumerate(fr.point_names)}
    subsets = [sum(map(bit.get, c)) for r in range(len(bit) + 1) for c in combinations(bit, r)]
    opens = [sum(map(bit.get, o)) for o in fr.opens]
    return subsets, opens, lambda m: open_set_name(p for p in bit if m & bit[p])


@_declare(PART_LAWS, "subspace-laws",
          "point subsets embed compatibly with union, open meets, exterior, and closure")
def _subspace_laws(L):
    fr = L.frame
    if not (picture := _point_picture(fr)):
        return 0, []
    (subsets, opens, name), idx_of = picture, L.subspace_idx
    pts, bad = len(subsets) - 1, []
    for xs in subsets:
        ix = idx_of[xs]
        ee = fr.join_all(v for v in range(fr.n) if not opens[v] & xs)
        closure_pts = pts & ~opens[ee]
        if L.ext[ix] != ee:
            bad.append({"X": name(xs), "form": "exterior matches the point picture"})
        if L.closure_idx[ix] != idx_of[closure_pts]:
            bad.append({"X": name(xs), "form": "closure matches the point picture"})
        ie = fr.join_all(v for v in range(fr.n) if not opens[v] & ~xs)
        if not fr.leq(ie, L.int_el[ix]):
            bad.append({"X": name(xs), "form": "point interior inside localic interior"})
        bd = L.closure_idx[ix] & L.closed_idx[L.int_el[ix]]
        point_bd = idx_of[closure_pts & ~opens[ie]]
        if bd & point_bd != bd:
            bad.append({"X": name(xs), "form": "boundary inside the point boundary"})
        for v in range(fr.n):
            if idx_of[opens[v] & xs] != L.open_idx[v] & ix:
                bad.append({"X": name(xs), "U": fr.name(v), "form": "[U n X] = [U] n [X]"})
        for ys in subsets:
            iy = idx_of[ys]
            if idx_of[xs | ys] != ix | iy:
                bad.append({"X": name(xs), "Y": name(ys), "form": "[X u Y] = [X] u [Y]"})
            both = idx_of[xs & ys]
            if both & ix & iy != both:
                bad.append({"X": name(xs), "Y": name(ys), "form": "[X n Y] inside [X] n [Y]"})
    s = len(subsets)
    return s * (4 + fr.n + 2 * s), bad


def _lossy_note(name: str, L: SubLattice):
    """A note on the first pair of point subsets whose meet is strictly
    below the meet of their parts, or None."""
    if not (picture := _point_picture(L.frame)):
        return None
    (subsets, _, subset_name), idx_of = picture, L.subspace_idx
    for xs in subsets:
        for ys in subsets:
            both, meet = idx_of[xs & ys], idx_of[xs] & idx_of[ys]
            if both != meet and both & meet == both:
                return (
                    f"point picture is lossy on {name}: [X n Y] is strictly "
                    f"below [X] n [Y] for X={subset_name(xs)}, Y={subset_name(ys)}"
                )
    return None

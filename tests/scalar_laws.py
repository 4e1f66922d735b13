"""The laws that locale_lab.laws checks with byte kernels, as scalar
loops: the reference the kernels are compared with.

Each function is the law's check as it was before its kernel: it takes
the same context (a `SubLattice`, or a map with its `pre`/`img` tables)
and returns (cases checked, failure witnesses) in the same order. The
right adjoint is given by its definition, the join of the V with
fstar(V) below u.
"""

from __future__ import annotations

import itertools
from math import comb

from locale_lab.morphisms import preimage, right_adjoint
from locale_lab.sublocales import closed_sublocale, open_sublocale


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


def adjunction(m):
    src, tgt, fstar = m.f.source, m.f.target, m.f.fstar
    adj = right_adjoint(m.f)
    bad = []
    for v in range(src.n):
        for u in range(tgt.n):
            if tgt.leq(fstar[v], u) != src.leq(v, adj[u]):
                bad.append({"v": src.name(v), "u": tgt.name(u)})
    return src.n * tgt.n, bad


def preimage_open_closed(m):
    f, EL = m.f, m.EL
    src = f.source
    bad = []
    for v in range(src.n):
        if preimage(f, open_sublocale(src, v)).points != EL.open_idx[f.fstar[v]]:
            bad.append({"v": src.name(v), "side": "open"})
        if preimage(f, closed_sublocale(src, v)).points != EL.closed_idx[f.fstar[v]]:
            bad.append({"v": src.name(v), "side": "closed"})
    return 2 * src.n, bad


def preimage_union_meet(m):
    FL, pre = m.FL, m.pre
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


def image_union(m):
    EL, img = m.EL, m.img
    ke = len(EL.subs)
    bad = []
    for i in range(ke):
        for j in range(ke):
            if img[i | j] != img[i] | img[j]:
                bad.append({"x": EL.label(i), "y": EL.label(j)})
    return ke * ke, bad


LATTICE_ORACLES = {"join-over-meet": join_over_meet, "meets-join-product": meets_join_product}
MAP_ORACLES = {
    "adjunction": adjunction,
    "preimage-open-closed": preimage_open_closed,
    "preimage-union-meet": preimage_union_meet,
    "image-union": image_union,
}


def right_adjoint_by_definition(f) -> tuple:
    """f_*(u): the join of every V with fstar(V) <= u."""
    src, tgt = f.source, f.target
    return tuple(
        src.join_all(v for v in range(src.n) if tgt.leq(f.fstar[v], u)) for u in range(tgt.n)
    )

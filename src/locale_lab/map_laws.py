"""The morphism suite's laws: those of each part lattice
(`LATTICE_LAWS`), of every map from one representative frame to another
(`MAP_LAWS`), and of composites of maps between the small
representatives (`COMPOSITION_LAWS`); and `_iso_reps`, which picks the
representatives.

The two lattice laws with byte kernels compare Boolean-algebra
identities of point masks, so, like the part laws' (`part_laws`), they
have no scalar loop: a mismatch can only be a table fault, reported
unconfirmed. A map law is a byte kernel over any `lattice._Maps` and a
scalar loop over one map; `_each_map` runs the kernel over the maps from
frame a to frame b in runs bounded in bytes. A run it fails is halved
down to the maps it fails on alone, and the scalar loop runs on those and
names the witnesses, each under its map's label `a->b#i`; it runs on
every map where a table value is not an index.
"""

from __future__ import annotations

import itertools
from math import comb

from locale_lab.frames import FrameError
from locale_lab.lattice import _gather, _table
from locale_lab.morphisms import (
    atoms,
    compose,
    enumerate_morphisms,
    factors_through,
    image,
    is_embedding,
    preimage,
    right_adjoint,
    sublocale_embedding,
    sum_frame,
    validate_morphism,
)
from locale_lab.part_laws import _meets_distribute
from locale_lab.runner import _UNCONFIRMED, _declare, _settle
from locale_lab.sublocales import is_subsublocale, union_all, whole


LATTICE_LAWS: list = []
MAP_LAWS: list = []
COMPOSITION_LAWS: list = []


def _each_map(maps, per_map, kernel, scan):
    """A map law's result, `per_map` cases per map, each witness of
    `scan(f)` paired with f's index. Where the tables are indices,
    `_settle` reads `kernel` on every run of the maps (`_Maps.runs`, the
    same runs for every law of the pair); each run it fails is halved
    down to the maps it fails on alone (`_failing`), and only those are
    scanned. A mismatch no such map's loop confirms is the pair's, index
    None. Elsewhere each map is scanned."""
    cases = per_map * len(maps.fs)
    if not maps.bytewise:
        return cases, [(mi, w) for mi, f in enumerate(maps.fs) for w in scan(f)]
    starts = itertools.accumulate((len(run.fs) for run in maps.runs), initial=0)
    failed = [(at, run) for at, run in zip(starts, maps.runs) if not kernel(run)]
    found = [mi for at, run in failed for mi in _failing(kernel, at, run)]
    return _settle(cases, not failed, lambda: [(mi, w) for mi in found for w in scan(maps.fs[mi])],
                   (None, _UNCONFIRMED))


def _failing(kernel, at: int, run) -> list:
    """The indices of the maps `kernel` fails on alone, in a run of maps it
    fails on whose first is map `at`: the run is halved, sliced as
    `_Maps.runs` slices, and each half it fails is searched in turn
    (adaptive group testing, as every kernel is a conjunction over the
    maps it reads)."""
    n = len(run.fs)
    if n == 1:
        return [at]
    found = []
    for lo, hi in ((0, n // 2), (n // 2, n)):
        half = run._slice(lo, hi)
        if not kernel(half):
            found += _failing(kernel, at + lo, half)
    return found


@_declare(LATTICE_LAWS, "layer-decomposition", "every part is the meet over V of [V] u c(e(V))")
def _layer_decomposition(L):
    bad = []
    for i, sub in enumerate(L.subs):
        layers = [L.open_idx[v] | L.closed_idx[ev] for v, ev in enumerate(sub.nucleus)]
        if L.meet_fold(layers) != i:
            bad.append({"x": L.label(i)})
    return len(L.subs), bad


@_declare(LATTICE_LAWS, "boolean-combination-distributivity",
          "H n (A u B) = (H n A) u (H n B) for H a boolean combination of opens")
def _boolean_combination_distributivity(L):
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
    combos = {L.empty_idx}  # the unions of sets of cells
    for c in cell_idx:
        combos |= {h | c for h in combos}
    combos = sorted(combos)
    cases, spread = _settle(len(combos) * k * k, _meets_distribute(L, combos))
    return (1 + comb(cells, 2) if cells else 0) + cases, bad + spread


@_declare(LATTICE_LAWS, "meets-join-product",
          "(meet of As) u (meet of Bs) = meet over pairs of (Ai u Bj)")
def _meets_join_product(L):
    """The b-pairs are packed once; each a-pair checks all of them at once."""
    pairs = list(itertools.combinations(range(len(L.subs)), 2))
    b1, b2, bm, ones = L.unordered_pairs
    spread = [x * ones for x in range(len(L.subs))]
    ok = all(
        spread[a1 & a2] | bm
        == (spread[a1] | b1) & (spread[a1] | b2) & (spread[a2] | b1) & (spread[a2] | b2)
        for a1, a2 in pairs
    )
    return _settle(len(pairs) ** 2, ok)


@_declare(MAP_LAWS, "adjunction", "fstar(V) <= U iff V <= fstar-adjoint(U)")
def _adjunction(maps):
    """The pair kernel reads, for each v, map and u in turn, the up-set of
    fstar(v) at u and the up-set of v at the adjoint of u."""
    src, tgt = maps.FL.frame, maps.EL.frame

    def kernel(maps):
        rows = [up[: tgt.n] for up in maps.EL.up_rows]
        by_v = bytes(itertools.chain.from_iterable(zip(*maps.fstar)))
        adjoints = b"".join(maps.adjoint)
        return b"".join(map(rows.__getitem__, by_v)) == b"".join(
            [adjoints.translate(up) for up in maps.FL.up_rows]
        )

    def scan(f):
        fstar, adj = f.fstar, right_adjoint(f)
        return [{"v": src.name(v), "u": tgt.name(u)} for v in range(src.n) for u in range(tgt.n)
                if tgt.leq(fstar[v], u) != src.leq(v, adj[u])]

    return _each_map(maps, src.n * tgt.n, kernel, scan)


@_declare(MAP_LAWS, "embedding-three-ways",
          "surjectivity of fstar, injectivity of the adjoint, and the section law agree")
def _embedding_three_ways(maps):
    """The pair kernel reads each flag as a byte per map: `is_embedding`,
    the adjoint's values counted, and the adjoint read through fstar."""
    n = maps.EL.frame.n

    def kernel(maps):
        return (
            bytes(map(is_embedding, maps.fs))
            == bytes(map(n.__eq__, map(len, map(set, maps.adjoint))))
            == bytes(map(bytes(range(n)).__eq__, map(bytes.translate, maps.adjoint, map(_table, maps.fstar))))
        )

    def scan(f):
        adj = right_adjoint(f)
        flags = {
            "surjective": is_embedding(f),
            "adjoint injective": len(set(adj)) == n,
            "section": all(f.fstar[adj[u]] == u for u in range(n)),
        }
        return [] if len(set(flags.values())) == 1 else [{k: str(v) for k, v in flags.items()}]

    return _each_map(maps, 1, kernel, scan)


@_declare(MAP_LAWS, "preimage-open-closed",
          "pullback of [V] is [fstar V]; pullback of c(V) is c(fstar V)")
def _preimage_open_closed(maps):
    """The pair kernel reads each map's pullback of the open and the closed
    part of every v against the parts of fstar(v), read off fstar."""
    FL, EL = maps.FL, maps.EL
    src = FL.frame
    sides = (("open", FL.open_idx, EL.open_idx), ("closed", FL.closed_idx, EL.closed_idx))

    def kernel(maps):
        fstar = b"".join(maps.fstar)
        return all(
            b"".join(map(bytes(parts).translate, maps.pulls)) == fstar.translate(images)
            for (_, parts, _), images in zip(sides, EL.side_tables)
        )

    def scan(f):
        return [{"v": src.name(v), "side": side} for v in range(src.n) for side, parts, images in sides
                if f.pulls[parts[v]] != images[f.fstar[v]]]

    return _each_map(maps, 2 * src.n, kernel, scan)


@_declare(MAP_LAWS, "preimage-union-meet",
          "pullback commutes with binary unions and meets of parts")
def _preimage_union_meet(maps):
    FL, ks = maps.FL, range(len(maps.FL.subs))

    def kernel(maps):
        a, b, union, meet = _gather(FL.ordered_pairs, maps.pulls)
        return union == a | b and meet == a & b

    def scan(f):
        pre, bad = f.pulls, []
        for i, j in itertools.product(ks, ks):
            if pre[i | j] != pre[i] | pre[j]:
                bad.append({"a": FL.label(i), "b": FL.label(j), "side": "union"})
            if pre[i & j] != pre[i] & pre[j]:
                bad.append({"a": FL.label(i), "b": FL.label(j), "side": "meet"})
        return bad

    return _each_map(maps, 2 * len(ks) ** 2, kernel, scan)


@_declare(MAP_LAWS, "image-union", "the image of a union is the union of the images")
def _image_union(maps):
    EL, ks = maps.EL, range(len(maps.EL.subs))

    def kernel(maps):
        a, b, union = _gather(EL.ordered_pairs[:3], maps.pushes)
        return union == a | b

    def scan(f):
        img = f.pushes
        return [{"x": EL.label(i), "y": EL.label(j)} for i, j in itertools.product(ks, ks)
                if img[i | j] != img[i] | img[j]]

    return _each_map(maps, len(ks) ** 2, kernel, scan)


@_declare(MAP_LAWS, "image-preimage-galois",
          "image(pullback(Y)) inside Y and X inside pullback(image(X))")
def _image_preimage_galois(maps):
    """The pair kernel reads each map's pullback table through its image
    table, and its image table through its pullback table."""
    FL, EL = maps.FL, maps.EL
    ys, xs = range(len(FL.subs)), range(len(EL.subs))

    def kernel(maps):
        (there,) = _gather([bytes(ys)], map(bytes.translate, maps.pulls, maps.pushes))
        (back,) = _gather([bytes(xs)], map(bytes.translate, maps.pushes, maps.pulls))
        y, x = (int.from_bytes(bytes(ids) * len(maps.fs), "big") for ids in (ys, xs))
        return there & y == there and x & back == x

    def scan(f):
        pre, img = f.pulls, f.pushes
        bad = [{"y": FL.label(i), "side": "image of pullback"} for i in ys if img[pre[i]] & i != img[pre[i]]]
        return bad + [{"x": EL.label(j), "side": "pullback of image"} for j in xs if j & pre[img[j]] != j]

    return _each_map(maps, len(ys) + len(xs), kernel, scan)


@_declare(COMPOSITION_LAWS, "composition",
          "images and pullbacks compose along composite maps")
def _composition(ctx):
    small, lats, maps = ctx
    checked, bad = 0, []
    for (an, a), (bn, b), (cn, c) in itertools.product(small, repeat=3):
        AL, CL, path = lats[an], lats[cn], f"{an}->{bn}->{cn}"
        for f in maps[an, bn]:
            for g in maps[bn, cn]:
                h = compose(g, f)
                checked += len(CL.subs) + len(AL.subs)
                for x in CL.subs:
                    if image(h, x) != image(f, image(g, x)):
                        bad.append({"path": path, "x": CL.label(x.points)})
                for y in AL.subs:
                    if preimage(h, y) != preimage(g, preimage(f, y)):
                        bad.append({"path": path, "y": AL.label(y.points)})
    return checked, bad


@_declare(COMPOSITION_LAWS, "embedding-factorization",
          "f factors through the embedding of X iff its image lies in X, as g after the embedding")
def _embedding_factorization(ctx):
    """One case per map f: a -> b and part X of a. The embedding of each
    part has that part as its image."""
    small, lats, maps = ctx
    checked, bad = 0, []
    for an, a in small:
        for x in lats[an].subs:
            i, omega, _ = sublocale_embedding(x)
            label = f"{an}/{lats[an].label(x.points)}"
            if image(i, whole(omega)) != x:
                bad.append({"x": label, "form": "image of the embedding"})
            for bn, b in small:
                for mi, f in enumerate(maps[an, bn]):
                    checked += 1
                    where = {"x": label, "f": f"{an}->{bn}#{mi}"}
                    inside = is_subsublocale(image(f, whole(b)), x)
                    try:
                        ok, g = factors_through(f, i)
                    except FrameError as exc:
                        bad.append({**where, "error": str(exc)})
                        continue
                    if ok != inside or (ok and compose(g, i).fstar != f.fstar):
                        bad.append({**where, "factors": str(ok), "image inside": str(inside)})
    return checked, bad


@_declare(COMPOSITION_LAWS, "sum-injections",
          "the injections of a + b are frame maps, v -> (p*(v), q*(v)) is a bijection "
          "onto a x b, and the order is componentwise")
def _sum_injections(ctx):
    """One case per ordered pair of elements of each sum."""
    small = ctx[0]
    checked, bad = 0, []
    for (an, a), (bn, b) in itertools.product(small, repeat=2):
        path = f"{an}+{bn}"
        try:
            s, (p, q) = sum_frame([a, b])
        except FrameError as exc:
            bad.append({"sum": path, "error": str(exc)})
            continue
        for k, (side, inj) in enumerate((("p", p), ("q", q))):
            try:
                validate_morphism(s, inj.target, inj.fstar)
            except FrameError as exc:
                bad.append({"sum": path, "injection": side, "error": str(exc)})
            # fstar is derived from the point map, so compare it with the
            # projection read off the pair names as well
            if inj.fstar != tuple(inj.target.index[name[k]] for name in s.elements):
                bad.append({"sum": path, "injection": side, "form": "not the projection"})
        pairs = list(zip(p.fstar, q.fstar))
        if not len(set(pairs)) == s.n == a.n * b.n:
            bad.append({"sum": path, "form": "not a bijection"})
        checked += s.n * s.n
        for v, (pv, qv) in enumerate(pairs):
            for w, (pw, qw) in enumerate(pairs):
                if s.leq(v, w) != (a.leq(pv, pw) and b.leq(qv, qw)):
                    bad.append({"sum": path, "v": str(s.name(v)), "w": str(s.name(w))})
    return checked, bad


# ---------------------------------------------------------------------------
# frame isomorphism (to avoid re-running identical suites on relabeled
# copies; the corpus keeps the copies so loading stays honest)
# ---------------------------------------------------------------------------

def _iso_reps(named_frames):
    """One frame per isomorphism class, in order, and the number of copies
    skipped: a frame is a copy when a map to an earlier representative
    with as many elements has a bijective point map q -> f_*(q). Then
    fstar, each up-set of points to its preimage, is one to one, so onto:
    the up-set above q is a preimage, so f_*(q) <= f_*(q') gives q <= q'."""
    reps = []
    skipped = 0
    for name, fr in named_frames:
        if any(
            rf.n == fr.n
            and any(len(set(m._points)) == len(fr.primes) for m in enumerate_morphisms(fr, rf))
            for _, rf in reps
        ):
            skipped += 1
            continue
        reps.append((name, fr))
    return reps, skipped

"""The reference corpus: every topology on up to three points, small
chains and boolean lattices, and two non-frames that must be refused.

The JSON files under corpus/ are generated by this module and checked
into the repository. A test regenerates them into a scratch directory
and compares bytes, so hand edits or drift show up as failures. Run
`python3 -m locale_lab.corpus [dir]` to rebuild.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from pathlib import Path

from locale_lab.frames import (
    FrameSpec,
    TopologySpec,
    build_frame,
    frame_spec_from_json,
    open_set_name,
    spec_from_json,
)

POINT_NAMES = ("p", "q", "r")

ENV_VAR = "LOCALE_LAB_CORPUS"


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def point_names(k: int) -> tuple:
    """k distinct point names: p, q, r, then p3, p4, ... as needed."""
    return POINT_NAMES[:k] + tuple(f"p{i}" for i in range(3, k))


def all_topologies(k: int) -> list:
    """Every topology on k named points, in a canonical order."""
    pts = list(point_names(k))
    full = frozenset(pts)
    middles = [
        frozenset(s)
        for r in range(1, k)
        for s in itertools.combinations(pts, r)
    ]
    fams = []
    for r in range(len(middles) + 1):
        for picks in itertools.combinations(middles, r):
            fam = {frozenset(), full} | set(picks)
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                fams.append(fam)
    canon = lambda o: (len(o), tuple(sorted(o)))
    fams.sort(key=lambda fam: (len(fam), sorted(map(canon, fam))))
    return [
        TopologySpec.make(pts, sorted(fam, key=canon))
        for fam in fams
    ]


def chain_spec(n: int) -> FrameSpec:
    if n < 1:
        raise ValueError(f"a chain has at least one element, not n = {n}")
    if n == 3:
        names = ["0", "u", "1"]
    elif n == 1:
        names = ["0"]
    else:
        names = ["0"] + [f"c{i}" for i in range(1, n - 1)] + ["1"]
    return FrameSpec.make(
        names, [(names[i], names[i + 1]) for i in range(n - 1)]
    )


def boolean_spec(k: int) -> FrameSpec:
    """The powerset of k points as a pure lattice, subset-labeled."""
    pts = point_names(k)
    subsets = [
        frozenset(s)
        for r in range(k + 1)
        for s in itertools.combinations(pts, r)
    ]
    subsets.sort(key=lambda o: (len(o), tuple(sorted(o))))
    leq = [(open_set_name(a), open_set_name(b)) for a in subsets for b in subsets if a <= b]
    return FrameSpec.make([open_set_name(o) for o in subsets], leq)


M3_SPEC = FrameSpec.make(
    ["0", "x", "y", "z", "1"],
    [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
)

N5_SPEC = FrameSpec.make(
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("0", "c"), ("a", "b"), ("b", "1"), ("c", "1")],
)


def _topology_json(spec: TopologySpec) -> dict:
    return {
        "points": list(spec.points),
        "opens": [sorted(o) for o in spec.opens],
    }


def _frame_json(spec: FrameSpec) -> dict:
    return {
        "elements": list(spec.elements),
        "leq": [[a, b] for a, b in spec.leq],
    }


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def generate(root) -> list:
    """Write the whole corpus under root; returns the relative paths."""
    root = Path(root)
    written = []
    tdir = root / "topologies"
    fdir = root / "frames"
    ndir = root / "negative"
    for d in (tdir, fdir, ndir):
        d.mkdir(parents=True, exist_ok=True)
    for k in range(4):
        for i, spec in enumerate(all_topologies(k)):
            p = tdir / f"top-{k}pt-{i:02d}.json"
            _dump(p, _topology_json(spec))
            written.append(p.relative_to(root))
    for n in range(1, 7):
        p = fdir / f"chain{n}.json"
        _dump(p, _frame_json(chain_spec(n)))
        written.append(p.relative_to(root))
    for k in range(1, 4):
        p = fdir / f"bool{k}.json"
        _dump(p, _frame_json(boolean_spec(k)))
        written.append(p.relative_to(root))
    for stem, spec in [("m3", M3_SPEC), ("n5", N5_SPEC)]:
        p = ndir / f"{stem}.json"
        _dump(p, _frame_json(spec))
        written.append(p.relative_to(root))
    return sorted(written)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def corpus_root(explicit=None) -> Path:
    """The corpus directory: explicit argument, then $LOCALE_LAB_CORPUS,
    then the checked-in corpus/ next to the package."""
    if explicit is not None:
        p = Path(explicit)
        if not (p / "topologies").is_dir():
            raise FileNotFoundError(f"{p} has no topologies/ inside")
        return p
    env = os.environ.get(ENV_VAR)
    if env:
        p = Path(env)
        if not (p / "topologies").is_dir():
            raise FileNotFoundError(f"{ENV_VAR}={env} has no topologies/ inside")
        return p
    here = Path(__file__).resolve()
    for base in [Path.cwd(), *here.parents]:
        cand = base / "corpus"
        if (cand / "topologies").is_dir():
            return cand
    raise FileNotFoundError(
        f"no corpus directory found; set {ENV_VAR} or run locale_lab.corpus"
    )


class CorpusError(ValueError):
    """A corpus file that cannot be read, parsed or built; names the file."""


def load(path: Path, build=lambda obj: build_frame(spec_from_json(obj))):
    """What build makes of the JSON in a corpus file: by default its frame."""
    try:
        return build(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, RecursionError) as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def iter_corpus_frames(root=None) -> list:
    """All positive corpus entries as (name, Frame), topology-backed ones
    first, in filename order."""
    return [(p.stem, load(p)) for p in corpus_files(root)]


def corpus_files(root=None) -> list:
    """The positive corpus files: topologies, then frames, in filename order.
    A corpus with none is refused: every suite would pass it with no case."""
    root = corpus_root(root)
    files = sorted((root / "topologies").glob("*.json")) + sorted(
        (root / "frames").glob("*.json")
    )
    if not files:
        raise FileNotFoundError(f"{root} has no corpus file in topologies/ or frames/")
    return files


def iter_negative_specs(root=None) -> list:
    root = corpus_root(root)
    return [
        (p.stem, load(p, frame_spec_from_json))
        for p in sorted((root / "negative").glob("*.json"))
    ]


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("corpus")
    paths = generate(target)
    print(f"wrote {len(paths)} files under {target}")

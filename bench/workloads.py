"""The three workloads of the locale-lab benchmark.

Each workload builds a fixed list of operations from the program's public
entry points (`setup`), and each operation is judged against a value the
benchmark knows independently of the code under test. A wrong or missing
result fails the operation; it never stops the pass.

laws-corpus     the four law suites over the bundled corpus, one
                `locale-lab laws <suite> --format json` call each. Seed
                independent: the corpus is fixed and the measure suite
                seeds its own random generator.
measure-ladder  `locale-lab measure` over shape x descriptor x tolerance
                (1e-3 ... 1e-12), plus the strict-additivity and
                null-partner certificates for rationals/irrationals. The
                seed draws the opens U inside union(rationals; U) etc.
parts-scale     part lattices and map sweeps on frames above the corpus
                size cap: chains 7-9 and the 16-element Boolean frame of
                the 4-point discrete topology. The seed draws the sampled
                maps and part pairs.

Phases (reported as phase1_s, phase2_s, phase3_s):

    workload         phase1            phase2             phase3
    laws-corpus      sublocale suite   morphism suite     measure suite
    measure-ladder   queries at        queries at         additivity and
                     1e-3 and 1e-6     1e-9 and 1e-12     null-partner
    parts-scale      enumeration and   map enumeration    image/preimage
                     lattice tables                       sweeps and laws,
                                                          per sampled map

The frame suite (0.02 s) is in wall_s only; it is too short to time alone.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from tracer import MODULES


class SetupError(RuntimeError):
    pass


def load_program(src: Path) -> dict:
    """Import locale_lab afresh from `src`; returns {short name: module}.

    Dropping the cached modules first gives every pass the cold state a
    `locale-lab` command starts from (for example the Stern-Brocot prefix
    cache of the measure suite), and lets set-up be timed more than once.
    """
    for name in [n for n in sys.modules if n == "locale_lab" or n.startswith("locale_lab.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"locale_lab.{m}") for m in MODULES}
    where = Path(mods["frames"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"locale_lab was imported from {where}, not from {src}")
    return mods


@dataclass
class Op:
    """One timed operation. `run` does the work; `judge` turns its result
    into (ok, digest), where the digest is a timing-free summary used to
    compare a traced pass with an untraced one."""

    name: str
    phase: str | None
    run: Callable[[], object]
    judge: Callable[[object], tuple]


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# laws-corpus
# ---------------------------------------------------------------------------

# Case counts of the four suites at the seed commit. A suite that checks
# fewer cases fails, so a speed-up cannot come from checking less.
CASE_FLOORS = {"frame": 10136, "sublocale": 442257, "morphism": 2199394, "measure": 19478}
LAWS_PHASES = {"frame": None, "sublocale": "phase1", "morphism": "phase2", "measure": "phase3"}


def laws_corpus(mods, seed, root: Path, floors=CASE_FLOORS):
    corpus_dir = root / "corpus"
    frames = mods["corpus"].iter_corpus_frames(corpus_dir)
    if len(frames) < 44:
        raise SetupError(f"corpus at {corpus_dir} has {len(frames)} frames, expected 44")
    cli = mods["cli"]

    def op(suite):
        argv = ["laws", suite, "--format", "json", "--corpus", str(corpus_dir)]

        def judge(res):
            rc, out, err = res
            try:
                rep = json.loads(out)
            except json.JSONDecodeError:
                return False, f"{suite}: rc={rc} unparsable output {err.strip()[:200]!r}"
            cases, bad = rep.get("cases", -1), len(rep.get("violations", [None]))
            ok = rc == 0 and rep.get("suite") == suite and bad == 0 and cases >= floors[suite]
            return ok, f"{suite}: rc={rc} cases={cases} violations={bad}"

        return Op(f"laws {suite}", LAWS_PHASES[suite], lambda: call_cli(cli, argv), judge)

    return [op(s) for s in CASE_FLOORS]


# ---------------------------------------------------------------------------
# measure-ladder
# ---------------------------------------------------------------------------

TOLS = {3: "1/1000", 6: "1/1000000", 9: "1/1000000000", 12: "1/1000000000000"}
ATOMS = ((Fraction(1, 3), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4)))
MIX_ATOM = ATOMS[0]
HALF = Fraction(1, 2)


def random_open(rng: random.Random):
    """Two disjoint open intervals with endpoints k/den, den in {8, 12,
    16}: the piece count is fixed so that a query's cost barely depends on
    the seed."""
    den = rng.choice((8, 12, 16))
    cuts = sorted(rng.sample(range(den + 1), 4))
    return [(Fraction(cuts[0], den), Fraction(cuts[1], den)), (Fraction(cuts[2], den), Fraction(cuts[3], den))]


def open_text(u) -> str:
    return "|".join(f"({lo},{hi})" for lo, hi in u)


def length(u, cap=Fraction(1)) -> Fraction:
    """Length of the open u inside [0, cap]."""
    return sum((max(Fraction(0), min(hi, cap) - lo) for lo, hi in u), Fraction(0))


def inside(u, q) -> bool:
    return any(lo < q < hi for lo, hi in u)


def parse_bounds(text: str):
    """Read 'mu in [a, b]' or 'mu = a (exact)' as a pair of Fractions."""
    line = text.strip()
    if line.startswith("mu = ") and line.endswith(" (exact)"):
        v = Fraction(line[len("mu = "):-len(" (exact)")])
        return v, v
    if line.startswith("mu in [") and line.endswith("]"):
        lo, hi = line[len("mu in ["):-1].split(",")
        return Fraction(lo), Fraction(hi)
    raise ValueError(f"unrecognised measure output {line!r}")


def ladder_queries(rng: random.Random):
    """(descriptor, part, exact value) for one rung of the ladder.

    Exact values come from the shapes alone: the rationals are Lebesgue
    null and carry every atom (atoms sit at rationals); the irrationals
    carry all of Lebesgue and no atom; the generic part is null for both;
    an open U measures its length plus the atoms inside it.
    """
    u1, u2 = random_open(rng), random_open(rng)
    atoms_text = "atoms " + ",".join(f"{q}:{w}" for q, w in ATOMS)
    mix_text = f"mix lebesgue + atoms {MIX_ATOM[0]}:{MIX_ATOM[1]}"
    all_atoms = sum(w for _, w in ATOMS)
    atoms_in = lambda u: sum((w for q, w in ATOMS if inside(u, q)), Fraction(0))
    mix_in = lambda u: MIX_ATOM[1] if inside(u, MIX_ATOM[0]) else Fraction(0)
    rat_u1 = f"union(rationals; {open_text(u1)})"
    gen_u2 = f"union(generic; {open_text(u2)})"
    return [
        # streamed: certified by the neighbourhood stream
        ("lebesgue", "rationals", Fraction(0)),
        ("lebesgue", "irrationals", Fraction(1)),
        ("lebesgue", "generic", Fraction(0)),
        ("lebesgue", rat_u1, length(u1)),
        ("lebesgue", gen_u2, length(u2)),
        (mix_text, "rationals", MIX_ATOM[1]),
        ("restrict [0,1/2]", "irrationals", HALF),
        # exact or atomic: short queries, dominated by parsing. They are
        # most of the grid, so the median query is one of them.
        (atoms_text, "rationals", all_atoms),
        (atoms_text, "irrationals", Fraction(0)),
        (atoms_text, "generic", Fraction(0)),
        (atoms_text, rat_u1, all_atoms),
        (atoms_text, gen_u2, atoms_in(u2)),
        ("atoms 1/2:1", "rationals", Fraction(1)),
        ("atoms 1/2:1", "irrationals", Fraction(0)),
        ("atoms 1/2:1", "generic", Fraction(0)),
        ("lebesgue", open_text(u1), length(u1)),
        ("lebesgue", open_text(u2), length(u2)),
        ("lebesgue", f"closed {open_text(u1)}", 1 - length(u1)),
        ("lebesgue", f"closed {open_text(u2)}", 1 - length(u2)),
        ("restrict [0,1/2]", open_text(u1), length(u1, HALF)),
        ("restrict [0,1/2]", f"closed {open_text(u2)}", HALF - length(u2, HALF)),
        (mix_text, open_text(u2), length(u2) + mix_in(u2)),
        (mix_text, f"closed {open_text(u1)}", 1 - length(u1) + MIX_ATOM[1] - mix_in(u1)),
    ]


def measure_ladder(mods, seed, root: Path, tols=TOLS):
    cli, measure, presented = mods["cli"], mods["measure"], mods["presented"]
    rng = random.Random(seed)
    queries = ladder_queries(rng)
    rats = presented.CountablePoints(presented.RATIONALS)
    irr = presented.CoCountable(presented.RATIONALS)
    lebesgue = measure.Lebesgue()
    ops = []

    def query(desc, part, exact, k, tol_text):
        tol = Fraction(tol_text)
        argv = ["measure", desc, part, "--tol", tol_text]

        def judge(res):
            rc, out, err = res
            if rc != 0:
                return False, f"{desc} | {part} | {tol_text}: rc={rc} {err.strip()[:200]}"
            lo, hi = parse_bounds(out)
            ok = lo <= exact <= hi and hi - lo <= tol
            return ok, f"{desc} | {part} | {tol_text}: [{lo}, {hi}]"

        phase = "phase1" if k <= 6 else "phase2"
        return Op(f"measure {desc} | {part} | tol {tol_text}", phase, lambda: call_cli(cli, argv), judge)

    def additivity(tol):
        def judge(res):
            return res.lo <= 0 <= res.hi, f"additivity {tol}: [{res.lo}, {res.hi}]"

        return Op(
            f"strict_additivity_interval rationals irrationals tol {tol}",
            "phase3",
            lambda: measure.strict_additivity_interval(rats, irr, lebesgue, tol),
            judge,
        )

    def partner(tol):
        def judge(res):
            b, certs = res
            ok = (
                isinstance(b, presented.CoCountable)
                and certs["union"].contains(1)
                and certs["intersection"].contains(0)
                and certs["partner"].contains(1)
                and certs["partner"].width <= tol
            )
            digest = " ".join(f"{k}=[{v.lower}, {v.upper}]" for k, v in sorted(certs.items()))
            return ok, f"null partner {tol}: {type(b).__name__} {digest}"

        return Op(
            f"null_partner_interval rationals tol {tol}",
            "phase3",
            lambda: measure.null_partner_interval(rats, lebesgue, tol),
            judge,
        )

    for k, tol_text in tols.items():
        for desc, part, exact in queries:
            ops.append(query(desc, part, exact, k, tol_text))
        ops.append(additivity(Fraction(tol_text)))
        ops.append(partner(Fraction(tol_text)))
    return ops


def gap_probes(seed):
    """Queries that fail to certify at the seed commit, with exact values.

    They run once, outside the timed passes, so a later change that fixes
    one is not charged for the newly certified work. Returns a list of
    (argv, exact) pairs.
    """
    rng = random.Random(seed)
    a, w = MIX_ATOM
    u_in = [(a - Fraction(1, 12), a + Fraction(1, 12))]
    u_out = [(a + Fraction(1, 6), a + Fraction(1, 6) + Fraction(rng.randrange(1, 4), 12))]
    mix_text = f"mix lebesgue + atoms {a}:{w}"
    return [
        (["measure", "lebesgue", "meet-open(irrationals; (0,1/2))"], HALF),
        # union lower bounds take the largest part bound, so the atom on
        # the rationals and the length of U are never added up
        (["measure", mix_text, f"union(rationals; {open_text(u_out)})"], w + length(u_out)),
        (["measure", mix_text, f"meet-open(rationals; {open_text(u_in)})"], w),
        (["measure", "lebesgue", "rationals", "--tol", "1/1000000000000000"], Fraction(0)),
    ]


def run_probes(mods, seed):
    """(known gaps, wrong answers): a probe that now certifies must be right."""
    cli = mods["cli"]
    gaps = wrong = 0
    for argv, exact in gap_probes(seed):
        tol = Fraction(argv[argv.index("--tol") + 1]) if "--tol" in argv else Fraction(1, 1000)
        rc, out, _ = call_cli(cli, argv)
        if rc != 0:
            gaps += 1
            continue
        lo, hi = parse_bounds(out)
        if not (lo <= exact <= hi and hi - lo <= tol):
            wrong += 1
    return gaps, wrong


# ---------------------------------------------------------------------------
# parts-scale
# ---------------------------------------------------------------------------

def boolean16(frames):
    """The frame of the discrete topology on 4 points: all 16 subsets."""
    pts = ["p", "q", "r", "s"]
    opens = [frozenset(c) for r in range(5) for c in itertools.combinations(pts, r)]
    return frames.Frame.from_topology(frames.TopologySpec.make(pts, opens))


def parts_scale(mods, seed, root: Path, chains=(7, 8, 9), map_chain=8, samples=16, per_map=6):
    """Part lattices of chains and Boolean 2^4, map enumeration, then
    per-map sweeps.

    The image/preimage sweep and the law checks of one sampled map are one
    operation of about 60 ms on either frame, so the operation latencies
    have a dense middle for the median to fall in.
    """
    frames, corpus = mods["frames"], mods["corpus"]
    subl, morph = mods["sublocales"], mods["morphisms"]
    rng = random.Random(seed)
    lattice = {f"chain{n}": frames.build_frame(corpus.chain_spec(n)) for n in chains}
    lattice["bool16"] = boolean16(frames)
    # 2^(n-1) parts for an n-chain; Boolean 2^4 has 16, all of them open
    expect_parts = {f"chain{n}": 2 ** (n - 1) for n in chains}
    expect_parts["bool16"] = 16
    # Frame maps chain_n -> chain_n fix 0 and 1 and send the n-2 middle
    # elements monotonically anywhere: C(2n-3, n-2). Maps Boolean 2^4 ->
    # 2^4 are the maps of 4 points into 4 points: 4^4.
    chain_maps = lambda n: comb(2 * n - 3, n - 2)
    expect_maps = {f"chain{map_chain}": chain_maps(map_chain), "bool16": 4 ** 4}
    # Samples are indices into the deterministic enumeration orders, drawn
    # here so that every pass replays the same maps and part triples.
    picks = {
        name: [
            (m, [tuple(rng.randrange(expect_parts[name]) for _ in range(3)) for _ in range(per_map)])
            for m in rng.sample(range(count), min(samples, count))
        ]
        for name, count in expect_maps.items()
    }
    state = {}
    ops = []

    def enumerate_op(name, fr):
        def run():
            subs = subl.enumerate_sublocales(fr, max_size=fr.n)
            state[name] = {"subs": subs, "index": {s.nucleus: i for i, s in enumerate(subs)}}
            return subs

        def judge(subs):
            ok = len(subs) == expect_parts[name]
            if name == "bool16":
                opens = {subl.open_sublocale(fr, v).nucleus for v in range(fr.n)}
                ok = ok and fr.n == 16 and {s.nucleus for s in subs} == opens
            return ok, f"{name}: {fr.n} elements, {len(subs)} parts"

        return Op(f"enumerate_sublocales {name}", "phase1", run, judge)

    def lattice_op(name):
        def run():
            subs, index = state[name]["subs"], state[name]["index"]
            k = len(subs)
            union_t = [[0] * k for _ in range(k)]
            meet_t = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    # KeyError: the union or meet left the enumerated set
                    union_t[i][j] = union_t[j][i] = index[subl.union(subs[i], subs[j]).nucleus]
                    meet_t[i][j] = meet_t[j][i] = index[subl.intersect(subs[i], subs[j]).nucleus]
            le = [[subl.is_subsublocale(a, b) for b in subs] for a in subs]
            return union_t, meet_t, le

        def judge(res):
            union_t, meet_t, le = res
            k = len(le)
            # the order the tables induce must be the inclusion order
            ok = all(
                (union_t[i][j] == j) == le[i][j] == (meet_t[i][j] == i)
                for i in range(k)
                for j in range(k)
            )
            return ok, f"{name}: lattice of {k} parts, {sum(map(sum, le))} inclusions"

        return Op(f"lattice tables {name}", "phase1", run, judge)

    def maps_op(name, fr, want, keep):
        def run():
            maps = morph.enumerate_morphisms(fr, fr)
            if keep:
                state[name]["maps"] = maps
            return maps

        def judge(maps):
            return len(maps) == want, f"{name}: {len(maps)} maps"

        return Op(f"enumerate_morphisms {name}", "phase2", run, judge)

    def sweep_op(name, m, triples):
        def run():
            st = state[name]
            f, subs, index = st["maps"][m], st["subs"], st["index"]
            # None: an image or preimage left the enumerated set
            moved = [index.get(morph.image(f, x).nucleus) for x in subs]
            moved += [index.get(morph.preimage(f, y).nucleus) for y in subs]
            bad = []
            for i, j, l in triples:
                x, y, z = subs[i], subs[j], subs[l]
                pre_y, pre_z = morph.preimage(f, y), morph.preimage(f, z)
                # image-preimage-galois: image(x) inside y iff x inside preimage(y)
                if subl.is_subsublocale(morph.image(f, x), y) != subl.is_subsublocale(x, pre_y):
                    bad.append(("galois", i, j))
                # preimage-union-meet: pullback commutes with unions and meets
                if morph.preimage(f, subl.union(y, z)) != subl.union(pre_y, pre_z):
                    bad.append(("union", j, l))
                if morph.preimage(f, subl.intersect(y, z)) != subl.intersect(pre_y, pre_z):
                    bad.append(("meet", j, l))
            return moved, bad

        def judge(res):
            moved, bad = res
            ok = None not in moved and not bad
            return ok, (f"{name} map {m}: {len(moved)} images and preimages, hash {hash(tuple(moved))}; "
                        f"{3 * len(triples)} law instances, violations {bad}")

        return Op(f"image/preimage sweep and laws {name} map {m}", "phase3", run, judge)

    for name, fr in lattice.items():
        ops.append(enumerate_op(name, fr))
        ops.append(lattice_op(name))
    for name, want in expect_maps.items():
        ops.append(maps_op(name, lattice[name], want, keep=True))
    big = max(chains)
    ops.append(maps_op(f"chain{big}", lattice[f"chain{big}"], chain_maps(big), keep=False))
    for name in expect_maps:
        ops.extend(sweep_op(name, m, triples) for m, triples in picks[name])
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    nominal_pass_s: float  # raw pass time at the seed commit; sets the pass count


WORKLOADS = {
    "laws-corpus": Workload("laws-corpus", laws_corpus, 14.0),
    "measure-ladder": Workload("measure-ladder", measure_ladder, 10.0),
    "parts-scale": Workload("parts-scale", parts_scale, 9.0),
}

"""locale-lab benchmark: one workload per run, in a fresh process.

    python3 bench/run.py --workload laws-corpus --seed 1 --seconds 30 --trace 0
    for w in laws-corpus measure-ladder parts-scale; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Run from the root of a checkout; the program is imported from its src/.
The load is a closed loop with one client: one process, no extra threads,
each operation issued after the previous one returns. The workloads and
their checks are in workloads.py; the benchmark's own tests run with
`python3 -m pytest bench/test_bench.py`.

--trace 0 times passes over the workload's fixed operation list with
tracing off and prints the end-to-end metrics. --trace 1 runs one pass
untraced and one traced (see tracer.py), runs the known-gap probes once,
and prints the per-layer metrics. Every operation's output is checked;
a wrong or missing result counts as failed. Times are seconds at a
reference machine speed (see speed.py).

Every workload reports every end-to-end metric, so the metrics are named
by role: phase1_s..phase3_s are the workload's three timed phases (see
workloads.py), op_p50_ms/op_tail_ms the median and tail latency of its
operations, and pass_ratio is 1 - fail_ratio, since a gated metric may
not be 0. The printed report names what each stands for per workload.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are the report and the
environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe
from tracer import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, SetupError, load_program, run_probes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up is timed at least this many times per run; setup_s is the median.
MIN_SETUPS = 9
# Operations faster than this are repeated and timed by their median.
REPEAT_BELOW_S = 0.02
REPEATS = 5
# A pass is not started if, at the length of the last one, it would end
# after this many times --seconds: on a slow spell of the host, or with a
# slower program, the run stays within its time budget.
OVERRUN = 1.25

# What each phase stands for, per workload, for the printed report.
PHASE_NAMES = {
    "laws-corpus": ("suite.sublocale_s", "suite.morphism_s", "suite.measure_s"),
    "measure-ladder": ("tol.coarse_s", "tol.fine_s", "certificates_s"),
    "parts-scale": ("scale.lattice_s", "scale.maps_s", "scale.sweeps_s"),
}
LATENCY_NAMES = {"measure-ladder": ("query_p50_ms", "query_tail_ms")}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("phase1_s", "s"),
    ("phase2_s", "s"),
    ("phase3_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return f"python {platform.python_version()} nproc {os.cpu_count()} cpu {cpu}"


@dataclass
class Row:
    op: object
    raw_s: float  # wall seconds, net of the speed probe
    time_s: float  # seconds at reference speed (see speed.py)
    ok: bool
    digest: str


def run_pass(ops, probe, repeat=True):
    """Time each operation, then judge it; returns one Row per operation.

    With `repeat`, an operation faster than REPEAT_BELOW_S runs REPEATS
    times and is timed by the median: a millisecond query is otherwise at
    the mercy of a single slow moment. Its first result is the one judged.
    Traced passes run each operation once, so their counts are exact.
    """
    rows = []
    for op in ops:
        start = probe.mark()
        try:
            result = op.run()
            times = [probe.span(start, probe.mark())]
            while repeat and times[0][1] < REPEAT_BELOW_S and len(times) < REPEATS:
                start = probe.mark()
                op.run()
                times.append(probe.span(start, probe.mark()))
        except Exception as exc:  # a crash is a failed operation, not a failed run
            rows.append(Row(op, *probe.span(start, probe.mark()), False,
                            f"{op.name}: {type(exc).__name__}: {exc}"))
            continue
        raw, norm = (statistics.median(ts) for ts in zip(*times))
        try:
            ok, digest = op.judge(result)
        except Exception as exc:
            ok, digest = False, f"{op.name}: unjudgeable result: {type(exc).__name__}: {exc}"
        rows.append(Row(op, raw, norm, ok, digest))
    return rows


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). Below twenty samples that
    percentile would fall under the median, so the maximum is reported as
    p100 instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes, setups):
    # Each operation is timed as its median across passes. A pass is the
    # sum of those, and the latency percentiles are taken over them, so a
    # slow spell of the machine moves one sample per operation rather than
    # a whole pass or a whole stretch of the latency distribution.
    per_op = [statistics.median(ts) for ts in zip(*([r.time_s for r in rows] for rows in passes))]
    phases = [r.op.phase for r in passes[0]]
    phase = {
        p: sum(t for t, ph in zip(per_op, phases) if ph == p)
        for p in ("phase1", "phase2", "phase3")
    }
    lat = [t * 1e3 for t in per_op]
    attempted = sum(len(rows) for rows in passes)
    failed = sum(1 for rows in passes for r in rows if not r.ok)
    tail_ms, pct, n = tail(lat)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op),
        "phase1_s": phase["phase1"],
        "phase2_s": phase["phase2"],
        "phase3_s": phase["phase3"],
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "op_tail_ms": f"p{pct:.1f} of {n} operation medians over {len(passes)} passes",
        "op_p50_ms": f"of {n} operation medians over {len(passes)} passes",
    }
    return values, notes, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "locale_lab" / "__init__.py").is_file():
        print(f"error: no locale_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    seed_note = " (unused: the corpus is fixed and the measure suite seeds its own RNG)" \
        if wl.name == "laws-corpus" else ""
    print(f"workload {wl.name} seed {args.seed}{seed_note}")
    print(f"environment {environment()}")

    try:
        with SpeedProbe() as probe:
            if args.trace == 0:
                result = timed_run(wl, args, probe)
            else:
                result = traced_run(wl, args, probe)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, units, attempted, failed, bad = result
    for digest in bad[:20]:
        print(f"  FAILED {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def setup(wl, args, probe):
    """Fresh import plus the workload's inputs: (ops, seconds)."""
    start = probe.mark()
    ops = wl.build(load_program(SRC), args.seed, ROOT)
    return ops, probe.span(start, probe.mark())[1]


def timed_run(wl, args, probe):
    planned = max(1, round(args.seconds / wl.nominal_pass_s))
    passes, setups = [], []
    began = time.perf_counter()
    for _ in range(planned):
        start = time.perf_counter()
        if passes and (start - began) + (start - last) > OVERRUN * args.seconds:
            break
        last = start
        ops, dt = setup(wl, args, probe)
        setups.append(dt)
        passes.append(run_pass(ops, probe))
    while len(setups) < MIN_SETUPS:
        setups.append(setup(wl, args, probe)[1])
    metrics, notes, attempted, failed = end_to_end(passes, setups)
    aliases = dict(zip(("phase1_s", "phase2_s", "phase3_s"), PHASE_NAMES[wl.name]))
    aliases.update(zip(("op_p50_ms", "op_tail_ms"), LATENCY_NAMES.get(wl.name, ())))
    raw = statistics.median(sum(r.raw_s for r in rows) for rows in passes)
    print(f"passes {len(passes)}, {attempted} operations, {failed} failed; "
          f"times in seconds at reference speed (median raw pass {raw:.3f} s)")
    for name, unit in END_TO_END:
        extra = f"  [{aliases[name]}]" if name in aliases else ""
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<12} {metrics[name]:.6g} {unit}{extra}{note}")
    print(f"  fail_ratio   {failed / attempted:.6g} ratio")
    bad = [r.digest for rows in passes for r in rows if not r.ok]
    return metrics, dict(END_TO_END), attempted, failed, bad


def traced_run(wl, args, probe):
    plain = run_pass(setup(wl, args, probe)[0], probe, repeat=False)
    mods = load_program(SRC)
    with Tracer(mods) as tracer:
        start = probe.mark()
        traced = run_pass(wl.build(mods, args.seed, ROOT), probe, repeat=False)
        raw, norm = probe.span(start, probe.mark())
    mismatched = [(a.digest, b.digest) for a, b in zip(plain, traced) if a.digest != b.digest]
    gaps, wrong = run_probes(load_program(SRC), args.seed)
    wall = lambda rows: sum(r.time_s for r in rows)
    metrics = layer_metrics(tracer, wall(traced) / wall(plain), gaps, scale=norm / raw)
    attempted = len(plain) + len(traced)
    bad = [r.digest for r in plain + traced if not r.ok]
    failed = len(bad) + len(mismatched) + wrong
    print(f"traced pass {wall(traced):.3f} s, untraced {wall(plain):.3f} s (reference speed), "
          f"{tracer.spans} spans, {gaps} known gaps, {wrong} wrong probe answers")
    for a, b in mismatched:
        print(f"  traced result differs: {a!r} vs {b!r}")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<38} {metrics[name]:.6g} {unit}")
    return metrics, {name: unit for name, unit, _ in PER_LAYER}, attempted, failed, bad


if __name__ == "__main__":
    sys.exit(main())

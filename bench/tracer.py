"""Outside-in tracer for locale_lab.

The program is not edited. `Tracer.install()` replaces, for the duration of
a traced pass, every public function of the nine modules (plus the three
class methods named in METHODS) with a wrapper that records a span, and
rebinds every place another module imported the same function object, so
`locale_lab.morphisms.union` and `locale_lab.laws.preimage` nest as child
spans of their callers. `Tracer.uninstall()` puts every original back.

Spans are folded into per-name aggregates as they close instead of being
kept one by one: the morphism suite alone opens about two million spans.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

MODULES = (
    "frames",
    "corpus",
    "sublocales",
    "morphisms",
    "intervals",
    "presented",
    "measure",
    "laws",
    "cli",
)

# Class methods that carry a layer boundary but are not module functions.
METHODS = (
    ("frames", "Frame", "build"),
    ("frames", "Frame", "from_topology"),
    ("presented", "LazyOpen", "stage"),
)

# Leaf helpers called once per interval endpoint or per element name. No
# per-layer metric reads them, and wrapping them would multiply the cost of
# tracing the interval layers several times over.
SKIP = {"intervals.frac", "intervals.iv", "frames.open_set_name"}

# Spans in one group count once when they nest inside each other, so
# Frame.from_topology calling Frame.build is one frame build, and a Union
# recursing on its parts is one measure query.
GROUPS = {
    "frames.build_frame": "frames.build",
    "frames.Frame.build": "frames.build",
    "frames.Frame.from_topology": "frames.build",
    "sublocales.union_all": "sublocales.union",
    "sublocales.intersect_all": "sublocales.intersect",
}

# Entering the outermost of these sets the tolerance tag that later spans
# are recorded under; the value is the position of the `tol` argument.
TOL_ARG = {
    "measure.measure_bounds": 2,
    "measure.strict_additivity_interval": 3,
    "measure.null_partner_interval": 2,
}


def tol_tag(tol) -> str:
    """Bucket a tolerance by its decimal exponent: 1/1000 -> 'tol3'."""
    from fractions import Fraction

    t = Fraction(tol)
    k = 0
    while t < 1 and k < 30:
        t *= 10
        k += 1
    return f"tol{k}"


class Stat:
    __slots__ = ("calls", "outer_calls", "outer_incl", "incl", "self_s", "leaf")

    def __init__(self):
        self.calls = 0
        self.outer_calls = 0
        self.outer_incl = 0.0
        self.incl = 0.0
        self.self_s = 0.0
        self.leaf = 0


class Tracer:
    """Wraps the program's public functions and aggregates their spans.

    `stats[(name, tag)]` holds the aggregates of span `name` recorded while
    tolerance tag `tag` was active (None outside any measure query).
    `edges[(parent, name)]` counts calls of `name` made directly by
    `parent`, with their inclusive time. `results[name]` accumulates the
    counts that the argument and result hooks read off.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats = defaultdict(Stat)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.results = defaultdict(int)
        self.spans = 0
        self._stack = []
        self._depth = defaultdict(int)
        self._tag = None
        self._restore = []
        self._arg_hook = {"intervals.normalize": self._count_pieces}
        self._result_hook = {
            "sublocales.enumerate_sublocales": self._counter("sublocales.parts_enumerated"),
            "morphisms.enumerate_morphisms": self._counter("morphisms.maps_enumerated"),
            "corpus.iter_corpus_frames": self._counter("corpus.frames_loaded"),
            "intervals.normalize": self._pieces_out,
        }
        for suite in ("frame", "sublocale", "morphism", "measure"):
            self._result_hook[f"laws.run_{suite}_suite"] = self._cases(f"laws.{suite}_cases")

    # -- installation -----------------------------------------------------

    def targets(self):
        """(span name, container, attribute, original) for every wrap."""
        out = []
        for short in MODULES:
            mod = self.modules[short]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                out.append((name, mod, attr, obj))
        for short, cls_name, attr in METHODS:
            cls = getattr(self.modules[short], cls_name)
            out.append((f"{short}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]))
        return out

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for name, container, attr, orig in self.targets():
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(name, orig.__func__))
            else:
                new = self._wrap(name, orig)
                by_id[id(orig)] = new
            self._restore.append((container, attr, orig))
            setattr(container, attr, new)
        # Rebind imported copies: module globals and function tables such
        # as laws.SUITES that hold the same function objects.
        for short in MODULES:
            mod = self.modules[short]
            for attr, obj in list(vars(mod).items()):
                if id(obj) in by_id:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, by_id[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in by_id:
                            self._restore.append((obj, key, val))
                            obj[key] = by_id[id(val)]

    def uninstall(self):
        for container, attr, orig in reversed(self._restore):
            if isinstance(container, dict):
                container[attr] = orig
            else:
                setattr(container, attr, orig)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        group = GROUPS.get(name, name)
        tol_pos = TOL_ARG.get(name)
        arg_hook = self._arg_hook.get(name)
        result_hook = self._result_hook.get(name)
        stack, depth, stats, edges = self._stack, self._depth, self.stats, self.edges
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if arg_hook is not None:
                args = arg_hook(args)
            outer = depth[group] == 0
            depth[group] += 1
            saved_tag = tracer._tag
            if tol_pos is not None and outer and saved_tag is None:
                tol = kwargs["tol"] if "tol" in kwargs else args[tol_pos]
                tracer._tag = tol_tag(tol)
            parent = stack[-1][0] if stack else None
            rec = [name, 0.0, 0]  # name, child time, child count
            stack.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[group] -= 1
                st = stats[(name, tracer._tag)]
                tracer._tag = saved_tag
                st.calls += 1
                st.incl += dt
                st.self_s += dt - rec[1]
                if rec[2] == 0:
                    st.leaf += 1
                if outer:
                    st.outer_calls += 1
                    st.outer_incl += dt
                if stack:
                    stack[-1][1] += dt
                    stack[-1][2] += 1
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
                tracer.spans += 1
            if result_hook is not None:
                result_hook(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # Hooks read counts off arguments and results. normalize() accepts any
    # iterable; the hook materialises it once to count the pieces going in.

    def _count_pieces(self, args):
        pieces = list(args[0])
        self.results["intervals.pieces_in"] += len(pieces)
        self.results[f"intervals.pieces_in.{self._tag}"] += len(pieces)
        return (pieces,) + tuple(args[1:])

    def _pieces_out(self, result):
        self.results["intervals.pieces_out"] += len(result.pieces)

    def _cases(self, key):
        def hook(report):
            self.results[key] += report.cases
        return hook

    def _counter(self, key):
        def hook(result):
            self.results[key] += len(result)
        return hook

    # -- aggregates --------------------------------------------------------

    def total(self, name, field="calls", tag=any):
        """Sum one Stat field of span `name` over tags (or for one tag)."""
        return sum(
            getattr(st, field)
            for (n, t), st in self.stats.items()
            if n == name and (tag is any or t == tag)
        )

    def tagged(self, name, field="calls"):
        """Like total(), restricted to spans under a tolerance tag."""
        return sum(
            getattr(st, field)
            for (n, t), st in self.stats.items()
            if n == name and t is not None
        )

    def edge(self, parent, name):
        """(calls, inclusive seconds) of `name` made directly by `parent`."""
        return tuple(self.edges.get((parent, name), (0, 0.0)))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

TOL_TAGS = ("tol3", "tol6", "tol9", "tol12")

FINITE_MEASURE = (
    "validate_valuation",
    "measure_open",
    "vstar",
    "outer_measure_finite",
    "null_partner",
    "restrict_valuation",
    "mu_reduce",
    "strict_additivity_check",
    "reduced_algebra",
)

# (name, unit, better). The same list is BENCHMARK.json's per_layer.
PER_LAYER = [
    ("frames.build_calls", "count", "lower"),
    ("frames.build_s", "s", "lower"),
    ("corpus.load_s", "s", "lower"),
    ("corpus.frames_loaded", "count", "higher"),
    ("sublocales.validate_calls", "count", "lower"),
    ("sublocales.validate_self_s", "s", "lower"),
    ("sublocales.union_calls", "count", "lower"),
    ("sublocales.union_self_s", "s", "lower"),
    ("sublocales.intersect_calls", "count", "lower"),
    ("sublocales.intersect_self_s", "s", "lower"),
    ("sublocales.open_closed_calls", "count", "lower"),
    ("sublocales.open_closed_self_s", "s", "lower"),
    ("sublocales.enumerate_self_s", "s", "lower"),
    ("sublocales.parts_enumerated", "count", "higher"),
    ("sublocales.enumerate_yield", "ratio", "higher"),
    ("morphisms.enumerate_self_s", "s", "lower"),
    ("morphisms.maps_enumerated", "count", "higher"),
    ("morphisms.preimage_calls", "count", "lower"),
    ("morphisms.preimage_self_s", "s", "lower"),
    ("morphisms.image_calls", "count", "lower"),
    ("morphisms.image_self_s", "s", "lower"),
    ("intervals.normalize_calls", "count", "lower"),
    ("intervals.normalize_self_s", "s", "lower"),
    ("intervals.pieces_in", "count", "lower"),
    ("intervals.pieces_out", "count", "lower"),
    ("presented.neighborhood_calls", "count", "lower"),
    ("presented.stage_calls", "count", "lower"),
    ("presented.stage_self_s", "s", "lower"),
    ("presented.stage_reuse_ratio", "ratio", "higher"),
    ("measure.bounds_calls", "count", "lower"),
    ("measure.bounds_self_s", "s", "lower"),
    ("measure.neighborhoods_per_query", "count", "lower"),
    ("measure.additivity_s", "s", "lower"),
    ("measure.null_partner_s", "s", "lower"),
    ("measure.finite_self_s", "s", "lower"),
    ("measure.known_gaps", "count", "lower"),
    ("laws.frame_cases", "count", "higher"),
    ("laws.sublocale_cases", "count", "higher"),
    ("laws.morphism_cases", "count", "higher"),
    ("laws.measure_cases", "count", "higher"),
    ("laws.frame_s", "s", "lower"),
    ("laws.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]
for _tag in TOL_TAGS:
    PER_LAYER += [
        (f"presented.stage_calls.{_tag}", "count", "lower"),
        (f"intervals.normalize_calls.{_tag}", "count", "lower"),
        (f"intervals.pieces_in.{_tag}", "count", "lower"),
        (f"measure.bounds_self_s.{_tag}", "s", "lower"),
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, overhead_ratio: float, known_gaps: int, scale=1.0) -> dict:
    """Every PER_LAYER value from one traced pass.

    Times are multiplied by `scale`, the traced pass's ratio of
    reference-speed to raw seconds (see speed.py).
    """
    t, r = tr.total, tr.results
    build = ("frames.build_frame", "frames.Frame.build", "frames.Frame.from_topology")
    laws_names = {n for (n, _) in tr.stats if n.startswith("laws.")}
    in_enum, _ = tr.edge("sublocales.enumerate_sublocales", "sublocales.validate_nucleus")
    tagged_queries = t("measure.measure_bounds", "outer_calls")
    tagged_nbhd = tr.tagged("presented.neighborhood", "outer_calls")
    _, descriptor_parse = tr.edge("cli.cmd_measure", "measure.parse_descriptor")
    values = {
        "frames.build_calls": sum(t(n, "outer_calls") for n in build),
        "frames.build_s": sum(t(n, "outer_incl") for n in build),
        "corpus.load_s": t("corpus.iter_corpus_frames", "outer_incl")
        + t("corpus.iter_negative_specs", "outer_incl"),
        "corpus.frames_loaded": r["corpus.frames_loaded"],
        "sublocales.validate_calls": t("sublocales.validate_nucleus"),
        "sublocales.validate_self_s": t("sublocales.validate_nucleus", "self_s"),
        "sublocales.union_calls": t("sublocales.union", "outer_calls")
        + t("sublocales.union_all", "outer_calls"),
        "sublocales.union_self_s": t("sublocales.union", "self_s")
        + t("sublocales.union_all", "self_s"),
        "sublocales.intersect_calls": t("sublocales.intersect", "outer_calls")
        + t("sublocales.intersect_all", "outer_calls"),
        "sublocales.intersect_self_s": t("sublocales.intersect", "self_s")
        + t("sublocales.intersect_all", "self_s"),
        "sublocales.open_closed_calls": t("sublocales.open_sublocale")
        + t("sublocales.closed_sublocale"),
        "sublocales.open_closed_self_s": t("sublocales.open_sublocale", "self_s")
        + t("sublocales.closed_sublocale", "self_s"),
        "sublocales.enumerate_self_s": t("sublocales.enumerate_sublocales", "self_s"),
        "sublocales.parts_enumerated": r["sublocales.parts_enumerated"],
        "sublocales.enumerate_yield": _ratio(r["sublocales.parts_enumerated"], in_enum),
        "morphisms.enumerate_self_s": t("morphisms.enumerate_morphisms", "self_s"),
        "morphisms.maps_enumerated": r["morphisms.maps_enumerated"],
        "morphisms.preimage_calls": t("morphisms.preimage"),
        "morphisms.preimage_self_s": t("morphisms.preimage", "self_s"),
        "morphisms.image_calls": t("morphisms.image"),
        "morphisms.image_self_s": t("morphisms.image", "self_s"),
        "intervals.normalize_calls": t("intervals.normalize"),
        "intervals.normalize_self_s": t("intervals.normalize", "self_s"),
        "intervals.pieces_in": r["intervals.pieces_in"],
        "intervals.pieces_out": r["intervals.pieces_out"],
        "presented.neighborhood_calls": t("presented.neighborhood", "outer_calls"),
        "presented.stage_calls": t("presented.LazyOpen.stage"),
        "presented.stage_self_s": t("presented.LazyOpen.stage", "self_s"),
        "presented.stage_reuse_ratio": _ratio(
            t("presented.LazyOpen.stage", "leaf"), t("presented.LazyOpen.stage")
        ),
        "measure.bounds_calls": tagged_queries,
        "measure.bounds_self_s": t("measure.measure_bounds", "self_s"),
        "measure.neighborhoods_per_query": _ratio(tagged_nbhd, tagged_queries),
        "measure.additivity_s": t("measure.strict_additivity_interval", "outer_incl"),
        "measure.null_partner_s": t("measure.null_partner_interval", "outer_incl"),
        "measure.finite_self_s": sum(t(f"measure.{n}", "self_s") for n in FINITE_MEASURE),
        "measure.known_gaps": known_gaps,
        "laws.frame_cases": r["laws.frame_cases"],
        "laws.sublocale_cases": r["laws.sublocale_cases"],
        "laws.morphism_cases": r["laws.morphism_cases"],
        "laws.measure_cases": r["laws.measure_cases"],
        "laws.frame_s": t("laws.run_frame_suite", "outer_incl"),
        "laws.self_s": sum(t(n, "self_s") for n in laws_names),
        "cli.calls": t("cli.main", "outer_calls"),
        "cli.parse_s": t("cli.main", "self_s")
        + t("cli.build_parser", "incl")
        + t("cli.parse_part", "outer_incl")
        + descriptor_parse,
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": tr.spans,
    }
    for tag in TOL_TAGS:
        values[f"presented.stage_calls.{tag}"] = t("presented.LazyOpen.stage", tag=tag)
        values[f"intervals.normalize_calls.{tag}"] = t("intervals.normalize", tag=tag)
        values[f"intervals.pieces_in.{tag}"] = r[f"intervals.pieces_in.{tag}"]
        values[f"measure.bounds_self_s.{tag}"] = t("measure.measure_bounds", "self_s", tag=tag)
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            values[name] *= scale
    return values

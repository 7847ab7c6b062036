"""Spans around the calls into each sirspa module, recorded from outside the program.

``Tracer.install`` wraps the public functions of each layer and every name
their callers bound (``sirspa.analysis.ccdf``, ``sirspa.cli.outage_curve``,
the ``CompositeCgf`` methods, ...). Each call becomes a span with an id, its
parent's id, a name, start and end times and one number noted from its
arguments or result. Spans stay in memory; ``layer_metrics`` derives the
per-layer counts and self times from them, and ``write_spans`` writes them
out at the end of the run. Names a later version no longer has are skipped,
and their metrics read 0.
"""

from __future__ import annotations

import importlib
import re
import time
from collections import Counter, defaultdict

import numpy as np

CGF_METHODS = ("k", "k1", "k2", "eval", "d3")
FAMILIES = ("NakagamiM", "Rician", "Hoyt", "GaussianTest")
GP_NODES_PER_PANEL = 20
ERROR = "error"


def _terms(args, result):
    return len(args[0].interferers) + 1


def _nodes(args, result):
    return int(np.size(args[1]))


def _iterations(args, result):
    return result.iterations


def _ccdf_flags(args, result):
    sol = result[1]
    return int(sol.near_mean) + 2 * int(sol.clamped)


def _curve_key(args, result):
    method = args[2] if len(args) > 2 else "spa"
    return (len(result), id(args[0]), method)


def _draws(args, result):
    return int(np.size(result))


def _sir_draws(args, result):
    # variates per SIR sample: the signal plus each interferer
    return len(args[0].interferers) + 1


# (module, attribute path, span name, note)
TARGETS = [
    ("sirspa.cli", "main", "cli.main", None),
    ("sirspa.cli", "_write_lines", "cli.write", None),
    ("sirspa.cli", "load_config", "config.load_config", None),
    ("sirspa.cli", "outage_curve", "analysis.outage_curve", _curve_key),
    ("sirspa.cli", "ergodic_capacity", "analysis.ergodic_capacity", None),
    ("sirspa.cli", "monte_carlo_capacity", "analysis.monte_carlo_capacity", None),
    ("sirspa.cli", "build_composite", "composite.build_composite", None),
    ("sirspa.analysis", "build_composite", "composite.build_composite", None),
    ("sirspa.analysis", "ccdf", "saddlepoint.ccdf", _ccdf_flags),
    ("sirspa.analysis", "gil_pelaez_ccdf", "oracles.gil_pelaez_ccdf", None),
    ("sirspa.analysis", "monte_carlo_outage", "oracles.monte_carlo_outage", _sir_draws),
    ("sirspa.analysis", "exponential_signal_closed_form",
     "oracles.exponential_signal_closed_form", None),
    ("sirspa.saddlepoint", "solve_saddle", "saddlepoint.solve_saddle", _iterations),
    ("sirspa.composite", "CompositeCgf.characteristic_function", "composite.cf", _nodes),
] + [
    ("sirspa.composite", f"CompositeCgf.{m}", "composite.cgf_eval", _terms)
    for m in CGF_METHODS
] + [
    ("sirspa.fading", f"{f}.sample", "fading.sample", _draws) for f in FAMILIES
]


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, note)
        self._stack = [0]
        self._next = 1
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, start, clock(), ERROR))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end,
                          note(args, result) if note else None))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, path, name, note in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and self times (seconds) from one pass's spans."""
    child_ns: dict[int, int] = defaultdict(int)
    name_of = {}
    for sid, parent, name, start, end, _ in spans:
        child_ns[parent] += end - start
        name_of[sid] = name
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    errors: Counter = Counter()
    notes: dict[str, list] = defaultdict(list)
    by_parent_name: Counter = Counter()  # (parent name, name) -> count
    cf_nodes_per_gp: dict[int, int] = defaultdict(int)
    sir_per_mc: dict[int, int] = {}
    mc_draws: dict[int, int] = defaultdict(int)
    curve_keys: Counter = Counter()
    for sid, parent, name, start, end, note in spans:
        calls[name] += 1
        total_s[name] += (end - start) * 1e-9
        self_s[name] += (end - start - child_ns[sid]) * 1e-9
        pname = name_of.get(parent)
        by_parent_name[(pname, name)] += 1
        if note == ERROR:
            errors[name] += 1
            continue
        notes[name].append(note)
        if name == "composite.cf" and pname == "oracles.gil_pelaez_ccdf":
            cf_nodes_per_gp[parent] += note
        elif name == "oracles.monte_carlo_outage":
            sir_per_mc[sid] = note
        elif name == "fading.sample" and pname == "oracles.monte_carlo_outage":
            mc_draws[parent] += note
        elif name == "analysis.outage_curve":
            curve_keys[(parent,) + note[1:]] += 1

    def n(name):
        return calls[name]

    cgf_evals = n("composite.cgf_eval")
    solves = n("saddlepoint.solve_saddle")
    ccdfs = n("saddlepoint.ccdf")
    ccdf_flags = notes["saddlepoint.ccdf"]
    mc_samples = sum(mc_draws[sid] // per for sid, per in sir_per_mc.items())
    gp_panels = [nodes / GP_NODES_PER_PANEL for nodes in cf_nodes_per_gp.values()]
    outage_points = sum(note[0] for note in notes["analysis.outage_curve"])
    m = {
        "cli.invocations": n("cli.main"),
        "cli.retried_curves": sum(c - 1 for c in curve_keys.values()),
        "cli.write_s": self_s["cli.write"],
        "config.load_config.calls": n("config.load_config"),
        "config.load_config.s": self_s["config.load_config"],
        "analysis.outage_curve.calls": n("analysis.outage_curve"),
        "analysis.outage_curve.points": outage_points,
        "analysis.outage_curve.s": self_s["analysis.outage_curve"],
        "analysis.ergodic_capacity.calls": n("analysis.ergodic_capacity"),
        "analysis.ergodic_capacity.s": self_s["analysis.ergodic_capacity"],
        "analysis.ergodic_capacity.integrand_evals": (
            by_parent_name[("analysis.ergodic_capacity", "saddlepoint.ccdf")]
            + by_parent_name[("analysis.ergodic_capacity", "oracles.gil_pelaez_ccdf")]),
        "analysis.monte_carlo_capacity.calls": n("analysis.monte_carlo_capacity"),
        "analysis.monte_carlo_capacity.s": self_s["analysis.monte_carlo_capacity"],
        "composite.build_composite.calls": n("composite.build_composite"),
        "composite.build_composite.s": self_s["composite.build_composite"],
        "composite.cgf_evals": cgf_evals,
        "composite.cgf_terms": sum(notes["composite.cgf_eval"]),
        "composite.cgf_eval.s": self_s["composite.cgf_eval"],
        "composite.cf.calls": n("composite.cf"),
        "composite.cf.nodes": sum(notes["composite.cf"]),
        "composite.cf.s": self_s["composite.cf"],
        "saddlepoint.solve_saddle.calls": solves,
        "saddlepoint.solve_saddle.s": self_s["saddlepoint.solve_saddle"],
        "saddlepoint.iterations": sum(notes["saddlepoint.solve_saddle"]),
        "saddlepoint.iterations_per_solve": _ratio(sum(notes["saddlepoint.solve_saddle"]), solves),
        "saddlepoint.cgf_evals_per_solve": _ratio(
            by_parent_name[("saddlepoint.solve_saddle", "composite.cgf_eval")], solves),
        "saddlepoint.ccdf.calls": ccdfs,
        "saddlepoint.ccdf.s": self_s["saddlepoint.ccdf"],
        "saddlepoint.solves_per_ccdf": _ratio(solves, ccdfs),
        "saddlepoint.near_mean_frac": _ratio(sum(f & 1 for f in ccdf_flags), ccdfs),
        "saddlepoint.clamped_frac": _ratio(sum(f >> 1 for f in ccdf_flags), ccdfs),
        "saddlepoint.errors": errors["saddlepoint.ccdf"],
        "oracles.gil_pelaez_ccdf.calls": n("oracles.gil_pelaez_ccdf"),
        "oracles.gil_pelaez_ccdf.s": self_s["oracles.gil_pelaez_ccdf"],
        "oracles.gil_pelaez_ccdf.errors": errors["oracles.gil_pelaez_ccdf"],
        "oracles.gp.panels": sum(gp_panels),
        "oracles.gp.panels_per_call_max": max(gp_panels, default=0.0),
        "oracles.monte_carlo_outage.calls": n("oracles.monte_carlo_outage"),
        "oracles.monte_carlo_outage.s": self_s["oracles.monte_carlo_outage"],
        "oracles.mc.samples": mc_samples,
        "oracles.mc.ns_per_sample": _ratio(total_s["oracles.monte_carlo_outage"] * 1e9,
                                           mc_samples),
        "oracles.exponential_signal_closed_form.calls": n("oracles.exponential_signal_closed_form"),
        "oracles.exponential_signal_closed_form.s": self_s["oracles.exponential_signal_closed_form"],
        "fading.sample.calls": n("fading.sample"),
        "fading.sample.draws": sum(notes["fading.sample"]),
        "fading.sample.s": self_s["fading.sample"],
    }
    return m


# Counts that depend only on the inputs, so they must repeat exactly.
EXACT_COUNTS = ("saddlepoint.iterations", "composite.cgf_evals",
                "oracles.gp.panels", "oracles.mc.samples")


def traced_rows(spans: list[tuple]) -> int:
    """Result rows the CLI produced, counted from spans: first outage_curve
    call per curve and method (a retry replaces rows, it adds none), plus
    capacity values returned."""
    seen = set()
    rows = 0
    for sid, parent, name, start, end, note in spans:
        if note == ERROR:
            continue
        if name == "analysis.outage_curve":
            key = (parent,) + note[1:]
            if key not in seen:
                seen.add(key)
                rows += note[0]
        elif name in ("analysis.ergodic_capacity", "analysis.monte_carlo_capacity"):
            rows += 1
    return rows


def write_spans(spans: list[tuple], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_ns,end_ns,note\n")
        for sid, parent, name, start, end, note in spans:
            if isinstance(note, tuple):
                note = note[0]
            fh.write(f"{sid},{parent},{name},{start},{end},{'' if note is None else note}\n")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds per package from ``python -X importtime`` output.

    numpy, scipy and jsonschema are charged the cumulative time of their
    outermost modules (the first import pays for the whole package);
    sirspa is charged only its own modules' self time. ``total`` is the
    cumulative time of the top-level ``sirspa`` imports.
    """
    entries = []
    for line in stderr.splitlines():
        mt = _IMPORT_LINE.match(line)
        if mt:
            self_us, cum_us, indent, name = mt.groups()
            entries.append(((len(indent) - 1) // 2, name, int(self_us), int(cum_us)))
    # output is post-order: a module's parent is the next entry one level up
    parent_pkg = [None] * len(entries)
    pending: dict[int, list[int]] = defaultdict(list)
    for i, (depth, name, _, _) in enumerate(entries):
        for j in pending.pop(depth + 1, []):
            parent_pkg[j] = name.split(".")[0]
        pending[depth].append(i)
    out = {"numpy": 0.0, "scipy": 0.0, "jsonschema": 0.0, "sirspa": 0.0, "total": 0.0}
    for (depth, name, self_us, cum_us), ppkg in zip(entries, parent_pkg):
        pkg = name.split(".")[0]
        if pkg in ("numpy", "scipy", "jsonschema") and ppkg != pkg:
            out[pkg] += cum_us * 1e-6
        elif pkg == "sirspa":
            out["sirspa"] += self_us * 1e-6
            if depth == 0:
                out["total"] += cum_us * 1e-6
    return out

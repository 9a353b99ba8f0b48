"""Layer tracing from outside the program.

The tracer wraps tvar2's public functions under every name a tvar2 module
bound them to (``tvar2.moments.xi_stream`` and ``tvar2.solution.green_functions``
as well as ``tvar2.xi.*``), so calls between modules are seen too.  Each
wrapped call records a span (request id, name, layer, start, end, parent)
in memory.  Two hot paths get counters instead of spans, to keep the
tracer's own cost bounded:

- ``Schedule.at`` (on the base class; no subclass overrides it) is timed
  per call and its time is charged to the enclosing span as child time;
- ``xi_stream`` generators count the steps they yield, without timing each
  ``next``; their time lands in the consumer's span.

A layer's self time is the length of its spans minus the part their child
spans (and ``Schedule.at`` calls) cover.  Spans are written out at the end
of the run.
"""

from __future__ import annotations

import importlib
import functools
import json
import time
from collections import Counter, defaultdict

import tvar2
import tvar2.blockdet
import tvar2.cli
import tvar2.config
import tvar2.moments
import tvar2.schedules
import tvar2.simulate
import tvar2.solution
import tvar2.vs

# tvar2 re-exports the function xi, which shadows the submodule attribute
XI = importlib.import_module("tvar2.xi")

MODULES = (tvar2, tvar2.schedules, XI, tvar2.solution, tvar2.moments,
           tvar2.simulate, tvar2.vs, tvar2.blockdet, tvar2.config, tvar2.cli)

# layer -> (defining module, public functions that open a span)
LAYERS = {
    "xi": (XI, ("green_functions", "xi", "xi_second", "constant_xi",
                      "fundamental_matrix", "second_fundamental_matrix",
                      "xi_determinant_oracle", "xi_second_determinant_oracle")),
    "solution": (tvar2.solution, ("general_solution", "evaluate_solution",
                                  "forward_recursion",
                                  "particular_solution_determinant_oracle")),
    "moments": (tvar2.moments, ("forecast", "forecast_error_weights",
                                "unconditional_mean", "unconditional_variance",
                                "autocovariance", "autocovariance_recursion",
                                "assumption_a1_diagnostic")),
    "simulate": (tvar2.simulate, ("simulate_paths",)),
    "simulate.stats": (tvar2.simulate, ("empirical_moments",
                                        "empirical_forecast_error")),
    "vs": (tvar2.vs, ("build_vs", "stationarity_check", "par24_restriction")),
    "blockdet": (tvar2.blockdet, ("block_spec", "xi_block_decomposed",
                                  "xi_par_decomposed", "xi_car_decomposed",
                                  "xi_abar_decomposed", "assemble_block_matrix",
                                  "block_determinant_oracle",
                                  "decomposition_report")),
    "config": (tvar2.config, ("load", "dump")),
    "cli": (tvar2.cli, ("main",)),
}

# span fields
RID, NAME, LAYER, START, END, PARENT, CHILD_NS = range(7)


class Tracer:
    def __init__(self):
        self.active = False
        self.request_id = 0
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.at_calls = 0       # Schedule.at calls and their summed time
        self.at_ns = 0
        self._patched: list[tuple] = []

    # --- recording -------------------------------------------------------

    def _span(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            span = [tracer.request_id, name, layer, 0, 0,
                    stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[END] = time.perf_counter_ns()
                stack.pop()
                if stack:
                    spans[stack[-1]][CHILD_NS] += end - span[START]
        return wrapper

    def _at(self, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def at(schedule, t):
            if not tracer.active:
                return fn(schedule, t)
            start = clock()
            tup = fn(schedule, t)
            elapsed = clock() - start
            tracer.at_calls += 1
            tracer.at_ns += elapsed
            stack = tracer.stack
            if stack:
                tracer.spans[stack[-1]][CHILD_NS] += elapsed
            return tup
        return at

    def _stream(self, fn):
        tracer = self

        def counted(gen, layer):
            steps = 0
            try:
                for value in gen:
                    steps += 1
                    yield value
            finally:
                tracer.counters[f"xi.steps.{layer}"] += steps

        @functools.wraps(fn)
        def xi_stream(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            layer = tracer.spans[tracer.stack[-1]][LAYER] if tracer.stack else "none"
            return counted(gen, layer)
        return xi_stream

    def _series(self, fn):
        tracer = self

        @functools.wraps(fn)
        def truncated_sum(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                n = result[1]
                c = tracer.counters
                c["moments.series.calls"] += 1
                c["moments.series.terms"] += n
                c["moments.series.depth_max"] = max(c["moments.series.depth_max"], n)
            return result
        return truncated_sum

    def _simulate_counts(self, fn):
        tracer = self

        @functools.wraps(fn)
        def simulate_paths(config):
            if tracer.active:
                c = tracer.counters
                c["simulate.paths"] += config.n_paths
                c["simulate.path_steps"] += config.n_paths * (config.burn_in + config.length)
            return fn(config)
        return simulate_paths

    # --- installing ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, replacement)

    def install(self) -> None:
        for layer, (module, names) in LAYERS.items():
            for name in names:
                original = getattr(module, name)
                wrapped = self._span(f"{layer}.{name}", layer, original)
                if name == "simulate_paths":
                    wrapped = self._simulate_counts(wrapped)
                self._replace_everywhere(original, wrapped)
        self._replace_everywhere(XI.xi_stream, self._stream(XI.xi_stream))
        self._replace_everywhere(tvar2.moments._truncated_sum,
                                 self._series(tvar2.moments._truncated_sum))
        schedule_cls = tvar2.schedules.Schedule
        self._patched.append((schedule_cls, "at", schedule_cls.at))
        schedule_cls.at = self._at(schedule_cls.at)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self.active = False

    # --- results -----------------------------------------------------------

    def self_ns(self) -> dict:
        """Self time per layer and per span name, in ns."""
        out = defaultdict(int)
        for span in self.spans:
            own = span[END] - span[START] - span[CHILD_NS]
            out[span[LAYER]] += own
            out[span[NAME]] += own
        return out

    def span_counts(self) -> Counter:
        out = Counter()
        for span in self.spans:
            out[span[LAYER]] += 1
            out[span[NAME]] += 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["request", "name", "layer", "start_ns", "end_ns",
                                  "parent", "child_ns"],
                       "spans": self.spans,
                       "counters": {**self.counters, "schedules.at.calls": self.at_calls,
                                    "schedules.at.ns": self.at_ns}}, fh, separators=(",", ":"))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cli_rows: int, cli_bytes: int,
                  cli_rejections: int) -> dict:
    """The per-layer metrics, as name -> (value, unit)."""
    c = tracer.counters
    own = tracer.self_ns()
    calls = tracer.span_counts()
    s = 1e-9
    xi_in_xi = c["xi.steps.xi"]
    xi_in_moments = c["xi.steps.moments"]
    xi_total = sum(v for k, v in c.items() if k.startswith("xi.steps."))
    return {
        "schedules.at.calls": (tracer.at_calls, "count"),
        "schedules.at.ns_per_call": (ratio(tracer.at_ns, tracer.at_calls), "ns"),
        "xi.steps": (xi_total, "count"),
        "xi.self_s": (own["xi"] * s, "s"),
        "xi.ns_per_step": (ratio(own["xi"], xi_in_xi), "ns"),
        "moments.series.calls": (c["moments.series.calls"], "count"),
        "moments.series.terms": (c["moments.series.terms"], "count"),
        "moments.series.depth_max": (c["moments.series.depth_max"], "count"),
        "moments.self_s": (own["moments"] * s, "s"),
        "moments.xi_steps_per_term": (ratio(xi_in_moments, c["moments.series.terms"]), "ratio"),
        "solution.calls": (calls["solution"], "count"),
        "solution.self_s": (own["solution"] * s, "s"),
        "simulate.paths": (c["simulate.paths"], "count"),
        "simulate.path_steps": (c["simulate.path_steps"], "count"),
        "simulate.self_s": (own["simulate"] * s, "s"),
        "simulate.ns_per_path_step": (ratio(own["simulate"], c["simulate.path_steps"]), "ns"),
        "simulate.stats.self_s": (own["simulate.stats"] * s, "s"),
        "vs.calls": (calls["vs"], "count"),
        "vs.self_s": (own["vs"] * s, "s"),
        "blockdet.calls": (calls["blockdet"], "count"),
        "blockdet.self_s": (own["blockdet"] * s, "s"),
        "config.load.calls": (calls["config.load"], "count"),
        "config.load.self_s": (own["config.load"] * s, "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.self_s": (own["cli"] * s, "s"),
        "cli.rows_written": (cli_rows, "count"),
        "cli.bytes_written": (cli_bytes, "B"),
        "cli.ns_per_row": (ratio(own["cli"], cli_rows), "ns"),
        "cli.rejections": (cli_rejections, "count"),
    }

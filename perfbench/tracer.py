"""Per-layer tracing from outside the program: wrapped public functions.

While a :class:`Tracer` is active, the public functions of each fogsim
module are replaced, in every fogsim module that holds a reference to
them, by wrappers that count calls and time them. Nothing under ``src/``
is edited and everything is restored on exit.

- Calls and seconds are kept per layer; self time is the layer's time
  minus the time of wrapped calls made inside it.
- Coarse layers (runs, rankings, reports, CSV output) also record spans
  ``(id, parent id, name, start, end)`` in memory; the caller writes them
  once at the end. Hot leaf functions (scoring, network arithmetic,
  fluctuation steps) are only counted, which keeps the span list small.
- The engine's ``heapq`` is swapped for a counting shim: events pushed by
  kind, and ``done`` events that produced a record (useful completions).
- Every finished run is checked with :func:`workloads.run_problems`, which
  gives the apps grid (run inside ``experiments.sweep``) its record-level
  checks.
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter, defaultdict
from time import perf_counter

from fogsim import config, engine, experiments, metrics, network, policies, pricing, scoring

import workloads

# (layer name, owner, attribute, keeps spans)
LAYERS = (
    ("config.load_config", config, "load_config", True),
    ("engine.init", engine.Simulation, "__init__", True),
    ("engine.run", engine.Simulation, "run", True),
    ("engine.generate_workload", engine, "generate_workload", True),
    ("engine.next_fluctuation", engine, "next_fluctuation", False),
    ("scoring.score_device", scoring, "score_device", False),
    ("scoring.cpu_fluctuation_rate", scoring, "cpu_fluctuation_rate", False),
    ("policies.mc_allocate", policies, "mc_allocate", True),
    ("policies.baseline_allocate", policies, "baseline_allocate", True),
    ("policies.handle_deadline_change", policies, "handle_deadline_change", True),
    ("policies.reserve", policies, "reserve", True),
    ("network.link_bandwidth", network, "link_bandwidth", False),
    ("network.link_delay", network, "link_delay", False),
    ("metrics.build_report", metrics, "build_report", True),
    ("pricing.total_app_cost", pricing, "total_app_cost", False),
    ("experiments.run_cell", experiments, "run_cell", True),
    ("experiments.write_csv", experiments, "write_csv", True),
)

EVENT_KINDS = ("app", "place", "arrive", "done", "fluct", "deadline", "migrate", "rotate")


class _CountingHeapq:
    """Stands in for the engine's ``heapq`` module and counts at that boundary."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def heappush(self, heap, item):
        self._tracer.pushed[item[2]] += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self._tracer.settle_done()
        item = heapq.heappop(heap)
        self._tracer.last_kind = item[2]
        return item


class Tracer:
    """Context manager that instruments fogsim for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.spans: list = []
        self.pushed: Counter = Counter()
        self.useful_done = 0
        self.deadline_targets = 0
        self.records = 0
        self.migrations = 0
        self.runs_checked = 0
        self.problems: list[str] = []
        self.last_kind = None
        self._sim = None
        self._records_seen = 0
        self._stack: list = []
        self._restore: list = []
        self._sims_by_trace: dict = {}

    # -- engine run bookkeeping -------------------------------------------

    def settle_done(self) -> None:
        """Count the last popped event as a useful completion if it made a record."""
        seen = len(self._sim.trace.records)
        if self.last_kind == "done" and seen > self._records_seen:
            self.useful_done += 1
        self._records_seen = seen

    def _run_started(self, args) -> None:
        self._sim = args[0]
        self._records_seen = 0
        self.last_kind = None

    def _run_finished(self, args, trace) -> None:
        self.settle_done()
        self.last_kind = None
        self.records += len(trace.records)
        self.migrations += sum(r.migrations for r in trace.records)
        self._sims_by_trace[id(trace)] = (self._sim, trace)

    def _report_built(self, args, report) -> None:
        sim, trace = self._sims_by_trace.pop(id(args[0]), (None, None))
        if sim is None:
            self.problems.append("build_report on a trace no traced run produced")
            return
        self.runs_checked += 1
        self.problems += workloads.run_problems(sim.sc, sim, trace, report)

    def _deadline_decided(self, args, decision) -> None:
        self.deadline_targets += decision.target_id is not None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, keep_span, on_call=None, on_return=None):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        seconds = self.seconds
        self_seconds = self.self_seconds

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            span_id = parent
            if keep_span:
                span_id = len(spans)
                spans.append(None)
            if on_call is not None:
                on_call(args)
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[name] += 1
                seconds[name] += took
                self_seconds[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if keep_span:
                    spans[span_id] = (span_id, parent, name, start, end)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        hooks = {
            "engine.run": (self._run_started, self._run_finished),
            "metrics.build_report": (None, self._report_built),
            "policies.handle_deadline_change": (None, self._deadline_decided),
        }
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fogsim" or n.startswith("fogsim."))]
        for name, owner, attr, keep_span in LAYERS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, keep_span, *hooks.get(name, (None, None)))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # rebind every module-level reference, including `from x import f` copies
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(engine, "heapq", _CountingHeapq(self))
        return self

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def reconcile(self) -> list[str]:
        """Counts that must agree exactly with the records."""
        problems = []
        checks = (
            ("arrive pushes", self.pushed["arrive"], "records", self.records),
            ("migrate pushes", self.pushed["migrate"], "record migrations", self.migrations),
            ("useful done events", self.useful_done, "records", self.records),
        )
        for left, lval, right, rval in checks:
            if lval != rval:
                problems.append(f"{left} {lval} != {right} {rval}")
        return problems

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name: (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, _owner, _attr, _span in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.seconds[name], "s")
        out["engine.self_s"] = (self.self_seconds["engine.run"], "s")
        for kind in EVENT_KINDS:
            out[f"engine.events_pushed.{kind}"] = (self.pushed[kind], "count")
        done = self.pushed["done"]
        out["engine.done_useful_ratio"] = (self.useful_done / done if done else 0.0, "ratio")
        hdc = self.calls["policies.handle_deadline_change"]
        out["policies.handle_deadline_change.target_ratio"] = (
            self.deadline_targets / hdc if hdc else 0.0, "ratio")
        return out

"""The traced run: spans around each layer's public functions.

``Tracer.install()`` wraps the functions below from the benchmark's own
code — the program is not edited — and ``uninstall()`` puts the
originals back.  A wrapper costs one flag test while the tracer is
disabled, so untraced rounds of a traced run stay comparable.  Spans
are kept in memory; ``chrome_trace`` writes them as Chrome trace-event
JSON (Perfetto and ``chrome://tracing`` read it) and ``layer_table``
renders count, busy time and self time per layer.  A span's self time
is its duration minus that of its direct traced children; a layer's
busy time sums its outermost spans, so recursion is not counted twice.

Only the main thread is traced: the distributed worker's lease
heartbeat runs on its own thread and calls nothing wrapped here.
"""

from __future__ import annotations

import functools
import json
import threading
import weakref
from pathlib import Path
from time import perf_counter

from repro.analysis.sweep import DmsdSteadyState
from repro.experiments import common, fig2, fig4, fig6, headline
from repro.noc.fastsim.engine import FastNetwork
from repro.noc.simulator import Simulation
from repro.power.model import PowerModel
from repro.runner import backends
from repro.runner.distributed import service
from repro.runner.distributed.queue import WorkQueue
from repro.runner.distributed.worker import Worker
from repro.runner.executor import SweepRunner
from repro.runner.plan import ExecutionPlan
from repro.scenario import ScenarioSpec
from repro.workload import WORKLOAD_REGISTRY

SIM_LAYERS = ("fastsim", "refsim")


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "child_s",
                 "attrs")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def under(self, layer: str) -> bool:
        """Is any ancestor of this span in ``layer``?"""
        node = self.parent
        while node is not None:
            if node.layer == layer:
                return True
            node = node.parent
        return False


# --- per-span annotations (run inside the span, after the call) -------
def _sim_after(span: Span, args, kwargs, result) -> None:
    sim = args[0]
    span.layer = "fastsim" if sim.engine == "fast" else "refsim"
    span.attrs["node_cycles"] = sim.config.num_nodes * sim.clock.cycle


def _batch_after(span: Span, args, kwargs, result) -> None:
    span.attrs["replicas"] = len(args[1])


def _runner_after(span: Span, args, kwargs, result) -> None:
    report = args[0].last_report
    span.attrs.update(units=report.total_units,
                      cache_hits=report.cache_hits,
                      executed=report.executed)


def _worker_before(span: Span, args) -> None:
    span.attrs.update(tasks=-args[0].executed, failed=-args[0].failed)


def _worker_after(span: Span, args, kwargs, result) -> None:
    span.attrs["tasks"] += args[0].executed
    span.attrs["failed"] += args[0].failed


def _tick_after(span: Span, args, kwargs, result) -> None:
    span.attrs["idle"] = not result


def _claim_after(span: Span, args, kwargs, result) -> None:
    span.attrs["claimed"] = len(result)


class Tracer:
    """Process-local span collector and its function wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.bytes_written = 0
        self.batch_node_cycles = 0
        self._frozen: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()     # batched engine -> retired
        self._stack: list[Span] = []
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self.t_origin = perf_counter()

    # --- installation -------------------------------------------------
    def _traced(self, original, name: str, layer: str, after=None,
                before=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if (not tracer.enabled
                    or threading.get_ident() != tracer._thread):
                return original(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, layer, stack[-1] if stack else None)
            stack.append(span)
            if before is not None:
                before(span, args)
            span.t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                span.t1 = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.dur
                tracer.spans.append(span)
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, layer: str, after=None,
              before=None) -> None:
        original = owner.__dict__[attr]
        label = getattr(owner, "__qualname__", None) or \
            owner.__name__.rpartition(".")[2]
        self._patch(owner, attr, self._traced(
            original, f"{label}.{attr}", layer, after, before))

    def install(self) -> None:
        wrap = self._wrap
        for module, attr in ((fig2, "figure2"), (fig4, "figure4"),
                             (fig6, "figure6"),
                             (headline, "headline_report")):
            wrap(module, attr, "experiments")
        wrap(common.Workbench, "scenario_matrix", "experiments")
        wrap(common.Workbench, "dmsd_target_ns", "experiments")
        # Bound by name where the workbench calls it.
        wrap(common, "find_saturation_rate", "saturation")
        wrap(DmsdSteadyState, "frequency_for", "search")
        wrap(Simulation, "run", "fastsim", _sim_after)
        wrap(backends, "run_fixed_batch", "batch", _batch_after)
        wrap(SweepRunner, "run", "runner", _runner_after)
        wrap(ExecutionPlan, "__init__", "plan")
        wrap(ExecutionPlan, "group_batches", "plan")
        wrap(ScenarioSpec, "units", "scenario")
        for owner in self._traffic_builders():
            wrap(owner, "traffic", "workload")
        wrap(service.ServiceDaemon, "tick", "service.tick", _tick_after)
        wrap(service, "publish_plan", "service.publish")
        wrap(service, "submission_results", "service.results")
        for attr in ("submit", "accept", "read_status", "write_status",
                     "finish"):
            wrap(service.SubmissionStore, attr, "service.store")
        wrap(WorkQueue, "claim_batch", "queue.claim", _claim_after)
        wrap(WorkQueue, "complete", "queue.complete")
        wrap(WorkQueue, "load_results", "queue.load")
        wrap(Worker, "run_once", "worker", _worker_after, _worker_before)
        wrap(PowerModel, "evaluate", "power")
        self._install_counters()

    @staticmethod
    def _traffic_builders() -> list[type]:
        """Every workload class that defines its own ``traffic``."""
        owners: dict[type, None] = {}
        for factory in WORKLOAD_REGISTRY.mapping.values():
            for klass in getattr(factory, "__mro__", ()):
                method = klass.__dict__.get("traffic")
                if method is not None and not getattr(
                        method, "__isabstractmethod__", False):
                    owners[klass] = None
        return list(owners)

    def _install_counters(self) -> None:
        """Counters with no span: bytes the queue writes, and replica
        node-cycles the batched engine steps (frozen replicas excluded)."""
        tracer = self
        write = WorkQueue.__dict__["_write_atomic"]
        step = FastNetwork.__dict__["step_cycle"]
        freeze = FastNetwork.__dict__["freeze_copy"]

        def write_atomic(queue, path, data):
            if tracer.enabled:
                tracer.bytes_written += len(data)
            return write(queue, path, data)

        def step_cycle(net, cycle, time_ns):
            if tracer.enabled and net.copies > 1:
                active = net.copies - tracer._frozen.get(net, 0)
                tracer.batch_node_cycles += active * net.mesh.num_nodes
            return step(net, cycle, time_ns)

        def freeze_copy(net, copy):
            if tracer.enabled:
                tracer._frozen[net] = tracer._frozen.get(net, 0) + 1
            return freeze(net, copy)

        self._patch(WorkQueue, "_write_atomic", write_atomic)
        self._patch(FastNetwork, "step_cycle", step_cycle)
        self._patch(FastNetwork, "freeze_copy", freeze_copy)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- aggregation ----------------------------------------------------
    def _top(self, layer: str) -> list[Span]:
        return [s for s in self.spans
                if s.layer == layer and not s.under(layer)]

    def busy(self, layer: str) -> float:
        return sum(s.dur for s in self._top(layer))

    def count(self, layer: str) -> int:
        return len(self._top(layer))

    def self_time(self, layer: str) -> float:
        return sum(s.dur - s.child_s for s in self.spans
                   if s.layer == layer)

    def _sum(self, layer: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self._top(layer))

    def _sims_under(self, layer: str) -> int:
        return sum(1 for s in self.spans
                   if s.layer in SIM_LAYERS and s.under(layer))

    def layers(self) -> list[str]:
        return sorted({s.layer for s in self.spans})

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced round, as ``name -> (value,
        unit)``."""
        def per_node_cycle(busy: float, node_cycles: float) -> float:
            return busy * 1e6 / node_cycles if node_cycles else 0.0

        search_units = self.count("search")
        search_probes = self._sims_under("search")
        idle = sum(1 for s in self._top("service.tick")
                   if s.attrs.get("idle"))
        raw = {
            "saturation.searches": (self.count("saturation"), "count"),
            "saturation.probes": (self._sims_under("saturation"),
                                  "count"),
            "saturation.busy_s": (self.busy("saturation"), "s"),
            "search.units": (search_units, "count"),
            "search.probes": (search_probes, "count"),
            "search.busy_s": (self.busy("search"), "s"),
            "fastsim.runs": (self.count("fastsim"), "count"),
            "fastsim.busy_s": (self.busy("fastsim"), "s"),
            "batch.calls": (self.count("batch"), "count"),
            "batch.replicas": (self._sum("batch", "replicas"), "count"),
            "batch.busy_s": (self.busy("batch"), "s"),
            "refsim.runs": (self.count("refsim"), "count"),
            "refsim.busy_s": (self.busy("refsim"), "s"),
            "runner.units": (self._sum("runner", "units"), "count"),
            "runner.cache_hits": (self._sum("runner", "cache_hits"),
                                  "count"),
            "runner.executed": (self._sum("runner", "executed"),
                                "count"),
            "runner.plan_s": (self.busy("plan"), "s"),
            "runner.self_s": (self.self_time("runner"), "s"),
            # Self time: scenario expansion can trigger a lazy DMSD
            # target or saturation search, which have layers of their own.
            "scenario.expand_s": (self.self_time("scenario"), "s"),
            "workload.build_s": (self.busy("workload"), "s"),
            "service.ticks": (self.count("service.tick"), "count"),
            "service.idle_ticks": (idle, "count"),
            "service.publish_s": (self.busy("service.publish"), "s"),
            "service.results_s": (self.busy("service.results"), "s"),
            "service.store_s": (self.busy("service.store"), "s"),
            "service.self_s": (self.self_time("service.tick"), "s"),
            "queue.claims": (self._sum("queue.claim", "claimed"),
                             "count"),
            "queue.claim_s": (self.busy("queue.claim"), "s"),
            "queue.completes": (self.count("queue.complete"), "count"),
            "queue.complete_s": (self.busy("queue.complete"), "s"),
            "queue.result_loads": (self.count("queue.load"), "count"),
            "queue.load_s": (self.busy("queue.load"), "s"),
            "queue.bytes_written": (self.bytes_written, "bytes"),
            "worker.tasks": (self._sum("worker", "tasks"), "count"),
            "worker.failed": (self._sum("worker", "failed"), "count"),
            "worker.busy_s": (self.busy("worker"), "s"),
            "power.evals": (self.count("power"), "count"),
            "power.busy_s": (self.busy("power"), "s"),
            "experiments.self_s": (self.self_time("experiments"), "s"),
        }
        out = {name: (value / rounds, unit)
               for name, (value, unit) in raw.items()}
        # Ratios are per traced round already (both sides scale).
        out["search.probes_per_unit"] = (
            search_probes / search_units if search_units else 0.0,
            "probes/unit")
        out["fastsim.us_per_node_cycle"] = (per_node_cycle(
            self.busy("fastsim"), self._sum("fastsim", "node_cycles")),
            "us")
        out["refsim.us_per_node_cycle"] = (per_node_cycle(
            self.busy("refsim"), self._sum("refsim", "node_cycles")),
            "us")
        out["batch.us_per_node_cycle"] = (per_node_cycle(
            self.busy("batch"), self.batch_node_cycles), "us")
        return out

    # --- outputs --------------------------------------------------------
    def layer_table(self, rounds: int, traced_wall_s: float,
                    untraced_wall_s: float) -> str:
        lines = [f"per-layer table ({rounds} traced round(s); totals "
                 f"per round)",
                 f"{'layer':<18}{'count':>10}{'busy_s':>12}"
                 f"{'self_s':>12}"]
        for layer in self.layers():
            lines.append(f"{layer:<18}{self.count(layer) / rounds:>10.1f}"
                         f"{self.busy(layer) / rounds:>12.4f}"
                         f"{self.self_time(layer) / rounds:>12.4f}")
        lines.append(f"tracing overhead: traced wall_s {traced_wall_s:.4f}"
                     f" - untraced wall_s {untraced_wall_s:.4f} = "
                     f"{traced_wall_s - untraced_wall_s:+.4f} s")
        return "\n".join(lines)

    def chrome_trace(self, path: Path) -> None:
        events = [{
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
            "tid": 1, "ts": (s.t0 - self.t_origin) * 1e6,
            "dur": s.dur * 1e6, "args": s.attrs,
        } for s in sorted(self.spans, key=lambda s: s.t0)]
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))

"""The benchmark's three workloads.

Every workload runs in this one process, with ``jobs=1``, no
subprocesses and no sleeping poll loops.  A run repeats whole *rounds*
of identical operations: ``setup`` builds everything one round needs
(contexts, workbenches, daemons, generated inputs), ``run`` is the
timed part — the first call into the program until the last artifact
is returned — and ``facts``/``serial_sample`` extract what the output
checks and the statistics fingerprint need, untimed.  Rounds are
independent: each builds a fresh cache, workbench or queue, so round
two recomputes what round one computed.

``paper-figures``
    The CLI's ``fig2 fig4 fig6 headline`` on the paper's 5x5 baseline
    with the fast engine and the batched backend.  One operation is
    the whole figure set, as one CLI invocation requests it.
``bigmesh-matrix``
    One ``Workbench.scenario_matrix`` on a 16x16 mesh (closed-form
    policies x 2 patterns x 3 workload shapes x 3 rates, plus one
    duplicated cell).  One operation is the matrix.
``service-overlap``
    An in-process ``ServiceDaemon(workers=0)`` advanced by ``tick()``;
    one closed-loop client submits, ticks until its submission is done
    and loads the results, then sends the next.  One operation is one
    submission.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from time import perf_counter

from repro.analysis.sweep import FAST, SimBudget
from repro.experiments import fig2, fig4, fig6, headline
from repro.experiments.__main__ import TINY_CONFIG
from repro.experiments.common import QUICK, Profile, Workbench
from repro.noc.config import NocConfig, PAPER_BASELINE
from repro.runner import ExecutionContext, UnitCache
from repro.runner.distributed import service
from repro.scenario import ScenarioSpec


# --- paper-figures ---------------------------------------------------
#: The quick profile's structure (6 sweep points, 5 DMSD and 5
#: saturation bisection steps) at half its cycle budget.  At the full
#: quick budget one figure set takes about 64 s on a 2-core host, more
#: than one benchmark run may last; halving the cycles halves every
#: simulation and keeps every search, probe and unit count.
PAPER_PROFILE = Profile("quick-half", FAST.scaled(0.5), sweep_points=6,
                        dmsd_iterations=5, saturation_iterations=5)
#: The CLI's default simulation seed.  The figure set's simulated
#: inputs are the paper's and stay fixed: how much work a regeneration
#: is depends on the seed (24-32 s across seeds 1-7 at this profile),
#: which would drown a 10% change.  ``--seed`` orders the policy set.
PAPER_SEED = 3
PAPER_POLICIES = ("no-dvfs", "rmsd", "dmsd")

# --- bigmesh-matrix --------------------------------------------------
BIGMESH_CONFIG = NocConfig(width=16, height=16)
BIGMESH_LAMBDA_MAX = 0.12
BIGMESH_POLICIES = ("no-dvfs", f"rmsd:lambda_max={BIGMESH_LAMBDA_MAX}")
BIGMESH_PATTERNS = ("uniform", "transpose")
BIGMESH_WORKLOADS = (None, "mmoo", "vconf")
BIGMESH_RATES = (0.03, 0.06, 0.09)

# --- service-overlap -------------------------------------------------
SERVICE_BUDGET = SimBudget(200, 400, 800)
SERVICE_RATES = (0.1, 0.2)
#: The scenario pool.  Every round writes each of these 24 scenarios
#: once and re-reads each of them SERVICE_READS times, in a
#: seed-chosen interleaving, so the mix of work does not depend on the
#: seed (a seed-chosen subset of scenarios moved p90 by 20%, a
#: seed-chosen read mix moved p50 by 40%).
SERVICE_POLICIES = ("no-dvfs", "rmsd:lambda_max=0.3")
SERVICE_PATTERNS = ("uniform", "transpose", "tornado", "neighbor")
SERVICE_WORKLOADS = (None, "mmoo", "vconf")
#: A write carries a scenario no earlier submission had (its units run
#: as reference-engine tasks through the queue); a read re-requests a
#: computed scenario.  One write in four puts p50 inside the read mode
#: and p90 inside the write mode, so a store change that trades one
#: for the other shows.
SERVICE_READS = 3
#: Ticks after which a submission that is still not done counts as a
#: failed operation (a read needs one tick, a write two).
SERVICE_MAX_TICKS = 1000


@dataclass
class RoundResult:
    """What one timed round returned."""

    attempted: int = 0
    failed: int = 0
    points: int = 0
    wall_s: float = 0.0
    op_latencies_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)


def config_facts(config: NocConfig) -> dict:
    return {"width": config.width, "height": config.height,
            "f_min_hz": config.f_min_hz, "f_max_hz": config.f_max_hz,
            "f_node_hz": config.f_node_hz}


def stats_row(label: str, rate: float, freq_hz: float, result) -> list:
    """The simulated statistics of one operating point."""
    return [label, rate, freq_hz, result.mean_latency_cycles,
            result.mean_delay_ns, result.p99_delay_ns,
            result.accepted_node_rate, result.measured_created,
            result.measured_delivered, result.complete,
            result.backlog_delta_flits]


def fingerprint(rows: list[list]) -> str:
    """Digest of simulated statistics, independent of delivery order."""
    text = "\n".join(repr(row) for row in sorted(rows, key=repr))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _schedule(label: str, spec: ScenarioSpec, rate: float) -> dict:
    traffic = spec.traffic_factory()(rate)
    return {"label": f"{label}@{rate}",
            "horizon": spec.make_workload().horizon,
            "steps": [[c, f] for c, f in traffic.steps]}


def _policy_facts(spec: ScenarioSpec) -> dict:
    policy = {"policy": spec.policy.name, "pattern": spec.pattern.name}
    params = dict(spec.policy.params)
    if "lambda_max" in params:
        policy["lambda_max"] = params["lambda_max"]
    return policy


class Workload:
    """Base of the three workloads (see the module docstring)."""

    name = "abstract"

    def __init__(self, seed: int, work_dir: Path,
                 clock: Callable[[], float] = perf_counter) -> None:
        self.seed = seed
        self.work_dir = work_dir
        #: Times ``run``: host seconds, or the host-speed sampler's
        #: program clock, which leaves out the sampler's own time.
        self.clock = clock

    def setup(self) -> object:
        raise NotImplementedError

    def run(self, state) -> RoundResult:
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what ``setup`` built (nothing by default)."""

    def facts(self, state, result: RoundResult) -> dict:
        raise NotImplementedError

    def serial_sample(self, state, result: RoundResult
                      ) -> tuple[list, list]:
        """``(delivered, serial)`` results of a sample of units."""
        raise NotImplementedError


def _unit_outcome(unit_result) -> tuple:
    return (unit_result.freq_hz, unit_result.seed, unit_result.digest,
            unit_result.result)


class PaperFigures(Workload):
    name = "paper-figures"

    def setup(self) -> Workbench:
        order = random.Random(self.seed).sample(PAPER_POLICIES,
                                                len(PAPER_POLICIES))
        context = ExecutionContext(backend="batched", jobs=1,
                                   cache=UnitCache(), engine="fast")
        return Workbench(profile=PAPER_PROFILE, seed=PAPER_SEED,
                         context=context, policies=order)

    def run(self, bench: Workbench) -> RoundResult:
        out = RoundResult(attempted=1)
        start = self.clock()
        try:
            figs = (fig2.figure2(bench) + fig4.figure4(bench)
                    + [fig6.figure6(bench)])
            report = headline.headline_report(bench)
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            out.failed = 1
            out.errors.append(f"{type(exc).__name__}: {exc}")
            return out
        out.wall_s = self.clock() - start
        out.op_latencies_s.append(out.wall_s)
        by_id = {f.figure_id: f for f in figs}
        # Operating points each artifact delivers: fig2 two policies,
        # fig4/fig6/headline the three-policy comparison.
        rates = by_id["fig4a"].series[0].xs
        out.points = len(rates) * (2 + 3 + 3 + 3)
        out.artifacts = {"figures": by_id, "headline": report}
        return out

    def facts(self, bench: Workbench, result: RoundResult) -> dict:
        fig2a = result.artifacts["figures"]["fig2a"]
        rates = result.artifacts["figures"]["fig4a"].series[0].xs
        est = bench.saturation(PAPER_BASELINE, "uniform")
        points, rows = [], []
        sweeps = bench.policy_comparison(PAPER_BASELINE, "uniform",
                                         tuple(rates))   # memoized
        for label, series in sweeps.items():
            for p in series.points:
                points.append({"policy": label, "pattern": "uniform",
                               "rate": p.x, "freq_hz": p.freq_hz})
                rows.append(stats_row(label, p.x, p.freq_hz, p.result)
                            + [p.power_mw])
        return {
            "config": config_facts(PAPER_BASELINE),
            "profile": {"sweep_points": PAPER_PROFILE.sweep_points,
                        "dmsd_iterations": PAPER_PROFILE.dmsd_iterations,
                        "saturation_iterations":
                            PAPER_PROFILE.saturation_iterations},
            "saturation_rate": est.saturation_rate,
            "lambda_max": est.lambda_max,
            "annotated_lambda_max": fig2a.annotations["lambda_max"],
            "annotated_lambda_min": fig2a.annotations["lambda_min"],
            "rates": list(rates),
            "points": points,
            "headline": result.artifacts["headline"].render(),
            # The values the paper annotates (reported, never asserted).
            "annotations": {
                **result.artifacts["figures"]["fig4b"].annotations,
                **result.artifacts["figures"]["fig6"].annotations},
            "stats": rows,
        }

    def serial_sample(self, bench: Workbench, result: RoundResult):
        # One unit per policy at a seed-chosen rate: the batched
        # results come from the unit cache, the serial ones from
        # executing the same units in process.
        rates = result.artifacts["figures"]["fig4a"].series[0].xs
        rate = random.Random(self.seed).choice(list(rates))
        units = []
        for policy in PAPER_POLICIES:
            units.extend(bench.scenario(PAPER_BASELINE, "uniform",
                                        policy).units(
                (rate,), bench.budget_for(PAPER_BASELINE), bench.seed,
                bench.engine,
                resources=bench.resources_for(PAPER_BASELINE,
                                              "uniform")))
        cache = bench.context.cache
        delivered = [_unit_outcome(cache.get(u.digest())) for u in units]
        serial = [_unit_outcome(u.execute()) for u in units]
        return delivered, serial


class BigmeshMatrix(Workload):
    name = "bigmesh-matrix"

    def setup(self):
        rng = random.Random(self.seed)
        specs = [ScenarioSpec.build(policy, pattern,
                                    config=BIGMESH_CONFIG,
                                    workload=workload)
                 for policy in BIGMESH_POLICIES
                 for pattern in BIGMESH_PATTERNS
                 for workload in BIGMESH_WORKLOADS]
        specs.append(rng.choice(specs))
        context = ExecutionContext(backend="batched", jobs=1,
                                   cache=UnitCache(), engine="fast")
        bench = Workbench(profile=QUICK, seed=self.seed, context=context,
                          policies=BIGMESH_POLICIES)
        return bench, specs

    def run(self, state) -> RoundResult:
        bench, specs = state
        out = RoundResult(attempted=1)
        start = self.clock()
        try:
            matrix = bench.scenario_matrix(specs, BIGMESH_RATES)
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            out.failed = 1
            out.errors.append(f"{type(exc).__name__}: {exc}")
            return out
        out.wall_s = self.clock() - start
        out.op_latencies_s.append(out.wall_s)
        out.points = len(specs) * len(BIGMESH_RATES)
        out.artifacts = {"matrix": matrix}
        return out

    def _units(self, bench: Workbench, spec: ScenarioSpec):
        return spec.units(BIGMESH_RATES, bench.budget_for(spec.config),
                          bench.seed, bench.engine,
                          resources=bench.resources_for(spec.config,
                                                        spec.pattern))

    def facts(self, state, result: RoundResult) -> dict:
        bench, specs = state
        matrix = result.artifacts["matrix"]
        points, rows, schedules, digests = [], [], [], []
        for spec in specs:
            label = spec.label
            for p in matrix.series[label].points:
                points.append(dict(_policy_facts(spec), cell=label,
                                   rate=p.x, freq_hz=p.freq_hz))
                rows.append(stats_row(label, p.x, p.freq_hz, p.result))
            digests.extend(u.digest() for u in self._units(bench, spec))
        for spec in dict.fromkeys(specs):
            if spec.workload is not None:
                schedules.extend(_schedule(spec.label, spec, rate)
                                 for rate in BIGMESH_RATES)
        return {"config": config_facts(BIGMESH_CONFIG), "points": points,
                "schedules": schedules, "stats": rows,
                "dedupe": {"digests": digests,
                           "executed": matrix.report.executed}}

    def serial_sample(self, state, result: RoundResult):
        bench, specs = state
        rng = random.Random(self.seed)
        unit = rng.choice(self._units(bench, rng.choice(specs)))
        found = bench.context.cache.get(unit.digest())
        return [_unit_outcome(found)], [_unit_outcome(unit.execute())]


@dataclass
class ServiceRound:
    queue_dir: Path
    daemon: service.ServiceDaemon
    submissions: list
    writes: list                # indices of the scenario-new requests
    #: submission index -> id, for the submissions that completed
    ids: dict = field(default_factory=dict)


class ServiceOverlap(Workload):
    name = "service-overlap"

    def __init__(self, seed: int, work_dir: Path,
                 clock: Callable[[], float] = perf_counter) -> None:
        super().__init__(seed, work_dir, clock)
        self._rounds = 0

    def setup(self) -> ServiceRound:
        rng = random.Random(self.seed)
        pool = [ScenarioSpec.build(policy, pattern, config=TINY_CONFIG,
                                   workload=workload)
                for policy in SERVICE_POLICIES
                for pattern in SERVICE_PATTERNS
                for workload in SERVICE_WORKLOADS]
        # A random merge of per-scenario sequences "write, then
        # SERVICE_READS reads": every read follows its scenario's write.
        left = {spec: SERVICE_READS + 1 for spec in pool}
        submissions, writes = [], []
        while left:
            spec = rng.choice(list(left))
            if left[spec] == SERVICE_READS + 1:
                writes.append(len(submissions))
            left[spec] -= 1
            if not left[spec]:
                del left[spec]
            submissions.append(service.SweepSubmission.build(
                [spec], SERVICE_RATES, seed=self.seed,
                engine="reference", budget=SERVICE_BUDGET))
        self._rounds += 1
        queue_dir = self.work_dir / f"queue-{self._rounds}"
        shutil.rmtree(queue_dir, ignore_errors=True)
        daemon = service.ServiceDaemon(queue_dir, workers=0)
        return ServiceRound(queue_dir, daemon, submissions, writes)

    def run(self, state: ServiceRound) -> RoundResult:
        out = RoundResult()
        queue_dir, daemon = state.queue_dir, state.daemon
        results = {}
        start = self.clock()
        for index, submission in enumerate(state.submissions):
            out.attempted += 1
            t0 = self.clock()
            try:
                sid = service.submit_sweep(queue_dir, submission)
                for _ in range(SERVICE_MAX_TICKS):
                    daemon.tick()
                    status = service.read_status(queue_dir, sid) or {}
                    if status.get("state") in ("done", "failed"):
                        break
                if status.get("state") != "done":
                    raise RuntimeError(
                        f"submission {sid} ended "
                        f"{status.get('state', 'unfinished')!r}: "
                        f"{status.get('error', '')}")
                results[sid] = service.submission_results(queue_dir, sid)
            except Exception as exc:  # noqa: BLE001 — counted
                out.failed += 1
                out.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            out.op_latencies_s.append(self.clock() - t0)
            out.points += len(results[sid])
            state.ids[index] = sid
        out.wall_s = self.clock() - start
        out.artifacts = {"results": results}
        return out

    def teardown(self, state: ServiceRound) -> None:
        state.daemon.close()
        shutil.rmtree(state.queue_dir, ignore_errors=True)

    def facts(self, state: ServiceRound, result: RoundResult) -> dict:
        results = result.artifacts["results"]
        points, rows, schedules, digests = [], [], [], []
        seen = set()
        for index, sid in state.ids.items():
            spec = state.submissions[index].scenarios[0]
            label = spec.label
            units = results[sid]
            digests.extend(u.digest for u in units)
            for unit in units:
                points.append(dict(_policy_facts(spec), cell=label,
                                   rate=unit.x, freq_hz=unit.freq_hz))
            if label in seen:
                continue
            seen.add(label)
            rows.extend(stats_row(label, u.x, u.freq_hz, u.result)
                        for u in units)
            if spec.workload is not None:
                schedules.extend(_schedule(label, spec, rate)
                                 for rate in SERVICE_RATES)
        queue = state.daemon.queue
        executed = sum(len(queue.load_results(task_id))
                       for task_id in queue.result_ids())
        return {"config": config_facts(TINY_CONFIG), "points": points,
                "schedules": schedules, "stats": rows,
                "dedupe": {"digests": digests, "executed": executed}}

    def serial_sample(self, state: ServiceRound, result: RoundResult):
        # Two seed-chosen write submissions' units, recomputed in
        # process through the serial path.
        results = result.artifacts["results"]
        delivered, serial = [], []
        rng = random.Random(self.seed)
        for index in rng.sample(state.writes, 2):
            submission = state.submissions[index]
            sid = state.ids[index]
            units = submission.scenarios[0].units(
                submission.rates, budget=submission.budget,
                seed=submission.seed, engine=submission.engine)
            delivered.extend(_unit_outcome(u) for u in results[sid])
            serial.extend(_unit_outcome(u.execute()) for u in units)
        return delivered, serial


WORKLOADS = {cls.name: cls
             for cls in (PaperFigures, BigmeshMatrix, ServiceOverlap)}

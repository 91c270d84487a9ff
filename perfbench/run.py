"""Benchmark entry point: one workload, one process, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figures --seed 1 \\
        --seconds 30 --trace 0

The run repeats whole rounds of the workload until ``--seconds`` would
be exceeded (at least one round), checks the outputs of the first
round, and prints a host block, the simulated-statistics fingerprint
and, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, their times in reference
seconds (host seconds corrected for the host's sampled speed, see
``perfbench/hostspeed.py``; the host seconds are printed too), ``--trace 1`` the
per-layer metrics of a traced run: rounds alternate untraced and
traced (at least three), the per-layer table (and the tracing
overhead, traced minus untraced ``wall_s``) is printed and written
next to a Chrome trace-event file under ``perfbench/out/``.

``--record`` additionally stores the fingerprint and the checked facts
as ``perfbench/reference/<workload>.json``, the reference later runs
on the same seed compare their fingerprint with and the checker tests
read.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE_DIR = HERE / "reference"
WORKLOAD_NAMES = ("paper-figures", "bigmesh-matrix", "service-overlap")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write perfbench/reference/<workload>.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_block() -> list[str]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count()
    return [f"host: cores={os.cpu_count()} usable={usable} cpu={model!r}",
            f"host: python={platform.python_version()} "
            f"numpy={numpy.__version__}"]


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t_import = perf_counter()
    import checks
    import workloads
    import_s = perf_counter() - t_import

    OUT_DIR.mkdir(exist_ok=True)
    # Untimed end-to-end runs sample the host's speed and report
    # reference seconds (see hostspeed.py); traced runs report host
    # seconds per layer, unsampled.
    speed = None
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        import hostspeed
        speed = hostspeed.HostSpeed()
    clock = speed.program_clock if speed is not None else perf_counter
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR,
                                                   clock)

    setups, walls, traced_walls = [], [], []
    # Untraced delivering rounds: (result, host start, host end).
    timed: list[tuple] = []
    attempted = failed = 0
    errors: list[str] = []
    fingerprints: list[str] = []
    first = None            # (state, result, facts) of the first round
    if speed is not None:
        speed.start()
    try:
        start = perf_counter()
        while True:
            round_start = perf_counter()
            t0 = clock()
            state = workload.setup()
            setups.append(clock() - t0)
            traced = tracer is not None and len(setups) % 2 == 0
            if traced:
                tracer.enabled = True
            h0 = perf_counter()
            try:
                result = workload.run(state)
            finally:
                if tracer is not None:
                    tracer.enabled = False
            h1 = perf_counter()
            attempted += result.attempted
            failed += result.failed
            errors.extend(result.errors)
            # A failed figure set or matrix delivers nothing (wall_s 0);
            # a service round still delivers its other submissions.
            if result.wall_s > 0:
                (traced_walls if traced else walls).append(result.wall_s)
                if not traced:
                    timed.append((result, h0, h1))
                facts = workload.facts(state, result)
                fingerprints.append(workloads.fingerprint(facts["stats"]))
                if first is None:
                    first = (state, result, facts)
            if first is None or first[0] is not state:
                workload.teardown(state)
            round_s = perf_counter() - round_start
            elapsed = perf_counter() - start
            # A traced run alternates untraced and traced rounds, at
            # least untraced-traced-untraced, so the overhead estimate
            # is not skewed by which side got the cold first round.
            enough = (len(walls) >= 2 and len(traced_walls) >= 1
                      if tracer is not None else len(walls) >= 1)
            if attempted and enough and elapsed + round_s > args.seconds:
                break
            if not walls and not traced_walls and attempted >= 3:
                break       # every round fails: stop and report it
    finally:
        if speed is not None:
            speed.stop()
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    for line in host_block():
        print(line)
    for message in errors:
        print(f"failed operation: {message}", file=sys.stderr)

    violations: list[str] = []
    if first is not None:
        state, result, facts = first
        violations.extend(checks.run_checks(args.workload, facts))
        delivered, serial = workload.serial_sample(state, result)
        violations.extend(checks.check_identical(
            "serial sample", delivered, serial))
        workload.teardown(state)
        if len(set(fingerprints)) != 1:
            violations.append(f"rounds disagree on the simulated "
                              f"statistics: {sorted(set(fingerprints))}")
        report_fingerprint(args, fingerprints[0], facts)
    else:
        violations.append("no round completed")
    for message in violations:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"checks: {'passed' if not violations else 'FAILED'} "
          f"({len(violations)} violation(s)); rounds={len(setups)}")

    metrics: dict[str, tuple[float, str]] = {}
    if tracer is not None:
        rounds = max(len(traced_walls), 1)
        table = tracer.layer_table(
            rounds, statistics.median(traced_walls or [0.0]),
            statistics.median(walls or [0.0]))
        stem = f"{args.workload}-seed{args.seed}"
        (OUT_DIR / f"layers-{stem}.txt").write_text(table + "\n")
        tracer.chrome_trace(OUT_DIR / f"trace-{stem}.json")
        print(table)
        print(f"trace written: perfbench/out/trace-{stem}.json")
        metrics = tracer.metrics(rounds)
    elif timed:
        # Each round in reference seconds, at the host speed sampled
        # while it ran; set-up (imports before the sampler started, and
        # rounds' set-up too short to hold samples) at the run's speed.
        run_factor = speed.factor()
        ref_walls, ref_points, ref_latencies = [], [], []
        for result, h0, h1 in timed:
            factor = speed.factor(h0, h1)
            print(f"round: host wall_s={result.wall_s:.4f} "
                  f"reference seconds per host second={factor:.4f}")
            ref_walls.append(result.wall_s * factor)
            ref_points.append(result.points / (result.wall_s * factor))
            ref_latencies.extend(latency * factor
                                 for latency in result.op_latencies_s)
        metrics = {
            "setup_s": ((import_s + statistics.median(setups))
                        * run_factor, "s"),
            "wall_s": (statistics.median(ref_walls), "s"),
            "points_per_s": (statistics.median(ref_points), "points/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_latency_p50_s": (quantile(ref_latencies, 50), "s"),
            "op_latency_p90_s": (quantile(ref_latencies, 90), "s"),
        }
        print(f"samples: rounds={len(timed)} "
              f"operations={len(ref_latencies)} "
              f"host_speed_samples={len(speed.samples)}")
        print(f"host seconds: wall_s={statistics.median(walls):.4f} "
              f"setup_s={import_s + statistics.median(setups):.4f}; "
              f"reference seconds per host second={run_factor:.4f}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_fingerprint(args, fingerprint: str, facts: dict) -> None:
    """Print the fingerprint against the reference; ``--record`` it."""
    path = REFERENCE_DIR / f"{args.workload}.json"
    reference = None
    if path.exists():
        reference = json.loads(path.read_text())
    if args.record:
        REFERENCE_DIR.mkdir(exist_ok=True)
        reference = {"workload": args.workload, "seed": args.seed,
                     "fingerprint": fingerprint, "facts": facts}
        path.write_text(json.dumps(reference, indent=1) + "\n")
    if reference is None:
        verdict = "no reference recorded"
    elif reference["seed"] != args.seed:
        verdict = f"reference is for seed {reference['seed']}"
    elif reference["fingerprint"] == fingerprint:
        verdict = "matches the reference"
    else:
        verdict = f"DIFFERS from the reference {reference['fingerprint']}"
    print(f"fingerprint: {args.workload} seed {args.seed} "
          f"{fingerprint} ({verdict})")


if __name__ == "__main__":
    sys.exit(main())

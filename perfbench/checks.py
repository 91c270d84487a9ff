"""Output checks: properties every workload's results must satisfy.

Each checker takes the plain ``facts`` a workload extracted from the
program's outputs (JSON-ready dicts, see ``workloads.py``) and returns
a list of violations; an empty list means the property holds.  The
checks are assertions the method itself guarantees, not comparisons
with a saved copy of an earlier run:

* the paper-figures rate grid is ``lambda_max*(i+1)/n`` plus
  ``lambda_min = lambda_max*Fmin/Fmax``, rounded as
  ``Workbench.rate_grid`` documents;
* ``lambda_max`` is 0.9 x a dyadic bisection midpoint of [0.02, 1.0];
* ``no-dvfs`` runs at Fmax;
* ``rmsd`` is eq. (2), ``clip(Fnode*lambda/lambda_max, Fmin, Fmax)``,
  on the offered mean node rate (transpose: diagonal nodes are silent);
* ``dmsd`` is Fmin or lies on ``Fmin + k(Fmax-Fmin)/2^n``;
* time-varying schedules average to factor 1.0 over their horizon;
* executed units equal distinct unit digests (planner dedupe);
* sampled batched/service results are bit-identical to a serial
  in-process run of the same units.

Deliberately *not* checked, because they are not properties of the
method and today's outputs break each of them: DMSD delay <= target,
RMSD frequency <= DMSD frequency, and accepted ~= offered on bursty
cells in a short measurement window.
"""

from __future__ import annotations

import math

#: ``find_saturation_rate``'s bracket and ``lambda_max`` margin.
SATURATION_LO = 0.02
SATURATION_HI = 1.0
SATURATION_MARGIN = 0.9

#: Relative tolerance for recomputed floating-point closed forms: the
#: program and the checker evaluate the same formula, possibly with a
#: different operation order (mean of a node-rate array vs. a product).
REL_TOL = 1e-12


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def offered_mean_rate(pattern: str, width: int, height: int,
                      rate: float) -> float:
    """Mean offered node rate of a pattern at one sweep rate.

    Nodes whose pattern destination is themselves send nothing; for the
    patterns the workloads use that is the transpose diagonal only.
    """
    if pattern == "transpose":
        if width != height:
            raise ValueError("transpose needs a square mesh")
        nodes = width * height
        return rate * (nodes - width) / nodes
    if pattern in ("uniform", "tornado", "neighbor"):
        return rate
    raise ValueError(f"no offered-rate oracle for pattern {pattern!r}")


def rmsd_expected_hz(config: dict, offered: float,
                     lambda_max: float) -> float:
    """Eq. (2): ``clip(Fnode * lambda / lambda_max, Fmin, Fmax)``."""
    f = config["f_node_hz"] * offered / lambda_max
    return min(config["f_max_hz"], max(config["f_min_hz"], f))


# ---------------------------------------------------------------------
# paper-figures properties
# ---------------------------------------------------------------------
def check_rate_grid(facts: dict) -> list[str]:
    """The figure grid is the documented function of ``lambda_max``."""
    lam_max = facts["lambda_max"]
    config = facts["config"]
    n = facts["profile"]["sweep_points"]
    raw = [lam_max * (i + 1) / n for i in range(n)]
    raw.append(lam_max * config["f_min_hz"] / config["f_max_hz"])
    cap = round(lam_max, 6)
    expected = sorted({min(round(g, 4), cap) for g in raw})
    errors = []
    if list(facts["rates"]) != expected:
        errors.append(f"rate grid {facts['rates']} != expected "
                      f"{expected} for lambda_max={lam_max!r}")
    if facts.get("annotated_lambda_max") != lam_max:
        errors.append(f"fig2 annotates lambda_max="
                      f"{facts.get('annotated_lambda_max')!r}, the "
                      f"saturation search gave {lam_max!r}")
    lam_min = lam_max * config["f_min_hz"] / config["f_node_hz"]
    if not _close(facts.get("annotated_lambda_min", -1.0), lam_min):
        errors.append(f"fig2 annotates lambda_min="
                      f"{facts.get('annotated_lambda_min')!r}, eq. (2) "
                      f"gives {lam_min!r}")
    return errors


def check_lambda_max(facts: dict) -> list[str]:
    """``lambda_max = 0.9 * m`` with ``m`` a bisection midpoint."""
    sat = facts["saturation_rate"]
    lam_max = facts["lambda_max"]
    iterations = facts["profile"]["saturation_iterations"]
    errors = []
    if lam_max != SATURATION_MARGIN * sat:
        errors.append(f"lambda_max {lam_max!r} != 0.9 x saturation "
                      f"rate {sat!r}")
    if sat == SATURATION_HI:
        return errors             # unsaturated even at the bracket top
    # After `iterations` halvings of [lo, hi] the midpoint sits at an
    # odd multiple of (hi - lo) / 2^(iterations + 1) above lo.
    steps = 2 ** (iterations + 1)
    k = (sat - SATURATION_LO) / (SATURATION_HI - SATURATION_LO) * steps
    if not (0 < k < steps and abs(k - round(k)) < 1e-6
            and round(k) % 2 == 1):
        errors.append(f"saturation rate {sat!r} is not a depth-"
                      f"{iterations} bisection midpoint of "
                      f"[{SATURATION_LO}, {SATURATION_HI}] "
                      f"(position {k:.6f} of {steps})")
    return errors


def check_dmsd(facts: dict) -> list[str]:
    """DMSD frequencies are Fmin or on the bisection grid."""
    config = facts["config"]
    f_min, f_max = config["f_min_hz"], config["f_max_hz"]
    steps = 2 ** facts["profile"]["dmsd_iterations"]
    errors = []
    seen = 0
    for point in facts["points"]:
        if point["policy"] != "dmsd":
            continue
        seen += 1
        freq = point["freq_hz"]
        k = (freq - f_min) / (f_max - f_min) * steps
        if freq != f_min and not (1 <= round(k) <= steps
                                  and abs(k - round(k)) < 1e-6):
            errors.append(f"dmsd at rate {point['rate']}: {freq!r} Hz "
                          f"is neither Fmin nor on the 1/{steps} "
                          f"bisection grid (position {k:.6f})")
    if not seen:
        errors.append("no dmsd points to check")
    return errors


# ---------------------------------------------------------------------
# properties shared by every workload
# ---------------------------------------------------------------------
def check_no_dvfs(facts: dict) -> list[str]:
    """No-DVFS points run at exactly Fmax."""
    f_max = facts["config"]["f_max_hz"]
    errors = []
    seen = 0
    for point in facts["points"]:
        if point["policy"] != "no-dvfs":
            continue
        seen += 1
        if point["freq_hz"] != f_max:
            errors.append(f"no-dvfs {point.get('cell', '')} at rate "
                          f"{point['rate']}: {point['freq_hz']!r} Hz "
                          f"!= Fmax {f_max!r}")
    if not seen:
        errors.append("no no-dvfs points to check")
    return errors


def check_rmsd(facts: dict) -> list[str]:
    """RMSD points follow eq. (2) on the offered mean node rate."""
    config = facts["config"]
    errors = []
    seen = 0
    for point in facts["points"]:
        if point["policy"] != "rmsd":
            continue
        seen += 1
        lam_max = point.get("lambda_max", facts.get("lambda_max"))
        offered = offered_mean_rate(point["pattern"], config["width"],
                                    config["height"], point["rate"])
        expected = rmsd_expected_hz(config, offered, lam_max)
        if not _close(point["freq_hz"], expected):
            errors.append(f"rmsd {point.get('cell', '')} at rate "
                          f"{point['rate']}: {point['freq_hz']!r} Hz, "
                          f"eq. (2) gives {expected!r} (offered "
                          f"{offered!r}, lambda_max {lam_max!r})")
    if not seen:
        errors.append("no rmsd points to check")
    return errors


def check_schedules(facts: dict) -> list[str]:
    """Every time-varying schedule averages to factor 1.0."""
    errors = []
    schedules = facts.get("schedules", [])
    if not schedules:
        errors.append("no time-varying schedules to check")
    for sched in schedules:
        steps = sched["steps"]
        horizon = sched["horizon"]
        ends = [cycle for cycle, _ in steps[1:]] + [horizon]
        total = sum((end - cycle) * factor
                    for (cycle, factor), end in zip(steps, ends))
        mean = total / horizon
        if not _close(mean, 1.0, rel=1e-9):
            errors.append(f"schedule {sched['label']} averages "
                          f"{mean!r}, not 1.0, over {horizon} cycles")
    return errors


def check_dedupe(facts: dict) -> list[str]:
    """Each distinct unit digest executed exactly once."""
    dedupe = facts["dedupe"]
    distinct = len(set(dedupe["digests"]))
    if dedupe["executed"] != distinct:
        return [f"{dedupe['executed']} units executed for {distinct} "
                f"distinct digests ({len(dedupe['digests'])} requested)"]
    return []


def check_identical(label: str, delivered: list, serial: list) -> list[str]:
    """Delivered results equal a serial in-process run, field by field.

    Both lists hold ``(freq_hz, seed, digest, SimResult)`` tuples;
    ``SimResult`` equality compares every statistic exactly, so any
    last-bit difference fails the check.
    """
    if len(delivered) != len(serial):
        return [f"{label}: {len(delivered)} delivered results vs "
                f"{len(serial)} serial ones"]
    errors = []
    for i, (got, want) in enumerate(zip(delivered, serial)):
        if got != want:
            errors.append(f"{label}: result {i} differs from a serial "
                          f"in-process run of the same unit")
    return errors


#: Property checks per workload (the bit-identity check runs live).
CHECKS = {
    "paper-figures": (check_rate_grid, check_lambda_max, check_no_dvfs,
                      check_rmsd, check_dmsd),
    "bigmesh-matrix": (check_no_dvfs, check_rmsd, check_schedules,
                       check_dedupe),
    "service-overlap": (check_no_dvfs, check_rmsd, check_schedules,
                        check_dedupe),
}


def run_checks(workload: str, facts: dict) -> list[str]:
    """Every property violation of one workload's facts."""
    # Ordered and without repeats: a service read delivers the same
    # points as its write, so a violation would otherwise repeat.
    errors: dict[str, None] = {}
    for check in CHECKS[workload]:
        errors.update((f"{check.__name__}: {e}", None)
                      for e in check(facts))
    return list(errors)

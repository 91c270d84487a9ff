"""Every output checker accepts today's outputs and rejects a planted
wrong one.

Today's outputs are the facts recorded in ``perfbench/reference/``
(``python3 perfbench/run.py ... --record``); each planted output is a
copy with one value broken the way the checked property forbids.  Run
with ``python3 -m pytest perfbench/test_checks.py -q``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import checks

REFERENCE = Path(__file__).resolve().parent / "reference"


def facts(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text())["facts"]


def first(points: list[dict], **match) -> dict:
    return next(p for p in points
                if all(p.get(k) == v for k, v in match.items()))


@pytest.mark.parametrize("workload", sorted(checks.CHECKS))
def test_todays_outputs_pass(workload):
    assert checks.run_checks(workload, facts(workload)) == []


def test_rate_grid_rejects_a_shifted_rate():
    bad = copy.deepcopy(facts("paper-figures"))
    bad["rates"][2] += 1e-4
    assert checks.check_rate_grid(bad)


def test_rate_grid_rejects_a_missing_lambda_min():
    bad = copy.deepcopy(facts("paper-figures"))
    bad["annotated_lambda_min"] *= 1.01
    assert checks.check_rate_grid(bad)


def test_lambda_max_rejects_an_off_grid_saturation_rate():
    bad = copy.deepcopy(facts("paper-figures"))
    bad["saturation_rate"] += 0.98 / 2 ** 9
    bad["lambda_max"] = checks.SATURATION_MARGIN * bad["saturation_rate"]
    assert checks.check_lambda_max(bad)


def test_lambda_max_rejects_a_wrong_margin():
    bad = copy.deepcopy(facts("paper-figures"))
    bad["lambda_max"] = 0.85 * bad["saturation_rate"]
    assert checks.check_lambda_max(bad)


@pytest.mark.parametrize("workload", sorted(checks.CHECKS))
def test_no_dvfs_rejects_a_slowed_clock(workload):
    bad = copy.deepcopy(facts(workload))
    point = first(bad["points"], policy="no-dvfs")
    point["freq_hz"] = bad["config"]["f_max_hz"] * 0.999
    assert checks.check_no_dvfs(bad)


@pytest.mark.parametrize("workload", sorted(checks.CHECKS))
def test_rmsd_rejects_a_perturbed_frequency(workload):
    bad = copy.deepcopy(facts(workload))
    rmsd = [p for p in bad["points"] if p["policy"] == "rmsd"]
    # An unclipped point, so the perturbation cannot hide in a clip.
    config = bad["config"]
    point = next(p for p in rmsd
                 if config["f_min_hz"] < p["freq_hz"] < config["f_max_hz"])
    point["freq_hz"] *= 1 + 1e-9
    assert checks.check_rmsd(bad)


@pytest.mark.parametrize("workload", ["bigmesh-matrix",
                                      "service-overlap"])
def test_rmsd_rejects_diagonal_nodes_counted_as_senders(workload):
    bad = copy.deepcopy(facts(workload))
    config = bad["config"]
    changed = 0
    for point in bad["points"]:
        if point["policy"] == "rmsd" and point["pattern"] == "transpose":
            wrong = checks.rmsd_expected_hz(config, point["rate"],
                                            point["lambda_max"])
            changed += wrong != point["freq_hz"]
            point["freq_hz"] = wrong
    assert changed
    assert checks.check_rmsd(bad)


def test_dmsd_rejects_an_off_grid_frequency():
    bad = copy.deepcopy(facts("paper-figures"))
    config = bad["config"]
    point = next(p for p in bad["points"] if p["policy"] == "dmsd"
                 and p["freq_hz"] != config["f_min_hz"])
    point["freq_hz"] -= (config["f_max_hz"] - config["f_min_hz"]) / 2 ** 7
    assert checks.check_dmsd(bad)


def test_dmsd_accepts_fmin():
    ok = copy.deepcopy(facts("paper-figures"))
    first(ok["points"], policy="dmsd")["freq_hz"] = \
        ok["config"]["f_min_hz"]
    assert checks.check_dmsd(ok) == []


@pytest.mark.parametrize("workload", ["bigmesh-matrix",
                                      "service-overlap"])
def test_schedules_reject_a_mean_above_one(workload):
    bad = copy.deepcopy(facts(workload))
    steps = bad["schedules"][0]["steps"]
    steps[0][1] *= 1.01
    assert checks.check_schedules(bad)


@pytest.mark.parametrize("workload", ["bigmesh-matrix",
                                      "service-overlap"])
def test_dedupe_rejects_a_unit_run_twice(workload):
    bad = copy.deepcopy(facts(workload))
    bad["dedupe"]["executed"] += 1
    assert checks.check_dedupe(bad)


def test_bigmesh_dedupe_saw_the_duplicated_cell():
    dedupe = facts("bigmesh-matrix")["dedupe"]
    assert len(dedupe["digests"]) > len(set(dedupe["digests"]))


def test_identical_rejects_a_last_bit_difference():
    delivered = [(1e9, 7, "d1", {"delay_ns": 41.25})]
    serial = [(1e9, 7, "d1", {"delay_ns": 41.25})]
    assert checks.check_identical("x", delivered, serial) == []
    off = [(1e9, 7, "d1", {"delay_ns": 41.25 + 2 ** -40})]
    assert checks.check_identical("x", delivered, off)
    assert checks.check_identical("x", delivered, serial + serial)

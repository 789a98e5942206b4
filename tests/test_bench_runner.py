"""The benchmark runner, ``scripts/bench.py``: gate bounds, the output
schema through the child-process path, and interleaved A/B mode."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "bench.py"

_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

#: Every bound as the per-group bench scripts had it.  A bound that moves
#: must move here too, on purpose.
OLD_BOUNDS = {
    "core.speed_ratio_vs_base": (">=", 0.80),
    "collectives.pipelined_speedup_vs_sequential": (">", 1.0),
    "resilience.supervision_overhead": ("<", 0.05),
    "resilience.supervision_overhead_quick": ("<", 0.30),
    "resilience.crashes_recovered": (">", 0),
    "resilience.resume_served_fraction": ("==", 0.5),
    "sweep.cold_speedup_vs_serial": (">=", 1.3),
    "sweep.warm_speedup_vs_cold": (">=", 10.0),
    "sweep.max_rel_deviation_cold_vs_serial": ("==", 0.0),
    "sweep.max_rel_deviation_warm_vs_cold": ("==", 0.0),
    "trace.eq4_max_abs_rel_err": ("<=", 0.05),
    "trace.eq3_max_abs_rel_err": ("<=", 0.05),
    "tune.steps_ratio": ("<=", 0.10 + 1e-12),
    "tune.completion_delta_vs_sweep": ("<=", 1e-12),
    "tune.warm_identical": ("==", True),
    "tune.warm_served": ("==", True),
    "tune.shape_delta_vs_rect_sweep": ("<", 0.0),
    "chaos.all_bit_identical": ("==", True),
    "chaos.deadlocked_runs": ("==", 0),
}

in_git_checkout = pytest.mark.skipif(
    bench._git_sha(REPO) is None, reason="needs a git checkout")


def test_gate_bounds_are_pinned():
    assert bench.GATES == OLD_BOUNDS


@pytest.mark.parametrize("key,value,ok", [
    ("core.speed_ratio_vs_base", 0.80, True),
    ("core.speed_ratio_vs_base", 0.79, False),
    ("collectives.pipelined_speedup_vs_sequential", 1.0, False),
    ("sweep.max_rel_deviation_cold_vs_serial", 1e-15, False),
    ("resilience.crashes_recovered", 0, False),
])
def test_gate_compares_against_its_bound(key, value, ok):
    g = bench.gate(key, value, reason="why")
    assert g == {"name": key.split(".", 1)[1], "op": OLD_BOUNDS[key][0],
                 "value": value, "bound": OLD_BOUNDS[key][1], "ok": ok,
                 "reason": "why"}


def test_every_group_has_lanes_in_both_modes():
    for quick in (True, False):
        groups = {name.split(".")[0] for name in bench.registry(quick)}
        assert groups == set(bench.GROUPS)
    # The collectives gate only fires at >= 8 ranks: quick must reach it.
    assert "collectives.ranks9" in bench.registry(True)


def _run(tmp_path, *args):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args, "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    return proc, json.loads(out.read_text()) if out.exists() else None


def test_lane_runs_in_a_child_and_rewrites_only_its_group(tmp_path):
    other = {"provenance": {}, "quick": False, "ok": True, "lanes": {}}
    (tmp_path / "bench.json").write_text(json.dumps({"chaos": other}))
    proc, doc = _run(tmp_path, "core.trigger")
    assert proc.returncode == 0, proc.stderr
    assert list(doc) == ["core", "chaos"] and doc["chaos"] == other
    section = doc["core"]
    assert section["quick"] is True and section["ok"] is True
    assert set(section["provenance"]) == {"git_sha", "python", "cpus",
                                          "timestamp"}
    assert section["provenance"]["cpus"] >= 1
    lane = section["lanes"]["trigger"]
    assert set(lane) == {"metrics", "gates", "wall_s", "peak_rss_mb"}
    assert lane["metrics"]["events"] > 0 and lane["peak_rss_mb"] > 0
    assert lane["gates"] == []


def test_unknown_group_is_rejected(tmp_path):
    proc, doc = _run(tmp_path, "nonesuch")
    assert proc.returncode == 2 and doc is None


@in_git_checkout
def test_ab_against_head_passes_the_core_gate(tmp_path):
    worktrees = subprocess.run(["git", "-C", str(REPO), "worktree", "list"],
                               capture_output=True, text=True).stdout
    proc, doc = _run(tmp_path, "core.trigger", "--ab", "HEAD")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    section = doc["core"]
    assert section["provenance"]["ab_base_sha"] == bench._git_sha(REPO)
    ab = section["lanes"]["trigger"]["ab"]
    assert len(ab["ratios"]) == bench.PAIRS
    assert ab["range"] == [min(ab["ratios"]), max(ab["ratios"])]
    assert ab["range"][0] <= ab["median_ratio"] <= ab["range"][1]
    assert [g["name"] for g in section["lanes"]["trigger"]["gates"]] == [
        "speed_ratio_vs_base"]
    # The base checkout is gone again.
    assert subprocess.run(["git", "-C", str(REPO), "worktree", "list"],
                          capture_output=True, text=True).stdout == worktrees

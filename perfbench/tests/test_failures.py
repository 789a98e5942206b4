"""The operation tally behind ``correct``, ``failed`` and ``ok_frac``."""

import copy
import json
import os

import pytest

from perfbench.run import HERE, Bench, CommandRun, end_to_end, per_layer

with open(os.path.join(HERE, "golden.json")) as fh:
    GOLDEN = json.load(fh)


def scale_run(stdout: str, rc: int = 0) -> CommandRun:
    return CommandRun(rc=rc, wall_s=2.0, setup_s=0.9, rss_mb=89.0,
                      stdout=stdout, stderr="")


def scale_stdout(recorded: dict, *, wall: str, rate: str) -> str:
    lines = [f"{k} : {v}" for k, v in recorded.items()]
    lines += [f"wall time (s) : {wall}", f"events/sec : {rate}"]
    return "\n".join(lines) + "\n"


@pytest.fixture
def bench(tmp_path):
    def make(workload: str, golden: dict = GOLDEN) -> Bench:
        return Bench(workload, 0, golden=golden, work_root=str(tmp_path))

    return make


def test_a_matching_scale_run_counts_no_failure(bench):
    b = bench("scale_1024")
    b.check_results(scale_run(scale_stdout(GOLDEN["scale"], wall="1.1",
                                           rate="418800")), "")
    assert (b.attempted, b.failed) == (1, 0)


def test_a_wrong_recorded_value_counts_a_failure(bench):
    golden = copy.deepcopy(GOLDEN)
    golden["scale"]["events"] = "460681"
    b = bench("scale_1024", golden)
    b.check_results(scale_run(scale_stdout(GOLDEN["scale"], wall="1.1",
                                           rate="418800")), "")
    assert (b.attempted, b.failed) == (1, 1)
    assert "events" in b.problems[0]


def test_a_cache_served_scale_run_counts_a_failure(bench):
    b = bench("scale_1024_shards2")
    recorded = GOLDEN["scale_shards2"]
    b.check_results(scale_run(scale_stdout(recorded, wall="0.001",
                                           rate="460770000")), "")
    assert (b.attempted, b.failed) == (1, 1)
    assert "not simulated" in b.problems[0]


def test_table12_results_count_one_operation_each(bench, tmp_path):
    cache = tmp_path / "cache"
    rows = GOLDEN["table12_results"]
    for k, (extents, v, blocking, t, m) in enumerate(rows[:-1]):
        sub = cache / f"{k:02d}"
        sub.mkdir(parents=True)
        t = t * 2 if k == 0 else t  # one wrong, one missing (the last)
        (sub / f"{k:02d}.json").write_text(json.dumps({
            "spec": {"extents": extents, "v": v, "blocking": blocking},
            "payload": {"completion_time": t, "messages_sent": m},
        }))
    b = bench("table12_cold")
    b.check_results(scale_run(""), str(cache))
    assert (b.attempted, b.failed) == (len(rows), 2)


def test_command_problems_and_ok_frac(bench):
    b = bench("table12_warm")
    good = scale_run(GOLDEN["table12_stdout"])
    bad = scale_run(GOLDEN["table12_stdout"].replace("29.2%", "29.3%"))
    crashed = scale_run("", rc=1)
    for run in (good, good, bad, crashed):
        b.op(b.command_problems(run), "command")
    assert (b.attempted, b.failed) == (4, 2)
    assert end_to_end([good], [0.1], b)["ok_frac"] == (0.5, "ratio")


def test_metrics_match_benchmark_json(bench):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    b = bench("scale_1024")
    b.op([], "command")
    e2e = end_to_end([scale_run("")], [0.1], b)
    report = {"parent": {"spans": {}, "counters": {}}, "children": []}
    layer = per_layer(report, 2.0, 1.9, {"scipy": 0.5, "numpy": 0.2})
    for metrics, declared in ((e2e, spec["end_to_end"]),
                              (layer, spec["per_layer"])):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: unit for name, (_, unit) in metrics.items()
        }

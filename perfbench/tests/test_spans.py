"""Span aggregation, and the merge of spans shipped home by children."""

import json
import multiprocessing as mp
import os
import subprocess
import sys

import pytest

from perfbench.checks import parse_kv
from perfbench.run import ROOT
from perfbench.spans import Recorder, load_dir, merge


def test_self_time_excludes_child_spans():
    rec = Recorder()
    rec.begin("outer")
    rec.add("inner", 0, 300)
    rec.add("inner", 1000, 1200)
    rec.end()
    incl, self_ns, n = rec.spans["outer"]
    assert self_ns == incl - 500
    assert rec.spans["inner"] == [500, 500, 2]


def test_merge_sums_spans_and_counters():
    a = {"spans": {"sim.run": [10, 8, 1]}, "counters": {"sim.events": 5}}
    b = {"spans": {"sim.run": [20, 20, 2], "cache.get": [3, 3, 1]},
         "counters": {"sim.events": 7, "cache.hits": 1}}
    got = merge([a, b])
    assert got == {
        "processes": 2,
        "spans": {"sim.run": [30, 28, 3], "cache.get": [3, 3, 1]},
        "counters": {"sim.events": 12, "cache.hits": 1},
    }


_REC = Recorder()


def _child(directory: str, k: int) -> None:
    _REC.reset()  # drop the copy of the parent's spans fork handed over
    with _REC.span("child.work"):
        _REC.count("child.items", k)
    _REC.dump(directory)


def test_forked_children_ship_their_spans_home(tmp_path):
    _REC.reset()
    ctx = mp.get_context("fork")
    with _REC.span("parent.batch"):
        _REC.count("parent.items")
        procs = [ctx.Process(target=_child, args=(str(tmp_path), k))
                 for k in (1, 2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
    children = load_dir(str(tmp_path))
    assert sorted(c["pid"] for c in children) == sorted(p.pid for p in procs)
    merged = merge([_REC.snapshot(), *children])
    assert merged["processes"] == 3
    assert merged["spans"]["child.work"][2] == 2
    assert merged["spans"]["parent.batch"][2] == 1  # not copied into children
    assert merged["counters"] == {"parent.items": 1, "child.items": 3}


def traced(tmp_path, *argv):
    report = tmp_path / "report.json"
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced.py"),
         str(report), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(report.read_text())


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="pool workers are forked")
def test_traced_pool_workers_ship_spans_home(tmp_path):
    _, report = traced(tmp_path, "--jobs", "2", "figure", "i",
                       "--heights", "32,64")
    assert len(report["children"]) == 2  # one snapshot per worker
    children = merge(report["children"])
    assert children["spans"]["supervisor.task"][2] == 4
    assert children["counters"]["sim.runs"] == 4
    parent = report["parent"]
    assert "sim.run" not in parent["spans"]  # simulated in the workers only
    assert parent["counters"]["cache.stores"] == 4


def test_traced_shard_processes_ship_spans_home(tmp_path):
    stdout, report = traced(tmp_path, "--no-cache", "scale", "--grid", "4",
                            "--depth", "8", "--v", "4", "--shards", "2")
    assert len(report["children"]) == 2  # one snapshot per shard
    children = merge(report["children"])
    assert children["spans"]["sharding.shard"][2] == 2
    assert children["spans"]["sim.run"][0] > 0
    counters = report["parent"]["counters"]
    assert counters["sim.events"] == int(parse_kv(stdout)["events"])
    assert counters["sharding.windows"] == int(
        parse_kv(stdout)["lookahead windows"])

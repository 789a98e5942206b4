"""The host speed probe and the raw-report → CSV/table step."""

import json
import math

from perfbench import to_csv
from perfbench.hostspeed import probe


def test_probe_times_the_loop():
    t = probe(steps=20_000)
    assert 0 < t < 10 and math.isfinite(t)


def report(tmp_path, sha, seed, wall):
    path = tmp_path / f"{sha}-{seed}.json"
    path.write_text(json.dumps({
        "workload": "scale_1024", "trace": 0, "correct": True,
        "provenance": {"seed": seed, "git_sha": sha, "git_dirty": False,
                       "host": "h", "timestamp": "t"},
        "metrics": {"wall_s": {"value": wall, "unit": "s"}},
    }))
    return str(path)


def test_rows_and_table_group_by_commit(tmp_path, capsys):
    paths = [report(tmp_path, sha, seed, wall)
             for sha, walls in (("aaaa", (2.0, 2.2, 2.4)), ("bbbb", (1.0, 1.1, 1.2)))
             for seed, wall in enumerate(walls)]
    rows = list(to_csv.rows(paths))
    assert len(rows) == 6 and rows[0]["metric"] == "wall_s"
    assert to_csv.main(["--table", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[:4] == ["aaaa", "scale_1024", "wall_s", "3"]
    assert float(lines[1].split()[5]) == 2.2
    assert float(lines[2].split()[5]) == 1.1

"""Start-up guard: heavy dependencies stay off every import path.

Every CLI command, pool worker and spawned shard child pays its import
cost before doing any work.  A dependency used by one command is
imported where that command calls it, so these entry points must load
none of the packages below.  Each check runs in a fresh interpreter:
this test process has long since imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.kernels.workloads import paper_experiment_i
from repro.model.analysis import continuous_optimum
from repro.model.machine import pentium_cluster

ENTRY_POINTS = (
    "repro",
    "repro.experiments.cli",
    "repro.sim.sharding",
    "repro.runtime.executor",
)
#: scipy serves the solvers, networkx the test-only DAG oracle;
#: xml.sax drags in urllib.request and http.client behind it.
HEAVY = ("scipy", "networkx", "xml.sax", "urllib.request")

_CHILD = """
import json, sys
for name in {entry_points!r}:
    __import__(name)
loaded = [m for m in {heavy!r} if m in sys.modules]

from repro.kernels.workloads import paper_experiment_i
from repro.model.analysis import continuous_optimum
from repro.model.machine import pentium_cluster

res = continuous_optimum(paper_experiment_i(), pentium_cluster(), overlap=True)
print(json.dumps({{
    "loaded": loaded,
    "scipy_after_call": "scipy" in sys.modules,
    "optimum": [res.v_opt.hex(), res.t_opt.hex(), res.flat],
}}))
"""


def _fresh_interpreter() -> dict:
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = _CHILD.format(entry_points=ENTRY_POINTS, heavy=HEAVY)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_entry_points_load_no_heavy_dependency():
    out = _fresh_interpreter()
    assert out["loaded"] == []
    # The solver still works: scipy loads on its first call, and the
    # answer is bit-identical to the in-process one.
    assert out["scipy_after_call"]
    res = continuous_optimum(paper_experiment_i(), pentium_cluster(), overlap=True)
    assert out["optimum"] == [res.v_opt.hex(), res.t_opt.hex(), res.flat]

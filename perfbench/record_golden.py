"""Record the values every benchmark run is checked against.

    python3 perfbench/record_golden.py      # rewrites perfbench/golden.json

Run once, at the commit whose outputs are the reference, from the root
of the checkout.  It records the ``table12`` stdout, the 48 simulated
results its cache holds afterwards, the event and message totals of a
traced ``table12`` run, and the completion time, messages and events of
both ``scale`` commands.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.checks import cache_results, parse_kv  # noqa: E402
from perfbench.run import SCALE, TABLE12  # noqa: E402
from perfbench.spans import merge  # noqa: E402

SCALE_KEYS = ("completion time (s)", "messages", "events")


def repro(argv, cache_dir: str, *, traced_report: str | None = None) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               REPRO_CACHE_DIR=cache_dir)
    cmd = ([sys.executable, os.path.join(HERE, "traced.py"), traced_report]
           if traced_report else [sys.executable, "-m", "repro"])
    return subprocess.run([*cmd, *argv], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cache = os.path.join(tmp, "cold")
        golden["table12_stdout"] = repro(TABLE12, cache)
        golden["table12_results"] = sorted(
            [list(extents), v, blocking, t, m]
            for (extents, v, blocking), (t, m) in cache_results(cache).items()
        )
        report_path = os.path.join(tmp, "traced.json")
        repro(TABLE12, os.path.join(tmp, "traced"), traced_report=report_path)
        with open(report_path) as fh:
            report = json.load(fh)
        counters = merge([report["parent"], *report["children"]])["counters"]
        golden["table12_trace"] = {
            k: counters[k] for k in ("sim.events", "sim.messages")
        }
        for key, extra in (("scale", ()), ("scale_shards2", ("--shards", "2"))):
            kv = parse_kv(repro(SCALE + extra, os.path.join(tmp, key)))
            golden[key] = {k: kv[k] for k in SCALE_KEYS}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

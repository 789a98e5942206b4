"""Raw benchmark reports to CSV, and a median/quartile table.

    python3 perfbench/to_csv.py raw/*.json > results.csv
    python3 perfbench/to_csv.py --table raw/*.json

Reads the full reports ``run.py --out FILE`` writes.  The CSV has one
row per (report, metric): workload, trace flag, seed, commit, dirty
flag, host, timestamp, metric, value, unit, correct.  ``--table``
instead prints, per commit, workload and metric, the median and the
quartiles over all reports — the two sides of an A/B run side by side.
"""

import argparse
import csv
import json
import statistics
import sys

FIELDS = ("workload", "trace", "seed", "git_sha", "git_dirty", "host",
          "timestamp", "metric", "value", "unit", "correct")


def rows(paths):
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        prov = report["provenance"]
        for metric, m in report["metrics"].items():
            yield {
                "workload": report["workload"], "trace": report["trace"],
                "seed": prov["seed"], "git_sha": prov["git_sha"],
                "git_dirty": prov["git_dirty"], "host": prov["host"],
                "timestamp": prov["timestamp"], "metric": metric,
                "value": m["value"], "unit": m["unit"],
                "correct": report["correct"],
            }


def table(records) -> str:
    groups: dict[tuple, list[float]] = {}
    for r in records:
        key = (r["git_sha"][:12], r["workload"], r["metric"], r["unit"])
        groups.setdefault(key, []).append(r["value"])
    lines = [f"{'commit':12}  {'workload':20}  {'metric':28}  {'n':>3}  "
             f"{'q1':>12}  {'median':>12}  {'q3':>12}  unit"]
    for (sha, workload, metric, unit), values in sorted(groups.items()):
        q1, med, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (values[0],) * 3)
        lines.append(f"{sha:12}  {workload:20}  {metric:28}  {len(values):3d}  "
                     f"{q1:12.6g}  {med:12.6g}  {q3:12.6g}  {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--table", action="store_true",
                        help="print medians and quartiles instead of CSV")
    args = parser.parse_args(argv)
    records = list(rows(args.reports))
    if args.table:
        print(table(records))
        return 0
    writer = csv.DictWriter(sys.stdout, fieldnames=FIELDS)
    writer.writeheader()
    writer.writerows(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())

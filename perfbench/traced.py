"""Traced run: one CLI command in-process with every layer wrapped.

    python perfbench/traced.py REPORT.json ARGV...

Runs ``repro.experiments.cli.main(ARGV)`` in this process after
:func:`perfbench.layers.install`, then writes REPORT.json holding this
process's span aggregates and those every child process dumped into
``REPORT.json.d/``.  The exit code, stdout and stderr are the command's,
so the caller checks them like an untraced run's.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    report_path, cli_argv = argv[0], argv[1:]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import layers
    from perfbench.spans import Recorder, load_dir

    span_dir = report_path + ".d"
    os.makedirs(span_dir, exist_ok=True)
    os.environ[layers.SPAN_DIR_ENV] = span_dir

    rec = Recorder()
    with rec.span("cli.import"):
        from repro.experiments import cli

        layers.import_layer_modules()
    with rec.span("bench.install"):
        layers.install(rec)
    try:
        rc = cli.main(cli_argv)
    except SystemExit as exc:
        rc = exc.code if exc.code is None or isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(report_path, "w") as fh:
        json.dump({"parent": rec.snapshot(), "children": load_dir(span_dir)},
                  fh)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

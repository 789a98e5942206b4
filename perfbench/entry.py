"""Untraced launcher: ``python -m repro ARGV`` plus one timestamp.

    PERFBENCH_MARK_FD=N python perfbench/entry.py ARGV...

Runs the ``repro`` package as ``__main__`` exactly as ``python -m repro``
does.  The only addition is that entering the subcommand handler writes
``time.monotonic_ns()`` to file descriptor N and closes it, which gives
the benchmark the command's set-up time (interpreter start, imports and
argparse) without tracing anything else.
"""

import os
import runpy
import sys
import time


def _marked(fd: int, handler):
    def wrapper(args):
        os.write(fd, str(time.monotonic_ns()).encode())
        os.close(fd)
        return handler(args)

    return wrapper


if __name__ == "__main__":
    sys.path[0] = os.getcwd()  # what ``-m`` puts first, not this directory
    from repro.experiments import cli

    mark_fd = int(os.environ.pop("PERFBENCH_MARK_FD"))
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        setattr(cli, name, _marked(mark_fd, getattr(cli, name)))
    sys.argv[0] = "repro"
    runpy.run_module("repro", run_name="__main__", alter_sys=True)

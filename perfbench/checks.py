"""Output parsers and the checks against values recorded at the seed.

Every check returns a list of problems (empty when the output is right),
so the runner can count one failed operation per non-empty list and
print the reasons.
"""

from __future__ import annotations

import json
import pathlib

__all__ = [
    "EVENTS_PER_S_CAP",
    "cache_results",
    "cache_state",
    "import_cumulative",
    "parse_kv",
    "result_failures",
    "scale_problems",
]

#: No run of this pure-Python simulator reaches 10^7 events/s (about
#: 4x10^5 at the seed); a result served from the cache instead of
#: simulated prints about 4x10^8, so anything above the cap did not
#: simulate.
EVENTS_PER_S_CAP = 1e7


def parse_kv(text: str) -> dict[str, str]:
    """The ``key : value`` lines ``repro.util.tables.format_kv`` prints."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" : ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def scale_problems(stdout: str, recorded: dict[str, str]) -> list[str]:
    """Check one ``scale`` run: every recorded value printed exactly,
    and the result simulated rather than served from a cache."""
    kv = parse_kv(stdout)
    problems = [
        f"{key}: got {kv.get(key)!r}, recorded {value!r}"
        for key, value in recorded.items()
        if kv.get(key) != value
    ]
    rate = kv.get("events/sec")
    try:
        simulated = rate is not None and float(rate) <= EVENTS_PER_S_CAP
    except ValueError:
        simulated = False
    if not simulated:
        problems.append(
            f"events/sec {rate!r} is not a simulation (cap "
            f"{EVENTS_PER_S_CAP:g}): the result was not simulated"
        )
    return problems


def cache_results(cache_dir: str) -> dict[tuple, tuple]:
    """``(extents, v, blocking) -> (completion_time, messages_sent)`` for
    every readable entry of a ``SimCache`` directory."""
    out = {}
    for path in pathlib.Path(cache_dir).glob("*/*.json"):
        try:
            entry = json.loads(path.read_text())
            spec, payload = entry["spec"], entry["payload"]
            key = (tuple(spec["extents"]), spec["v"], spec["blocking"])
            out[key] = (payload["completion_time"], payload["messages_sent"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return out


def result_failures(found: dict[tuple, tuple], recorded: list) -> list[str]:
    """One problem per recorded result that is missing or differs.
    ``recorded`` rows are ``[extents, v, blocking, completion, messages]``."""
    problems = []
    for extents, v, blocking, completion, messages in recorded:
        got = found.get((tuple(extents), v, blocking))
        if got != (completion, messages):
            problems.append(
                f"result {extents} V={v} blocking={blocking}: got {got}, "
                f"recorded {(completion, messages)}"
            )
    return problems


def cache_state(cache_dir: str) -> dict[str, int]:
    """Entry path -> mtime, to tell a read-only (warm) run from one that
    stored results again."""
    return {
        str(p): p.stat().st_mtime_ns
        for p in pathlib.Path(cache_dir).glob("*/*.json")
    }


def import_cumulative(text: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Seconds each package took to import, from ``python -X importtime``.

    The report lists every import after its own sub-imports, indented
    two spaces per nesting level.  A package's time is the cumulative
    time of its outermost imports — those not nested inside another
    import of the same package — so nothing is counted twice.
    """
    pending: dict[int, list] = {}
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = (raw.strip(), cumulative, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)

    totals = dict.fromkeys(packages, 0)

    def walk(node, inside: frozenset) -> None:
        name, cumulative, children = node
        for pkg in packages:
            if pkg not in inside and (name == pkg or name.startswith(pkg + ".")):
                totals[pkg] += cumulative
                inside = inside | {pkg}
        for child in children:
            walk(child, inside)

    for depth in sorted(pending):
        for node in pending[depth]:
            walk(node, frozenset())
    return {pkg: us / 1e6 for pkg, us in totals.items()}

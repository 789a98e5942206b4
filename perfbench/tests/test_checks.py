"""Output parsers and the seed-value checks."""

import json

import pytest

from perfbench.checks import (
    cache_results,
    import_cumulative,
    parse_kv,
    result_failures,
    scale_problems,
)

RECORDED = {"completion time (s)": "0.0510676", "messages": "31744",
            "events": "460680"}


def scale_stdout(*, wall="1.154", rate="399144", completion="0.0510676"):
    return (
        f"completion time (s) : {completion}\n"
        "messages            : 31744\n"
        "events              : 460680\n"
        f"wall time (s)       : {wall}\n"
        f"events/sec          : {rate}\n"
    )


def test_parse_kv_reads_format_kv_lines():
    kv = parse_kv("sweeping ...\n" + scale_stdout())
    assert kv["completion time (s)"] == "0.0510676"
    assert kv["events/sec"] == "399144"
    assert "sweeping ..." not in kv


def test_scale_run_matching_the_record_passes():
    assert scale_problems(scale_stdout(), RECORDED) == []


def test_scale_run_with_a_different_value_fails():
    problems = scale_problems(scale_stdout(completion="0.0510677"), RECORDED)
    assert len(problems) == 1
    assert "completion time" in problems[0]


def test_cache_served_scale_run_fails():
    # What a repeated ``scale --shards 2`` against one cache printed.
    problems = scale_problems(scale_stdout(wall="0.001", rate="460680000"),
                              RECORDED)
    assert any("not simulated" in p for p in problems)


def test_scale_run_without_a_rate_fails():
    stdout = "\n".join(scale_stdout().splitlines()[:3])
    assert any("not simulated" in p for p in scale_problems(stdout, RECORDED))


def write_entry(cache_dir, name, extents, v, blocking, t, m):
    sub = cache_dir / name[:2]
    sub.mkdir(exist_ok=True)
    (sub / f"{name}.json").write_text(json.dumps({
        "spec": {"extents": extents, "v": v, "blocking": blocking},
        "payload": {"completion_time": t, "messages_sent": m},
    }))


def test_cache_results_and_result_failures(tmp_path):
    write_entry(tmp_path, "aa01", [16, 16, 2048], 4, True, 0.28, 12288)
    write_entry(tmp_path, "bb02", [16, 16, 2048], 8, True, 0.25, 6144)
    (tmp_path / "cc").mkdir()
    (tmp_path / "cc" / "cc03.json").write_text('{"spec": ')  # half-written
    found = cache_results(str(tmp_path))
    assert found == {((16, 16, 2048), 4, True): (0.28, 12288),
                     ((16, 16, 2048), 8, True): (0.25, 6144)}
    recorded = [
        [[16, 16, 2048], 4, True, 0.28, 12288],   # equal
        [[16, 16, 2048], 8, True, 0.26, 6144],    # differs
        [[16, 16, 2048], 16, True, 0.2, 3072],    # missing
    ]
    problems = result_failures(found, recorded)
    assert len(problems) == 2
    assert "V=8" in problems[0] and "V=16" in problems[1]


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       numpy.version
import time:       400 |        500 |     numpy
import time:        50 |         50 |       scipy._lib
import time:       200 |        250 |     scipy
import time:       300 |        300 |     scipy.optimize._minimize
import time:       600 |       1650 |   scipy.optimize
import time:        10 |         10 |   numpy.linalg
import time:       900 |       2560 | repro.model
import time:        70 |         70 | numpy.fft
"""


def test_import_cumulative_counts_outermost_imports_once():
    got = import_cumulative(IMPORTTIME, ("scipy", "numpy"))
    # scipy.optimize (1650 us) contains scipy (250) and numpy (500): the
    # nested scipy is not counted again, the nested numpy is.
    assert got["scipy"] == pytest.approx(1650e-6)
    assert got["numpy"] == pytest.approx((500 + 10 + 70) * 1e-6)


def test_import_cumulative_of_an_absent_package_is_zero():
    assert import_cumulative(IMPORTTIME, ("networkx",)) == {"networkx": 0.0}

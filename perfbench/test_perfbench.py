"""Self-tests of the benchmark's own arithmetic and declarations.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import stats  # noqa: E402
from spans import Span, SpanRecorder, layer_self_times_ns, self_times_ns  # noqa: E402

BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
#: The benchmark contract's charsets for names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- tail percentile rule ---------------------------------------------


@pytest.mark.parametrize(
    "count,expected",
    [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9),
        (100_000, 99.99),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_TAIL_SAMPLES


def test_percentile_matches_statistics_inclusive_quartiles():
    rng = random.Random(5)
    for size in (2, 3, 10, 101):
        data = [rng.random() for _ in range(size)]
        q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
        assert stats.percentile(data, 25) == pytest.approx(q1)
        assert stats.percentile(data, 50) == pytest.approx(q2)
        assert stats.percentile(data, 75) == pytest.approx(q3)
    assert stats.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_window_rates_cover_the_phase_with_equal_windows():
    events = [(0.1, 1), (0.9, 2), (1.0, 4), (2.5, 8), (3.0, 16), (-0.1, 32)]
    # Events outside [0, length) fall in no window.
    assert stats.window_rates(events, 3.0, 1.0) == [3.0, 4.0, 8.0]
    # Windows stretch or shrink to a whole number that fits exactly.
    assert stats.window_rates(events, 3.0, 1.4) == pytest.approx(
        [7 / 1.5, 8 / 1.5]
    )
    assert stats.window_rates([(0.0, 3)], 1.0, 2.0) == [3.0]


# -- self-time arithmetic ---------------------------------------------


def _span(sid, layer, start, end, parent=None):
    return Span(sid, f"s{sid}", layer, start, end, parent, "run", 0)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(1, "harness", 0, 100),
        _span(2, "sim", 10, 30, parent=1),
        _span(3, "sim", 20, 50, parent=1),  # overlaps its sibling
        _span(4, "kernel", 90, 120, parent=1),  # runs past its parent
        _span(5, "kernel", 12, 18, parent=2),  # grandchild
    ]
    own = self_times_ns(spans)
    assert own[1] == 100 - 40 - 10
    assert own[2] == 20 - 6
    assert own[5] == 6
    layers = layer_self_times_ns(spans)
    assert layers == {"harness": 50, "sim": 14 + 30, "kernel": 6 + 30}


def test_recorder_nests_per_thread_and_stamps_run_id():
    rec = SpanRecorder("run-7")
    with rec.span("outer", "harness"):
        with rec.span("inner", "sim"):
            pass

        def other():
            with rec.span("thread", "service"):
                pass

        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    # A span opened on another thread has no parent on this one.
    assert by_name["thread"].parent is None
    assert {s.run_id for s in rec.spans} == {"run-7"}
    assert all(s.end_ns >= s.start_ns for s in rec.spans)


# -- names and BENCHMARK.json -----------------------------------------


def test_metric_and_workload_names_use_the_allowed_charset():
    names = [
        *catalog.END_TO_END, *catalog.PER_LAYER, *catalog.WORKLOADS,
        *catalog.UNSTEADY_WORKLOADS,
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    units = [u for u, _ in catalog.END_TO_END.values()]
    units += [row[0] for row in catalog.PER_LAYER.values()]
    for unit in units:
        assert UNIT_RE.match(unit), unit
    for bad in ("kernel.small.vantage-z4/52.hit_ns", ".leading", "a b", "x" * 65):
        assert not NAME_RE.match(bad)


def test_benchmark_json_declares_every_metric_and_workload():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in bench["workloads"]] == list(catalog.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and w["why"] and "\n" not in w["why"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert list(e2e) == list(catalog.END_TO_END)
    for name, (unit, better) in catalog.END_TO_END.items():
        m = e2e[name]
        assert set(m) == {"name", "unit", "better", "bound"}
        assert (m["unit"], m["better"]) == (unit, better)
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: m for m in bench["per_layer"]}
    assert list(layers) == list(catalog.PER_LAYER)
    for name, (unit, better, layer, moves) in catalog.PER_LAYER.items():
        m = layers[name]
        assert set(m) == {"name", "unit", "better"}
        assert (m["unit"], m["better"]) == (unit, better)
        assert layer in (*catalog.LAYERS, "trace")
        assert moves, f"{name} names no end-to-end metric it should move"
        for metric, workload in moves:
            assert metric in catalog.END_TO_END, (name, metric)
            assert workload in (
                *catalog.WORKLOADS, *catalog.UNSTEADY_WORKLOADS
            ), (name, workload)
    assert bench["paths"] == ["perfbench"]
    assert bench["command"][:2] == ["python3", "perfbench/run.py"]


def test_run_refuses_a_directory_without_the_simulator(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", catalog.WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

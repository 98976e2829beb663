"""The summary that scripts/bench_pairs.py prints for alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_counts_wins_in_each_metric_direction():
    metrics = [
        {"name": "run_s", "unit": "s", "better": "lower"},
        {"name": "songs_per_s", "unit": "1/s", "better": "higher"},
    ]
    parent = [{"run_s": t, "songs_per_s": 1.0 / t} for t in (1.0, 2.0, 3.0, 4.0, 5.0)]
    # faster in pairs 1, 2 and 4, equal in pair 3, slower in pair 5
    change = [{"run_s": t, "songs_per_s": 1.0 / t} for t in (0.5, 1.5, 3.0, 3.5, 6.0)]
    rows = bench_pairs.summarize(metrics, parent, change)
    assert rows[0] == ("run_s", "s", 3.0, 2.0, 3.0, 2.0, 3)
    name, unit, median, _, new, _, wins = rows[1]
    assert (name, unit, wins) == ("songs_per_s", "1/s", 3)
    assert median == pytest.approx(1.0 / 3.0)
    assert new == pytest.approx(1.0 / 3.0)

"""The summary, verdicts and warnings that scripts/bench_pairs.py prints for alternating benchmark pairs."""

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


RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2}
SONGS_PER_S = {"name": "songs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}


@pytest.mark.parametrize("metric, parent, change, expected", [
    # parent median 10, IQR 4 > the bound 2; the change is not faster in every run
    (RUN_S, [6.0, 8.0, 10.0, 12.0, 14.0], [3.0, 4.0, 5.0, 6.0, 7.0], "unresolved"),
    # the same spread, but every change run beats every parent run
    (RUN_S, [6.0, 8.0, 10.0, 12.0, 14.0], [1.0, 2.0, 3.0, 4.0, 5.0], "gain"),
    # median 10 -> 12.5, worse by more than the bound of 2
    (RUN_S, [9.9, 10.0, 10.0, 10.0, 10.1], [12.4, 12.5, 12.5, 12.5, 12.6], "worse"),
    # higher is better: 100 -> 70 is worse by more than 20
    (SONGS_PER_S, [99.0, 100.0, 100.0, 100.0, 101.0], [69.0, 70.0, 70.0, 70.0, 71.0], "worse"),
    # 10 of 10 pairs won, by more than the parent's IQR of 0.1
    (RUN_S, [10.0, 10.1] * 5, [9.5, 9.6] * 5, "gain"),
    (SONGS_PER_S, [10.0, 10.1] * 5, [10.5, 10.6] * 5, "gain"),
    # 8 of 10 pairs won is not 9/10
    (RUN_S, [10.0, 10.1] * 5, [9.5, 9.6] * 4 + [10.2, 10.3], "same"),
    # 10 of 10 pairs won, but by less than the parent's IQR
    (RUN_S, [10.0, 10.1] * 5, [9.99, 10.09] * 5, "same"),
    # slower, within the bound
    (RUN_S, [10.0, 10.1] * 5, [11.0, 11.1] * 5, "same"),
], ids=["unresolved", "spread_but_every_run_better", "worse", "worse_higher_better", "gain",
        "gain_higher_better", "too_few_wins", "inside_iqr", "slower_within_bound"])
def test_verdict_follows_the_bound_the_spread_and_the_wins(metric, parent, change, expected):
    assert bench_pairs.verdict(metric, parent, change) == expected


def test_checkouts_that_differ_in_path_length_or_bytecode_are_named(tmp_path):
    parent, change, longer = (tmp_path / name for name in ("parent", "change", "longer-path"))
    for checkout in (parent, change, longer):
        (checkout / "src" / "resurge").mkdir(parents=True)
    assert bench_pairs.checkout_warnings(parent, change) == []
    assert bench_pairs.checkout_warnings(parent, longer) == [
        f"warning: the checkout paths are {len(str(parent))} and {len(str(longer))} characters long"
    ]
    (change / "src" / "resurge" / "__pycache__").mkdir()
    assert bench_pairs.checkout_warnings(parent, change) == [
        "warning: only the change checkout holds src/resurge/__pycache__"
    ]
    (parent / "src" / "resurge" / "__pycache__").mkdir()
    assert bench_pairs.checkout_warnings(parent, change) == []

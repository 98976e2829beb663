"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402

from resurge import cli, curation, ingest  # noqa: E402

# smallest corpora that still hold every planted role
TINY = {"catalog-scan": 0.5, "long-revivals": 0.04, "corpus-ccdf": 0.02}


def _tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_byte_deterministic(tmp_path, workload):
    first = corpus.generate(workload, 7, tmp_path / "a", TINY[workload])
    second = corpus.generate(workload, 7, tmp_path / "b", TINY[workload])
    other = corpus.generate(workload, 8, tmp_path / "c", TINY[workload])
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert first.planted_stage == second.planted_stage
    assert first.totals == second.totals


def test_generator_refuses_a_used_directory(tmp_path):
    (tmp_path / "leftover").write_text("x")
    with pytest.raises(ValueError):
        corpus.generate("catalog-scan", 1, tmp_path)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_funnel_holds(tmp_path, seed):
    planted = corpus.generate("catalog-scan", seed, tmp_path, 1.0)
    records = ingest.load_dataset(tmp_path / "manifest.json")
    kept, report = curation.curate(
        records,
        ingest.parse_catalog_file(tmp_path / "catalog.csv"),
        allowlist=ingest.parse_allowlist(tmp_path / "allowlist.txt"),
        peak_basis="peak",
    )
    assert list(report.funnel) == planted.planted_funnel
    # the demo mix: one drop per stage, four keepers
    assert planted.planted_funnel == [
        ("input", 10), ("web_search_present", 9), ("catalog_match", 8), ("single_release", 7),
        ("release_cutoff", 6), ("peak_window", 5), ("min_points", 4),
    ]
    for outcome in report.outcomes:
        assert outcome.stage_reached == planted.planted_stage[outcome.song_id]
        assert outcome.kept == (outcome.song_id in planted.planted_kept)
    assert {r.song_id for r in kept} == planted.planted_kept


def test_catalog_outgrows_songs_and_holds_decoys(tmp_path):
    planted = corpus.generate("catalog-scan", 4, tmp_path, 1.0)
    entries = ingest.parse_catalog_file(tmp_path / "catalog.csv")
    assert len(entries) > planted.n_songs
    assert sum(e.title.endswith("(Rework)") for e in entries) == 3
    artists = [e.artist for e in entries]
    assert len(set(artists)) < len(artists)


def test_long_revivals_are_realistic_scale(tmp_path):
    planted = corpus.generate("long-revivals", 5, tmp_path, TINY["long-revivals"])
    records = ingest.load_dataset(tmp_path / "manifest.json")
    for record in records:
        assert 0.5e9 < record.short_video_series.values.max() < 1.5e9
        assert 0.0 <= record.web_search_series.values.min() <= record.web_search_series.values.max() <= 100.0
    assert set(ingest.parse_allowlist(tmp_path / "allowlist.txt")) == planted.planted_kept
    assert len(ingest.parse_catalog_file(tmp_path / "catalog.csv")) == 1


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_tiny_run_prints_every_metric_and_passes_its_check(workload, trace):
    done = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                      "--trace", str(trace), "--scale", str(TINY[workload]))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {name: e["unit"] for name, e in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, entry in result["metrics"].items():
        assert f"{name} " in done.stdout  # printed by name before the JSON line
        assert isinstance(entry["value"], float)


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, "--workload", "catalog-scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_output_check_catches_a_wrong_stage(tmp_path):
    planted = corpus.generate("catalog-scan", 2, tmp_path / "in", TINY["catalog-scan"])
    code, stdout = run.warm_run(cli, planted.command, tmp_path / "out")
    assert code == 0
    assert run.check_outputs(planted, tmp_path / "out", stdout) == ([], 0)
    report = tmp_path / "out" / "curate_report.jsonl"
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    rows[0]["stage_reached"] = 1
    report.write_text("".join(json.dumps(r) + "\n" for r in rows))
    problems, _ = run.check_outputs(planted, tmp_path / "out", stdout)
    assert problems


def test_output_check_catches_a_wrong_ccdf_total(tmp_path):
    planted = corpus.generate("corpus-ccdf", 2, tmp_path / "in", TINY["corpus-ccdf"])
    code, stdout = run.warm_run(cli, planted.command, tmp_path / "out")
    assert code == 0
    assert run.check_outputs(planted, tmp_path / "out", stdout) == ([], 0)
    planted.totals[0] *= 1.001
    problems, _ = run.check_outputs(planted, tmp_path / "out", stdout)
    assert problems

"""Command-line behavior on the bundled fixture and on tiny ad-hoc datasets."""

import contextlib
import dataclasses
import datetime as dt
import errno
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resurge
from oracles import read_report, write_report_reference
from resurge import cli, curation, ingest
from resurge.cli import _GRANGER_FIELDS, RunConfig, main
from resurge.series import TimeSeries

# outputs of `python -m resurge {pipeline,ccdf} --manifest data/demo/manifest.json
# --catalog data/demo/catalog.csv --allowlist data/demo/allowlist.txt
# --peak-basis peak --out-dir tests/golden/demo/{pipeline,ccdf}`
GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "demo"


def demo_args(demo_dir, out_dir, fmt="jsonl"):
    return [
        "--manifest", str(demo_dir / "manifest.json"),
        "--catalog", str(demo_dir / "catalog.csv"),
        "--allowlist", str(demo_dir / "allowlist.txt"),
        "--peak-basis", "peak",
        "--out-dir", str(out_dir),
        "--format", fmt,
    ]


def compare_trees(a, b):
    """Byte-compare every file under two directories; returns mismatches."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    other = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert names == other
    return [n for n in names if not filecmp.cmp(a / n, b / n, shallow=False)]


# --- RunConfig --------------------------------------------------------------------


def test_config_defaults_follow_the_analysis_constants():
    config = RunConfig()
    assert config.cutoff_date.isoformat() == "2016-09-30"
    assert config.min_points == 20
    assert config.peak_threshold == 0.05
    assert config.peak_basis == "total"
    assert (config.lag_min, config.lag_max) == (1, 5)
    assert config.alpha == 0.1
    assert config.bass_rmse_max == 0.05
    assert config.format == "jsonl"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_points": 0},
        {"peak_threshold": 0.0},
        {"peak_threshold": 1.0},
        {"peak_basis": "median"},
        {"lag_min": 0},
        {"lag_min": 3, "lag_max": 2},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"bass_rmse_max": 0.0},
        {"format": "xml"},
        {"bass_rmse_max": float("nan")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


# --- flag handling ----------------------------------------------------------------


def test_missing_manifest_names_the_flag(capsys, tmp_path):
    assert main(["curate", "--out-dir", str(tmp_path)]) == 1
    assert "--manifest is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curate", "granger", "bass", "pipeline"])
def test_missing_catalog_names_the_flag(capsys, tmp_path, demo_dir, command):
    code = main([
        command, "--manifest", str(demo_dir / "manifest.json"),
        "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert "--catalog is required" in capsys.readouterr().err


def test_invalid_config_value_fails_cleanly(capsys, tmp_path, demo_dir):
    code = main(["curate"] + demo_args(demo_dir, tmp_path) + ["--alpha", "2.0"])
    assert code == 1
    assert "--alpha" in capsys.readouterr().err


def test_unparseable_date_is_an_argparse_error(capsys, demo_dir, tmp_path):
    for text in ("monday", "20160930", "2016-W39-5"):
        with pytest.raises(SystemExit):
            main(["curate"] + demo_args(demo_dir, tmp_path)
                 + ["--cutoff-date", text])
        assert f"invalid ISO date '{text}'" in capsys.readouterr().err


def test_unreadable_manifest_exits_one(capsys, tmp_path):
    code = main([
        "curate", "--manifest", str(tmp_path / "gone.json"),
        "--catalog", str(tmp_path / "gone.csv"), "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--manifest", "--catalog", "--allowlist"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_prints_the_os_error(capsys, tmp_path, demo_dir, flag, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    code = errno.ENOENT if kind == "missing" else errno.EISDIR
    args = {
        "--manifest": str(demo_dir / "manifest.json"),
        "--catalog": str(demo_dir / "catalog.csv"),
        "--allowlist": str(demo_dir / "allowlist.txt"),
        flag: str(path),
    }
    out_dir = tmp_path / "out"
    argv = ["pipeline", "--peak-basis", "peak", "--out-dir", str(out_dir)]
    assert main(argv + [item for pair in args.items() for item in pair]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno {code}] {os.strerror(code)}: {str(path)!r}\n"
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["curate", "granger", "bass", "pipeline", "ccdf"])
def test_input_error_exits_one_before_creating_out_dir(capsys, tmp_path, demo_dir, command):
    (tmp_path / "bad.csv").write_text("date,value\n2021-01-01,oops\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "format_version": 1,
        "songs": [{"song_id": "bad", "display_title": "Bad by X",
                   "short_video": "bad.csv", "web_search": None}],
    }))
    out_dir = tmp_path / "out"
    code = main([
        command, "--manifest", str(manifest), "--catalog", str(demo_dir / "catalog.csv"),
        "--out-dir", str(out_dir),
    ])
    assert code == 1
    assert "song 'bad'" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("song_id", ["a\x00b", "x" * 250], ids=["null_byte", "too_long"])
def test_song_id_that_names_no_file_leaves_out_dir_alone(capsys, tmp_path, demo_dir, song_id):
    # an allowlisted copy of sr-004, which the demo run keeps
    series = demo_dir / "series"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "format_version": 1,
        "songs": [{"song_id": song_id, "display_title": "Kept by X",
                   "short_video": str(series / "sr-004__short_video.csv"),
                   "web_search": str(series / "sr-004__web_search.csv")}],
    }))
    allowlist = tmp_path / "allow.txt"
    allowlist.write_text(song_id + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main([
        "pipeline", "--manifest", str(manifest), "--catalog", str(demo_dir / "catalog.csv"),
        "--allowlist", str(allowlist), "--peak-basis", "peak", "--out-dir", str(out_dir),
    ])
    assert code == 1
    assert "songs[0] song_id" in capsys.readouterr().err
    assert not out_dir.exists()


def test_out_dir_naming_a_file_exits_one(capsys, tmp_path, demo_dir):
    out_file = tmp_path / "taken"
    out_file.write_text("keep me\n")
    assert main(["pipeline"] + demo_args(demo_dir, out_file)) == 1
    assert "error:" in capsys.readouterr().err
    assert out_file.read_text() == "keep me\n"


# --- commands on the bundled fixture --------------------------------------------------


def test_curate_on_demo(capsys, tmp_path, demo_dir, monkeypatch):
    assert main(["curate"] + demo_args(demo_dir, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "input: 10" in out
    assert "min_points: 4" in out
    assert "kept 4 songs" in out

    rows = read_report(tmp_path / "curate_report.jsonl", "jsonl")
    assert len(rows) == 10
    kept = {r["song_id"] for r in rows if r["kept"]}
    assert kept == {"sr-001", "sr-002", "sr-003", "sr-004"}

    manifest = json.loads((tmp_path / "curate_manifest.json").read_text())
    assert [s["song_id"] for s in manifest["songs"]] == sorted(kept)
    for song in manifest["songs"]:
        assert (tmp_path / song["short_video"]).is_file()
        assert (tmp_path / song["web_search"]).is_file()

    # what the package writes reads back on the bulk path: daily series from
    # the calendar, and the demo's one series with gaps row by row
    def no_line_reader(path, text):
        raise AssertionError(f"{path} left the bulk path")

    monkeypatch.setattr(ingest, "_parse_series_lines", no_line_reader)
    # the curated set is itself a dataset: it loads back as the records curate kept
    kept_records, _ = curation.curate(
        ingest.load_dataset(demo_dir / "manifest.json"),
        ingest.parse_catalog_file(demo_dir / "catalog.csv"),
        allowlist=ingest.parse_allowlist(demo_dir / "allowlist.txt"),
        peak_basis="peak",
    )
    assert ingest.load_dataset(tmp_path / "curate_manifest.json") == kept_records


def test_granger_on_demo(capsys, tmp_path, demo_dir):
    assert main(["granger"] + demo_args(demo_dir, tmp_path)) == 0
    assert "1 of 4 tested songs flagged" in capsys.readouterr().out

    rows = read_report(tmp_path / "granger_report.jsonl", "jsonl")
    assert len(rows) == 20  # 4 songs x 5 lags
    verdicts = {r["song_id"]: r["causal"] for r in rows}
    assert verdicts == {
        "sr-001": True, "sr-002": False, "sr-003": False, "sr-004": False,
    }
    lag_rows = [r for r in rows if r["song_id"] == "sr-001"]
    assert [r["lag"] for r in lag_rows] == [1, 2, 3, 4, 5]
    assert any(r["p_value"] < 1e-10 for r in lag_rows)

    hist = read_report(tmp_path / "granger_histogram.jsonl", "jsonl")
    assert len(hist) == 10
    assert sum(r["count"] for r in hist) == 4
    assert hist[0]["bin_lo"] == 0.0 and hist[-1]["bin_hi"] == 1.0


def test_bass_on_demo(capsys, tmp_path, demo_dir):
    assert main(["bass"] + demo_args(demo_dir, tmp_path)) == 0
    assert "2 fits over 1 flagged songs" in capsys.readouterr().out

    rows = read_report(tmp_path / "bass_report.jsonl", "jsonl")
    assert [r["platform"] for r in rows] == ["short_video", "web_search"]
    assert all(r["song_id"] == "sr-001" for r in rows)
    assert all(r["converged"] for r in rows)
    assert all(r["rmse"] < 0.05 for r in rows)
    assert all(r["rmse_within_max"] for r in rows)

    scatter = read_report(tmp_path / "bass_scatter.jsonl", "jsonl")
    assert len(scatter) == 1
    assert set(scatter[0]) == {
        "song_id", "p_short_video", "q_short_video", "p_web_search", "q_web_search",
    }

    overlay = read_report(tmp_path / "bass_overlay.jsonl", "jsonl")
    assert {r["platform"] for r in overlay} == {"short_video", "web_search"}
    for row in overlay:
        assert 0.0 <= row["observed_cum"] <= 1.0
        assert 0.0 <= row["fitted_cum"] <= 1.0


@pytest.mark.bit_identity
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_bass_rows_do_not_depend_on_the_other_fits(capsys, tmp_path, demo_dir, fmt):
    # the demo flags one song; copies of it with rescaled series are flagged
    # too, and their windows differ from it in the last bits
    payload = demo_payload(demo_dir)
    (song,) = [s for s in payload["songs"] if s["song_id"] == "sr-001"]
    copies = []
    for factor in (3.0, 0.7, 1.3):
        copy = dict(song, song_id=f"sr-001-x{factor}")
        for key in ("short_video", "web_search"):
            series = ingest.parse_series_file(song[key])
            path = tmp_path / f"{copy['song_id']}__{key}.csv"
            ingest.write_series_file(type(series)(days=series.days, values=series.values * factor), path)
            copy[key] = str(path)
        copies.append(copy)
    songs = [copies[0], song, *copies[1:]]
    rows = {}
    for name, listed in (("alone", [song]), ("together", songs)):
        manifest = tmp_path / f"{name}.json"
        manifest.write_text(json.dumps(dict(payload, songs=listed)), encoding="utf-8")
        args = demo_args(demo_dir, tmp_path / name, fmt)
        args[args.index("--manifest") + 1] = str(manifest)
        assert main(["bass"] + args) == 0
        lines = (tmp_path / name / f"bass_report.{fmt}").read_text(encoding="utf-8").splitlines()
        rows[name] = [line for line in lines if "sr-001-x" not in line]
    capsys.readouterr()
    assert len(rows["alone"]) == (2 if fmt == "jsonl" else 3)
    assert rows["together"] == rows["alone"]
    together = read_report(tmp_path / "together" / f"bass_report.{fmt}", fmt)
    assert len(together) == 2 * len(songs)


@pytest.mark.parametrize(
    "command, names",
    [
        ("curate", {"curate_report.jsonl", "curate_manifest.json", "curate_series"}),
        ("granger", {"granger_report.jsonl", "granger_histogram.jsonl"}),
        ("bass", {"bass_report.jsonl", "bass_scatter.jsonl", "bass_overlay.jsonl"}),
    ],
)
def test_stage_commands_write_only_their_own_files(tmp_path, demo_dir, command, names):
    assert main([command] + demo_args(demo_dir, tmp_path)) == 0
    assert {p.name for p in tmp_path.iterdir()} == names


def test_ccdf_totals_fixture(capsys, tmp_path):
    series_dir = tmp_path / "series"
    series_dir.mkdir()
    totals = {"s1": 1.0, "s2": 2.0, "s3": 3.0, "s4": 4.0}
    songs = []
    for song_id, total in totals.items():
        path = series_dir / f"{song_id}.csv"
        path.write_text(
            f"date,value\n2021-01-01,{total / 2}\n2021-01-02,{total / 2}\n"
        )
        songs.append({
            "song_id": song_id, "display_title": f"{song_id} by x",
            "short_video": f"series/{song_id}.csv", "web_search": None,
        })
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"format_version": 1, "songs": songs}))

    out_dir = tmp_path / "out"
    assert main([
        "ccdf", "--manifest", str(manifest), "--out-dir", str(out_dir),
    ]) == 0
    assert "4 songs" in capsys.readouterr().out

    points = read_report(out_dir / "ccdf_points.jsonl", "jsonl")
    assert [(p["popularity"], p["fraction_above"]) for p in points] == [
        (1.0, 0.75), (2.0, 0.5), (3.0, 0.25), (4.0, 0.0),
    ]
    summary = read_report(out_dir / "ccdf_summary.jsonl", "jsonl")[0]
    assert summary["n_songs"] == 4
    assert summary["min"] == 1.0 and summary["max"] == 4.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ccdf_names_the_song_whose_total_overflows(capsys, tmp_path):
    # every value is finite; only the sum passes the float64 range
    rows = "".join(f"2021-01-{day:02d},1e308\n" for day in range(1, 3))
    (tmp_path / "big.csv").write_text("date,value\n" + rows)
    (tmp_path / "small.csv").write_text("date,value\n2021-01-01,5\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "format_version": 1,
        "songs": [
            {"song_id": song_id, "display_title": f"{song_id} by x",
             "short_video": f"{song_id}.csv", "web_search": None}
            for song_id in ("small", "big")
        ],
    }))
    out_dir = tmp_path / "out"
    assert main(["ccdf", "--manifest", str(manifest), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: song 'big': short-video total overflows float64\n"
    assert not out_dir.exists()


def test_ccdf_single_song(tmp_path):
    series_dir = tmp_path / "series"
    series_dir.mkdir()
    (series_dir / "only.csv").write_text("date,value\n2021-01-01,9\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "format_version": 1,
        "songs": [{"song_id": "only", "display_title": "only by x",
                   "short_video": "series/only.csv", "web_search": None}],
    }))
    out_dir = tmp_path / "out"
    assert main(["ccdf", "--manifest", str(manifest), "--out-dir", str(out_dir)]) == 0
    points = read_report(out_dir / "ccdf_points.jsonl", "jsonl")
    assert points == [{"popularity": 9.0, "fraction_above": 0.0}]


def demo_payload(demo_dir) -> dict:
    """The demo manifest, with absolute paths."""
    payload = json.loads((demo_dir / "manifest.json").read_text(encoding="utf-8"))
    for song in payload["songs"]:
        for key in ("short_video", "web_search"):
            if song[key] is not None:
                song[key] = str(demo_dir / song[key])
    return payload


def demo_manifest_with_web_search(demo_dir, manifest, web_search) -> str:
    """Write the demo manifest with absolute paths and its first web_search path replaced.

    Returns the id of the first song.
    """
    payload = demo_payload(demo_dir)
    payload["songs"][0]["web_search"] = web_search
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    return payload["songs"][0]["song_id"]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_ccdf_reads_no_web_search_file(capsys, tmp_path, demo_dir, fmt):
    (tmp_path / "bad.csv").write_text("date,value\n2021-01-01,oops\n")
    runs = {}
    for name, web_search in (("null", None), ("missing", "gone.csv"), ("malformed", "bad.csv")):
        manifest = tmp_path / f"{name}.json"
        demo_manifest_with_web_search(demo_dir, manifest, web_search)
        code = main([
            "ccdf", "--manifest", str(manifest), "--out-dir", str(tmp_path / name), "--format", fmt,
        ])
        runs[name] = (code, capsys.readouterr())
    assert runs["null"][0] == 0
    assert runs["missing"] == runs["malformed"] == runs["null"]
    assert not compare_trees(tmp_path / "null", tmp_path / "missing")
    assert not compare_trees(tmp_path / "null", tmp_path / "malformed")


@pytest.mark.parametrize("command", ["curate", "granger", "bass", "pipeline"])
@pytest.mark.parametrize("web_search", ["gone.csv", "bad.csv"], ids=["missing", "malformed"])
def test_analysis_commands_still_read_web_search_files(capsys, tmp_path, demo_dir, command, web_search):
    (tmp_path / "bad.csv").write_text("date,value\n2021-01-01,oops\n")
    manifest = tmp_path / "manifest.json"
    song_id = demo_manifest_with_web_search(demo_dir, manifest, web_search)
    out_dir = tmp_path / "out"
    code = main([
        command, "--manifest", str(manifest), "--catalog", str(demo_dir / "catalog.csv"),
        "--out-dir", str(out_dir),
    ])
    assert code == 1
    assert f"song '{song_id}'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_pipeline_equals_staged_runs(capsys, tmp_path, demo_dir):
    staged = tmp_path / "staged"
    piped = tmp_path / "piped"
    staged_stdout = ""
    for command in ("curate", "granger", "bass"):
        assert main([command] + demo_args(demo_dir, staged)) == 0
        staged_stdout += capsys.readouterr().out
    assert main(["pipeline"] + demo_args(demo_dir, piped)) == 0
    assert capsys.readouterr().out == staged_stdout
    assert compare_trees(staged, piped) == []


@pytest.mark.parametrize("command", ["pipeline", "ccdf"])
def test_python_dash_m_matches_in_process_main(capsys, tmp_path, demo_dir, command):
    assert main([command] + demo_args(demo_dir, tmp_path / "in_process")) == 0
    in_process_stdout = capsys.readouterr().out
    # the package directory's parent, so the child imports this same resurge
    src = str(Path(resurge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "resurge", command] + demo_args(demo_dir, tmp_path / "module"),
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == in_process_stdout
    assert compare_trees(tmp_path / "in_process", tmp_path / "module") == []


def same_jsonl_value(actual, expected, rel_tol=1e-9):
    if type(expected) is float:
        return type(actual) is float and math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=0.0)
    return type(actual) is type(expected) and actual == expected


def test_demo_outputs_match_golden(tmp_path, demo_dir):
    for command in ("pipeline", "ccdf"):
        assert main([command] + demo_args(demo_dir, tmp_path / command)) == 0
    # .csv and .json files must match byte for byte; .jsonl floats to 1e-9 relative
    for name in compare_trees(tmp_path, GOLDEN_DIR):
        assert name.suffix == ".jsonl", f"{name} differs from its golden copy"
        actual = (tmp_path / name).read_text().splitlines()
        expected = (GOLDEN_DIR / name).read_text().splitlines()
        assert len(actual) == len(expected), name
        for got_line, want_line in zip(actual, expected):
            got, want = json.loads(got_line), json.loads(want_line)
            assert list(got) == list(want), name
            assert all(same_jsonl_value(got[k], want[k]) for k in want), (name, got, want)


def test_pipeline_csv_variant(tmp_path, demo_dir):
    out_dir = tmp_path / "out"
    assert main(["pipeline"] + demo_args(demo_dir, out_dir, fmt="csv")) == 0
    report = (out_dir / "granger_report.csv").read_text()
    assert report.splitlines()[0].startswith("song_id,lag,f_stat")
    assert len(read_report(out_dir / "curate_report.csv", "csv")) == 10
    # series exports keep their own format regardless of --format
    assert (out_dir / "curate_manifest.json").is_file()


def csv_cell(value):
    """A JSONL value as the CSV writer spells it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def test_csv_and_jsonl_reports_agree_cell_for_cell(tmp_path, demo_dir):
    for fmt in ("jsonl", "csv"):
        for command in ("pipeline", "ccdf"):
            assert main([command] + demo_args(demo_dir, tmp_path / fmt / command, fmt)) == 0
    reports = sorted(p.relative_to(tmp_path / "jsonl") for p in (tmp_path / "jsonl").rglob("*.jsonl"))
    assert len(reports) == 8
    for name in reports:
        jsonl_rows = read_report(tmp_path / "jsonl" / name, "jsonl")
        csv_rows = read_report(tmp_path / "csv" / name.with_suffix(".csv"), "csv")
        assert len(csv_rows) == len(jsonl_rows) > 0, name
        for csv_row, jsonl_row in zip(csv_rows, jsonl_rows):
            assert list(csv_row) == list(jsonl_row), name
            assert csv_row == {k: csv_cell(v) for k, v in jsonl_row.items()}, name


def flat_song(demo_dir, directory) -> dict:
    """A manifest entry: sr-004 with a constant web-search series, which Granger rejects."""
    series = demo_dir / "series"
    days = [line.split(",")[0]
            for line in (series / "sr-004__web_search.csv").read_text().splitlines()[1:]]
    (directory / "flat.csv").write_text("date,value\n" + "".join(f"{d},5.0\n" for d in days))
    return {"song_id": "flat", "display_title": "Flat by X",
            "short_video": str(series / "sr-004__short_video.csv"),
            "web_search": str(directory / "flat.csv")}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_failed_song_row_holds_only_id_and_error(capsys, tmp_path, demo_dir, fmt):
    # an allowlisted copy of sr-004 whose web-search series is constant
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"format_version": 1, "songs": [flat_song(demo_dir, tmp_path)]}))
    allowlist = tmp_path / "allow.txt"
    allowlist.write_text("flat\n")
    out_dir = tmp_path / "out"
    assert main([
        "granger", "--manifest", str(manifest), "--catalog", str(demo_dir / "catalog.csv"),
        "--allowlist", str(allowlist), "--peak-basis", "peak", "--out-dir", str(out_dir),
        "--format", fmt,
    ]) == 0
    assert "0 of 0 tested songs flagged at alpha=0.1 (1 failed)" in capsys.readouterr().out

    [row] = read_report(out_dir / f"granger_report.{fmt}", fmt)
    names = [name for name, _ in _GRANGER_FIELDS]
    assert list(row) == names
    assert row["song_id"] == "flat"
    assert row["error"] == "degenerate (constant) target series"
    blank = None if fmt == "jsonl" else ""
    assert [row[name] for name in names[1:-1]] == [blank] * (len(names) - 2)


def table_rows(table: ingest.Table) -> list[tuple]:
    """A report table's rows, an array column giving its cells as Python scalars."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table.columns)))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_error_rows_match_the_reference_writer(monkeypatch, capsys, tmp_path, demo_dir, fmt):
    # the demo songs, plus an allowlisted song that fails Granger next to
    # those that pass, so its None cells share columns with numbers and text
    manifest = tmp_path / "manifest.json"
    payload = demo_payload(demo_dir)
    payload["songs"].append(flat_song(demo_dir, tmp_path))
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    allowlist = tmp_path / "allow.txt"
    allowlist.write_text((demo_dir / "allowlist.txt").read_text() + "flat\n")
    written = {}
    write_report = ingest.write_report

    def write_both(table, schema, path, format):
        write_report(table, schema, path, format)
        names = [name for name, _ in schema]
        rows = table_rows(table)
        write_report_reference(rows, names, path.with_name("reference_" + path.name), format)
        written[path.name] = (schema, rows)

    monkeypatch.setattr(ingest, "write_report", write_both)
    out = tmp_path / "out"
    for command in ("pipeline", "ccdf"):
        assert main([
            command, "--manifest", str(manifest), "--catalog", str(demo_dir / "catalog.csv"),
            "--allowlist", str(allowlist), "--peak-basis", "peak",
            "--out-dir", str(out), "--format", fmt,
        ]) == 0
    assert "flagged at alpha=0.1 (1 failed)" in capsys.readouterr().out
    assert len(written) == 8
    for name in written:
        assert (out / name).read_bytes() == (out / f"reference_{name}").read_bytes(), name
    # the Granger report holds error rows and normal rows
    schema, rows = written[f"granger_report.{fmt}"]
    assert schema[-1] == ("error", str)
    assert {row[-1] is None for row in rows} == {True, False}


def test_every_report_is_a_table_whose_len_is_its_row_count(monkeypatch, tmp_path, demo_dir):
    # the benchmark's tracer counts the rows of each report as len() of
    # write_report's first positional argument
    seen = []
    write_report = ingest.write_report

    def spy(*args, **kwargs):
        assert len(args) == 4 and not kwargs
        write_report(*args)
        seen.append((args[0], args[2], args[3]))

    monkeypatch.setattr(ingest, "write_report", spy)
    for fmt in ("jsonl", "csv"):
        for command in ("pipeline", "ccdf"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, *demo_args(demo_dir, tmp_path / fmt, fmt)]) == 0
    assert len(seen) == 16
    for table, path, fmt in seen:
        lines = path.read_bytes().count(b"\n")
        assert len(table) == (lines if fmt == "jsonl" else lines - 1), path.name
        assert len(table) == len(read_report(path, fmt)), path.name
        assert [len(column) for column in table.columns] == [len(table)] * len(table.columns), path.name
    assert {path.name for _, path, _ in seen} == {
        f"{name}.{fmt}" for fmt in ("jsonl", "csv") for name in (
            "curate_report", "granger_report", "granger_histogram", "bass_report",
            "bass_scatter", "bass_overlay", "ccdf_points", "ccdf_summary",
        )
    }


def test_importing_the_cli_loads_no_dependency_beyond_numpy():
    # the README promises no runtime dependency beyond numpy; an import
    # is also part of every run's start-up time
    code = (
        "import sys; before = set(sys.modules); import resurge.cli; "
        "print(*{name.split('.')[0] for name in set(sys.modules) - before} - set(sys.stdlib_module_names))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(resurge.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert {"resurge"} <= set(done.stdout.split()) <= {"numpy", "resurge"}


def test_pipeline_on_empty_dataset(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"format_version": 1, "songs": []}))
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("title,artist,release_date,release_kind\n")
    out_dir = tmp_path / "out"
    assert main([
        "pipeline", "--manifest", str(manifest), "--catalog", str(catalog),
        "--out-dir", str(out_dir),
    ]) == 0
    for name in ("curate_report", "granger_report", "bass_report"):
        assert (out_dir / f"{name}.jsonl").read_text() == ""
    hist = read_report(out_dir / "granger_histogram.jsonl", "jsonl")
    assert sum(r["count"] for r in hist) == 0


def test_report_schemas_are_declared_once_and_well_formed():
    schemas = {name: value for name, value in vars(cli).items() if name.endswith("_FIELDS")}
    assert len(schemas) == 8
    for name, schema in schemas.items():
        names = [column for column, _ in schema]
        assert len(names) >= 2, name
        assert len(set(names)) == len(names), name
        assert all(type(column) is str and column.isascii() for column in names), name
        assert {kind for _, kind in schema} <= {bool, int, float, str}, name
    # the schemas whose failed songs get a row of only their song_id and error
    for schema in (cli._GRANGER_FIELDS, cli._BASS_FIELDS):
        assert schema[0] == ("song_id", str) and schema[-1] == ("error", str)


def scaled_pipeline(capsys, directory, demo_dir, short_video, web_search):
    """Run pipeline on the demo data with every series rewritten through
    write_series_file, each platform's values mapped by its function; returns
    the captured output and the bytes of each top-level output file
    (curate_series/ holds the scaled values)."""
    def scaled(ts, scale):
        return None if ts is None else type(ts)(days=ts.days, values=scale(ts.values))

    ingest.write_dataset(
        [dataclasses.replace(r, short_video_series=scaled(r.short_video_series, short_video),
                             web_search_series=scaled(r.web_search_series, web_search))
         for r in ingest.load_dataset(demo_dir / "manifest.json")],
        directory / "manifest.json", "series",
    )
    args = demo_args(demo_dir, directory / "out")
    args[args.index("--manifest") + 1] = str(directory / "manifest.json")
    assert main(["pipeline"] + args) == 0
    files = {p.name: p.read_bytes() for p in (directory / "out").iterdir() if p.is_file()}
    assert len(files) == 7
    return capsys.readouterr(), files


@pytest.mark.bit_identity
def test_power_of_two_units_leave_outputs_bit_identical(capsys, tmp_path, demo_dir):
    # (short-video k, web-search k): each platform's values scaled by 2^k
    scalings = [(0, 0), (100, 0), (990, 0), (-1000, 0), (0, -100), (900, 900)]
    runs = [
        scaled_pipeline(capsys, tmp_path / f"sv{sv}_ws{ws}", demo_dir,
                        lambda v: np.ldexp(v, sv), lambda v: np.ldexp(v, ws))
        for sv, ws in scalings
    ]
    for scaling, run in zip(scalings[1:], runs[1:]):
        assert run == runs[0], scaling


@pytest.mark.bit_identity
def test_decimal_units_keep_verdicts(capsys, tmp_path, demo_dir):
    # (short-video factor, web-search factor): values round differently, yet
    # verdicts and Granger figures must not move, and Bass floats only by rounding
    scalings = [(1.0, 1.0), (1000.0, 1000.0), (0.003, 7.0)]
    runs = [
        scaled_pipeline(capsys, tmp_path / f"sv{sv}_ws{ws}", demo_dir,
                        lambda v: v * sv, lambda v: v * ws)
        for sv, ws in scalings
    ]
    base_output, base_files = runs[0]
    exact = ("curate_manifest.json", "curate_report.jsonl", "granger_report.jsonl",
             "granger_histogram.jsonl")
    for scaling, (output, files) in zip(scalings[1:], runs[1:]):
        assert output == base_output, scaling
        assert files.keys() == base_files.keys(), scaling
        for name in exact:
            assert files[name] == base_files[name], (scaling, name)
        # the Bass reports: every non-float cell equal, floats to 1e-8 relative
        for name in sorted(files.keys() - set(exact)):
            rows = files[name].splitlines()
            base_rows = base_files[name].splitlines()
            assert len(rows) == len(base_rows), (scaling, name)
            for got, want in zip(map(json.loads, rows), map(json.loads, base_rows)):
                assert list(got) == list(want), (scaling, name)
                assert all(same_jsonl_value(got[k], want[k], rel_tol=1e-8) for k in want), (
                    scaling, name, got, want)


# --- the north star's scale --------------------------------------------------------

# every reason a song can get on these datasets: curation's, then the error rows
# of granger_report and bass_report
NORTH_STAR_REASONS = re.compile("|".join([
    r"kept", r"no web-search series", r"no catalog match", r"release kind is (album|other)",
    r"released \d{4}-\d\d-\d\d after cutoff", r"insufficient data for interpolation",
    r"degenerate series", r"no overlapping dates", r"window has \d+ points, need 20",
    r"degenerate \(constant\) (source|target) series", r"singular design matrix",
    r"series too short for diffusion fit \(need >= \d+ points\)",
]))
# each song's role and the funnel stage it reaches (6 for the kept ones)
NORTH_STAR_ROLES = {"driven": 6, "independent": 6, "gappy": 6, "allowlisted": 6, "nomatch": 2,
                    "album": 3, "late": 4, "no_web_search": 1, "no_overlap": 5, "spike": 6}


def _north_star_name(rng, words, consonants="cdghklmnprst", vowels="aeiou"):
    """``words`` capitalized words of 5-7 letters, consonant and vowel in turn."""
    pools = (consonants, vowels)
    return " ".join(
        "".join(pools[i % 2][rng.integers(len(pools[i % 2]))]
                for i in range(int(rng.integers(5, 8)))).capitalize()
        for _ in range(words)
    )


def _north_star_song(rng, role, n_days, peak):
    """(short-video series, web-search series or None): a revival of ``peak``
    daily views on an earlier bump, and a 0-100 search index."""
    start = dt.date(2015, 1, 1).toordinal() + int(rng.integers(0, 200))
    t = np.arange(n_days, dtype=float)
    center, width = rng.uniform(0.35, 0.7) * n_days, rng.uniform(0.06, 0.15) * n_days
    views = peak * (np.exp(-0.5 * ((t - center) / width) ** 2)
                    + 0.3 * np.exp(-0.5 * ((t - 0.2 * n_days) / (0.5 * width)) ** 2)
                    + rng.uniform(0.0, 0.01, n_days))
    if role == "spike":
        views = np.zeros(n_days)
        views[int(center): int(center) + 3] = peak
    if role in ("driven", "gappy", "allowlisted"):
        lag = int(rng.integers(1, 4))
        index = 100.0 * np.concatenate([views[:1].repeat(lag), views[:-lag]]) / views.max()
        index = index * rng.uniform(0.7, 1.0) + rng.normal(0.0, 2.0, n_days)
    else:
        index = 40.0 + np.cumsum(rng.normal(0.0, 3.0, n_days))
    index = np.clip(np.round(index), 0.0, 100.0)
    sv_days = ws_days = np.arange(start, start + n_days)
    if role == "gappy":  # 30% of the days missing on each platform, both ends kept
        sv_days, ws_days = (np.unique(np.concatenate([[0, n_days - 1], rng.choice(
            n_days, int(0.7 * n_days), replace=False)])) + start for _ in range(2))
    if role == "no_overlap":
        ws_days = ws_days - n_days - 30
    short_video = TimeSeries(days=sv_days, values=views[sv_days - start])
    if role == "no_web_search":
        return short_video, None
    return short_video, TimeSeries(days=ws_days, values=index[ws_days - ws_days[0]])


def north_star_dataset(directory, seed, n_days, entries, peak):
    """One song per role of ``NORTH_STAR_ROLES`` against a catalog of
    ``entries`` releases: each song's own, three near-miss decoys of it (an
    album rework, a title one letter off, the artist one letter off), and
    filler releases by the same artists.  Returns the pipeline arguments."""
    rng = np.random.default_rng(seed)
    records, catalog, allow = [], [], []
    artists = [_north_star_name(rng, 2) for _ in range(5)]
    before, after = dt.date(2010, 6, 1), dt.date(2018, 3, 1)
    for k, role in enumerate(NORTH_STAR_ROLES):
        song_id = f"ns-{k:02d}"
        if role == "nomatch":
            title, artist = (_north_star_name(rng, 2, "fjqvwxz", "fjqvwxz") for _ in range(2))
        else:
            title, artist = _north_star_name(rng, 3), artists[k % len(artists)]
        if role == "allowlisted":
            allow.append(song_id)
        elif role != "nomatch":
            kind = "album" if role == "album" else "single"
            catalog.append((title, artist, after if role == "late" else before, kind))
            swapped = title[:2] + ("x" if title[2] != "x" else "y") + title[3:]
            catalog += [(f"{title} (Rework)", artist, before - dt.timedelta(days=1), "album"),
                        (swapped, artist, before - dt.timedelta(days=2), "single"),
                        (title, artist[:-1] + "z", before - dt.timedelta(days=3), "other")]
        short_video, web_search = _north_star_song(rng, role, n_days, peak)
        records.append(curation.SongRecord(song_id, f"{title} by {artist}", short_video, web_search))
    while len(catalog) < entries:
        released = dt.date.fromordinal(int(rng.integers(before.toordinal(), after.toordinal())))
        catalog.append((_north_star_name(rng, 3), artists[int(rng.integers(len(artists)))], released,
                        ("single", "album", "other")[int(rng.integers(3))]))
    catalog = [catalog[i] for i in rng.permutation(len(catalog))]

    ingest.write_dataset(records, directory / "manifest.json", "series")
    (directory / "catalog.csv").write_text("title,artist,release_date,release_kind\n" + "".join(
        f"{t},{a},{d.isoformat()},{kind}\n" for t, a, d, kind in catalog))
    (directory / "allowlist.txt").write_text("".join(i + "\n" for i in allow))
    return ["--manifest", str(directory / "manifest.json"), "--catalog", str(directory / "catalog.csv"),
            "--allowlist", str(directory / "allowlist.txt"), "--peak-basis", "peak"]


@given(seed=st.integers(0, 2**32 - 1), n_days=st.integers(300, 700),
       entries=st.integers(1000, 3000), peak=st.floats(1e9, 1e10))
@settings(max_examples=4, deadline=None)
def test_north_star_scale_pipeline(seed, n_days, entries, peak):
    """Peaks of 1e9-1e10 views, 300-700-day series with gaps, 1000-3000
    catalog entries: exit 0 with nothing on stderr and no warning, the same
    bytes from two runs, and every drop or failure a reason from the set."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        directory = Path(tmp)
        args = north_star_dataset(directory, seed, n_days, entries, peak)
        outputs = []
        for run in ("a", "b"):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["pipeline", *args, "--out-dir", str(directory / run)])
            assert (code, err.getvalue()) == (0, ""), err.getvalue()
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        assert compare_trees(directory / "a", directory / "b") == []
        rows = read_report(directory / "a" / "curate_report.jsonl", "jsonl")
        assert [row["stage_reached"] for row in rows] == list(NORTH_STAR_ROLES.values())
        reasons = [row["reason"] for row in rows]
        for name in ("granger_report", "bass_report"):
            reasons += [row["error"] for row in read_report(directory / "a" / f"{name}.jsonl", "jsonl")
                        if row["error"] is not None]
        for reason in reasons:
            assert NORTH_STAR_REASONS.fullmatch(reason), reason

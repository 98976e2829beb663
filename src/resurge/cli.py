"""Command-line pipeline: curate, granger, bass, ccdf, pipeline.

The analysis runs in stages of fixed order: curate, then granger, then bass;
ccdf stands apart, needs only --manifest and sums the short-video series.  It
reads only the short-video files and ignores web-search paths, so a missing or
malformed web-search file is no error there.
Each command names the stages whose files it writes (``_COMMANDS``).  A run
first computes in memory every stage up to the last of those (``_run``),
re-running the earlier ones from the same inputs, and writes nothing until
all of them have succeeded; an input error therefore exits 1 and leaves
--out-dir alone.  Then one writer per stage writes that stage's files and
prints its summary.  So ``pipeline`` writes the same bytes, and prints the
same lines, as ``curate``, ``granger`` and ``bass`` run one after another.

Every report file is ``<stage>_<schema>.<ext>`` inside --out-dir; curate also
writes ``curate_manifest.json`` and ``curate_series/<song_id>__<platform>.csv``.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bass as bass_mod
from . import curation, granger, ingest, series

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one run; defaults follow the published analysis."""

    manifest: Path | None = None
    catalog: Path | None = None
    allowlist: Path | None = None
    cutoff_date: dt.date = curation.DEFAULT_CUTOFF
    min_points: int = curation.DEFAULT_MIN_POINTS
    peak_threshold: float = series.DEFAULT_PEAK_THRESHOLD
    peak_basis: str = series.DEFAULT_PEAK_BASIS
    lag_min: int = granger.LagSpec.min_lag
    lag_max: int = granger.LagSpec.max_lag
    alpha: float = granger.DEFAULT_ALPHA
    bass_rmse_max: float = 0.05
    out_dir: Path = field(default_factory=lambda: Path("out"))
    format: str = "jsonl"

    def __post_init__(self) -> None:
        if self.min_points < 1:
            raise ValueError("--min-points must be at least 1")
        if not 0.0 < self.peak_threshold < 1.0:
            raise ValueError("--peak-threshold must lie in (0, 1)")
        if self.peak_basis not in series.PEAK_BASES:
            raise ValueError("--peak-basis must be 'total' or 'peak'")
        if not 1 <= self.lag_min <= self.lag_max:
            raise ValueError("--lag-min/--lag-max must satisfy 1 <= min <= max")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("--alpha must lie in (0, 1)")
        if not self.bass_rmse_max > 0.0:
            raise ValueError("--bass-rmse-max must be positive")
        if self.format not in ingest.REPORT_FORMATS:
            raise ValueError("--format must be 'jsonl' or 'csv'")

    @property
    def lag_spec(self) -> granger.LagSpec:
        return granger.LagSpec(self.lag_min, self.lag_max)


def _parse_iso_date(text: str) -> dt.date:
    try:
        return ingest.parse_iso_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid ISO date {text!r}") from None


# built on first use and kept: parse_args leaves the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resurge",
        description=(
            "Analyze whether short-video popularity spikes anticipate "
            "web-search interest, song by song."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", type=Path, help="dataset manifest (JSON)")
    common.add_argument("--catalog", type=Path, help="release catalog CSV")
    common.add_argument("--allowlist", type=Path, help="manually curated song ids, one per line")
    common.add_argument("--cutoff-date", type=_parse_iso_date,
                        help="latest allowed release date (ISO), default %(default)s")
    common.add_argument("--min-points", type=int,
                        help="minimum points in the processed window, default %(default)s")
    common.add_argument("--peak-threshold", type=float,
                        help="peak-window threshold fraction, default %(default)s")
    common.add_argument("--peak-basis", choices=series.PEAK_BASES,
                        help="whether the threshold fraction applies to the series total or the peak value")
    common.add_argument("--lag-min", type=int, help="smallest lag to sweep, default %(default)s")
    common.add_argument("--lag-max", type=int, help="largest lag to sweep, default %(default)s")
    common.add_argument("--alpha", type=float,
                        help="significance level for the causality verdict, default %(default)s")
    common.add_argument("--bass-rmse-max", type=float,
                        help="rmse ceiling a diffusion fit must meet to be flagged acceptable, default %(default)s")
    common.add_argument("--out-dir", type=Path, help="output directory, default %(default)s")
    common.add_argument("--format", choices=ingest.REPORT_FORMATS, help="report format, default %(default)s")
    # after the arguments exist, so that %(default)s shows these values
    common.set_defaults(**dataclasses.asdict(RunConfig()))

    sub = parser.add_subparsers(dest="command", required=True)
    for name, description in (
        ("curate", "filter the dataset and write the kept songs"),
        ("granger", "lag-based causality screen over the curated songs"),
        ("bass", "diffusion-curve fits for the causally flagged songs"),
        ("ccdf", "distribution of per-song total popularity"),
        ("pipeline", "curate, then granger, then bass"),
    ):
        sub.add_parser(name, parents=[common], help=description, description=description)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})


def _write_report(config: RunConfig, name: str, table: ingest.Table, schema: tuple) -> None:
    ingest.write_report(table, schema, config.out_dir / f"{name}.{config.format}", config.format)


# --- report tables: a schema declares each column's (name, kind); a cell is that kind or None ---

_CURATE_FIELDS = (
    ("song_id", str), ("stage_reached", int), ("stage_name", str), ("kept", bool),
    ("reason", str),
)
_GRANGER_FIELDS = (
    ("song_id", str), ("lag", int), ("f_stat", float), ("df_num", int), ("df_den", int),
    ("ssr_ratio", float), ("p_value", float), ("best_p", float), ("causal", bool),
    ("alpha", float), ("error", str),
)
_HISTOGRAM_FIELDS = (("bin_lo", float), ("bin_hi", float), ("count", int))
_BASS_FIELDS = (
    ("song_id", str), ("platform", str), ("p", float), ("q", float), ("peak_time", float),
    ("residual_norm", float), ("rmse", float), ("rmse_within_max", bool), ("converged", bool),
    ("n_points", int), ("error", str),
)
_SCATTER_FIELDS = (
    ("song_id", str), ("p_short_video", float), ("q_short_video", float),
    ("p_web_search", float), ("q_web_search", float),
)
_OVERLAY_FIELDS = (
    ("song_id", str), ("platform", str), ("day", int), ("observed_cum", float),
    ("fitted_cum", float),
)
_CCDF_POINT_FIELDS = (("popularity", float), ("fraction_above", float))
_CCDF_SUMMARY_FIELDS = (
    ("n_songs", int), ("min", float), ("q1", float), ("median", float), ("q3", float),
    ("max", float),
)


_PLATFORMS = ("short_video", "web_search")  # a fitted song's, in the order of its rows


def _attrs(objects: list, *names: str) -> list[list]:
    """A column per name: each object's attribute of that name, or None for a None object."""
    return [[None if obj is None else getattr(obj, name) for obj in objects] for name in names]


def _song_rows(items, parts) -> tuple[list, list]:
    """Each row's song and part of it; a failed song has one row, whose part is None."""
    rows = [(item, part) for item in items for part in (parts(item) if item.error is None else [None])]
    return [item for item, _ in rows], [part for _, part in rows]


def _curation_table(report: curation.CurationReport) -> ingest.Table:
    song_id, stage, kept, reason = _attrs(report.outcomes, "song_id", "stage_reached", "kept", "reason")
    return ingest.Table(song_id, stage, [curation.STAGE_NAMES[s - 1] for s in stage], kept, reason)


def _granger_table(batch: granger.GrangerBatch) -> ingest.Table:
    items, lags = _song_rows(batch.items, lambda item: item.result.per_lag)
    song_id, error = _attrs(items, "song_id", "error")
    per_lag = _attrs(lags, "lag", "f_stat", "df_num", "df_den", "ssr_ratio", "p_value")
    per_song = _attrs([item.result for item in items], "best_p", "causal", "alpha")
    return ingest.Table(song_id, *per_lag, *per_song, error)


def _bass_table(batch: bass_mod.BassBatch, config: RunConfig) -> ingest.Table:
    items, platforms = _song_rows(batch.items, lambda item: _PLATFORMS)
    fits = [platform and getattr(item, platform) for item, platform in zip(items, platforms)]
    song_id, error = _attrs(items, "song_id", "error")
    params = _attrs([fit and fit.params for fit in fits], "p", "q", "peak_time")
    norm, rmse, converged, n_points = _attrs(fits, "residual_norm", "rmse", "converged", "n_points")
    within = [None if r is None else r <= config.bass_rmse_max for r in rmse]
    return ingest.Table(song_id, platforms, *params, norm, rmse, within, converged, n_points, error)


def _scatter_table(batch: bass_mod.BassBatch) -> ingest.Table:
    fitted = [item for item in batch.items if item.error is None]
    sv, ws = ([getattr(item, platform).params for item in fitted] for platform in _PLATFORMS)
    return ingest.Table(*_attrs(fitted, "song_id"), *_attrs(sv, "p", "q"), *_attrs(ws, "p", "q"))


def _overlay_table(batch: bass_mod.BassBatch) -> ingest.Table:
    # each fit's window, in bass_report's row order
    items, platforms = _song_rows([item for item in batch.items if item.error is None], lambda item: _PLATFORMS)
    fits = [getattr(item, platform) for item, platform in zip(items, platforms)]
    sizes = [fit.n_points for fit in fits]
    song_id, platform = (np.repeat(np.array(cells, dtype=object), sizes).tolist()
                         for cells in ([item.song_id for item in items], platforms))
    # [[]] leaves np.concatenate an array to join when no song was fitted
    offsets, observed, fitted = ([[]] + windows for windows in _attrs(fits, "offsets", "observed", "fitted"))
    return ingest.Table(song_id, platform, np.concatenate(offsets).astype(np.int64),
                        np.concatenate(observed), np.concatenate(fitted))


# --- stages -----------------------------------------------------------------

# command -> the stages whose files it writes, in order
_COMMANDS = {
    "curate": ("curate",),
    "granger": ("granger",),
    "bass": ("bass",),
    "pipeline": ("curate", "granger", "bass"),
    "ccdf": ("ccdf",),
}


@dataclass
class _Result:
    """What the stages of one run computed; unset for stages not run."""

    kept: list[curation.SongRecord] = field(default_factory=list)
    report: curation.CurationReport | None = None
    batch: granger.GrangerBatch | None = None
    fits: bass_mod.BassBatch | None = None
    totals: list[float] = field(default_factory=list)


def _run(config: RunConfig, through: str) -> _Result:
    """Load the inputs and compute every stage up to ``through``; writes nothing."""
    # ccdf sums only the short-video series, so it reads no web-search file
    records = ingest.load_dataset(config.manifest, web_search=(through != "ccdf"))
    result = _Result()
    if through == "ccdf":
        if not records:
            raise ValueError("manifest lists no songs")
        result.totals = [record.short_video_series.total() for record in records]
        for record, total in zip(records, result.totals):
            if math.isinf(total):
                raise ValueError(f"song '{record.song_id}': short-video total overflows float64")
        return result
    entries = ingest.parse_catalog_file(config.catalog)
    allowed = ingest.parse_allowlist(config.allowlist) if config.allowlist else []
    result.kept, result.report = curation.curate(
        records,
        entries,
        cutoff_date=config.cutoff_date,
        min_points=config.min_points,
        allowlist=allowed,
        peak_threshold=config.peak_threshold,
        peak_basis=config.peak_basis,
    )
    if through == "curate":
        return result
    result.batch = granger.batch_granger(result.kept, lags=config.lag_spec, alpha=config.alpha)
    if through == "granger":
        return result
    causal_ids = {
        item.song_id for item in result.batch.items if item.result is not None and item.result.causal
    }
    result.fits = bass_mod.batch_bass(record for record in result.kept if record.song_id in causal_ids)
    return result


# --- writers: one per stage, each writes its files and prints its summary ---------


def _write_curate(config: RunConfig, result: _Result) -> None:
    _write_report(config, "curate_report", _curation_table(result.report), _CURATE_FIELDS)
    ingest.write_dataset(result.kept, config.out_dir / "curate_manifest.json", "curate_series")
    for name, count in result.report.funnel:
        print(f"{name}: {count}")
    print(f"kept {len(result.kept)} songs")


def _write_granger(config: RunConfig, result: _Result) -> None:
    batch = result.batch
    edges = np.linspace(0.0, 1.0, 11)
    counts = np.histogram([it.result.best_p for it in batch.items if it.result is not None], bins=edges)[0]
    _write_report(config, "granger_report", _granger_table(batch), _GRANGER_FIELDS)
    _write_report(config, "granger_histogram", ingest.Table(edges[:-1], edges[1:], counts), _HISTOGRAM_FIELDS)
    print(
        f"causality screen: {batch.n_causal} of {batch.n_tested} tested songs "
        f"flagged at alpha={config.alpha:g} ({batch.n_failed} failed)"
    )


def _write_bass(config: RunConfig, result: _Result) -> None:
    fits = result.fits
    _write_report(config, "bass_report", _bass_table(fits, config), _BASS_FIELDS)
    _write_report(config, "bass_scatter", _scatter_table(fits), _SCATTER_FIELDS)
    _write_report(config, "bass_overlay", _overlay_table(fits), _OVERLAY_FIELDS)
    print(
        f"diffusion fits: {fits.n_fits} fits over {fits.n_total} flagged songs "
        f"({fits.n_failed} failed)"
    )


def _write_ccdf(config: RunConfig, result: _Result) -> None:
    arr = np.asarray(result.totals, dtype=np.float64)
    q1, median, q3 = np.quantile(arr, [0.25, 0.5, 0.75]).tolist()
    summary = (arr.size, float(arr.min()), q1, median, q3, float(arr.max()))
    _write_report(config, "ccdf_points", ingest.Table(*series.ccdf(result.totals)), _CCDF_POINT_FIELDS)
    _write_report(config, "ccdf_summary", ingest.Table(*([cell] for cell in summary)), _CCDF_SUMMARY_FIELDS)
    print("popularity over %d songs: min %.12g, q1 %.12g, median %.12g, q3 %.12g, max %.12g" % summary)


_WRITERS = {
    "curate": _write_curate,
    "granger": _write_granger,
    "bass": _write_bass,
    "ccdf": _write_ccdf,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    stages = _COMMANDS[args.command]
    through = stages[-1]
    # ParseError is a ValueError: bad flag values and unreadable or malformed
    # inputs all end here before anything is written, and so does a write
    # that fails (say, --out-dir naming an existing file)
    try:
        config = _config_from_args(args)
        if config.manifest is None:
            raise ValueError("--manifest is required")
        if through != "ccdf" and config.catalog is None:
            raise ValueError("--catalog is required")
        result = _run(config, through)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        for stage in stages:
            _WRITERS[stage](config, result)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

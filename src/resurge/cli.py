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

Every output file is ``<stage>_<schema>.<ext>`` inside --out-dir.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
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
    peak_threshold: float = 0.05
    peak_basis: str = "total"
    lag_min: int = 1
    lag_max: int = 5
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


def _write_report(config: RunConfig, name: str, rows: list[tuple], fields: tuple[str, ...]) -> None:
    ingest.write_report(rows, fields, config.out_dir / f"{name}.{config.format}", config.format)


# --- report rows: each report is its column names plus one value per column ---

_CURATE_FIELDS = ("song_id", "stage_reached", "stage_name", "kept", "reason")
_GRANGER_FIELDS = (
    "song_id", "lag", "f_stat", "df_num", "df_den", "ssr_restricted",
    "ssr_unrestricted", "p_value", "best_p", "causal", "alpha",
    "statistic", "intercept", "error",
)
_HISTOGRAM_FIELDS = ("bin_lo", "bin_hi", "count")
_BASS_FIELDS = (
    "song_id", "platform", "p", "q", "peak_time", "residual_norm", "rmse",
    "rmse_within_max", "converged", "n_points", "error",
)
_SCATTER_FIELDS = (
    "song_id", "p_short_video", "q_short_video", "p_web_search", "q_web_search",
)
_OVERLAY_FIELDS = ("song_id", "platform", "day", "observed_cum", "fitted_cum")
_CCDF_POINT_FIELDS = ("popularity", "fraction_above")
_CCDF_SUMMARY_FIELDS = ("n_songs", "min", "q1", "median", "q3", "max")


def _error_row(fields: tuple[str, ...], song_id: str, error: str) -> tuple:
    """A failed song's row in a schema that starts with song_id and ends with error."""
    return (song_id,) + (None,) * (len(fields) - 2) + (error,)


def _curation_rows(report: curation.CurationReport) -> list[tuple]:
    return [
        (o.song_id, o.stage_reached, curation.STAGE_NAMES[o.stage_reached - 1], o.kept, o.reason)
        for o in report.outcomes
    ]


def _granger_rows(batch: granger.GrangerBatch) -> list[tuple]:
    rows = []
    for item in batch.items:
        res = item.result
        if res is None:
            rows.append(_error_row(_GRANGER_FIELDS, item.song_id, item.error))
            continue
        rows.extend(
            (item.song_id, r.lag, r.f_stat, r.df_num, r.df_den, r.ssr_restricted,
             r.ssr_unrestricted, r.p_value, res.best_p, res.causal, res.alpha,
             "ssr_f", True, None)
            for r in res.per_lag
        )
    return rows


def _histogram_rows(batch: granger.GrangerBatch) -> list[tuple]:
    best = [it.result.best_p for it in batch.items if it.result is not None]
    edges = np.linspace(0.0, 1.0, 11)
    counts, _ = np.histogram(best, bins=edges)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))


def _bass_rows(batch: bass_mod.BassBatch, config: RunConfig) -> list[tuple]:
    rows = []
    for item in batch.items:
        if item.error is not None:
            rows.append(_error_row(_BASS_FIELDS, item.song_id, item.error))
            continue
        rows.extend(
            (item.song_id, platform, fit.params.p, fit.params.q, fit.params.peak_time,
             fit.residual_norm, fit.rmse, fit.rmse <= config.bass_rmse_max,
             fit.converged, fit.n_points, None)
            for platform, fit in (("short_video", item.short_video), ("web_search", item.web_search))
        )
    return rows


def _scatter_rows(batch: bass_mod.BassBatch) -> list[tuple]:
    return [
        (item.song_id, item.short_video.params.p, item.short_video.params.q,
         item.web_search.params.p, item.web_search.params.q)
        for item in batch.items
        if item.error is None
    ]


def _overlay_rows(batch: bass_mod.BassBatch, flagged: list[curation.SongRecord]) -> list[tuple]:
    rows = []
    # batch_bass keeps input order, so item i is the fit of flagged[i]
    for item, record in zip(batch.items, flagged):
        if item.error is not None:
            continue
        for platform, fit, ts in (
            ("short_video", item.short_video, record.short_video_series),
            ("web_search", item.web_search, record.web_search_series),
        ):
            observed = series.cumulative_normalized(ts)
            offsets = ts.days - ts.days[0]
            fitted = bass_mod.bass_cumulative(fit.params, offsets.astype(np.float64))
            rows.extend(
                (item.song_id, platform, day, obs, model)
                for day, obs, model in zip(offsets.tolist(), observed.values.tolist(), fitted.tolist())
            )
    return rows


def _ccdf_rows(totals: list[float]) -> tuple[list[tuple], list[tuple]]:
    point_rows = [(pt.popularity, pt.fraction_above) for pt in series.ccdf(totals)]
    arr = np.asarray(totals, dtype=np.float64)
    q1, median, q3 = np.quantile(arr, [0.25, 0.5, 0.75]).tolist()
    return point_rows, [(arr.size, float(arr.min()), q1, median, q3, float(arr.max()))]


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
    flagged: list[curation.SongRecord] = field(default_factory=list)
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
    result.flagged = [record for record in result.kept if record.song_id in causal_ids]
    result.fits = bass_mod.batch_bass(result.flagged)
    return result


# --- writers: one per stage, each writes its files and prints its summary ---------


def _write_curate(config: RunConfig, result: _Result) -> None:
    _write_report(config, "curate_report", _curation_rows(result.report), _CURATE_FIELDS)
    ingest.write_dataset(result.kept, config.out_dir / "curate_manifest.json", "curate_series")
    for name, count in result.report.funnel:
        print(f"{name}: {count}")
    print(f"kept {len(result.kept)} songs")


def _write_granger(config: RunConfig, result: _Result) -> None:
    batch = result.batch
    _write_report(config, "granger_report", _granger_rows(batch), _GRANGER_FIELDS)
    _write_report(config, "granger_histogram", _histogram_rows(batch), _HISTOGRAM_FIELDS)
    print(
        f"causality screen: {batch.n_causal} of {batch.n_tested} tested songs "
        f"flagged at alpha={config.alpha:g} ({batch.n_failed} failed)"
    )


def _write_bass(config: RunConfig, result: _Result) -> None:
    fits = result.fits
    _write_report(config, "bass_report", _bass_rows(fits, config), _BASS_FIELDS)
    _write_report(config, "bass_scatter", _scatter_rows(fits), _SCATTER_FIELDS)
    _write_report(config, "bass_overlay", _overlay_rows(fits, result.flagged), _OVERLAY_FIELDS)
    print(
        f"diffusion fits: {fits.n_fits} fits over {len(result.flagged)} flagged songs "
        f"({fits.n_failed} failed)"
    )


def _write_ccdf(config: RunConfig, result: _Result) -> None:
    point_rows, summary_rows = _ccdf_rows(result.totals)
    _write_report(config, "ccdf_points", point_rows, _CCDF_POINT_FIELDS)
    _write_report(config, "ccdf_summary", summary_rows, _CCDF_SUMMARY_FIELDS)
    n_songs, low, q1, median, q3, high = summary_rows[0]
    print(
        f"popularity over {n_songs} songs: min {low:.12g}, "
        f"q1 {q1:.12g}, median {median:.12g}, q3 {q3:.12g}, max {high:.12g}"
    )


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

"""Spans around the public functions of each resurge module, kept in memory.

The program is not changed: while a :class:`Tracer` is installed, selected
module attributes are replaced by timing wrappers and put back afterwards.
Each name is wrapped in the namespace where its caller looks it up, so
``granger.ols_fit`` times the least-squares calls the Granger test makes and
nothing else.  Wrapping stops at per-song granularity or at the numeric
kernels (least squares, F tail, damped Gauss-Newton); the per-pair
``partial_ratio`` is never wrapped.

A span records its name, the layer (the module that defines the function),
start and end in ``perf_counter_ns``, the index of its parent span and the
work counted at that boundary.  A layer's self time is the time of its spans
minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from corpus import BASS_RMSE_MAX

LAYERS = ("ingest", "curation", "series", "granger", "numerics", "bass", "cli")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Point:
    """One wrapped attribute: ``resurge.<module>.<attr>``, shown as ``name``."""

    name: str
    module: str
    attr: str
    count: Callable[[tuple, dict, object], dict] | None = None


POINTS = (
    # reading the inputs
    Point("cli.ingest.load_dataset", "ingest", "load_dataset"),
    Point("ingest.parse_series_file", "ingest", "parse_series_file",
          lambda a, k, r: {"rows": len(r)}),
    Point("cli.ingest.parse_catalog_file", "ingest", "parse_catalog_file",
          lambda a, k, r: {"rows": len(r)}),
    Point("cli.ingest.parse_allowlist", "ingest", "parse_allowlist",
          lambda a, k, r: {"rows": len(r)}),
    # curation: per-song matching and windowing
    Point("cli.curation.curate", "curation", "curate",
          lambda a, k, r: {"songs": len(_arg(a, k, 0, "records")), "kept": len(r[0])}),
    Point("curation.match_catalog", "curation", "match_catalog",
          lambda a, k, r: {"pairs": len(_arg(a, k, 1, "catalog"))}),
    Point("curation.interpolate_daily", "curation", "interpolate_daily"),
    Point("curation.peak_window", "curation", "peak_window"),
    Point("curation.align_pair", "curation", "align_pair"),
    # causality screen
    Point("cli.granger.batch_granger", "granger", "batch_granger",
          lambda a, k, r: {"songs": r.n_total, "failed": r.n_failed, "tested": r.n_tested,
                           "flagged": r.n_causal}),
    Point("granger.granger_test", "granger", "granger_test"),
    Point("granger.ols_fit", "granger", "ols_fit"),
    Point("granger.f_survival", "granger", "f_survival"),
    # diffusion fits
    Point("cli.bass.batch_bass", "bass", "batch_bass",
          lambda a, k, r: {"songs": r.n_total, "failed": r.n_failed,
                           "fitted": r.n_total - r.n_failed}),
    Point("bass.fit_bass", "bass", "fit_bass",
          lambda a, k, r: {"within_max": int(r.rmse <= BASS_RMSE_MAX)}),
    Point("bass.damped_least_squares", "bass", "damped_least_squares",
          lambda a, k, r: {"iterations": r.iterations, "converged": int(r.converged)}),
    # report rows the cli builds from library calls
    Point("cli.series.cumulative_normalized", "series", "cumulative_normalized"),
    Point("cli.bass.bass_cumulative", "bass", "bass_cumulative"),
    Point("cli.series.ccdf", "series", "ccdf"),
    # writing the outputs
    Point("cli.ingest.write_report", "ingest", "write_report",
          lambda a, k, r: {"rows": len(_arg(a, k, 0, "rows"))}),
    Point("cli.ingest.write_series_file", "ingest", "write_series_file",
          lambda a, k, r: {"rows": len(_arg(a, k, 0, "series"))}),
    Point("cli.ingest.write_manifest", "ingest", "write_manifest",
          lambda a, k, r: {"rows": len(_arg(a, k, 0, "manifest").songs)}),
)

ROOT_SPAN = "cli.main"

_LOAD = ("cli.ingest.load_dataset", "cli.ingest.parse_catalog_file", "cli.ingest.parse_allowlist")
_WRITE = ("cli.ingest.write_report", "cli.ingest.write_series_file", "cli.ingest.write_manifest")
_WINDOW = ("curation.interpolate_daily", "curation.peak_window", "curation.align_pair")


@dataclass
class Span:
    name: str
    layer: str
    start: int
    end: int
    parent: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Collects spans while installed; :meth:`clear` starts a new run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self._open.clear()

    def call(self, name: str, layer: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; the benchmark opens the root span this way."""
        spans, stack = self.spans, self._open
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(Span(name, layer, 0, 0, parent))
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index].start, spans[index].end = start, end
        if count is not None:
            spans[index].counts = count(args, kwargs, result)
        return result

    def _wrap(self, point: Point, original):
        layer = original.__module__.rpartition(".")[2]
        call = self.call

        def traced(*args, **kwargs):
            return call(point.name, layer, original, *args, count=point.count, **kwargs)

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        """Wrap every point for the duration of the block, then restore."""
        patched = []
        try:
            for point in POINTS:
                module = importlib.import_module(f"resurge.{point.module}")
                original = getattr(module, point.attr)
                setattr(module, point.attr, self._wrap(point, original))
                patched.append((module, point.attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    return [(s.end - s.start - c) / 1e9 for s, c in zip(spans, child_ns)]


def _total(spans, names, key=None) -> float:
    if key is None:
        return sum(s.seconds for s in spans if s.name in names)
    return sum(s.counts.get(key, 0) for s in spans if s.name in names)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def run_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced command run."""
    m: dict[str, float] = {}
    pairs = _total(spans, ("curation.match_catalog",), "pairs")
    m["curation.match_s"] = _total(spans, ("curation.match_catalog",))
    m["curation.match_pairs"] = pairs
    m["curation.us_per_pair"] = _per(m["curation.match_s"], pairs, 1e6)
    m["curation.curate_s"] = _total(spans, ("cli.curation.curate",))
    m["curation.kept_frac"] = _per(
        _total(spans, ("cli.curation.curate",), "kept"), _total(spans, ("cli.curation.curate",), "songs")
    )
    m["series.window_s"] = _total(spans, _WINDOW)

    granger_songs = _total(spans, ("cli.granger.batch_granger",), "songs")
    m["granger.batch_s"] = _total(spans, ("cli.granger.batch_granger",))
    m["granger.ms_per_song"] = _per(m["granger.batch_s"], granger_songs, 1e3)
    m["granger.songs_tested"] = _total(spans, ("cli.granger.batch_granger",), "tested")
    m["granger.songs_failed"] = _total(spans, ("cli.granger.batch_granger",), "failed")
    m["granger.songs_flagged"] = _total(spans, ("cli.granger.batch_granger",), "flagged")

    nls = [s for s in spans if s.name == "bass.damped_least_squares"]
    m["numerics.ols_calls"] = sum(1 for s in spans if s.name == "granger.ols_fit")
    m["numerics.ols_s"] = _total(spans, ("granger.ols_fit",))
    m["numerics.fsurv_calls"] = sum(1 for s in spans if s.name == "granger.f_survival")
    m["numerics.fsurv_s"] = _total(spans, ("granger.f_survival",))
    m["numerics.nls_calls"] = len(nls)
    m["numerics.nls_iters"] = sum(s.counts.get("iterations", 0) for s in nls)
    m["numerics.nls_s"] = sum(s.seconds for s in nls)
    m["numerics.nls_converged_frac"] = _per(sum(s.counts.get("converged", 0) for s in nls), len(nls))

    bass_songs = _total(spans, ("cli.bass.batch_bass",), "songs")
    fits = [s for s in spans if s.name == "bass.fit_bass"]
    m["bass.batch_s"] = _total(spans, ("cli.bass.batch_bass",))
    m["bass.ms_per_song"] = _per(m["bass.batch_s"], bass_songs, 1e3)
    m["bass.songs_fitted"] = _total(spans, ("cli.bass.batch_bass",), "fitted")
    m["bass.songs_failed"] = _total(spans, ("cli.bass.batch_bass",), "failed")
    m["bass.rmse_within_max_frac"] = _per(sum(s.counts.get("within_max", 0) for s in fits), len(fits))

    rows_read = _total(spans, ("ingest.parse_series_file",) + _LOAD[1:], "rows")
    m["ingest.load_s"] = _total(spans, _LOAD)
    m["ingest.rows_read"] = rows_read
    m["ingest.us_per_row_read"] = _per(m["ingest.load_s"], rows_read, 1e6)
    m["ingest.write_s"] = _total(spans, _WRITE)
    m["ingest.rows_written"] = _total(spans, _WRITE, "rows")
    m["ingest.bytes_written"] = bytes_written

    own = self_seconds(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer)
    return m


def call_ms(spans: list[Span], name: str) -> list[float]:
    """Durations of every call to ``name``, in milliseconds."""
    return [s.seconds * 1e3 for s in spans if s.name == name]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated inclusively; 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

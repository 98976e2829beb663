"""Dataset curation: fuzzy catalog matching and the ordered filter funnel.

A record enters with a display title like "Song by Artist" plus its raw
series, and survives six stages:

  1. a web-search series exists
  2. a catalog entry matches the display title (fuzzy, both title and artist)
  3. the matched release is a single
  4. the release date is on or before the cutoff
  5. interpolation, peak windowing and alignment succeed
  6. the processed window has enough points

Allowlisted songs skip stages 2-4, catalog matching included: manual
evidence beats the automatic filters.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from dataclasses import dataclass, replace
from typing import Iterable, Literal, Sequence

from .series import TimeSeries, align_pair, interpolate_daily, peak_window

__all__ = [
    "DEFAULT_CUTOFF",
    "DEFAULT_MIN_POINTS",
    "DEFAULT_MATCH_THRESHOLD",
    "STAGE_NAMES",
    "CatalogEntry",
    "SongRecord",
    "SongOutcome",
    "CurationReport",
    "indel_distance",
    "partial_ratio",
    "match_catalog",
    "curate",
]

DEFAULT_CUTOFF = dt.date(2016, 9, 30)
DEFAULT_MIN_POINTS = 20
DEFAULT_MATCH_THRESHOLD = 50

ReleaseKind = Literal["single", "album", "other"]

STAGE_NAMES = (
    "web_search_present",
    "catalog_match",
    "single_release",
    "release_cutoff",
    "peak_window",
    "min_points",
)

_WHITESPACE = re.compile(r"\s+")


@dataclass(frozen=True)
class CatalogEntry:
    title: str
    artist: str
    release_date: dt.date
    release_kind: ReleaseKind

    def __post_init__(self) -> None:
        if self.release_kind not in ("single", "album", "other"):
            raise ValueError(f"invalid release_kind {self.release_kind!r}")
        if not self.title.strip() or not self.artist.strip():
            raise ValueError("catalog entries need a non-empty title and artist")


@dataclass(frozen=True)
class SongRecord:
    """One song's identity and its per-platform series."""

    song_id: str
    display_title: str
    short_video_series: TimeSeries
    web_search_series: TimeSeries | None = None


@dataclass(frozen=True)
class SongOutcome:
    song_id: str
    stage_reached: int
    kept: bool
    reason: str


@dataclass(frozen=True)
class CurationReport:
    outcomes: tuple[SongOutcome, ...]
    funnel: tuple[tuple[str, int], ...]


def _normalize(text: str) -> str:
    return _WHITESPACE.sub(" ", text.lower()).strip()


def indel_distance(a: str, b: str) -> int:
    """Minimum number of single-character insertions and deletions from a to b."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def partial_ratio(a: str, b: str) -> int:
    """Best local similarity of the shorter string against the longer, 0-100.

    Both inputs are lowercased, whitespace-collapsed and stripped
    (punctuation stays).  The shorter normalized string is slid across every
    same-length window of the longer one; when the longer string is under
    twice the shorter's length the whole longer string is also a candidate.
    Each candidate scores 1 - indel / (len_s + len_w); the best score is
    returned as an integer percentage, rounded half-up.
    """
    s = _normalize(a)
    l = _normalize(b)
    if not s or not l:
        raise ValueError("strings must be non-empty after normalization")
    if len(s) > len(l):
        s, l = l, s
    candidates = [l[i : i + len(s)] for i in range(len(l) - len(s) + 1)]
    if len(l) < 2 * len(s) and len(l) != len(s):
        candidates.append(l)
    best = 0.0
    for w in candidates:
        score = 1.0 - indel_distance(s, w) / (len(s) + len(w))
        if score > best:
            best = score
    return int(math.floor(best * 100.0 + 0.5))


def match_catalog(
    record: SongRecord,
    catalog: Sequence[CatalogEntry],
    threshold: int = DEFAULT_MATCH_THRESHOLD,
) -> CatalogEntry | None:
    """Best catalog entry whose title and artist both beat the threshold.

    Both scores must be strictly above ``threshold`` against the record's
    display title.  Candidates rank by the smaller of the two scores; ties
    break toward the earlier release date, then the lexicographically
    smaller title, so matching is deterministic.
    """
    best_key = None
    best_entry = None
    for entry in catalog:
        title_score = partial_ratio(entry.title, record.display_title)
        artist_score = partial_ratio(entry.artist, record.display_title)
        if title_score <= threshold or artist_score <= threshold:
            continue
        key = (-min(title_score, artist_score), entry.release_date, entry.title)
        if best_key is None or key < best_key:
            best_key = key
            best_entry = entry
    return best_entry


def _process_series(
    record: SongRecord,
    threshold_fraction: float,
    basis: str,
) -> tuple[TimeSeries, TimeSeries]:
    """Stage-5 transform: daily grids, short-video peak window, alignment."""
    short_video = interpolate_daily(record.short_video_series)
    web_search = interpolate_daily(record.web_search_series)
    window = peak_window(short_video, threshold_fraction, basis)
    windowed = short_video.window_slice(window)
    return align_pair(windowed, web_search)


def curate(
    records: Sequence[SongRecord],
    catalog: Sequence[CatalogEntry],
    cutoff_date: dt.date = DEFAULT_CUTOFF,
    min_points: int = DEFAULT_MIN_POINTS,
    allowlist: Iterable[str] = (),
    match_threshold: int = DEFAULT_MATCH_THRESHOLD,
    peak_threshold: float = 0.05,
    peak_basis: str = "total",
) -> tuple[list[SongRecord], CurationReport]:
    """Run the six-stage funnel and return kept records plus a full report.

    Kept records carry the processed (windowed, aligned) series.  Allowlisted
    records are never matched against the catalog.
    Raises on duplicate song identifiers; everything else is recorded as a
    per-song drop with the stage it failed at.
    """
    if min_points < 1:
        raise ValueError("min_points must be at least 1")
    seen: set[str] = set()
    for record in records:
        if record.song_id in seen:
            raise ValueError(f"duplicate song identifier: {record.song_id}")
        seen.add(record.song_id)
    allowed = set(allowlist)

    kept: list[SongRecord] = []
    outcomes: list[SongOutcome] = []
    survivors = [0] * (len(STAGE_NAMES) + 1)
    survivors[0] = len(records)

    for record in records:
        if record.web_search_series is None:
            outcomes.append(SongOutcome(record.song_id, 1, False, "no web-search series"))
            continue

        if record.song_id not in allowed:
            entry = match_catalog(record, catalog, match_threshold)
            if entry is None:
                outcomes.append(SongOutcome(record.song_id, 2, False, "no catalog match"))
                continue
            if entry.release_kind != "single":
                outcomes.append(
                    SongOutcome(record.song_id, 3, False, f"release kind is {entry.release_kind}")
                )
                continue
            if entry.release_date > cutoff_date:
                outcomes.append(
                    SongOutcome(
                        record.song_id,
                        4,
                        False,
                        f"released {entry.release_date.isoformat()} after cutoff",
                    )
                )
                continue

        try:
            short_video, web_search = _process_series(record, peak_threshold, peak_basis)
        except ValueError as exc:
            outcomes.append(SongOutcome(record.song_id, 5, False, str(exc)))
            continue

        if len(short_video) < min_points:
            outcomes.append(
                SongOutcome(
                    record.song_id,
                    6,
                    False,
                    f"window has {len(short_video)} points, need {min_points}",
                )
            )
            continue

        kept.append(
            replace(record, short_video_series=short_video, web_search_series=web_search)
        )
        outcomes.append(SongOutcome(record.song_id, len(STAGE_NAMES), True, "kept"))

    for outcome in outcomes:
        # a record dropped at stage k survived stages 1..k-1
        last_survived = outcome.stage_reached if outcome.kept else outcome.stage_reached - 1
        for stage in range(1, last_survived + 1):
            survivors[stage] += 1

    funnel = (("input", survivors[0]),) + tuple(
        (name, survivors[i + 1]) for i, name in enumerate(STAGE_NAMES)
    )
    report = CurationReport(outcomes=tuple(outcomes), funnel=funnel)
    return kept, report

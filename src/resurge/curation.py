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
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
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

    @cached_property
    def _match_texts(self) -> tuple[_MatchText, _MatchText]:
        """Title and artist prepared for matching, built on first use."""
        return _MatchText(self.title), _MatchText(self.artist)


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


def _char_masks(text: str) -> dict[str, int]:
    """Bit i of the mask of ch is set where text[i] == ch."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(text):
        masks[ch] = masks.get(ch, 0) | 1 << i
    return masks


def _lcs_length(masks: dict[str, int], m: int, text: str) -> int:
    """Length of the longest common subsequence of a needle and ``text``.

    ``masks`` are the needle's ``_char_masks`` and ``m`` its length.  This is
    the bit-parallel recurrence of Allison & Dix (1986) in the form of Hyyrö
    (2004), "Bit-parallel LCS-length computation revisited"; RapidFuzz's Indel
    scorer uses the same method.  The zero bits of ``v`` count the LCS.
    """
    full = (1 << m) - 1
    v = full
    get = masks.get
    for ch in text:
        u = v & get(ch, 0)
        v = ((v + u) | (v - u)) & full
    return m - v.bit_count()


class _MatchText:
    """One normalized string with its LCS masks and character counts."""

    __slots__ = ("text", "masks", "counts")

    def __init__(self, raw: str) -> None:
        self.text = _normalize(raw)
        if not self.text:
            raise ValueError("strings must be non-empty after normalization")
        self.masks = _char_masks(self.text)
        self.counts = Counter(self.text)


def _score(m: int, n: int, lcs: int) -> float:
    # the integer indel first, then 1 - indel / total: algebraically equal
    # forms such as 2 * lcs / total round differently at the half percent
    return 1.0 - (m + n - 2 * lcs) / (m + n)


def _percent(score: float) -> int:
    return int(math.floor(score * 100.0 + 0.5))


def _similarity(a: _MatchText, b: _MatchText) -> int:
    """The ``partial_ratio`` of two prepared strings."""
    s, l = (b, a) if len(a.text) > len(b.text) else (a, b)
    m, hay = len(s.text), l.text
    # every window has the same denominator, so the longest LCS scores best
    lcs = max(_lcs_length(s.masks, m, hay[i : i + m]) for i in range(len(hay) - m + 1))
    best = _score(m, m, lcs)
    if len(hay) < 2 * m and len(hay) != m:
        best = max(best, _score(m, len(hay), _lcs_length(s.masks, m, hay)))
    return _percent(best)


def _similarity_bound(a: _MatchText, b: _MatchText) -> int:
    """An upper bound on ``_similarity(a, b)`` from character counts alone.

    Every candidate's LCS is at most the size of the multiset intersection,
    and the whole-string candidate scores no higher than a window with the same
    LCS.
    """
    m = min(len(a.text), len(b.text))
    return _percent(_score(m, m, sum((a.counts & b.counts).values())))


def partial_ratio(a: str, b: str) -> int:
    """Best local similarity of the shorter string against the longer, 0-100.

    Both inputs are lowercased, whitespace-collapsed and stripped
    (punctuation stays).  The shorter normalized string is slid across every
    same-length window of the longer one; when the longer string is under
    twice the shorter's length the whole longer string is also a candidate.
    Each candidate scores 1 - indel / (len_s + len_w); the best score is
    returned as an integer percentage, rounded half-up.
    """
    return _similarity(_MatchText(a), _MatchText(b))


def _rank_key(entry: CatalogEntry, title_score: int, artist_score: int, threshold: int):
    """The sort key of ``match_catalog``, or None when a score fails the threshold."""
    low = min(title_score, artist_score)
    if low <= threshold:
        return None
    return (-low, entry.release_date, entry.title)


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

    Scores start as upper bounds and are made exact one at a time.  A key
    built from bounds is never better than the exact key, so an entry is
    dropped as soon as such a key fails the threshold or cannot beat the
    best key so far; this never changes the match.
    """
    if not catalog:
        return None
    display = _MatchText(record.display_title)
    best_key: tuple = (math.inf,)  # ranks after every real key
    best_entry = None
    for entry in catalog:
        title, artist = entry._match_texts
        artist_bound = _similarity_bound(artist, display)
        key = _rank_key(entry, _similarity_bound(title, display), artist_bound, threshold)
        if key is None or key >= best_key:
            continue
        title_score = _similarity(title, display)
        key = _rank_key(entry, title_score, artist_bound, threshold)
        if key is None or key >= best_key:
            continue
        key = _rank_key(entry, title_score, _similarity(artist, display), threshold)
        if key is None or key >= best_key:
            continue
        best_key = key
        best_entry = entry
    return best_entry


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

    def screen(record: SongRecord) -> tuple[int, str, SongRecord | None]:
        """The stage a record reaches, the reason, and the processed record if kept."""
        if record.web_search_series is None:
            return 1, "no web-search series", None
        if record.song_id not in allowed:
            entry = match_catalog(record, catalog, match_threshold)
            if entry is None:
                return 2, "no catalog match", None
            if entry.release_kind != "single":
                return 3, f"release kind is {entry.release_kind}", None
            if entry.release_date > cutoff_date:
                return 4, f"released {entry.release_date.isoformat()} after cutoff", None
        # stage 5: daily grids, short-video peak window, alignment
        try:
            short_video = interpolate_daily(record.short_video_series)
            web_search = interpolate_daily(record.web_search_series)
            window = peak_window(short_video, peak_threshold, peak_basis)
            short_video, web_search = align_pair(short_video.window_slice(window), web_search)
        except ValueError as exc:
            return 5, str(exc), None
        if len(short_video) < min_points:
            return 6, f"window has {len(short_video)} points, need {min_points}", None
        processed = replace(record, short_video_series=short_video, web_search_series=web_search)
        return len(STAGE_NAMES), "kept", processed

    kept: list[SongRecord] = []
    outcomes: list[SongOutcome] = []
    for record in records:
        stage, reason, processed = screen(record)
        outcomes.append(SongOutcome(record.song_id, stage, processed is not None, reason))
        if processed is not None:
            kept.append(processed)

    # a record dropped at stage s survived stages 1..s-1; a kept one survived all
    funnel = (("input", len(records)),) + tuple(
        (name, sum(o.kept or o.stage_reached > k for o in outcomes))
        for k, name in enumerate(STAGE_NAMES, start=1)
    )
    return kept, CurationReport(outcomes=tuple(outcomes), funnel=funnel)

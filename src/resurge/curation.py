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
import re
from dataclasses import dataclass, replace
from typing import Iterable, Literal, Sequence

import numpy as np

from .series import (DEFAULT_PEAK_BASIS, DEFAULT_PEAK_THRESHOLD, PEAK_BASES, TimeSeries, align_pair,
                     interpolate_daily, peak_window)

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
    """One normalized string with its LCS masks."""

    __slots__ = ("text", "masks")

    def __init__(self, raw: str) -> None:
        self.text = _normalize(raw)
        if not self.text:
            raise ValueError("strings must be non-empty after normalization")
        self.masks = _char_masks(self.text)


def _score(m, n, lcs):
    # the integer indel first, then 1 - indel / total: algebraically equal
    # forms such as 2 * lcs / total round differently at the half percent.
    # Elementwise on integer arrays, with the same IEEE operations.
    return 1.0 - (m + n - 2 * lcs) / (m + n)


def _percent(score):
    """A score as an integer percentage, rounded half up; elementwise on an array."""
    return np.floor(score * 100.0 + 0.5).astype(np.int64)


def _similarity(a: _MatchText, b: _MatchText) -> int:
    """The ``partial_ratio`` of two prepared strings."""
    s, l = (b, a) if len(a.text) > len(b.text) else (a, b)
    m, hay = len(s.text), l.text
    # every window has the same denominator, so the longest LCS scores best;
    # a window that holds the whole needle scores 100, and nothing scores more
    lcs = 0
    for i in range(len(hay) - m + 1):
        lcs = max(lcs, _lcs_length(s.masks, m, hay[i : i + m]))
        if lcs == m:
            return 100
    best = _score(m, m, lcs)
    if len(hay) < 2 * m and len(hay) != m:
        best = max(best, _score(m, len(hay), _lcs_length(s.masks, m, hay)))
    return int(_percent(best))


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


class _CatalogIndex:
    """A catalog prepared once for matching many display titles.

    ``entries`` holds the catalog in tie order: release date, then title,
    then catalog position, so an entry's position is its rank among equal
    scores.  ``counts[0]`` and ``counts[1]`` count each character of the
    entries' normalized titles and artists over the catalog's alphabet, row
    i for entry i, and ``lengths`` holds the string lengths.  The last
    column is all zero; a display character outside the alphabet counts there.
    """

    def __init__(self, catalog: Sequence[CatalogEntry]) -> None:
        # a stable sort: equal dates and titles keep their catalog order
        self.entries = tuple(sorted(catalog, key=lambda e: (e.release_date, e.title)))
        self.texts = [(_MatchText(e.title), _MatchText(e.artist)) for e in self.entries]
        alphabet = sorted({ch for pair in self.texts for text in pair for ch in text.text})
        self.columns = {ch: j for j, ch in enumerate(alphabet)}
        size, width = len(self.entries), len(alphabet) + 1
        cells = [(k * size + i) * width + self.columns[ch]
                 for k in (0, 1) for i, pair in enumerate(self.texts) for ch in pair[k].text]
        self.counts = np.bincount(cells, minlength=2 * size * width).reshape(2, size, width)
        self.lengths = self.counts.sum(2)

    def __len__(self) -> int:
        return len(self.entries)

    def bounds(self, display: _MatchText) -> np.ndarray:
        """Upper bounds on every entry's title (row 0) and artist (row 1) score against ``display``.

        Every candidate's LCS is at most the size of the multiset intersection
        of the two strings' characters, and the whole-string candidate scores
        no higher than a window with the same LCS.
        """
        counts = np.bincount(
            [self.columns.get(ch, len(self.columns)) for ch in display.text],
            minlength=len(self.columns) + 1,
        )
        m = np.minimum(self.lengths, len(display.text))
        return _percent(_score(m, m, np.minimum(self.counts, counts).sum(2)))


def match_catalog(
    record: SongRecord,
    catalog: _CatalogIndex | Sequence[CatalogEntry],
    threshold: int = DEFAULT_MATCH_THRESHOLD,
) -> CatalogEntry | None:
    """Best catalog entry whose title and artist both beat the threshold.

    Both scores must be strictly above the integer ``threshold`` against the
    record's display title.  Candidates rank by the smaller of the two
    scores; ties break toward the earlier release date, then the
    lexicographically smaller title, then the earlier catalog position, so
    matching is deterministic.  ``catalog`` is a ``_CatalogIndex`` or a
    sequence of entries, which is indexed first.

    The rank is one integer key, ``(100 - score) * n + i`` for the entry at
    position i of the n in tie order; smaller is better.  Every entry gets
    an upper bound on both scores from character counts, so a bound key
    never exceeds the exact key.  Entries are visited best bound key first
    and scored exactly; the visit stops at the first bound key that is no
    better than the best exact key, since every later entry's exact key is
    no better still (the threshold algorithm of Fagin, Lotem & Naor 2003).
    This never changes the match.
    """
    index = catalog if isinstance(catalog, _CatalogIndex) else _CatalogIndex(catalog)
    n = len(index)
    if not n:
        return None
    display = _MatchText(record.display_title)
    bounds = index.bounds(display)
    low = np.minimum(*bounds)
    # a key beats this only if its score is above the threshold
    best_key = (100 - threshold) * n
    best_entry = None
    for i in np.argsort(-low, kind="stable").tolist():
        if (100 - int(low[i])) * n + i >= best_key:
            break
        title, artist = index.texts[i]
        score = min(_similarity(title, display), int(bounds[1, i]))
        if (100 - score) * n + i < best_key:
            key = (100 - min(score, _similarity(artist, display))) * n + i
            if key < best_key:
                best_key, best_entry = key, index.entries[i]
    return best_entry


def curate(
    records: Sequence[SongRecord],
    catalog: Sequence[CatalogEntry],
    cutoff_date: dt.date = DEFAULT_CUTOFF,
    min_points: int = DEFAULT_MIN_POINTS,
    allowlist: Iterable[str] = (),
    match_threshold: int = DEFAULT_MATCH_THRESHOLD,
    peak_threshold: float = DEFAULT_PEAK_THRESHOLD,
    peak_basis: str = DEFAULT_PEAK_BASIS,
) -> tuple[list[SongRecord], CurationReport]:
    """Run the six-stage funnel and return kept records plus a full report.

    Kept records carry the processed (windowed, aligned) series.  Allowlisted
    records are never matched against the catalog.
    Raises ValueError on an out-of-range knob or a duplicate song identifier,
    before any song is screened; everything else is recorded as a per-song
    drop with the stage it failed at.
    """
    if min_points < 1:
        raise ValueError("min_points must be at least 1")
    if not 0.0 < peak_threshold < 1.0:
        raise ValueError("peak_threshold must lie in (0, 1)")
    if peak_basis not in PEAK_BASES:
        raise ValueError("peak_basis must be 'total' or 'peak'")
    seen: set[str] = set()
    for record in records:
        if record.song_id in seen:
            raise ValueError(f"duplicate song identifier: {record.song_id}")
        seen.add(record.song_id)
    allowed = set(allowlist)
    index = _CatalogIndex(catalog)

    def screen(record: SongRecord) -> tuple[int, str, SongRecord | None]:
        """The stage a record reaches, the reason, and the processed record if kept."""
        if record.web_search_series is None:
            return 1, "no web-search series", None
        if record.song_id not in allowed:
            entry = match_catalog(record, index, match_threshold)
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
            short_video, web_search = align_pair(window, web_search)
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

"""Seeded corpora for the three benchmark workloads.

Every corpus is written from scratch into a directory the caller owns, from
nothing but the workload name, a seed and a size.  The same arguments give
the same bytes.  Alongside the files the generator returns what it planted
(the curation stage each song must reach, which songs are driven, the
popularity totals), so the output check never has to trust the program to
describe its own input.

Sizes are chosen so that the cost of a run barely depends on the seed:
names have fixed lengths (the fuzzy matcher's cost grows with them), every
role appears in a fixed proportion, and series lengths are fixed.
"""

from __future__ import annotations

import datetime as dt
import importlib.util
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("catalog-scan", "long-revivals", "corpus-ccdf")

# Curation stage numbers, as in resurge.curation.STAGE_NAMES (1-based).
STAGES = (
    "web_search_present",
    "catalog_match",
    "single_release",
    "release_cutoff",
    "peak_window",
    "min_points",
)
KEPT_STAGE = len(STAGES)

# Catalog-world names use only these letters.  Songs planted to match
# nothing use a disjoint set, so none of their characters except spaces
# occur in any catalog entry and no fuzzy score can come near the threshold.
_CATALOG_CONSONANTS = "cdghklmnprst"
_CATALOG_VOWELS = "aeiou"
_NOMATCH_LETTERS = "fjqvwxz"

# fits whose rmse is at most this are acceptable; passed to the pipeline
BASS_RMSE_MAX = 0.05


@dataclass
class Corpus:
    """Files of one generated corpus plus what was planted in them."""

    workload: str
    command: list[str]
    n_songs: int
    shape: dict
    # song_id -> curation stage the song must reach (KEPT_STAGE when kept)
    planted_stage: dict[str, int] = field(default_factory=dict)
    planted_kept: set[str] = field(default_factory=set)
    driven: list[str] = field(default_factory=list)
    # per-song short-video totals, summed by the generator from its own arrays
    totals: list[float] = field(default_factory=list)

    @property
    def planted_funnel(self) -> list[tuple[str, int]]:
        """Survivor counts after each stage, as the report must show them."""
        counts = [self.n_songs]
        for stage in range(1, KEPT_STAGE + 1):
            counts.append(
                sum(
                    1
                    for sid, reached in self.planted_stage.items()
                    if reached > stage or (reached == stage and sid in self.planted_kept)
                )
            )
        return list(zip(("input",) + STAGES, counts))


def _load_demo_shapes():
    """The demo generator's shape functions, imported without running it."""
    path = ROOT / "scripts" / "make_demo_dataset.py"
    spec = importlib.util.spec_from_file_location("_perfbench_demo_shapes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _iso(ordinal: int) -> str:
    return dt.date.fromordinal(ordinal).isoformat()


def write_series(path: Path, days, values) -> None:
    """``date,value`` CSV of ordinal days; repr round-trips every value."""
    lines = ["date,value"]
    lines += [f"{_iso(int(d))},{float(v)!r}" for d, v in zip(days, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(directory: Path, songs: list[dict]) -> Path:
    path = directory / "manifest.json"
    payload = {"format_version": 1, "songs": songs}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _write_catalog(directory: Path, rows: list[tuple[str, str, dt.date, str]]) -> Path:
    path = directory / "catalog.csv"
    lines = ["title,artist,release_date,release_kind"]
    lines += [f"{t},{a},{d.isoformat()},{k}" for t, a, d, k in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_allowlist(directory: Path, ids: list[str]) -> Path:
    path = directory / "allowlist.txt"
    path.write_text("# manually verified revivals\n" + "".join(i + "\n" for i in ids), encoding="utf-8")
    return path


class _Names:
    """Distinct fixed-length names; distinct names cannot contain each other."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._seen: set[str] = set()

    def _word(self, length: int, consonants: str, vowels: str) -> str:
        pools = (consonants, vowels)
        letters = [pools[i % 2][self._rng.integers(len(pools[i % 2]))] for i in range(length)]
        return "".join(letters).capitalize()

    def catalog(self, *lengths: int) -> str:
        return self._distinct(lengths, _CATALOG_CONSONANTS, _CATALOG_VOWELS)

    def nomatch(self, *lengths: int) -> str:
        return self._distinct(lengths, _NOMATCH_LETTERS, _NOMATCH_LETTERS)

    def _distinct(self, lengths, consonants: str, vowels: str) -> str:
        while True:
            name = " ".join(self._word(n, consonants, vowels) for n in lengths)
            if name not in self._seen:
                self._seen.add(name)
                return name


def _date_between(rng: np.random.Generator, first: dt.date, last: dt.date) -> dt.date:
    return dt.date.fromordinal(int(rng.integers(first.toordinal(), last.toordinal() + 1)))


# --- catalog-scan -------------------------------------------------------------

# One block repeats the data/demo mix: the role of each song, in order.
_SCAN_ROLES = (
    "driven",        # kept, web search driven by short video (demo sr-001)
    "thinned",       # kept, short video sampled every other day (sr-002)
    "independent",   # kept, not driven (sr-003)
    "allowlisted",   # kept through the allowlist, no catalog entry (sr-004)
    "nomatch",       # stage 2: nothing in the catalog resembles it (sr-005)
    "album",         # stage 3: matched release is an album cut (sr-006)
    "late",          # stage 4: released after the cutoff (sr-007)
    "no_web_search", # stage 1: no web-search series (sr-008)
    "no_overlap",    # stage 5: web search from another year (sr-009)
    "spike",         # stage 6: three-day spike, window too short (sr-010)
)
_SCAN_KEPT = ("driven", "thinned", "independent", "allowlisted")
_SCAN_STAGE = {
    **{role: KEPT_STAGE for role in _SCAN_KEPT},
    "nomatch": 2,
    "album": 3,
    "late": 4,
    "no_web_search": 1,
    "no_overlap": 5,
    "spike": 6,
}
# The catalog entry each role's song matches; the allowlisted song and the
# no-match song have none.
_SCAN_RELEASE = {
    "driven": "single",
    "thinned": "single",
    "independent": "single",
    "album": "album",
    "late": "single",
    "no_overlap": "single",
    "spike": "single",
}
# release dates either side of the command's default --cutoff-date, 2016-09-30
_BEFORE_CUTOFF = (dt.date(1995, 1, 1), dt.date(2015, 12, 31))
_AFTER_CUTOFF = (dt.date(2017, 1, 1), dt.date(2022, 12, 31))
# Catalog entries per block beyond the songs' own: filler releases by the
# same artists, so the catalog outgrows the song list.
_SCAN_FILLERS = 6
_SCAN_ARTISTS = 5
_TITLE_WORDS = (5, 6)
_ARTIST_WORDS = (4, 7)


def _scan_series(role: str, shapes, rng: np.random.Generator):
    """(sv_days, sv_values, ws_days, ws_values) on the demo's 45/59-day calendar."""
    sv_days = np.arange(shapes.SV_START, shapes.SV_START + shapes.SV_DAYS)
    ws_days = np.arange(shapes.WS_START, shapes.WS_START + shapes.WS_DAYS)
    s1, s2 = (int(x) for x in rng.integers(0, 2**31, size=2))
    if role == "driven":
        sv = shapes.keeper_short_video(s1)
        return sv_days, sv, ws_days, shapes.driven_web_search(sv, s2)
    if role == "thinned":
        sv = shapes.keeper_short_video(s1, center=20.0)
        days, values = shapes.thin_every_other_day(sv_days, sv)
        return days, values, ws_days, shapes.independent_web_search(s2, center=40.0)
    if role == "independent":
        sv = shapes.keeper_short_video(s1, center=25.0)
        return sv_days, sv, ws_days, shapes.independent_web_search(s2, center=12.0)
    if role == "allowlisted":
        sv = shapes.keeper_short_video(s1, center=18.0)
        return sv_days, sv, ws_days, shapes.independent_web_search(s2, center=30.0)
    if role == "no_web_search":
        return sv_days, shapes.keeper_short_video(s1), None, None
    if role == "no_overlap":
        old = dt.date(2020, 1, 1).toordinal()
        ws = shapes.independent_web_search(s2, center=20.0)[:40]
        return sv_days, shapes.keeper_short_video(s1), np.arange(old, old + 40), ws
    if role == "spike":
        return sv_days, shapes.spike_short_video(), ws_days, shapes.independent_web_search(s2, center=21.0)
    # nomatch, album, late: ordinary keepers that a catalog stage drops
    sv = shapes.keeper_short_video(s1)
    return sv_days, sv, ws_days, shapes.independent_web_search(s2, center=25.0)


def _catalog_scan(directory: Path, seed: int, blocks: int) -> Corpus:
    shapes = _load_demo_shapes()
    rng = np.random.default_rng([seed, 1])
    names = _Names(rng)
    artists = [names.catalog(*_ARTIST_WORDS) for _ in range(_SCAN_ARTISTS * blocks)]
    series_dir = directory / "series"
    series_dir.mkdir()

    songs, catalog, allow = [], [], []
    corpus = Corpus("catalog-scan", [], len(_SCAN_ROLES) * blocks, {})
    for block in range(blocks):
        for k, role in enumerate(_SCAN_ROLES):
            song_id = f"cs-{block:03d}-{k:02d}"
            if role == "nomatch":
                title = names.nomatch(*_TITLE_WORDS)
                artist = names.nomatch(*_ARTIST_WORDS)
            else:
                title = names.catalog(*_TITLE_WORDS)
                artist = artists[int(rng.integers(len(artists)))]
            if role in _SCAN_RELEASE:
                released = _date_between(rng, *(_AFTER_CUTOFF if role == "late" else _BEFORE_CUTOFF))
                catalog.append((title, artist, released, _SCAN_RELEASE[role]))
            if role in ("driven", "thinned", "independent"):
                # near-miss decoy: same artist, a reworked album cut
                catalog.append((f"{title} (Rework)", artist, _date_between(rng, *_BEFORE_CUTOFF), "album"))
            if role == "allowlisted":
                allow.append(song_id)
            if role == "driven":
                corpus.driven.append(song_id)

            sv_days, sv, ws_days, ws = _scan_series(role, shapes, rng)
            sv_name = f"series/{song_id}__short_video.csv"
            write_series(directory / sv_name, sv_days, sv)
            ws_name = None
            if ws is not None:
                ws_name = f"series/{song_id}__web_search.csv"
                write_series(directory / ws_name, ws_days, ws)
            songs.append({"song_id": song_id, "display_title": f"{title} by {artist}",
                          "short_video": sv_name, "web_search": ws_name})
            corpus.planted_stage[song_id] = _SCAN_STAGE[role]
            if role in _SCAN_KEPT:
                corpus.planted_kept.add(song_id)
        for _ in range(_SCAN_FILLERS):
            kind = ("single", "album", "other")[int(rng.integers(3))]
            artist = artists[int(rng.integers(len(artists)))]
            released = _date_between(rng, _BEFORE_CUTOFF[0], _AFTER_CUTOFF[1])
            catalog.append((names.catalog(*_TITLE_WORDS), artist, released, kind))

    order = rng.permutation(len(catalog))
    catalog = [catalog[i] for i in order]
    manifest = _write_manifest(directory, songs)
    catalog_path = _write_catalog(directory, catalog)
    allowlist = _write_allowlist(directory, allow)
    corpus.command = _pipeline_command(manifest, catalog_path, allowlist)
    corpus.shape = {
        "songs": corpus.n_songs,
        "catalog_entries": len(catalog),
        "match_pairs": (corpus.n_songs - blocks) * len(catalog),
        "sv_days": shapes.SV_DAYS,
        "ws_days": shapes.WS_DAYS,
        "allowlisted": len(allow),
        "driven": len(corpus.driven),
    }
    return corpus


def _pipeline_command(manifest: Path, catalog: Path, allowlist: Path) -> list[str]:
    return [
        "pipeline",
        "--manifest", str(manifest),
        "--catalog", str(catalog),
        "--allowlist", str(allowlist),
        "--peak-basis", "peak",
        "--bass-rmse-max", repr(BASS_RMSE_MAX),
    ]


# --- long revivals and the ccdf corpus -----------------------------------------

LONG_START = dt.date(2021, 1, 1).toordinal()
LONG_DAYS = 420
# web search covers a week either side of the short-video calendar
LONG_WS_PAD = 7
LONG_SV_DAYS = np.arange(LONG_START, LONG_START + LONG_DAYS)
LONG_WS_DAYS = np.arange(LONG_START - LONG_WS_PAD, LONG_START + LONG_DAYS + LONG_WS_PAD)
_LONG_DRIVEN_SHARE = 0.8


def revival_views(rng: np.random.Generator, days: int = LONG_DAYS) -> np.ndarray:
    """Daily short-video views: slow rise, slower decay, peak near 1e9.

    With the peak basis at 5% the window spans roughly 240 days.
    """
    t = np.arange(days, dtype=float)
    center = rng.uniform(130.0, 150.0)
    rise = rng.uniform(38.0, 42.0)
    decay = rng.uniform(95.0, 105.0)
    width = np.where(t < center, rise, decay)
    peak = rng.uniform(0.8e9, 1.2e9)
    shape = 0.002 + np.exp(-(((t - center) / width) ** 2))
    return np.round(peak * shape * rng.uniform(0.97, 1.03, days))


def _search_index_driven(views: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """0-100 search index following the previous day's views, plus noise."""
    n = views.size + 2 * LONG_WS_PAD
    prev = np.full(n, 0.0)
    # ws day i is short-video day i - pad; it reacts to short-video day i - pad - 1
    idx = np.arange(n) - LONG_WS_PAD - 1
    inside = (idx >= 0) & (idx < views.size)
    prev[inside] = views[idx[inside]] / views.max()
    values = 2.0 + 88.0 * prev + rng.normal(0.0, 2.0, n)
    return np.round(np.clip(values, 0.0, 100.0))


def _search_index_independent(rng: np.random.Generator, n: int) -> np.ndarray:
    """AR(1) interest around 30 with a gentle swell; driven by nothing."""
    values = np.empty(n)
    values[0] = 30.0
    noise = rng.normal(0.0, 3.0, n)
    for i in range(1, n):
        values[i] = 30.0 + 0.3 * (values[i - 1] - 30.0) + noise[i]
    t = np.arange(n, dtype=float)
    values += 6.0 * np.exp(-(((t - rng.uniform(100.0, 300.0)) / 60.0) ** 2))
    return np.round(np.clip(values, 0.0, 100.0))


def _long_revivals(directory: Path, seed: int, n_songs: int) -> Corpus:
    rng = np.random.default_rng([seed, 2])
    names = _Names(rng)
    series_dir = directory / "series"
    series_dir.mkdir()
    corpus = Corpus("long-revivals", [], n_songs, {})
    n_driven = int(round(_LONG_DRIVEN_SHARE * n_songs))
    songs, ids = [], []
    first_title = first_artist = None
    for k in range(n_songs):
        song_id = f"lr-{k:04d}"
        title = names.catalog(*_TITLE_WORDS)
        artist = names.catalog(*_ARTIST_WORDS)
        if k == 0:
            first_title, first_artist = title, artist
        views = revival_views(rng)
        n_ws = views.size + 2 * LONG_WS_PAD
        if k < n_driven:
            search = _search_index_driven(views, rng)
            corpus.driven.append(song_id)
        else:
            search = _search_index_independent(rng, n_ws)
        sv_name = f"series/{song_id}__short_video.csv"
        ws_name = f"series/{song_id}__web_search.csv"
        write_series(directory / sv_name, LONG_SV_DAYS, views)
        write_series(directory / ws_name, LONG_WS_DAYS, search)
        songs.append({"song_id": song_id, "display_title": f"{title} by {artist}",
                      "short_video": sv_name, "web_search": ws_name})
        ids.append(song_id)
        corpus.planted_stage[song_id] = KEPT_STAGE
        corpus.planted_kept.add(song_id)
    # one entry, for the first song: allowlisted songs still run the matcher
    catalog = [(first_title, first_artist, dt.date(2005, 5, 5), "single")]
    manifest = _write_manifest(directory, songs)
    catalog_path = _write_catalog(directory, catalog)
    allowlist = _write_allowlist(directory, ids)
    corpus.command = _pipeline_command(manifest, catalog_path, allowlist)
    corpus.shape = {
        "songs": n_songs,
        "catalog_entries": len(catalog),
        "match_pairs": n_songs * len(catalog),
        "sv_days": LONG_DAYS,
        "ws_days": LONG_DAYS + 2 * LONG_WS_PAD,
        "allowlisted": n_songs,
        "driven": n_driven,
    }
    return corpus


def _corpus_ccdf(directory: Path, seed: int, n_songs: int) -> Corpus:
    rng = np.random.default_rng([seed, 3])
    series_dir = directory / "series"
    series_dir.mkdir()
    corpus = Corpus("corpus-ccdf", [], n_songs, {})
    songs = []
    for k in range(n_songs):
        song_id = f"cc-{k:04d}"
        # heavy-tailed popularity: lognormal scale across songs
        views = np.round(revival_views(rng) * rng.lognormal(-2.0, 1.5))
        search = _search_index_driven(views, rng)
        sv_name = f"series/{song_id}__short_video.csv"
        ws_name = f"series/{song_id}__web_search.csv"
        write_series(directory / sv_name, LONG_SV_DAYS, views)
        write_series(directory / ws_name, LONG_WS_DAYS, search)
        songs.append({"song_id": song_id, "display_title": f"song {k}",
                      "short_video": sv_name, "web_search": ws_name})
        corpus.totals.append(float(np.asarray(views, dtype=np.float64).sum()))
    manifest = _write_manifest(directory, songs)
    corpus.command = ["ccdf", "--manifest", str(manifest)]
    corpus.shape = {
        "songs": n_songs,
        "sv_days": LONG_DAYS,
        "ws_days": LONG_DAYS + 2 * LONG_WS_PAD,
    }
    return corpus


# Full-size corpora, sized so one command run takes well under a second on a
# 2-vCPU machine: short runs keep each run close to the reference timings
# around it.  ``scale`` shrinks them for smoke tests.
FULL_SIZE = {"catalog-scan": 1, "long-revivals": 40, "corpus-ccdf": 250}


def generate(workload: str, seed: int, directory: Path, scale: float = 1.0) -> Corpus:
    """Write the corpus of ``workload`` for ``seed`` into an empty ``directory``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = max(1, int(round(FULL_SIZE[workload] * scale)))
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        raise ValueError(f"{directory} is not empty")
    if workload == "catalog-scan":
        return _catalog_scan(directory, seed, size)
    if workload == "long-revivals":
        return _long_revivals(directory, seed, size)
    return _corpus_ccdf(directory, seed, size)

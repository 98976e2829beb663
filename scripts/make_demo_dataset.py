"""Regenerate the bundled demo dataset under data/demo.

Ten songs, one planted failure per funnel stage, four keepers, and exactly
one keeper (sr-001) whose web-search series is driven by the previous day's
short-video popularity.  Everything is seeded, so regenerating produces the
same bytes.  The funnel expectations asserted here, with --peak-basis peak:

    input 10 -> 9 (sr-008 has no web-search series)
             -> 8 (sr-005 matches nothing in the catalog)
             -> 7 (sr-006 is an album release)
             -> 6 (sr-007 was released after the cutoff)
             -> 5 (sr-009 web-search dates never overlap the window)
             -> 4 (sr-010 spikes too briefly for 20 window points)

Run from the repository root:  python scripts/make_demo_dataset.py
"""

import datetime as dt
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from resurge import curation, granger, ingest, series  # noqa: E402

OUT = ROOT / "data" / "demo"

SV_START = dt.date(2021, 6, 1).toordinal()
SV_DAYS = 45
WS_START = SV_START - 7
WS_DAYS = 59

PEAK_BASIS = "peak"
PEAK_THRESHOLD = 0.05


def bump(center: float, width: float, height: float, floor: float, n: int) -> np.ndarray:
    t = np.arange(n, dtype=float)
    return floor + height * np.exp(-(((t - center) / width) ** 2))


def keeper_short_video(seed: int, center: float = 22.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = bump(center, 10.0, 3000.0, 5.0, SV_DAYS)
    return np.round(values * rng.uniform(0.97, 1.03, SV_DAYS), 1)


def driven_web_search(sv: np.ndarray, seed: int) -> np.ndarray:
    """ws(t) = 0.9 * scaled sv(t-1) + noise, on the wider ws calendar."""
    rng = np.random.default_rng(seed)
    scaled = sv / 30.0
    values = np.zeros(WS_DAYS)
    for i in range(WS_DAYS):
        day = WS_START + i
        prev = day - 1 - SV_START
        signal = scaled[prev] if 0 <= prev < SV_DAYS else 0.5
        values[i] = 0.9 * signal + rng.normal(0.0, 1.0)
    return np.round(np.clip(values, 0.0, None), 2)


def independent_web_search(seed: int, center: float) -> np.ndarray:
    """Mild AR(1) interest with a gentle swell; not driven by anything."""
    rng = np.random.default_rng(seed)
    values = np.empty(WS_DAYS)
    values[0] = 30.0
    for i in range(1, WS_DAYS):
        values[i] = 30.0 + 0.3 * (values[i - 1] - 30.0) + rng.normal(0.0, 3.0)
    values += bump(center, 12.0, 6.0, 0.0, WS_DAYS)
    return np.round(np.clip(values, 0.0, None), 2)


def spike_short_video() -> np.ndarray:
    values = np.full(SV_DAYS, 2.0)
    values[20:23] = (1500.0, 2500.0, 1200.0)
    return values


def thin_every_other_day(days: np.ndarray, values: np.ndarray):
    return days[::2], values[::2]


def main() -> int:
    rng_days = np.arange(SV_START, SV_START + SV_DAYS)
    ws_days = np.arange(WS_START, WS_START + WS_DAYS)

    sv: dict[str, series.TimeSeries] = {}
    ws: dict[str, series.TimeSeries | None] = {}

    # keepers
    sv_001 = keeper_short_video(101)
    sv["sr-001"] = series.TimeSeries(rng_days, sv_001)
    ws["sr-001"] = series.TimeSeries(ws_days, driven_web_search(sv_001, 201))

    sv_002 = keeper_short_video(102, center=20.0)
    thin_days, thin_values = thin_every_other_day(rng_days, sv_002)
    sv["sr-002"] = series.TimeSeries(thin_days, thin_values)
    ws["sr-002"] = series.TimeSeries(ws_days, independent_web_search(202, center=40.0))

    sv_003 = keeper_short_video(103, center=25.0)
    sv["sr-003"] = series.TimeSeries(rng_days, sv_003)
    ws["sr-003"] = series.TimeSeries(ws_days, independent_web_search(203, center=12.0))

    sv_004 = keeper_short_video(104, center=18.0)
    sv["sr-004"] = series.TimeSeries(rng_days, sv_004)
    ws["sr-004"] = series.TimeSeries(ws_days, independent_web_search(214, center=30.0))

    # stage-2 drop: nothing in the catalog resembles this title
    sv["sr-005"] = series.TimeSeries(rng_days, keeper_short_video(105))
    ws["sr-005"] = series.TimeSeries(ws_days, independent_web_search(205, center=25.0))

    # stage-3 drop: album release
    sv["sr-006"] = series.TimeSeries(rng_days, keeper_short_video(106))
    ws["sr-006"] = series.TimeSeries(ws_days, independent_web_search(206, center=25.0))

    # stage-4 drop: released after the cutoff
    sv["sr-007"] = series.TimeSeries(rng_days, keeper_short_video(107))
    ws["sr-007"] = series.TimeSeries(ws_days, independent_web_search(207, center=25.0))

    # stage-1 drop: no web-search series at all
    sv["sr-008"] = series.TimeSeries(rng_days, keeper_short_video(108))
    ws["sr-008"] = None

    # stage-5 drop: web-search series from a different year
    sv["sr-009"] = series.TimeSeries(rng_days, keeper_short_video(109))
    old_days = np.arange(dt.date(2020, 1, 1).toordinal(), dt.date(2020, 1, 1).toordinal() + 40)
    ws["sr-009"] = series.TimeSeries(old_days, independent_web_search(209, center=20.0)[:40])

    # stage-6 drop: three-day spike, window far below 20 points
    sv["sr-010"] = series.TimeSeries(rng_days, spike_short_video())
    ws["sr-010"] = series.TimeSeries(ws_days, independent_web_search(210, center=21.0))

    titles = {
        "sr-001": "Glass Harbor by Marina Vale",
        "sr-002": "Night Orchard by The Lantern Club",
        "sr-003": "Copper Veins by Ada Sun",
        "sr-004": "Static Bloom by Violet Reaction",
        "sr-005": "Copper Crown by Miners of Maine",
        "sr-006": "Hollow Coast by Brass Atlas",
        "sr-007": "Ember Lines by Kite Theory",
        "sr-008": "Winter Argument by Pale Motive",
        "sr-009": "Gold Stutter by The Renders",
        "sr-010": "Last Transmission by Moth Radio",
    }

    catalog_rows = [
        ("Glass Harbor", "Marina Vale", "1999-05-10", "single"),
        ("Night Orchard", "The Lantern Club", "2003-11-02", "single"),
        ("Copper Veins", "Ada Sun", "2010-07-21", "single"),
        ("Hollow Coast", "Brass Atlas", "2001-03-17", "album"),
        ("Ember Lines", "Kite Theory", "2019-03-08", "single"),
        ("Gold Stutter", "The Renders", "2008-02-29", "single"),
        ("Last Transmission", "Moth Radio", "2012-09-14", "single"),
        ("Crimson Alley", "Tall Grass Committee", "2005-06-30", "other"),
        ("Glass Harbor (Rework)", "Marina Vale", "2006-01-20", "album"),
    ]

    allowlist_ids = ["sr-004"]

    # --- write files --------------------------------------------------------
    if OUT.exists():
        shutil.rmtree(OUT)
    songs = [curation.SongRecord(song_id, titles[song_id], sv[song_id], ws[song_id]) for song_id in sorted(sv)]
    ingest.write_dataset(songs, OUT / "manifest.json", "series")

    catalog_lines = ["title,artist,release_date,release_kind"]
    catalog_lines += [",".join(f'"{field}"' if "," in field else field for field in row) for row in catalog_rows]
    (OUT / "catalog.csv").write_text("\n".join(catalog_lines) + "\n", encoding="utf-8")

    allow_lines = ["# manually verified revivals"] + allowlist_ids
    (OUT / "allowlist.txt").write_text("\n".join(allow_lines) + "\n", encoding="utf-8")

    # --- verify the planted outcomes ----------------------------------------
    records = ingest.load_dataset(OUT / "manifest.json")
    entries_parsed = ingest.parse_catalog_file(OUT / "catalog.csv")
    kept, report = curation.curate(
        records,
        entries_parsed,
        allowlist=ingest.parse_allowlist(OUT / "allowlist.txt"),
        peak_threshold=PEAK_THRESHOLD,
        peak_basis=PEAK_BASIS,
    )
    expected_funnel = (
        ("input", 10),
        ("web_search_present", 9),
        ("catalog_match", 8),
        ("single_release", 7),
        ("release_cutoff", 6),
        ("peak_window", 5),
        ("min_points", 4),
    )
    assert report.funnel == expected_funnel, report.funnel
    assert [r.song_id for r in kept] == ["sr-001", "sr-002", "sr-003", "sr-004"]
    for record in kept:
        assert len(record.short_video_series) >= 25, (
            record.song_id,
            len(record.short_video_series),
        )

    batch = granger.batch_granger(kept)
    verdicts = {it.song_id: it.result.causal for it in batch.items}
    assert verdicts == {
        "sr-001": True,
        "sr-002": False,
        "sr-003": False,
        "sr-004": False,
    }, verdicts

    print(f"wrote {OUT}")
    for name, count in report.funnel:
        print(f"  {name}: {count}")
    print(f"  causal: {[sid for sid, c in verdicts.items() if c]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

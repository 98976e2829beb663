"""Fuzzy matching and funnel tests on hand-built fixtures."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from resurge import curation
from resurge.curation import (
    STAGE_NAMES,
    CatalogEntry,
    SongRecord,
    curate,
    match_catalog,
    partial_ratio,
)
from resurge.series import TimeSeries

text_strategy = st.text(
    alphabet="abcdefgh &?!",
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())


# --- LCS kernel -------------------------------------------------------------------


def lcs(a, b):
    return curation._lcs_length(curation._char_masks(a), len(a), b)


def test_lcs_examples():
    # indel distances 0, 1, 2, 3 and 5: len(a) + len(b) - 2 * LCS
    examples = [("abc", "abc", 3), ("abc", "ab", 2), ("abc", "axc", 2), ("", "xyz", 0),
                ("kitten", "sitting", 4)]
    for a, b, expected in examples:
        assert lcs(a, b) == oracles._lcs_len(a, b) == expected


@given(text_strategy, text_strategy)
@settings(max_examples=150, deadline=None)
def test_lcs_matches_dp_oracle(a, b):
    assert lcs(a, b) == oracles._lcs_len(a, b)


# --- partial_ratio ----------------------------------------------------------------


def test_partial_ratio_identical():
    assert partial_ratio("same words", "same words") == 100


def test_partial_ratio_substring_scores_100():
    assert partial_ratio("halo", "halo by some other band") == 100
    assert partial_ratio("halo by some other band", "halo") == 100


def test_partial_ratio_normalizes_case_and_whitespace():
    assert partial_ratio("  Stormy   NIGHT ", "stormy night") == 100


def test_partial_ratio_rounds_half_up():
    # single substitution in an 8-char window: 1 - 2/16 = 0.875 -> 88
    assert partial_ratio("abcdefgh", "abcdefgx") == 88


def test_partial_ratio_rejects_blank():
    with pytest.raises(ValueError, match="non-empty"):
        partial_ratio("   ", "something")
    with pytest.raises(ValueError, match="non-empty"):
        partial_ratio("something", "")


@given(text_strategy, text_strategy)
@settings(max_examples=200, deadline=None)
def test_partial_ratio_matches_window_oracle(a, b):
    assert partial_ratio(a, b) == oracles.partial_ratio_windows(a, b)


@given(text_strategy, text_strategy)
@settings(max_examples=100, deadline=None)
def test_partial_ratio_symmetric(a, b):
    assert partial_ratio(a, b) == partial_ratio(b, a)


@given(text_strategy, text_strategy, text_strategy)
@settings(max_examples=100, deadline=None)
def test_partial_ratio_verbatim_occurrence(prefix, needle, suffix):
    hay = f"{prefix} {needle} {suffix}"
    assert partial_ratio(needle, hay) == 100


def test_partial_ratio_kernel_edge_cases():
    """Masks wider than 64 bits, tie-heavy alphabets and length-changing case folds."""
    rng = np.random.default_rng(88)
    alphabets = ["ab", "abc", "ab ", "aİ\t\u00a0b", "abcdefgh xyz!?"]

    def draw(alphabet, lo, hi):
        while True:
            text = "".join(rng.choice(list(alphabet), int(rng.integers(lo, hi + 1))))
            if text.strip():
                return text

    pairs = [(draw(alpha, 1, 30), draw(alpha, 1, 30)) for alpha in alphabets for _ in range(40)]
    # needles of 65-100 characters against hays of up to 150
    pairs += [(draw(alpha, 65, 100), draw(alpha, 100, 150)) for alpha in alphabets[:3]]
    pairs += [(draw("ab", 150, 150), draw("ab", 150, 150))]
    # "İ".lower() is two characters, so the needle grows under normalization
    pairs += [("İİ", "xi\u0307i\u0307y"), ("a\tİ", "a İ b"), ("x\u00a0y", "x y")]
    for a, b in pairs:
        assert partial_ratio(a, b) == oracles.partial_ratio_windows(a, b), (a, b)

    # one 40-character window with LCS 13: indel 54 over 80.  1 - 54/80 rounds
    # to 32 in floating point, while the equal fraction 26/80 would give 33.
    needle, hay = "a" * 13 + "b" * 27, "a" * 13 + "c" * 27
    assert lcs(needle, hay) == oracles._lcs_len(needle, hay) == 13
    assert int(26 / 80 * 100.0 + 0.5) == 33
    assert partial_ratio(needle, hay) == oracles.partial_ratio_windows(needle, hay) == 32


# --- match_catalog ----------------------------------------------------------------


def entry(title, artist, date=dt.date(2015, 1, 1), kind="single"):
    return CatalogEntry(title=title, artist=artist, release_date=date, release_kind=kind)


def song(song_id, display, sv=None, ws=None):
    default = TimeSeries(days=np.arange(3), values=np.array([1.0, 2.0, 1.0]))
    return SongRecord(
        song_id=song_id,
        display_title=display,
        short_video_series=sv if sv is not None else default,
        web_search_series=ws,
    )


def test_match_empty_catalog():
    assert match_catalog(song("x", "anything at all"), []) is None


def test_match_exact_entry():
    catalog = [entry("Halo", "Stellar Drive")]
    got = match_catalog(song("x", "halo by stellar drive"), catalog)
    assert got is catalog[0]
    assert partial_ratio("Halo", "halo by stellar drive") == 100
    assert partial_ratio("Stellar Drive", "halo by stellar drive") == 100


def test_match_decoy_table():
    """Five entries, scores enumerated by the window oracle."""
    display = "ember glow by northern lights"
    catalog = [
        entry("Ember Glow", "Northern Lights"),            # exact on both
        entry("Ember", "Northern Lights"),                 # exact, shorter title
        entry("Ember Glows", "Northern Light"),            # near miss on both
        entry("Glow", "Lights"),                           # substrings, also 100
        entry("Completely Different", "Someone Else"),     # no overlap
    ]
    scores = {
        e.title: min(
            oracles.partial_ratio_windows(e.title, display),
            oracles.partial_ratio_windows(e.artist, display),
        )
        for e in catalog
    }
    got = match_catalog(song("x", display), catalog)
    # ties on score 100 resolve by release date, then title order
    best_score = max(scores.values())
    candidates = sorted(t for t, s in scores.items() if s == best_score)
    assert got.title == candidates[0]


def test_match_threshold_is_strict():
    catalog = [entry("Halo", "Stellar Drive")]
    record = song("x", "halo by stellar drive")
    assert match_catalog(record, catalog, threshold=99) is catalog[0]
    assert match_catalog(record, catalog, threshold=100) is None


def test_match_tie_breaks():
    display = "echo by rivertown"
    older = entry("Echo", "Rivertown", date=dt.date(2010, 1, 1))
    newer = entry("Echo", "Rivertown", date=dt.date(2014, 1, 1))
    assert match_catalog(song("x", display), [newer, older]) is older
    # both titles occur verbatim, so both score min=100 on the same date;
    # the lexicographically smaller title wins
    a = entry("Echo", "Rivertown", date=dt.date(2010, 1, 1))
    b = entry("Rivertown", "Rivertown", date=dt.date(2010, 1, 1))
    assert match_catalog(song("x", display), [b, a]).title == "Echo"


@st.composite
def tied_catalogs(draw):
    """A display title and 0-30 entries drawn from tiny pools, so scores,
    dates and titles tie often; some displays name a pooled title and artist."""
    words = st.text(alphabet="abc de", min_size=1, max_size=8).filter(lambda s: s.strip())
    titles = draw(st.lists(words, min_size=1, max_size=4))
    artists = draw(st.lists(words, min_size=1, max_size=4))
    dates = [dt.date(2010, 1, 1) + dt.timedelta(days=d) for d in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))]
    catalog = [
        entry(draw(st.sampled_from(titles)), draw(st.sampled_from(artists)), draw(st.sampled_from(dates)))
        for _ in range(draw(st.integers(0, 30)))
    ]
    display = draw(
        st.one_of(
            words,
            st.builds(lambda t, a: f"{t} by {a}", st.sampled_from(titles), st.sampled_from(artists)),
        )
    )
    return display, catalog


@given(tied_catalogs(), st.integers(0, 100))
@settings(max_examples=150, deadline=None)
def test_match_catalog_pruning_is_lossless(case, threshold):
    display, catalog = case
    expected = oracles.match_catalog_reference(display, catalog, threshold)
    assert match_catalog(song("x", display), catalog, threshold) is expected


@given(text_strategy, text_strategy)
@settings(max_examples=200, deadline=None)
def test_similarity_bound_never_below_exact_score(a, b):
    bound = curation._similarity_bound(curation._MatchText(a), curation._MatchText(b))
    assert bound >= oracles.partial_ratio_windows(a, b)


def test_catalog_entry_validation():
    with pytest.raises(ValueError):
        entry("", "artist")
    with pytest.raises(ValueError):
        entry("title", "  ")
    with pytest.raises(ValueError):
        entry("title", "artist", kind="ep")


# --- curate ------------------------------------------------------------------------


def bump_series(n=45, width=10.0, height=3000.0, floor=5.0, start=0):
    t = np.arange(n, dtype=float)
    values = floor + height * np.exp(-(((t - n / 2.0) / width) ** 2))
    return TimeSeries(days=np.arange(start, start + n), values=values)


def spike_series(n=45, start=0):
    values = np.full(n, 2.0)
    values[20:23] = (1500.0, 2500.0, 1200.0)
    return TimeSeries(days=np.arange(start, start + n), values=values)


def flat_series(n=59, level=30.0, start=0):
    rng = np.random.default_rng(17)
    values = level + rng.uniform(-3.0, 3.0, n)
    return TimeSeries(days=np.arange(start, start + n), values=values)


CATALOG = [
    entry("Keep One", "Alpha Artist", dt.date(2015, 5, 1)),
    entry("Drop Album", "Beta Artist", dt.date(2015, 6, 1), kind="album"),
    entry("Drop Late", "Gamma Artist", dt.date(2020, 1, 1)),
    entry("Align Away", "Delta Artist", dt.date(2014, 2, 1)),
    entry("Short Spike", "Epsilon Artist", dt.date(2013, 3, 1)),
]


def fixture_records():
    ws = flat_series()
    return [
        song("keep-1", "keep one by alpha artist", bump_series(), ws),
        song("keep-2", "uncatalogued tune by nobody", bump_series(), ws),
        song("drop-ws", "keep one by alpha artist", bump_series(), None),
        song("drop-match", "zzqqvv by vvqqzz", bump_series(), ws),
        song("drop-album", "drop album by beta artist", bump_series(), ws),
        song("drop-late", "drop late by gamma artist", bump_series(), ws),
        song("drop-align", "align away by delta artist", bump_series(), flat_series(start=400)),
        song("drop-short", "short spike by epsilon artist", spike_series(), ws),
    ]


def run_fixture(**overrides):
    kwargs = dict(
        records=fixture_records(),
        catalog=CATALOG,
        allowlist=["keep-2"],
        peak_basis="peak",
    )
    kwargs.update(overrides)
    return curate(**kwargs)


def test_funnel_counts_and_kept_set():
    kept, report = run_fixture()
    assert [r.song_id for r in kept] == ["keep-1", "keep-2"]
    assert report.funnel == (
        ("input", 8),
        ("web_search_present", 7),
        ("catalog_match", 6),
        ("single_release", 5),
        ("release_cutoff", 4),
        ("peak_window", 3),
        ("min_points", 2),
    )


def test_drop_stages_and_reasons():
    _, report = run_fixture()
    by_id = {o.song_id: o for o in report.outcomes}
    assert by_id["drop-ws"].stage_reached == 1
    assert "web-search" in by_id["drop-ws"].reason
    assert by_id["drop-match"].stage_reached == 2
    assert by_id["drop-album"].stage_reached == 3
    assert "album" in by_id["drop-album"].reason
    assert by_id["drop-late"].stage_reached == 4
    assert "2020-01-01" in by_id["drop-late"].reason
    assert by_id["drop-align"].stage_reached == 5
    assert "overlap" in by_id["drop-align"].reason
    assert by_id["drop-short"].stage_reached == 6
    assert "3 points" in by_id["drop-short"].reason


def test_kept_records_carry_processed_series():
    kept, _ = run_fixture()
    for record in kept:
        assert record.web_search_series is not None
        assert record.short_video_series.days.tolist() == record.web_search_series.days.tolist()
        assert record.short_video_series.is_daily
        assert len(record.short_video_series) >= 20


def test_allowlisted_songs_never_reach_the_matcher(monkeypatch):
    matched = []

    def recording_match_catalog(record, *args, **kwargs):
        matched.append(record.song_id)
        return match_catalog(record, *args, **kwargs)

    monkeypatch.setattr(curation, "match_catalog", recording_match_catalog)
    kept, _ = run_fixture()
    assert [r.song_id for r in kept] == ["keep-1", "keep-2"]
    assert "keep-1" in matched
    assert "keep-2" not in matched


def test_allowlist_skips_gates_not_processing():
    records = [
        song("manual-short", "nothing matches this", spike_series(), flat_series())
    ]
    kept, report = curate(
        records, CATALOG, allowlist=["manual-short"], peak_basis="peak"
    )
    assert kept == []
    assert report.outcomes[0].stage_reached == 6


def test_every_record_reported_once():
    kept, report = run_fixture()
    ids = [o.song_id for o in report.outcomes]
    assert sorted(ids) == sorted(r.song_id for r in fixture_records())
    kept_ids = {r.song_id for r in kept}
    assert kept_ids == {o.song_id for o in report.outcomes if o.kept}


def test_duplicate_ids_rejected():
    records = fixture_records()
    records.append(records[0])
    with pytest.raises(ValueError, match="duplicate song identifier: keep-1"):
        curate(records, CATALOG)


def test_threshold_and_min_points_monotonicity():
    kept_by_threshold = [
        len(run_fixture(match_threshold=t)[0]) for t in (30, 50, 70)
    ]
    assert kept_by_threshold == sorted(kept_by_threshold, reverse=True)
    kept_by_points = [len(run_fixture(min_points=m)[0]) for m in (5, 20, 50)]
    assert kept_by_points == sorted(kept_by_points, reverse=True)


def test_funnel_counts_never_increase():
    _, report = run_fixture()
    counts = [count for _, count in report.funnel]
    assert counts == sorted(counts, reverse=True)


def test_total_basis_default_keeps_only_near_flat_series():
    """Threshold on the series total caps the window at 1/fraction days.

    A 20-day constant series sits exactly on the cap and survives; a peaked
    one cannot reach min_points under the default basis.
    """
    constant = TimeSeries(days=np.arange(20), values=np.full(20, 7.0))
    ws = TimeSeries(days=np.arange(20), values=np.linspace(1.0, 5.0, 20))
    records = [
        song("flat", "keep one by alpha artist", constant, ws),
        song("peaked", "keep one by alpha artist", bump_series(), flat_series()),
    ]
    kept, report = curate(records, CATALOG)  # defaults: basis total, 5%
    assert [r.song_id for r in kept] == ["flat"]
    outcomes = {o.song_id: o for o in report.outcomes}
    assert outcomes["peaked"].stage_reached == 6

"""Parsing, serialization and round-trip tests."""

import codecs
import csv
import datetime as dt
import io
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _BULK_BODY_RE,
    bulk_series_reference,
    read_report,
    write_report_reference,
    write_series_file_reference,
)
from resurge import ingest
from resurge.curation import SongRecord
from resurge.ingest import (
    MANIFEST_FORMAT_VERSION,
    DatasetManifest,
    ManifestEntry,
    ParseError,
    Table,
    load_dataset,
    load_manifest,
    parse_allowlist,
    parse_catalog_file,
    parse_series_file,
    write_dataset,
    write_manifest,
    write_report,
    write_series_file,
)
from resurge.series import TimeSeries


# --- series files -----------------------------------------------------------------


def test_parse_two_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("date,value\n2021-01-01,3.5\n2021-01-02,4\n")
    series = parse_series_file(path)
    assert len(series) == 2
    assert series.values.tolist() == [3.5, 4.0]
    assert series.days[1] == series.days[0] + 1


def test_parse_sorts_rows(tmp_path):
    shuffled = tmp_path / "a.csv"
    shuffled.write_text("date,value\n2021-01-03,3\n2021-01-01,1\n2021-01-02,2\n")
    # canonical in form, so it passes the bulk gate before the line reader sorts it
    assert _BULK_BODY_RE.fullmatch(shuffled.read_text(), len("date,value\n"))
    ordered = tmp_path / "b.csv"
    ordered.write_text("date,value\n2021-01-01,1\n2021-01-02,2\n2021-01-03,3\n")
    assert parse_series_file(shuffled) == parse_series_file(ordered)


def test_parse_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# leading comment\n\ndate,value\n2021-01-01,1\n\n# done\n")
    assert len(parse_series_file(path)) == 1


def test_parse_error_carries_line_numbers(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("date,value\n2021-01-01,1\nnot-a-date,2\n")
    with pytest.raises(ParseError, match=rf"{path}:3: invalid ISO date"):
        parse_series_file(path)

    path.write_text("date,value\n2021-01-01,-4\n")
    with pytest.raises(ParseError, match=r":2: invalid value '-4'"):
        parse_series_file(path)

    path.write_text("date,value\n2021-01-01,nan\n")
    with pytest.raises(ParseError, match="invalid value"):
        parse_series_file(path)

    path.write_text("date,value\n2021-01-01,1\n2021-01-02,1e400\n")
    with pytest.raises(ParseError, match=r":3: invalid value '1e400'"):
        parse_series_file(path)

    path.write_text("date,value\n2021-01-01,1,extra\n")
    with pytest.raises(ParseError, match="expected 2 fields, got 3"):
        parse_series_file(path)

    # values are ASCII decimals: float() alone would read Arabic-Indic 12
    path.write_text("date,value\n2021-01-01,\u0661\u0662\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2: invalid value '\u0661\u0662'"):
        parse_series_file(path)

    # dates are YYYY-MM-DD on every Python version; 3.11's fromisoformat reads
    # the basic and week forms too
    for text in ("20210101", "2021-W01-2", "2021-01-01T00", "\uff12\uff10\uff12\uff11-01-01"):
        path.write_text(f"date,value\n{text},1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f":2: invalid ISO date '{text}'"):
            parse_series_file(path)

    path.write_text("value,date\n")
    with pytest.raises(ParseError, match=r":1: expected 'date,value' header"):
        parse_series_file(path)


def test_parse_duplicate_date_names_both_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("date,value\n2021-01-01,1\n2021-01-02,2\n2021-01-01,3\n")
    with pytest.raises(ParseError, match=r":4: duplicate date 2021-01-01 \(first seen on line 2\)"):
        parse_series_file(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("2021-01-01,1\n2021-02-30,2\n", ":3: invalid ISO date '2021-02-30'"),
        ("2021-01-01,1\n2021-01-02,1e400\n", ":3: invalid value '1e400'"),
        ("0000-01-01,1\n", ":2: invalid ISO date '0000-01-01'"),
        ("2021-01-01,1\n2021-01-02,2\n2021-01-01,3\n",
         ":4: duplicate date 2021-01-01 (first seen on line 2)"),
    ],
    ids=["no-such-day", "overflow", "year-zero", "duplicate"],
)
def test_canonical_file_errors_come_from_the_line_reader(tmp_path, body, message):
    # each file passes the bulk gate, so the line reader must report the error
    assert _BULK_BODY_RE.fullmatch(body)
    path = tmp_path / "s.csv"
    path.write_text("date,value\n" + body)
    with pytest.raises(ParseError) as info:
        parse_series_file(path)
    assert str(info.value) == f"{path}{message}"


def test_invalid_utf8_names_file_and_line(tmp_path):
    series = tmp_path / "s.csv"
    series.write_bytes(b"date,value\r\n2021-01-01,1\r2021-01-02,\xff\n")
    with pytest.raises(ParseError) as info:
        parse_series_file(series)
    assert str(info.value) == f"{series}:3: invalid UTF-8 byte 0xff (invalid start byte)"

    catalog = tmp_path / "catalog.csv"
    catalog.write_bytes(b"title,artist,release_date,release_kind\nCaf\xe9,A,2015-01-01,single\n")
    with pytest.raises(ParseError, match=rf"{catalog}:2: invalid UTF-8 byte 0xe9"):
        parse_catalog_file(catalog)

    allowlist = tmp_path / "allow.txt"
    allowlist.write_bytes(b"sr-001\n\n\x80\n")
    with pytest.raises(ParseError, match=rf"{allowlist}:3: invalid UTF-8 byte 0x80"):
        parse_allowlist(allowlist)

    songs = [{"song_id": "garbled", "display_title": "G by H", "short_video": "s.csv"}]
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_payload(songs)))
    with pytest.raises(ParseError, match=rf"song 'garbled': {series}:3: invalid UTF-8"):
        load_dataset(manifest_path)


def test_parse_empty_and_header_only(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty file"):
        parse_series_file(path)
    path.write_text("date,value\n")
    with pytest.raises(ParseError, match="no data rows"):
        parse_series_file(path)


def test_parse_accepts_plain_decimal_forms(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("date,value\n2021-01-01,0\n2021-01-02,3.\n2021-01-03,.5\n2021-01-04,2e3\n")
    assert parse_series_file(path).values.tolist() == [0.0, 3.0, 0.5, 2000.0]


@given(
    st.lists(
        st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    ),
    st.integers(730000, 738000),
)
@example(values=[-0.0, 1.0], start_day=730000)
@settings(max_examples=60, deadline=None)
def test_series_round_trip_bit_exact(tmp_path_factory, values, start_day):
    series = TimeSeries(
        days=np.arange(start_day, start_day + len(values)),
        values=np.array(values),
    )
    path = tmp_path_factory.mktemp("roundtrip") / "s.csv"
    write_series_file(series, path)
    back = parse_series_file(path)
    assert back.days.tolist() == series.days.tolist()
    assert all(a == b for a, b in zip(back.values, series.values))


@given(
    st.lists(
        st.tuples(
            st.integers(1, 3_000_000),
            st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=30,
        unique_by=lambda row: row[0],
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_line_reader_matches_bulk_path(tmp_path_factory, rows, rng):
    rows.sort()
    directory = tmp_path_factory.mktemp("forms")
    canonical = directory / "canonical.csv"
    write_series_file(
        TimeSeries(days=[d for d, _ in rows], values=[v for _, v in rows]), canonical
    )
    text = canonical.read_text(encoding="utf-8")
    # a signed exponent (1e-05, 1e+16) sends the file to the line reader
    assert (ingest._bulk_series(text) is None) == _holds_sign(text)
    expected = parse_series_file(canonical)

    header, *lines = text.splitlines()
    shuffled = lines[:]
    rng.shuffle(shuffled)
    padded = [" " + line.replace(",", " ,\t") + " " for line in lines]
    forms = {
        "crlf": text.replace("\n", "\r\n"),
        "comment": "# comment\n" + text,
        "trailing_blank": text + "\n",
        "padded": "\n".join([header] + padded) + "\n",
        "no_final_newline": text[:-1],
        "shuffled": "\n".join([header] + shuffled) + "\n",
    }
    for name, form in forms.items():
        if name != "shuffled":
            assert ingest._bulk_series(form) is None, name
        path = directory / f"{name}.csv"
        path.write_text(form, encoding="utf-8", newline="")
        back = parse_series_file(path)
        assert back.days.tobytes() == expected.days.tobytes(), name
        assert back.values.tobytes() == expected.values.tobytes(), name


def test_float_accepts_exactly_the_values_the_line_reader_accepts():
    # the bulk gate checks only characters, so float() decides the grammar of
    # every value it admits, any text over 0-9.eE; it agrees with _VALUE too
    # on any text that starts with a digit or "." and holds only 0-9.eE+-,
    # signed exponents included.  This alphabet holds a zero, a nonzero digit
    # and each of the other characters
    admitted = 0
    mismatches = []
    for length in range(1, 7):
        for chars in itertools.product("05.eE+-", repeat=length):
            text = "".join(chars)
            starts_as_a_value = text[0] in "05."
            if not starts_as_a_value and ("+" in text or "-" in text):
                continue
            admitted += starts_as_a_value
            try:
                float(text)
                accepted = True
            except ValueError:
                accepted = False
            if accepted != bool(ingest._VALUE_RE.fullmatch(text)):
                mismatches.append(text)
    assert admitted == 58_824
    assert mismatches == []


def _holds_sign(text: str) -> bool:
    """Whether a value of a series file's text, a field after a comma, holds ``+`` or ``-``."""
    return re.search(r",[^,\n]*[+-]", text) is not None


_MAX_DAY = dt.date.max.toordinal()  # 3_652_059, 9999-12-31

# one-row edits that a canonical file can suffer: characters float() reads
# that the grammar does not, values it rejects, and broken layouts
_VALUE_INSERTS = ["+", "-", "_", " ", "\t", ".", "e"]
# signed exponents are valid values, spelt as repr spells them
_VALUE_REPLACEMENTS = ["inf", "nan", "Infinity", "1e400", ".", "e", "", "1e-05", "1e+16"]
_SIGNS = ["+", "-0", "-"]
_ROW_INSERTS = [",", "\r"]
_DIGIT_ZEROS = [0x660, 0xFF10]  # Arabic-Indic and full-width digit zero
_PLAIN_VALUES = st.integers(0, 10**15).map(lambda k: k / 1000)  # repr has no exponent


@st.composite
def perturbed_series_texts(draw, daily=False):
    """A canonical series file's text with at most one row edited.

    With *daily*, the rows are a run of consecutive days, which random
    unique days almost never form.
    """
    if daily:
        # a file's values all spelt without an exponent, or from the whole range
        elements = draw(st.sampled_from([_PLAIN_VALUES, st.floats(0.0, 1e300)]))
        values = draw(st.lists(elements, min_size=1, max_size=20))
        first = draw(st.integers(1, _MAX_DAY - len(values) + 1))
        rows = list(enumerate(values, start=first))
    else:
        rows = draw(st.lists(
            st.tuples(st.integers(1, _MAX_DAY), st.floats(0.0, 1e300)),
            min_size=1, max_size=20, unique_by=lambda row: row[0],
        ))
        rows.sort()
    lines = [f"{dt.date.fromordinal(day).isoformat()},{value!r}" for day, value in rows]
    ends = ["\n"] * len(lines)
    index = draw(st.integers(0, len(lines) - 1))
    date, value = lines[index].split(",")
    edit = draw(st.sampled_from(
        ["none", "value_insert", "value_replace", "sign", "digit", "row_insert", "swap",
         "final_newline", "trailing"]
    ))
    if edit == "value_insert":
        at = draw(st.integers(0, len(value)))
        value = value[:at] + draw(st.sampled_from(_VALUE_INSERTS)) + value[at:]
    elif edit == "value_replace":
        value = draw(st.sampled_from(_VALUE_REPLACEMENTS))
    elif edit == "sign":
        value = draw(st.sampled_from(_SIGNS)) + value
    elif edit == "digit":
        at = draw(st.sampled_from([i for i, char in enumerate(value) if char.isdigit()]))
        value = value[:at] + chr(draw(st.sampled_from(_DIGIT_ZEROS)) + int(value[at])) + value[at + 1:]
    line = f"{date},{value}"
    if edit == "row_insert":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(_ROW_INSERTS)) + line[at:]
    elif edit == "swap":
        # the row's comma and newline trade places: "d1\nv1,d2,v2\n"
        line, ends[index] = f"{date}\n{value}", ","
    lines[index] = line
    text = "date,value\n" + "".join(map(str.__add__, lines, ends))
    if edit == "trailing":
        text += draw(st.text("0123456789.eE-,", min_size=1, max_size=12))
    return text[:-1] if edit == "final_newline" else text


@given(perturbed_series_texts())
@example("date,value\n2021-01-01,1\n2021-01-02,\u0661\n")
@example("date,value\n2021-01-01,1_0\n")
@example("date,value\n2021-01-01,1e400\n")
@settings(max_examples=200, deadline=None)
def test_bulk_reader_matches_the_grammar_in_regex_reference(tmp_path_factory, text):
    bulk = ingest._bulk_series(text)
    reference = bulk_series_reference(text)
    assert (bulk is None) == (reference is None or _holds_sign(text))
    if bulk is not None:
        assert bulk.days.tobytes() == reference.days.tobytes()
        assert bulk.values.tobytes() == reference.values.tobytes()

    path = tmp_path_factory.mktemp("perturbed") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: parse_series_file(path)) == _outcome_as_before(path, text)


def _outcome(read):
    """The days' and values' bytes of a read series, or the text of its ParseError."""
    try:
        series = read()
    except ParseError as exc:
        return str(exc)
    return series.days.tobytes(), series.values.tobytes()


def _outcome_as_before(path, text):
    """What the bulk reader as it was, falling back to the line reader, makes of *text*."""
    def read():
        series = bulk_series_reference(text)
        return series if series is not None else ingest._parse_series_lines(path, text)
    return _outcome(read)


def _calendar_lookups() -> int:
    info = ingest._calendar_year.cache_info()
    return info.hits + info.misses


def _daily_text(first: int, values) -> str:
    return "date,value\n" + "".join(
        f"{dt.date.fromordinal(first + i).isoformat()},{value!r}\n" for i, value in enumerate(values)
    )


@st.composite
def daily_runs(draw):
    """The first day and values of a run of consecutive days in years 1 to 9999."""
    first = draw(st.integers(1, _MAX_DAY))
    # values all spelt without an exponent, or from the whole range, where
    # most long runs hold a signed exponent
    elements = draw(st.sampled_from([_PLAIN_VALUES, st.floats(0.0, 1e300)]))
    values = draw(st.lists(elements, min_size=1, max_size=800))
    return first, values[: _MAX_DAY - first + 1]


@pytest.mark.bit_identity
@given(daily_runs())
@example((1, [1.0] * 400))
@example((_MAX_DAY - 399, [2.0] * 400))
@example((1, [3.0]))
@example((_MAX_DAY, [4.0]))
# across a year end, the skipped 1900-02-29, and leap days of 2000 and 2024
@example((dt.date(1999, 12, 30).toordinal(), [0.5] * 5))
@example((dt.date(1900, 2, 27).toordinal(), [1.0] * 4))
@example((dt.date(2000, 2, 27).toordinal(), [1.0] * 4))
@example((dt.date(2023, 12, 1).toordinal(), [1.0] * 500))
@settings(max_examples=100, deadline=None)
def test_consecutive_days_are_read_from_the_calendar(tmp_path_factory, run):
    first, values = run
    text = _daily_text(first, values)
    years = dt.date.fromordinal(first + len(values) - 1).year - dt.date.fromordinal(first).year + 1
    signed = _holds_sign(text)
    before = _calendar_lookups()
    bulk = ingest._bulk_series(text)
    # one calendar lookup for each year the run spans, and none for a file
    # the gate sends to the line reader
    assert _calendar_lookups() - before == (0 if signed else years)
    assert (bulk is None) == signed
    reference = bulk_series_reference(text)
    path = tmp_path_factory.mktemp("daily") / "s.csv"
    path.write_text(text, encoding="utf-8")
    lines = ingest._parse_series_lines(path, text)
    assert reference.days.tobytes() == lines.days.tobytes()
    assert reference.values.tobytes() == lines.values.tobytes()
    if bulk is not None:
        assert bulk.days.tobytes() == reference.days.tobytes()
        assert bulk.values.tobytes() == reference.values.tobytes()


@pytest.mark.bit_identity
@given(perturbed_series_texts(daily=True))
# bytes after the last newline, which the bulk reader's translate deletes
@example("date,value\n2021-01-01,5\n1")
@example("date,value\n2021-01-01\n5,2021-01-02,6\n")
@example("date,value\n2021-01-01,+5\n2021-01-02,6\n")
@example("date,value\n2021-01-01,-0\n")
@example("date,value\n2021-01-01,\n2021-01-02,6\n")
@example("date,value\n2021-01-01,1e-05\n2021-01-02,1e+16\n")
@example("date,value\n2021-01-01,5\n2021-01-02,\u0661\n")
@settings(max_examples=200, deadline=None)
def test_daily_runs_are_read_as_the_reference_reads_them(tmp_path_factory, text):
    bulk = ingest._bulk_series(text)
    reference = bulk_series_reference(text)
    assert (bulk is None) == (reference is None or _holds_sign(text))
    if bulk is not None:
        assert bulk.days.tobytes() == reference.days.tobytes()
        assert bulk.values.tobytes() == reference.values.tobytes()

    path = tmp_path_factory.mktemp("daily") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: parse_series_file(path)) == _outcome_as_before(path, text)


class _CountingRegex:
    """A compiled regex that counts its ``fullmatch`` calls."""

    def __init__(self, regex):
        self.regex, self.calls = regex, 0

    def fullmatch(self, *args):
        self.calls += 1
        return self.regex.fullmatch(*args)


@pytest.mark.parametrize("text, calls", [
    (_daily_text(dt.date(2021, 1, 1).toordinal(), [0.5, 12.0, 1234.25] * 140), 0),
    ("date,value\n2021-01-01,1.0\n2021-01-02,2.0\n2021-01-04,3.0\n", 3),
    (_daily_text(dt.date(2021, 1, 1).toordinal(), [0.5, 1e-05, 12.0]), 0),
], ids=["daily", "gapped", "daily-signed-exponent"])
def test_per_row_date_work_is_pinned(monkeypatch, text, calls):
    """Dates are matched one by one only where the calendar cannot vouch for them."""
    counting = _CountingRegex(ingest._DATE_RE)
    monkeypatch.setattr(ingest, "_DATE_RE", counting)
    bulk = ingest._bulk_series(text)
    assert counting.calls == calls
    assert (bulk is None) == _holds_sign(text)
    if bulk is not None:
        reference = bulk_series_reference(text)
        assert bulk.days.tobytes() == reference.days.tobytes()
        assert bulk.values.tobytes() == reference.values.tobytes()


@pytest.mark.bit_identity
@pytest.mark.parametrize("dates, lookups", [
    (["2021-01-01", "2021-01-02", "2021-01-04"], 0),
    (["2021-01-01", "2021-01-02", "2021-01-02", "2021-01-04"], 1),
    (["2021-01-01", "2021-01-03", "2021-01-02", "2021-01-04"], 1),
    (["2021-02-28", "2021-02-29", "2021-03-01"], 0),
    (["2021-02-27", "2021-02-29", "2021-03-01"], 1),
    (["2021-02-27", "2021-02-28", "2021-02-29"], 0),
    (["2021-02-29", "2021-03-01", "2021-03-02"], 0),
    (["2100-02-28", "2100-02-29", "2100-03-01", "2100-03-02"], 0),
    (["2100-02-27", "2100-02-29", "2100-03-01"], 1),
    (["2100-02-27", "2100-02-28", "2100-02-29"], 0),
], ids=["gap", "repeat", "swap", "2021-02-29", "2021-02-29-in-run", "2021-02-29-last",
        "2021-02-29-first", "2100-02-29", "2100-02-29-in-run", "2100-02-29-last"])
def test_other_canonical_dates_are_read_as_before(tmp_path, dates, lookups):
    text = "date,value\n" + "".join(f"{date},{k}\n" for k, date in enumerate(dates))
    assert _BULK_BODY_RE.fullmatch(text, len("date,value\n"))
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8")
    before = _calendar_lookups()
    assert _outcome(lambda: parse_series_file(path)) == _outcome_as_before(path, text)
    # the calendar is consulted only where the ends are real dates a run apart
    assert _calendar_lookups() - before == lookups


@given(
    st.lists(
        st.tuples(st.integers(1, _MAX_DAY), st.floats(0.0, allow_nan=False, allow_infinity=False)),
        min_size=1,
        max_size=30,
        unique_by=lambda row: row[0],
    )
)
@example([(1, 0.0)])
@example([
    (1, 0.0),
    (dt.date(999, 12, 31).toordinal(), 5e-324),
    (738000, 1e16),
    (738001, 1e22),
    (_MAX_DAY, 1.7976931348623157e308),
])
# leap days, the skipped 1900-02-29, and the first and last day the writer spells
@pytest.mark.bit_identity
@example([(dt.date(4, 2, 29).toordinal(), 1.0)])
@example([(dt.date(1900, 2, 28).toordinal(), 1.0), (dt.date(1900, 3, 1).toordinal(), 2.0)])
@example([(dt.date(2000, 2, 29).toordinal(), 0.5)])
@example([(1, 3.0), (_MAX_DAY, 4.0)])
@settings(max_examples=60, deadline=None)
def test_series_writer_matches_the_reference(tmp_path_factory, rows):
    rows.sort()
    series = TimeSeries(days=[d for d, _ in rows], values=[v for _, v in rows])
    directory = tmp_path_factory.mktemp("writer")
    write_series_file(series, directory / "bulk.csv")
    write_series_file_reference(series, directory / "reference.csv")
    assert (directory / "bulk.csv").read_bytes() == (directory / "reference.csv").read_bytes()


@pytest.mark.bit_identity
def test_series_writer_spells_each_date_as_isoformat_does(tmp_path):
    # every day of the years around the ends and the century leap rules, and
    # every 101st day of the calendar, which steps through each month and day
    years = [(1, 2), (1899, 1901), (1999, 2001), (9998, 9999)]
    spans = [np.arange(dt.date(a, 1, 1).toordinal(), dt.date(b, 12, 31).toordinal() + 1)
             for a, b in years]
    days = np.unique(np.concatenate([*spans, np.arange(1, _MAX_DAY + 1, 101)]))
    path = tmp_path / "s.csv"
    before = _calendar_lookups()
    write_series_file(TimeSeries(days=days, values=np.ones(days.size)), path)
    # a series that is not daily never touches the calendar, so spanning the
    # years 1 to 9999 evicts none of the years it keeps
    assert _calendar_lookups() == before
    dates = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert dates == [dt.date.fromordinal(day).isoformat() for day in days.tolist()]


@pytest.mark.bit_identity
@pytest.mark.parametrize("first, last", [
    (dt.date(1899, 1, 1), dt.date(1901, 12, 31)),
    (dt.date(1999, 1, 1), dt.date(2001, 12, 31)),
    (dt.date(1, 1, 1), dt.date(1, 4, 30)),
    (dt.date(9999, 9, 1), dt.date(9999, 12, 31)),
], ids=["1899-1901", "1999-2001", "year-1", "year-9999"])
def test_daily_series_writer_spells_each_date_as_isoformat_does(tmp_path, first, last):
    # a daily series takes its dates from the calendar, one lookup per year
    days = np.arange(first.toordinal(), last.toordinal() + 1)
    path = tmp_path / "s.csv"
    before = _calendar_lookups()
    write_series_file(TimeSeries(days=days, values=np.ones(days.size)), path)
    assert _calendar_lookups() - before == last.year - first.year + 1
    dates = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert dates == [dt.date.fromordinal(day).isoformat() for day in days.tolist()]


def test_calendar_keeps_at_most_its_bound_of_years(tmp_path):
    # more distinct years than the bound, each written and read back
    path = tmp_path / "s.csv"
    for year in range(1900, 1900 + 2 * ingest._CALENDAR_YEARS):
        first = dt.date(year, 12, 30).toordinal()
        write_series_file(TimeSeries(days=[first, first + 1], values=[1.0, 2.0]), path)
        assert parse_series_file(path).days.tolist() == [first, first + 1]
    info = ingest._calendar_year.cache_info()
    assert info.maxsize == ingest._CALENDAR_YEARS
    assert info.currsize <= ingest._CALENDAR_YEARS


@pytest.mark.bit_identity
@pytest.mark.parametrize("days", [[0], [0, 5], [_MAX_DAY + 1], [5, _MAX_DAY + 1]])
def test_series_writer_rejects_days_outside_years_1_to_9999(tmp_path, days):
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="outside the years 1 to 9999"):
        write_series_file(TimeSeries(days=days, values=[1.0] * len(days)), path)
    assert not path.exists()


# --- catalog and allowlist -----------------------------------------------------------


def test_parse_catalog(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "title,artist,release_date,release_kind\n"
        '"Hey, You",Some Band,2015-04-01,single\n'
        "Plain Title,Another Band,2016-01-15,album\n"
        "#1 Crush,Garbage,1996-01-01,single\n"
    )
    entries = parse_catalog_file(path)
    assert entries[0].title == "Hey, You"
    assert entries[0].release_kind == "single"
    assert entries[1].release_date.isoformat() == "2016-01-15"
    # the catalog has no comment syntax; '#' is an ordinary title character
    assert entries[2].title == "#1 Crush"


def test_parse_catalog_errors(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("title,artist,release_date,release_kind\nOnly,Three,2015-01-01\n")
    with pytest.raises(ParseError, match="expected 4 fields"):
        parse_catalog_file(path)
    path.write_text("title,artist,release_date,release_kind\nT,A,2015-01-01,ep\n")
    with pytest.raises(ParseError, match="invalid release_kind 'ep'"):
        parse_catalog_file(path)
    path.write_text("title,artist,release_date,release_kind\nT,A,20150101,single\n")
    with pytest.raises(ParseError, match=":2: invalid ISO date '20150101'"):
        parse_catalog_file(path)
    path.write_text("nope\n")
    with pytest.raises(ParseError, match="header"):
        parse_catalog_file(path)
    path.write_text("")
    with pytest.raises(ParseError, match="empty file"):
        parse_catalog_file(path)


def test_parse_allowlist(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# manual keeps\nsr-001\n\nsr-007\n")
    assert parse_allowlist(path) == ["sr-001", "sr-007"]


@pytest.mark.parametrize("reader, text", [
    (parse_series_file, "date,value\n2021-01-01,1.0\n2021-01-02,2.5\n"),
    (parse_catalog_file, "title,artist,release_date,release_kind\nT,A,2015-01-01,single\n"),
    (parse_allowlist, "sr-004\nsr-007\n"),
    (load_manifest, '{"format_version": 1, "songs": '
                    '[{"song_id": "x", "display_title": "X by Y", "short_video": "a.csv"}]}'),
], ids=["series", "catalog", "allowlist", "manifest"])
def test_leading_bom_is_ignored(tmp_path, monkeypatch, reader, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    # the series text is canonical, so with or without the mark it takes the bulk path
    monkeypatch.setattr(ingest, "_parse_series_lines", None)
    assert reader(marked) == reader(plain)


# --- manifests -------------------------------------------------------------------------


def manifest_payload(songs):
    return {"format_version": MANIFEST_FORMAT_VERSION, "songs": songs}


def test_manifest_round_trip(tmp_path):
    manifest = DatasetManifest(
        format_version=MANIFEST_FORMAT_VERSION,
        songs=(
            ManifestEntry("s1", "One by A", "series/s1_sv.csv", "series/s1_ws.csv"),
            ManifestEntry("s2", "Two by B", "series/s2_sv.csv", None),
        ),
    )
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_manifest_validation(tmp_path):
    path = tmp_path / "manifest.json"

    path.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_manifest(path)

    for version in (99, True, 1.0):
        path.write_text(json.dumps({"format_version": version, "songs": []}))
        with pytest.raises(ParseError, match="unsupported format_version"):
            load_manifest(path)

    path.write_text(json.dumps(manifest_payload([{"song_id": "x"}])))
    with pytest.raises(ParseError, match="display_title"):
        load_manifest(path)

    song = {"song_id": "x", "display_title": "X by Y", "short_video": "a.csv"}
    path.write_text(json.dumps(manifest_payload([song, song])))
    with pytest.raises(ParseError, match="duplicate song identifier: x"):
        load_manifest(path)

    # a series path is a non-empty string; only web_search may be null
    for bad, message in (
        (dict(song, short_video=""), "needs a short_video path"),
        (dict(song, web_search=""), "web_search must be a path or null"),
        (dict(song, web_search=3), "web_search must be a path or null"),
    ):
        path.write_text(json.dumps(manifest_payload([bad])))
        with pytest.raises(ParseError, match=rf"songs\[0\] \(x\) {message}"):
            load_manifest(path)

    # song ids become output file names, so a path separator is rejected
    for song_id in ("../escaped", "a\\b"):
        bad = dict(song, song_id=song_id)
        path.write_text(json.dumps(manifest_payload([song, bad])))
        with pytest.raises(ParseError, match=r"songs\[1\] song_id .* path separator"):
            load_manifest(path)

    # nor may an id that no file name can hold
    for song_id, message in (
        ("a\x00b", "contains a null byte"),
        ("\ud800", "contains a lone surrogate"),
        ("x" * 250, "is over 238 UTF-8 bytes"),
        ("\u00e9" * 120, "is over 238 UTF-8 bytes"),
    ):
        bad = dict(song, song_id=song_id)
        path.write_text(json.dumps(manifest_payload([song, bad])))
        with pytest.raises(ParseError, match=rf"songs\[1\] song_id .*{message}"):
            load_manifest(path)
    # 238 bytes leave "<id>__short_video.csv" at 255
    path.write_text(json.dumps(manifest_payload([dict(song, song_id="\u00e9" * 119)])))
    assert load_manifest(path).songs[0].song_id == "\u00e9" * 119
    path.write_text(json.dumps(manifest_payload([dict(song, display_title="\udfff by Y")])))
    with pytest.raises(ParseError, match=r"songs\[0\] \(x\) display_title has a lone surrogate"):
        load_manifest(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_manifest_errors_name_the_line(tmp_path, newline):
    path = tmp_path / "manifest.json"
    lines = ['{', '  "format_version": 1,', '  "songs": [', '    {"song_id": "caf\xff"}', ']}']
    path.write_bytes(newline.join(lines).encode("latin-1"))
    with pytest.raises(ParseError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}:4: invalid UTF-8 byte 0xff (invalid start byte)"

    lines[3] = '    {"song_id": }'
    path.write_bytes(newline.join(lines).encode("utf-8"))
    with pytest.raises(ParseError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}:4: invalid JSON: Expecting value"


def write_series_csv(path, rows):
    path.write_text("date,value\n" + "".join(f"{d},{v}\n" for d, v in rows))


def test_load_dataset_golden(tmp_path):
    (tmp_path / "series").mkdir()
    write_series_csv(tmp_path / "series/a_sv.csv", [("2021-01-01", 1), ("2021-01-02", 2)])
    write_series_csv(tmp_path / "series/a_ws.csv", [("2021-01-01", 5), ("2021-01-02", 6)])
    write_series_csv(tmp_path / "series/b_sv.csv", [("2021-02-01", 3), ("2021-02-03", 4)])
    songs = [
        {"song_id": "a", "display_title": "A by X", "short_video": "series/a_sv.csv",
         "web_search": "series/a_ws.csv"},
        {"song_id": "b", "display_title": "B by Y", "short_video": "series/b_sv.csv",
         "web_search": None},
    ]
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_payload(songs)))

    records = load_dataset(manifest_path)
    assert [r.song_id for r in records] == ["a", "b"]
    assert records[0].display_title == "A by X"
    assert records[0].short_video_series.values.tolist() == [1.0, 2.0]
    assert records[0].web_search_series.values.tolist() == [5.0, 6.0]
    assert records[1].web_search_series is None
    assert not records[1].short_video_series.is_daily


def test_load_dataset_missing_ws_file_is_an_error(tmp_path):
    (tmp_path / "series").mkdir()
    write_series_csv(tmp_path / "series/a_sv.csv", [("2021-01-01", 1)])
    songs = [{"song_id": "a", "display_title": "A by X",
              "short_video": "series/a_sv.csv", "web_search": "series/gone.csv"}]
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_payload(songs)))
    with pytest.raises(ParseError, match="song 'a': missing series file series/gone.csv"):
        load_dataset(manifest_path)


def test_load_dataset_without_web_search_reads_only_short_video_paths(tmp_path, monkeypatch):
    (tmp_path / "series").mkdir()
    (tmp_path / "bad.csv").write_text("date,value\n2021-01-01,oops\n")
    rows = [("2021-01-01", 1), ("2021-01-02", 2)]
    for name in ("a_sv", "b_sv", "c_sv", "d_sv", "d_ws"):
        write_series_csv(tmp_path / f"series/{name}.csv", rows)
    # a directory, a missing file, a malformed file, a good file
    web_search = {"a": "series", "b": "gone.csv", "c": "bad.csv", "d": "series/d_ws.csv"}
    songs = [
        {"song_id": song_id, "display_title": f"{song_id} by X",
         "short_video": f"series/{song_id}_sv.csv", "web_search": path}
        for song_id, path in web_search.items()
    ]
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_payload(songs)))
    read = []
    original = ingest._read_song_series

    def recording(manifest, song_id, relative):
        read.append(relative)
        return original(manifest, song_id, relative)

    monkeypatch.setattr(ingest, "_read_song_series", recording)

    records = load_dataset(manifest_path, web_search=False)
    assert [r.song_id for r in records] == ["a", "b", "c", "d"]
    assert all(r.web_search_series is None for r in records)
    assert all(r.short_video_series.values.tolist() == [1.0, 2.0] for r in records)
    assert read == [song["short_video"] for song in songs]
    with pytest.raises(ParseError, match="song 'a': series path is not a file: series$"):
        load_dataset(manifest_path)


def test_load_dataset_errors_name_the_song(tmp_path):
    songs = [{"song_id": "lost", "display_title": "L by M", "short_video": "nope.csv"}]
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_payload(songs)))
    with pytest.raises(ParseError, match="song 'lost': missing series file nope.csv"):
        load_dataset(manifest_path)

    (tmp_path / "bad.csv").write_text("date,value\n2021-01-01,oops\n")
    songs = [{"song_id": "mangled", "display_title": "M by N", "short_video": "bad.csv"}]
    manifest_path.write_text(json.dumps(manifest_payload(songs)))
    with pytest.raises(ParseError, match="song 'mangled'"):
        load_dataset(manifest_path)


# song ids as load_manifest accepts them: no path separator, NUL or lone
# surrogate, not blank, at most 238 UTF-8 bytes
_ID_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="/\\\x00")
_song_ids = (
    st.text(_ID_CHARS, min_size=1, max_size=238)
    .map(lambda text: text.encode("utf-8")[:238].decode("utf-8", "ignore"))
    .filter(str.strip)
)
_titles = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40).filter(str.strip)


@st.composite
def _series(draw):
    values = draw(st.lists(st.floats(0.0, allow_infinity=False), min_size=1, max_size=12))
    gaps = draw(st.lists(st.integers(1, 40), min_size=len(values) - 1, max_size=len(values) - 1))
    # year 1 to 9999, the years a YYYY-MM-DD date can spell
    start = draw(st.integers(1, 3_652_059 - 40 * len(gaps)))
    return TimeSeries(days=np.cumsum([start] + gaps), values=values)


_records = st.lists(
    st.builds(SongRecord, _song_ids, _titles, _series(), st.none() | _series()),
    max_size=4,
    unique_by=lambda record: record.song_id,
)
_EDGE_RECORDS = [
    SongRecord("x" * 238, "Max by Len", TimeSeries(days=[1, 2], values=[-0.0, 5e-324]), None),
    SongRecord("\u00e9" * 119, "Caf\u00e9 \U0001f3b5 by \u00c5se",
               TimeSeries(days=[738000], values=[1.7976931348623157e308]),
               TimeSeries(days=[3_652_059], values=[0.1])),
]


@given(_records)
@example(_EDGE_RECORDS)
@settings(max_examples=40, deadline=None)
def test_write_dataset_round_trip(tmp_path_factory, records):
    manifest_path = tmp_path_factory.mktemp("dataset") / "manifest.json"
    write_dataset(records, manifest_path, "series")
    assert load_dataset(manifest_path) == records
    # a null web-search series gets no file
    written = list((manifest_path.parent / "series").iterdir())
    assert len(written) == sum(1 + (r.web_search_series is not None) for r in records)


@pytest.mark.parametrize("song_id, message", [
    ("", "needs a non-empty song_id"),
    ("  ", "needs a non-empty song_id"),
    ("../escaped", "song_id '../escaped' contains a path separator"),
    ("a\\b", r"song_id 'a\\\\b' contains a path separator"),
    ("a\x00b", r"song_id 'a\\x00b' contains a null byte"),
    ("\ud800", r"song_id '\\ud800' contains a lone surrogate"),
    ("\u00e9" * 120, "song_id is over 238 UTF-8 bytes"),
], ids=["empty", "blank", "slash", "backslash", "nul", "surrogate", "too_long"])
def test_write_dataset_rejects_ids_load_manifest_rejects(tmp_path, song_id, message):
    good = SongRecord("ok", "OK by Y", TimeSeries(days=[1], values=[1.0]))
    bad = SongRecord(song_id, "Bad by Y", TimeSeries(days=[1], values=[1.0]))
    with pytest.raises(ValueError, match=rf"^records\[1\] {message}$"):
        write_dataset([good, bad], tmp_path / "m" / "manifest.json", "series")
    # nothing is written, not even the series of the good record
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("second, message", [
    (SongRecord("a", "Again by Y", TimeSeries(days=[1], values=[1.0])),
     "duplicate song identifier: a"),
    (SongRecord("b", "\udfff by Y", TimeSeries(days=[1], values=[1.0])),
     r"records\[1\] \(b\) display_title has a lone surrogate"),
    (SongRecord("b", " ", TimeSeries(days=[1], values=[1.0])),
     r"records\[1\] \(b\) needs a non-empty display_title"),
], ids=["duplicate_id", "surrogate_title", "blank_title"])
def test_write_dataset_rejects_songs_load_manifest_rejects(tmp_path, second, message):
    first = SongRecord("a", "A by Y", TimeSeries(days=[1], values=[1.0]))
    with pytest.raises(ValueError, match=rf"^{message}$"):
        write_dataset([first, second], tmp_path / "m" / "manifest.json", "series")
    assert not any(tmp_path.iterdir())


# --- reports ---------------------------------------------------------------------------


SAMPLE_ROWS = [
    ("a", 0.123456789012345, True, None),
    ("b", 3.5e-12, False, "x"),
]
SAMPLE_SCHEMA = [("song_id", str), ("p_value", float), ("causal", bool), ("note", str)]


def rows_table(rows, n_columns=len(SAMPLE_SCHEMA)) -> Table:
    """The table that holds *rows*, one list per column."""
    return Table(*([row[j] for row in rows] for j in range(n_columns)))


def test_write_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_report(rows_table([]), SAMPLE_SCHEMA, tmp_path / "r", "xml")


def test_empty_report(tmp_path):
    jsonl = tmp_path / "r.jsonl"
    write_report(rows_table([]), SAMPLE_SCHEMA, jsonl, "jsonl")
    assert jsonl.read_text() == ""
    csv_path = tmp_path / "r.csv"
    write_report(rows_table([]), SAMPLE_SCHEMA, csv_path, "csv")
    assert csv_path.read_text() == "song_id,p_value,causal,note\n"


def test_table_len_is_its_row_count():
    assert len(rows_table(SAMPLE_ROWS)) == 2
    assert len(rows_table([])) == 0
    assert len(Table(np.zeros(5), [None] * 5)) == 5
    assert len(Table()) == 0


def test_jsonl_report_round_trip(tmp_path):
    path = tmp_path / "r.jsonl"
    write_report(rows_table(SAMPLE_ROWS), SAMPLE_SCHEMA, path, "jsonl")
    rows = read_report(path, "jsonl")
    assert rows[0]["song_id"] == "a"
    assert rows[0]["causal"] is True
    assert rows[0]["note"] is None
    assert rows[1]["p_value"] == 3.5e-12
    # 12 significant digits
    assert rows[0]["p_value"] == 0.123456789012


def test_csv_report_encodings(tmp_path):
    path = tmp_path / "r.csv"
    write_report(rows_table(SAMPLE_ROWS), SAMPLE_SCHEMA, path, "csv")
    text = path.read_text()
    assert "true" in text and "false" in text
    assert ",0.123456789012," in text
    rows = read_report(path, "csv")
    assert rows[0] == {
        "song_id": "a", "p_value": "0.123456789012", "causal": "true", "note": "",
    }


def test_report_writing_is_idempotent(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_report(rows_table(SAMPLE_ROWS), SAMPLE_SCHEMA, first, "jsonl")
    rows = [tuple(r.values()) for r in read_report(first, "jsonl")]
    write_report(rows_table(rows), SAMPLE_SCHEMA, second, "jsonl")
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("n_columns", [3, 5], ids=["short", "long"])
def test_write_report_rejects_mis_shaped_row(tmp_path, fmt, n_columns):
    # a table of too few or too many columns for its schema
    path = tmp_path / f"r.{fmt}"
    rows = [row + (None,) for row in SAMPLE_ROWS]
    with pytest.raises(ValueError, match=re.escape(
        f"report has {n_columns} columns for the 4 of ['song_id', 'p_value', 'causal', 'note']"
    )):
        write_report(rows_table(rows, n_columns), SAMPLE_SCHEMA, path, fmt)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("column, cells", [
    ("p_value", [0.5] * (2 * ingest._CHUNK_ROWS + 1)),
    ("note", [None] * (2 * ingest._CHUNK_ROWS - 1)),
    ("causal", np.ones(2 * ingest._CHUNK_ROWS + 1, dtype=bool)),
    ("p_value", np.zeros(1, dtype=np.float64)),
], ids=["long_list", "short_list", "long_array", "short_array"])
def test_write_report_rejects_columns_of_unequal_length(tmp_path, fmt, column, cells):
    path = tmp_path / f"r.{fmt}"
    # past the first chunk, so a streamed write would already have written lines
    table = rows_table(SAMPLE_ROWS * ingest._CHUNK_ROWS)
    columns = list(table.columns)
    columns[[name for name, _ in SAMPLE_SCHEMA].index(column)] = cells
    with pytest.raises(ValueError, match=(
        rf"^report column '{column}' has {len(cells)} rows for {2 * ingest._CHUNK_ROWS}$"
    )):
        write_report(Table(*columns), SAMPLE_SCHEMA, path, fmt)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("column, cell, type_name", [
    ("p_value", {0.5}, "set"),
    ("p_value", np.array([0.5]), "ndarray"),
    ("p_value", b"x", "bytes"),
    ("p_value", np.int64(3), "int64"),
    ("note", 7, "int"),
    ("causal", 1, "int"),
    ("p_value", "0.5", "str"),
    # bool is an int subclass, and np.int64 is no int subclass
    ("n", True, "bool"),
    ("n", np.int64(3), "int64"),
], ids=["set", "ndarray", "bytes", "numpy_int", "int_str", "bool_int", "float_str",
        "int_bool", "int_numpy_int"])
def test_write_report_rejects_cells_it_cannot_encode(tmp_path, fmt, column, cell, type_name):
    path = tmp_path / f"r.{fmt}"
    schema = SAMPLE_SCHEMA + [("n", int)]
    names = [name for name, _ in schema]
    good = [row + (3,) for row in SAMPLE_ROWS]
    bad = list(good[1])
    bad[names.index(column)] = cell
    # past the first chunk, so a streamed write would already have written lines
    rows = good * ingest._CHUNK_ROWS + [tuple(bad)]
    kind = dict(schema)[column].__name__
    with pytest.raises(TypeError, match=(
        rf"^report row {len(rows) - 1} column '{column}' holds a {type_name}, not {kind} or None$"
    )):
        write_report(rows_table(rows, len(schema)), schema, path, fmt)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("column, array, description", [
    ("p_value", np.zeros(3, dtype=np.float32), "1-D float32"),
    ("n", np.zeros(3, dtype=np.int32), "1-D int32"),
    ("p_value", np.zeros(3, dtype=object), "1-D object"),
    ("causal", np.zeros(3, dtype=np.int64), "1-D int64"),
    ("p_value", np.zeros((3, 1)), "2-D float64"),
    ("n", np.zeros((3, 2), dtype=np.int64), "2-D int64"),
    # a column of strings takes a list only
    ("song_id", np.array(["a", "b", "c"]), "1-D <U1"),
], ids=["float32", "int32", "object", "int_for_bool", "2d_float", "2d_int", "str_array"])
def test_write_report_rejects_arrays_of_another_dtype_or_shape(tmp_path, fmt, column, array, description):
    path = tmp_path / f"r.{fmt}"
    schema = SAMPLE_SCHEMA + [("n", int)]
    names = [name for name, _ in schema]
    columns = [["a", "b", "c"], np.zeros(3), np.ones(3, dtype=bool), [None] * 3, np.arange(3)]
    columns[names.index(column)] = array
    kind = dict(schema)[column].__name__
    with pytest.raises(TypeError, match=rf"^report column '{column}' of {kind} is a {description} array$"):
        write_report(Table(*columns), schema, path, fmt)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("bad_row, column", [
    (("\ud800", 0.5, True, None), "song_id"),  # a column of strings
    (("c", 0.5, True, "x\udfff"), "note"),  # a column of strings and None
], ids=["str_column", "mixed_column"])
def test_write_report_rejects_strings_utf8_cannot_encode(tmp_path, fmt, bad_row, column):
    path = tmp_path / f"r.{fmt}"
    # past the first chunk, so a streamed write would already have written lines
    rows = SAMPLE_ROWS * ingest._CHUNK_ROWS + [bad_row]
    with pytest.raises(ValueError, match=(
        rf"^report row {len(rows) - 1} column '{column}' holds a lone surrogate, "
        "which UTF-8 cannot encode$"
    )):
        write_report(rows_table(rows), SAMPLE_SCHEMA, path, fmt)
    assert not path.exists()


def test_csv_quotes_exactly_the_cells_that_need_it(tmp_path):
    path = tmp_path / "r.csv"
    cells = ("a,b", 'say "hi"', "cr\rhere", "lf\nhere", "plain {} % text", "caf\u00e9")
    schema = [(name, str) for name in ("c,1", "c2", "c3", "c4", "c5", "c6")]
    write_report(Table(*([cell] for cell in cells)), schema, path, "csv")
    assert path.read_bytes().decode("utf-8") == (
        '"c,1",c2,c3,c4,c5,c6\n'
        '"a,b","say ""hi""","cr\rhere","lf\nhere",plain {} % text,caf\u00e9\n'
    )
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh))[1] == list(cells)


def test_jsonl_floats_are_the_shortest_repr_of_12_digits(tmp_path):
    path = tmp_path / "r.jsonl"
    values = (0.1 + 0.2, 1.0, 1234567890123.4, 1e16, 2.5e-7, 5e-324, -0.0,
              math.nan, math.inf, -math.inf)
    # lists, and arrays checked by dtype alone, are spelt alike
    for table in (Table(list(range(len(values))), list(values)),
                  Table(np.arange(len(values)), np.array(values))):
        write_report(table, [("i", int), ("x", float)], path, "jsonl")
        assert path.read_text().splitlines() == [
            '{"i": %d, "x": %s}' % pair for pair in enumerate((
                "0.3", "1.0", "1234567890120.0", "1e+16", "2.5e-07", "5e-324", "-0.0",
                "NaN", "Infinity", "-Infinity",
            ))
        ]


# --- the streamed writer against the row-at-a-time reference ---------------------------

_CHUNK = ingest._CHUNK_ROWS
_texts = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from(',"\r\n{}%\u00e9\U0001f3b5'),
    max_size=6,
)
_floats = st.one_of(
    st.floats(),
    # .12g switches to an exponent here, repr does not
    st.floats(1e12, 1e16, exclude_max=True),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -0.0, 0.0]),
)
# one declared kind per column and a pool of its cells, of that kind plus None,
# as the reports have
_pools = st.one_of(
    st.tuples(st.just(float),
              st.lists(_floats | _floats.map(np.float64) | st.none(), min_size=1, max_size=5)),
    st.tuples(st.just(int), st.lists(st.integers() | st.none(), min_size=1, max_size=5)),
    st.tuples(st.just(str), st.lists(_texts | st.none(), min_size=1, max_size=5)),
    st.tuples(st.just(bool), st.lists(st.booleans() | st.none(), min_size=1, max_size=3)),
)


@pytest.mark.bit_identity
@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, -0.0, 3.0, 1e16, 2.5e-7])
@pytest.mark.parametrize("row", [0, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_jsonl_respells_the_one_cell_of_a_chunk_that_needs_it(tmp_path, special, row):
    # every other cell's 12 digits hold a point and no exponent, which is
    # already the shortest repr
    values = [0.5 + i for i in range(2 * _CHUNK)]
    values[row] = special
    path = tmp_path / "r.jsonl"
    write_report(Table(values), [("x", float)], path, "jsonl")
    # the rule per cell: json's spelling of the float that %.12g spells
    assert path.read_text().splitlines() == [
        '{"x": %s}' % json.dumps(float("%.12g" % value)) for value in values
    ]


# an array column of each kind that has one; a column of str is a list only
_DTYPES = {float: np.float64, int: np.int64, bool: np.bool_}


def _as_array(column: list, kind):
    """*column* as an array of its kind's dtype, or None where it cannot be one."""
    if kind not in _DTYPES or None in column:
        return None
    if kind is int and not all(-(2**63) <= cell < 2**63 for cell in column):
        return None
    return np.array(column, dtype=_DTYPES[kind])


@st.composite
def _reports(draw):
    names = draw(st.lists(_texts, min_size=2, max_size=4, unique=True))
    n_rows = draw(st.sampled_from([0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1]))
    rng = draw(st.randoms(use_true_random=False))
    schema, columns = [], []
    for name in names:
        kind, pool = draw(_pools)
        schema.append((name, kind))
        column = [rng.choice(pool) for _ in range(n_rows)]
        array = _as_array(column, kind)
        columns.append(array if array is not None and draw(st.booleans()) else column)
    return schema, columns


def _csv_module_follows_the_rule(text: str) -> bool:
    """Whether csv.writer writes *text* as a cell the way write_report does.

    write_report quotes a cell exactly when it holds , " \\r or \\n.  On Python
    3.11 csv.writer leaves a bare \\r unquoted, because it is not part of the
    "\\n" line terminator, and a csv module may refuse a cell outright.
    """
    out = io.StringIO()
    try:
        csv.writer(out, lineterminator="\n").writerow([text, ""])
    except csv.Error:
        return False
    quoted = any(c in text for c in ',"\r\n')
    expected = '"' + text.replace('"', '""') + '"' if quoted else text
    return out.getvalue() == expected + ",\n"


@given(_reports())
# signed zeros, and the None cells of a failed song's row, among floats and ints
@example(([("a", float), ("b", int)], [[-0.0, 0.0, None, np.float64(-0.0)], [1, None, 0, None]]))
# names and cells holding what a %-template or a JSON key would have to escape
@pytest.mark.bit_identity
@example(([("%", int), ("%s", str), ("{", float)], [[1, None], ["%s", "%%"], [0.5, None]]))
@example(([('"', str), ("\\", bool), ("%(x)s}", int)], [['{"\\', "%"], [True, None], [3, None]]))
# array columns at the ends of their dtypes, next to a list column
@example(([("f", float), ("i", int), ("b", bool), ("s", str)], [
    np.array([-0.0, math.nan, -math.inf, 5e-324, 1e16, 0.1 + 0.2]),
    np.array([-(2**63), 2**63 - 1, 0, -1, 1, 10**12], dtype=np.int64),
    np.array([True, False] * 3), ["x", None, "y,z", "", '"', "\n"],
]))
@settings(max_examples=60, deadline=None)
def test_streamed_writer_matches_the_reference(tmp_path_factory, report):
    schema, columns = report
    names = [name for name, _ in schema]
    # the reference takes rows; an array column gives its cells as Python scalars
    cells = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    rows = list(zip(*cells))
    directory = tmp_path_factory.mktemp("report")
    texts = names + [cell for column in cells for cell in column if isinstance(cell, str)]
    for fmt in ("jsonl", "csv"):
        if fmt == "csv" and not all(map(_csv_module_follows_the_rule, set(texts))):
            continue
        write_report(Table(*columns), schema, directory / f"new.{fmt}", fmt)
        write_report_reference(rows, names, directory / f"old.{fmt}", fmt)
        assert (directory / f"new.{fmt}").read_bytes() == (directory / f"old.{fmt}").read_bytes()

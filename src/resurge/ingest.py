"""File formats: series and catalog CSVs, dataset manifests, report writers.

Input files are UTF-8.  All parsing is locale-independent (``YYYY-MM-DD``
dates, plain ASCII decimal numbers) and every parse error carries the file
path and line number.  Writers are deterministic: the same inputs always
produce the same bytes.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import datetime as dt
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .curation import CatalogEntry, SongRecord
from .series import TimeSeries

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "REPORT_FORMATS",
    "ParseError",
    "parse_iso_date",
    "ManifestEntry",
    "DatasetManifest",
    "parse_series_file",
    "write_series_file",
    "parse_catalog_file",
    "parse_allowlist",
    "load_manifest",
    "write_manifest",
    "load_dataset",
    "write_dataset",
    "write_report",
]

MANIFEST_FORMAT_VERSION = 1
REPORT_FORMATS = ("jsonl", "csv")

# non-negative ASCII decimal, optional exponent; covers repr() of any
# non-negative finite float, rejects signs, inf/nan, underscores, hex forms and
# non-ASCII digits
_VALUE = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# date.fromisoformat alone accepts more forms on newer Pythons (20210101,
# 2021-W01-2), so the grammar is pinned here
_DATE = r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
_VALUE_RE = re.compile(_VALUE)
_DATE_RE = re.compile(_DATE)

_SERIES_HEADER = ["date", "value"]
# the exact form write_series_file writes: header, then "date,value\n" rows
# with no whitespace, comments, blank lines or "\r"
_CANONICAL_SERIES_HEADER = "date,value\n"
_CANONICAL_SERIES_BODY_RE = re.compile(rf"(?:{_DATE},{_VALUE}\n)+")
# datetime64[D] counts days from 1970-01-01, ordinals from 0001-01-01 = 1
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_MAX_ORDINAL = dt.date.max.toordinal()
_CATALOG_HEADER = ["title", "artist", "release_date", "release_kind"]
# write_dataset's file name for one song's series on one platform
_SERIES_FILE = "{song_id}__{platform}.csv"
# the longest such name must fit the usual 255-byte file-name limit
_MAX_SONG_ID_BYTES = 255 - len(_SERIES_FILE.format(song_id="", platform="short_video"))
# JSON can spell a lone surrogate ("\\ud800"), which no UTF-8 output can hold
_SURROGATE = re.compile("[\ud800-\udfff]")
# report rows encoded and written together
_CHUNK_ROWS = 1024
# the kinds of value a report column may hold; bool is an int, so it comes first
_KINDS = (bool, int, float, str)
_CELL_TYPES = (*_KINDS, type(None))
# one encoder for every report value; json.dumps builds a new one per call
_JSON = json.JSONEncoder(ensure_ascii=False).encode
_CSV_QUOTED = re.compile('[,"\r\n]')
_CONSTANTS = {
    "jsonl": {None: "null", False: "false", True: "true"},
    "csv": {None: "", False: "false", True: "true"},
}


class ParseError(ValueError):
    """Input-file error pinned to a path and line number."""

    def __init__(self, path, line_number: int | None, message: str):
        self.path = str(path)
        self.line_number = line_number
        where = f"{self.path}:{line_number}" if line_number is not None else self.path
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class ManifestEntry:
    song_id: str
    display_title: str
    short_video: str
    web_search: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    format_version: int
    songs: tuple[ManifestEntry, ...]


def parse_iso_date(text: str) -> dt.date:
    """The date that ``YYYY-MM-DD`` *text* names; ``ValueError`` for any other form."""
    if not _DATE_RE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


def _parse_date(text: str, path, lineno: int) -> int:
    try:
        return parse_iso_date(text).toordinal()
    except ValueError:
        raise ParseError(path, lineno, f"invalid ISO date {text!r}") from None


def _read_text(path) -> str:
    """The whole file decoded as UTF-8; invalid bytes are a ParseError with their line."""
    # drop one leading byte-order mark; it holds no line break, so no line number shifts
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # line breaks as the line reader counts them: "\n", "\r" and "\r\n"
        before = data[: exc.start]
        lineno = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ParseError(
            path, lineno, f"invalid UTF-8 byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    """Line numbers and stripped text of the non-blank lines of a file's text."""
    # newline="" splits at "\n", "\r" and "\r\n", as reading the file does
    for lineno, raw in enumerate(io.StringIO(text, newline=""), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _bulk_series(text: str) -> TimeSeries | None:
    """The series of a file in canonical form, or None for the line reader to handle.

    Uses the same conversions as the line reader, so whatever it returns is
    what the line reader would return.  Anything it cannot vouch for (another
    layout, a date that does not exist, an overflowing value, unsorted or
    repeated days) is left to the line reader, which alone reports errors.
    """
    start = len(_CANONICAL_SERIES_HEADER)
    if not (text.startswith(_CANONICAL_SERIES_HEADER)
            and _CANONICAL_SERIES_BODY_RE.fullmatch(text, start)):
        return None
    # "d1,v1\nd2,v2\n" -> [d1, v1, d2, v2, ""]
    fields = text[start:].replace("\n", ",").split(",")
    count = len(fields) // 2
    try:
        days = np.fromiter(
            map(dt.date.toordinal, map(dt.date.fromisoformat, fields[0:-1:2])),
            dtype=np.int64, count=count,
        )
        values = np.fromiter(map(float, fields[1::2]), dtype=np.float64, count=count)
        # rejects non-finite values and days that are not strictly increasing
        return TimeSeries(days=days, values=values)
    except ValueError:
        return None


def parse_series_file(path) -> TimeSeries:
    """Read a ``date,value`` CSV into a series, sorting rows by date.

    Blank lines and ``#`` comments are skipped.  Duplicate dates are an
    error naming both offending lines.  A file in the form
    :func:`write_series_file` writes is converted in bulk; any other file
    goes through the line reader, with the same result.
    """
    text = _read_text(path)
    series = _bulk_series(text)
    return series if series is not None else _parse_series_lines(path, text)


def _parse_series_lines(path, text: str) -> TimeSeries:
    rows: list[tuple[int, float]] = []
    first_day_line: dict[int, int] = {}
    saw_header = False
    for lineno, line in _content_lines(text):
        if line.startswith("#"):
            continue
        if not saw_header:
            if [part.strip() for part in line.split(",")] != _SERIES_HEADER:
                raise ParseError(path, lineno, "expected 'date,value' header")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 2 fields, got {len(parts)}")
        day = _parse_date(parts[0].strip(), path, lineno)
        value_text = parts[1].strip()
        value = float(value_text) if _VALUE_RE.fullmatch(value_text) else math.nan
        if not math.isfinite(value):
            raise ParseError(path, lineno, f"invalid value {value_text!r}")
        if day in first_day_line:
            raise ParseError(
                path,
                lineno,
                f"duplicate date {parts[0].strip()} (first seen on line {first_day_line[day]})",
            )
        first_day_line[day] = lineno
        rows.append((day, value))
    if not saw_header:
        raise ParseError(path, None, "empty file, expected 'date,value' header")
    if not rows:
        raise ParseError(path, None, "no data rows")
    rows.sort(key=lambda r: r[0])
    return TimeSeries.from_points(rows)


def write_series_file(series: TimeSeries, path) -> None:
    """Inverse of :func:`parse_series_file`; values round-trip bit-exactly.

    A day outside the years 1 to 9999 is a ``ValueError``, raised before the
    file is opened.
    """
    days = series.days
    # numpy spells years 0 and 10000 too, which parse_series_file rejects;
    # days increase, so the ends bound them all
    if days[0] < 1 or days[-1] > _MAX_ORDINAL:
        bad = days[0] if days[0] < 1 else days[-1]
        raise ValueError(f"day {bad} is outside the years 1 to 9999")
    dates = np.datetime_as_string((days - _EPOCH_ORDINAL).astype("datetime64[D]"))
    # %r of a float is its shortest round-tripping repr
    rows = map("%s,%r\n".__mod__, zip(dates.tolist(), series.values.tolist()))
    Path(path).write_text(_CANONICAL_SERIES_HEADER + "".join(rows), encoding="utf-8")


def parse_catalog_file(path) -> list[CatalogEntry]:
    """Read the release catalog CSV (titles and artists may contain commas).

    Blank lines are skipped.  There is no comment syntax: a title may start
    with ``#``.
    """
    entries: list[CatalogEntry] = []
    saw_header = False
    for lineno, line in _content_lines(_read_text(path)):
        try:
            parts = next(csv.reader([line]))
        except csv.Error as exc:
            raise ParseError(path, lineno, f"malformed CSV: {exc}") from None
        parts = [p.strip() for p in parts]
        if not saw_header:
            if parts != _CATALOG_HEADER:
                raise ParseError(
                    path, lineno, "expected 'title,artist,release_date,release_kind' header"
                )
            saw_header = True
            continue
        if len(parts) != 4:
            raise ParseError(path, lineno, f"expected 4 fields, got {len(parts)}")
        title, artist, date_text, kind = parts
        day = _parse_date(date_text, path, lineno)
        try:
            entries.append(
                CatalogEntry(
                    title=title,
                    artist=artist,
                    release_date=dt.date.fromordinal(day),
                    release_kind=kind,
                )
            )
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    if not saw_header:
        raise ParseError(path, None, "empty file, expected catalog header")
    return entries


def parse_allowlist(path) -> list[str]:
    """One song id per line; blanks and ``#`` comments are skipped."""
    return [line for _, line in _content_lines(_read_text(path)) if not line.startswith("#")]


def _song_id_problem(song_id) -> str | None:
    """Why *song_id* cannot name a song's series files, or None if it can."""
    if not isinstance(song_id, str) or not song_id.strip():
        return "needs a non-empty song_id"
    # song ids name series files; a separator would escape their directory
    if "/" in song_id or "\\" in song_id:
        return f"song_id {song_id!r} contains a path separator"
    if "\x00" in song_id:
        return f"song_id {song_id!r} contains a null byte"
    if _SURROGATE.search(song_id):
        return f"song_id {song_id!r} contains a lone surrogate"
    if len(song_id.encode("utf-8")) > _MAX_SONG_ID_BYTES:
        return f"song_id is over {_MAX_SONG_ID_BYTES} UTF-8 bytes"
    return None


def _song_problem(label: str, song_id, display_title, seen: set) -> str | None:
    """Why a manifest cannot hold this song, or None if it can.

    *seen* holds the ids of the songs before it; an id that passes is added.
    """
    problem = _song_id_problem(song_id)
    if problem is not None:
        return f"{label} {problem}"
    if not isinstance(display_title, str) or not display_title.strip():
        return f"{label} ({song_id}) needs a non-empty display_title"
    if _SURROGATE.search(display_title):
        return f"{label} ({song_id}) display_title has a lone surrogate"
    if song_id in seen:
        return f"duplicate song identifier: {song_id}"
    seen.add(song_id)
    return None


def load_manifest(path) -> DatasetManifest:
    # newline=None turns "\r\n" and "\r" into "\n", as reading in text mode
    # does, so JSON error line numbers count every kind of line break
    text = io.StringIO(_read_text(path), newline=None).read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ParseError(path, None, "manifest must be a JSON object")
    version = payload.get("format_version")
    # bool and float compare equal to 1 too, but only the int is the version
    if type(version) is not int or version != MANIFEST_FORMAT_VERSION:
        raise ParseError(
            path, None, f"unsupported format_version {version!r}, expected {MANIFEST_FORMAT_VERSION}"
        )
    songs_raw = payload.get("songs")
    if not isinstance(songs_raw, list):
        raise ParseError(path, None, "manifest needs a 'songs' list")
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for index, item in enumerate(songs_raw):
        label = f"songs[{index}]"
        if not isinstance(item, dict):
            raise ParseError(path, None, f"{label} must be an object")
        song_id = item.get("song_id")
        display_title = item.get("display_title")
        short_video = item.get("short_video")
        web_search = item.get("web_search")
        problem = _song_problem(label, song_id, display_title, seen)
        if problem is not None:
            raise ParseError(path, None, problem)
        if not isinstance(short_video, str) or not short_video:
            raise ParseError(path, None, f"{label} ({song_id}) needs a short_video path")
        if web_search is not None and not isinstance(web_search, str):
            raise ParseError(path, None, f"{label} ({song_id}) web_search must be a path or null")
        entries.append(
            ManifestEntry(
                song_id=song_id,
                display_title=display_title,
                short_video=short_video,
                web_search=web_search,
            )
        )
    return DatasetManifest(format_version=version, songs=tuple(entries))


def write_manifest(manifest: DatasetManifest, path) -> None:
    # the dataclass fields name the JSON keys, in field order
    Path(path).write_text(
        json.dumps(dataclasses.asdict(manifest), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _read_song_series(manifest_path: Path, song_id: str, relative: str) -> TimeSeries:
    path = manifest_path.parent / relative
    if not path.is_file():
        raise ParseError(manifest_path, None, f"song '{song_id}': missing series file {relative}")
    try:
        return parse_series_file(path)
    except ParseError as exc:
        raise ParseError(manifest_path, None, f"song '{song_id}': {exc}") from None


def load_dataset(manifest_path, web_search: bool = True) -> list[SongRecord]:
    """Build song records from a manifest, reading the referenced series.

    A null web-search path leaves that series absent for curation stage 1 to
    handle.  A missing or malformed series file that is read is an error
    naming the offending song.  With *web_search* false only the short-video
    files are read: every record's web-search series is None, and its path is
    never opened, so a bad web-search file is no error.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    records: list[SongRecord] = []
    for entry in manifest.songs:
        short_video = _read_song_series(manifest_path, entry.song_id, entry.short_video)
        ws_series = None
        if web_search and entry.web_search is not None:
            ws_series = _read_song_series(manifest_path, entry.song_id, entry.web_search)
        records.append(
            SongRecord(
                song_id=entry.song_id,
                display_title=entry.display_title,
                short_video_series=short_video,
                web_search_series=ws_series,
            )
        )
    return records


def write_dataset(records: Sequence[SongRecord], manifest_path, series_dir: str) -> None:
    """Inverse of :func:`load_dataset`: write the series files, then the manifest.

    Each series goes to a file named after its song id and platform inside
    *series_dir*, which is relative to the manifest's directory and created
    if absent.  A null web-search series gets no file and a null path.  A
    song id or display title that :func:`load_manifest` would reject, or a
    repeated song id, is a ``ValueError``, raised before anything is written.
    """
    seen: set[str] = set()
    for index, record in enumerate(records):
        problem = _song_problem(f"records[{index}]", record.song_id, record.display_title, seen)
        if problem is not None:
            raise ValueError(problem)
    directory = Path(manifest_path).parent
    (directory / series_dir).mkdir(parents=True, exist_ok=True)

    def write(song_id: str, platform: str, ts: TimeSeries | None) -> str | None:
        if ts is None:
            return None
        relative = f"{series_dir}/" + _SERIES_FILE.format(song_id=song_id, platform=platform)
        write_series_file(ts, directory / relative)
        return relative

    entries = tuple(
        ManifestEntry(
            r.song_id,
            r.display_title,
            short_video=write(r.song_id, "short_video", r.short_video_series),
            web_search=write(r.song_id, "web_search", r.web_search_series),
        )
        for r in records
    )
    write_manifest(DatasetManifest(MANIFEST_FORMAT_VERSION, entries), manifest_path)


def _csv_cell(text: str) -> str:
    """*text* as a CSV cell: quoted, its quotes doubled, when it holds , " \\r or \\n."""
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


def _jsonl_float(text: str) -> str:
    """The float that ``.12g`` *text* spells, as ``json`` writes it."""
    value = float(text)
    # json writes a finite float as its repr, and nan and inf as NaN and Infinity
    return float.__repr__(value) if math.isfinite(value) else _JSON(value)


def _encode_column(column, kind, nullable: bool, format: str, encoded: dict) -> Iterable[str]:
    """Each cell's text in a report column of *kind*, and of None if *nullable*.

    *encoded* maps each string of a column of strings to its text.
    """
    if nullable:
        # a failed song's row: None's constant there, the kind's encoder elsewhere
        present = [cell for cell in column if cell is not None]
        texts = iter(_encode_column(present, kind, False, format, encoded))
        return [_CONSTANTS[format][None] if cell is None else next(texts) for cell in column]
    if kind is float:
        texts = map("%.12g".__mod__, column)
        if format == "csv":
            return texts
        # with a point and no exponent, 12 digits are already the shortest repr
        # of their float
        return [text if "." in text and "e" not in text else _jsonl_float(text) for text in texts]
    if kind is int:
        return map(int.__repr__, column)
    if kind is str:
        return map(encoded.__getitem__, column)
    return map(_CONSTANTS[format].__getitem__, column)


def _first_cell(rows: Sequence[tuple], fieldnames: Sequence[str], bad) -> tuple[int, str, object]:
    """Row index, column name and value of the first cell for which *bad* is true."""
    return next(
        (index, name, cell)
        for index, row in enumerate(rows)
        for name, cell in zip(fieldnames, row)
        if bad(cell)
    )


def write_report(rows: Sequence[tuple], fieldnames: Sequence[str], path, format: str) -> None:
    """Write rows as JSON Lines or CSV; each row holds one value per column, in order.

    *rows* is a list or tuple of tuples; *fieldnames* a list or tuple of two
    or more distinct ``str`` names.  A column holds one kind of value, plus
    ``None``: ``bool``, ``int``, ``float`` or ``str``, or a subclass of it such
    as ``np.float64``.  Floats are rounded to 12 significant digits; JSON
    Lines writes the shortest ``repr`` of the rounded value, with ``NaN`` and
    ``Infinity`` for non-finite ones.  CSV writes an empty cell for ``None``,
    ``true`` and ``false`` for booleans, and quotes a cell, doubling its
    quotes, exactly when it holds ``,``, ``"``, ``\\r`` or ``\\n``.  Every error
    is raised before the file is opened: ``TypeError`` for *rows*,
    *fieldnames*, a row, a name or a cell of another type, or a column that
    mixes two kinds; ``ValueError`` for an unknown *format*, fewer than two or
    repeated names, a row of the wrong length, or a lone surrogate in a name
    or a cell, which UTF-8 cannot encode.
    Rows are encoded a column at a time, ``_CHUNK_ROWS`` rows per write.
    """
    if format not in REPORT_FORMATS:
        raise ValueError("format must be 'jsonl' or 'csv'")
    # a generator would be used up here, and a dict or str row would be
    # iterated as its keys or characters; a str of names as its characters
    for what, value in (("rows", rows), ("column names", fieldnames)):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"report {what} must be a list or tuple, not {type(value).__name__}")
    for index, name in enumerate(fieldnames):
        if not isinstance(name, str):
            raise TypeError(f"report column name {name!r} is a {type(name).__name__}, not a str")
        if _SURROGATE.search(name):
            raise ValueError(
                f"report column name {name!r} holds a lone surrogate, which UTF-8 cannot encode"
            )
        if name in fieldnames[:index]:
            raise ValueError(f"report column name {name!r} is repeated")
    if len(fieldnames) < 2:
        raise ValueError(f"a report needs at least two columns, not {list(fieldnames)!r}")
    for index, row in enumerate(rows):
        if not isinstance(row, tuple):
            raise TypeError(f"report row {index} is a {type(row).__name__}, not a tuple")
        if len(row) != len(fieldnames):
            raise ValueError(
                f"report row {index} has {len(row)} values for {len(fieldnames)} columns"
            )
    # a streamed write cannot take back the lines before a cell it cannot
    # encode, so every cell type and every distinct string is checked first
    columns = list(zip(*rows))
    column_types = [set(map(type, column)) for column in columns]
    if not all(issubclass(t, _CELL_TYPES) for types in column_types for t in types):
        index, name, cell = _first_cell(
            rows, fieldnames, lambda cell: not isinstance(cell, _CELL_TYPES)
        )
        raise TypeError(
            f"report row {index} column {name!r} holds a {type(cell).__name__}, "
            "not a str, int, float, bool or None"
        )
    kinds = []
    for name, types in zip(fieldnames, column_types):
        found = {next(k for k in _KINDS if issubclass(t, k)) for t in types - {type(None)}}
        if len(found) > 1:
            mixed = " and ".join(sorted(k.__name__ for k in found))
            raise TypeError(f"report column {name!r} mixes {mixed}; a column holds one kind")
        kinds.append(found.pop() if found else None)
    strings = [set(column) - {None} if kind is str else () for column, kind in zip(columns, kinds)]
    if any(_SURROGATE.search(text) for texts in strings for text in texts):
        index, name, _ = _first_cell(
            rows, fieldnames, lambda cell: isinstance(cell, str) and _SURROGATE.search(cell)
        )
        raise ValueError(
            f"report row {index} column {name!r} holds a lone surrogate, which UTF-8 cannot encode"
        )
    encode = _JSON if format == "jsonl" else _csv_cell
    encoded = [{text: encode(text) for text in texts} for texts in strings]
    nullable = [type(None) in types for types in column_types]
    if format == "jsonl":
        keys = (_JSON(name).replace("%", "%%") for name in fieldnames)
        template = "{" + ", ".join(f"{key}: %s" for key in keys) + "}\n"
        header = ""
    else:
        template = ",".join(["%s"] * len(fieldnames)) + "\n"
        header = template % tuple(map(_csv_cell, fieldnames))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunks = [column[start : start + _CHUNK_ROWS] for column in columns]
            cells = map(_encode_column, chunks, kinds, nullable, [format] * len(kinds), encoded)
            fh.write("".join(map(template.__mod__, zip(*cells))))

"""On-disk text formats: every CSV, JSON and SVG artifact is written and read here.

CSV files use the csv module with minimal quoting and ``\\n`` line endings;
float cells are the shortest round-trip ``repr`` and undefined values the
literal ``NaN``.  JSON is strict both ways: no ``NaN`` or ``Infinity``
tokens are written or accepted.  A 1-D array in a JSON document is written
as the list of its values, ``JSON_FLOATS_PER_CALL`` of them per call of the
C encoder, so neither the whole list nor the whole document is ever held as
Python objects or text.  Every writer streams into a temporary file
beside its target and ``os.replace``s it into place, so a reader never sees
a partial file and a failed write leaves the previous file untouched.
"""

import contextlib
import csv
import json
import math
import os
import re
import uuid

import numpy as np

from .errors import FormatError

# a JSON string, or a bare non-finite constant outside any string
_BARE_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')
_PLAIN_INT = re.compile(r"-?[1-9][0-9]*|0")
JSON_FLOATS_PER_CALL = 8192


def format_float(x):
    """CSV spelling of a float: ``NaN``, or the shortest round-trip repr."""
    x = float(x)
    return "NaN" if math.isnan(x) else repr(x)


def parse_float(cell):
    """Value of a float cell, which must be ``NaN`` or the repr of a finite
    float: what ``format_float`` writes.  Anything else is a ValueError."""
    if cell == "NaN":
        return math.nan
    value = float(cell)
    if not math.isfinite(value) or repr(value) != cell:
        raise ValueError(f"{cell!r} is not NaN or the repr of a finite float")
    return value


def parse_int(cell):
    """Value of an integer cell, which must be a plain decimal as ``str(int)``
    writes it: no sign but ``-``, no spaces, underscores or leading zeros.
    Anything else is a ValueError."""
    if not _PLAIN_INT.fullmatch(cell):
        raise ValueError(f"{cell!r} is not a plain decimal integer")
    return int(cell)


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


@contextlib.contextmanager
def _replacing(path):
    """Text handle on a temporary file that replaces ``path`` on success.

    The temporary name ends in ``.tmp``, so scans for ``*.json`` skip it."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows):
    """Write a header and an iterable of rows; floats via ``format_float``."""
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _holds_array(value):
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, np.ndarray) or (isinstance(value, list) and any(map(_holds_array, value)))


def _compact_json(value):
    """Pieces of ``json.dumps(value, allow_nan=False)``, with each 1-D array
    read as its ``tolist()``.  Only containers holding an array are walked
    (their keys must be strings); any other value is one ``json.dumps``."""
    if isinstance(value, np.ndarray):
        yield "["
        for start in range(0, value.size, JSON_FLOATS_PER_CALL):
            chunk = value[start : start + JSON_FLOATS_PER_CALL].tolist()
            yield (", " if start else "") + json.dumps(chunk, allow_nan=False)[1:-1]
        yield "]"
    elif not _holds_array(value):
        yield json.dumps(value, allow_nan=False)
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _compact_json(item)
        yield "}"
    else:
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _compact_json(item)
        yield "]"


def write_json(path, doc, indent=None):
    """Write a strict JSON document (non-finite floats raise ValueError).

    Without ``indent`` the text is compact and a 1-D array stands for the
    JSON list of its values; with ``indent`` arrays are not accepted."""
    with _replacing(path) as fh:
        if indent is None:
            fh.writelines(_compact_json(doc))
        else:
            fh.write(json.dumps(doc, indent=indent, allow_nan=False))
        fh.write("\n")


def write_text(path, text):
    with _replacing(path) as fh:
        fh.write(text)


class _NonFinite(ValueError):
    pass


def _reject_constant(token):
    raise _NonFinite(token)


@contextlib.contextmanager
def _reading(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_json(path):
    """Parse a strict JSON file; any defect is a FormatError naming file and line."""
    with _reading(path) as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: not valid JSON ({exc.msg})") from exc
    except _NonFinite as exc:
        pos = next(m.start(1) for m in _BARE_CONSTANT.finditer(text) if m.group(1))
        line = text.count("\n", 0, pos) + 1
        raise FormatError(f"{path}:{line}: non-finite number {exc} is not valid JSON") from None


def read_csv_rows(path):
    """Header and ``(line, row)`` pairs of a CSV whose rows all match the header.

    An empty file, a malformed line, or a row whose field count differs from
    the header's is a FormatError naming the file and line.
    """
    rows = []
    try:
        with _reading(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise FormatError(f"{path}: empty CSV")
            for row in reader:
                if len(row) != len(header):
                    raise FormatError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                rows.append((reader.line_num, row))
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return header, rows

"""On-disk text formats: every CSV, JSON and SVG artifact is written and read here.

CSV files use the csv module with minimal quoting and ``\\n`` line endings;
float cells are the shortest round-trip ``repr`` and undefined values the
literal ``NaN``.  JSON is strict both ways: no ``NaN`` or ``Infinity``
tokens are written or accepted.  Every writer streams into a temporary file
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


def write_json(path, doc, indent=None):
    """Stream a strict JSON document (non-finite floats raise ValueError)."""
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=indent, allow_nan=False)
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

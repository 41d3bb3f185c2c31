"""On-disk formats: every artifact is written here, every CSV and JSON one read here.

CSV files use the csv module with minimal quoting and ``\\n`` line endings;
float cells are the shortest round-trip ``repr`` and undefined values the
literal ``NaN``.  JSON is strict both ways: no ``NaN`` or ``Infinity``
tokens are written or accepted.  ``write_json`` writes a document of plain
values with one ``json.dumps``.  A model's weights are written through
``json_floats``, ``JSON_FLOATS_PER_CALL`` of them per call of the C encoder,
so neither a whole matrix nor the whole document is ever held as Python
objects or text.  Every JSON file is read by ``JsonBlocks`` in bounded
blocks: ``read_json`` takes one value and at most a newline after it, and a
model's reader walks its layout and decodes each list of weights straight
into a float64 array.  Every writer streams into a temporary file beside
its target and ``os.replace``s it into place, so a reader never sees a
partial file and a failed write leaves the previous file untouched.
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
_PLAIN_INT = re.compile(r"-?[1-9][0-9]{0,18}|0")  # up to 19 digits, as an int64 has
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
    """Value of an integer cell, which must be a plain decimal int64 as
    ``str(int)`` writes it: no sign but ``-``, no spaces, underscores or
    leading zeros.  Anything else is a ValueError."""
    if not (_PLAIN_INT.fullmatch(cell) and -(2**63) <= (value := int(cell)) < 2**63):
        raise ValueError(f"{cell!r} is not a plain decimal integer in the int64 range")
    return value


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
    fh = open(tmp, "x", encoding="utf-8", newline="")  # nothing to clean up if this fails
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_bytes(path, chunks):
    """Write an iterable of byte strings one after another."""
    with _replacing(path) as fh:
        fh.buffer.writelines(chunks)


def write_csv(path, header, rows):
    """Write a header and an iterable of rows; floats via ``format_float``."""
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_json(path, doc, indent=None):
    """Write a strict JSON document of plain JSON values (non-finite floats
    raise ValueError): compact with ``json.dumps``'s separators, or indented."""
    with _replacing(path) as fh:
        fh.write(json.dumps(doc, indent=indent, allow_nan=False) + "\n")


def json_floats(values):
    """The writing half of ``JsonBlocks.floats``: the text after a list's ``[``
    holding the 1-D float array ``values``, its ``]`` included, in pieces of
    ``JSON_FLOATS_PER_CALL`` values, one call of the C encoder each."""
    for start in range(0, values.size, JSON_FLOATS_PER_CALL):
        chunk = values[start : start + JSON_FLOATS_PER_CALL].tolist()
        yield (", " if start else "") + json.dumps(chunk, allow_nan=False)[1:-1]
    yield "]"


def write_text(path, pieces):
    """Write an iterable of strings one after another."""
    with _replacing(path) as fh:
        fh.writelines(pieces)


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


def _defect(exc, text):
    """Position in ``text`` and description of the defect for which its
    decode raised ``exc``; too deep a value or too long an integer is at 0."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.pos, f"not valid JSON ({exc.msg})"
    if isinstance(exc, _NonFinite):
        pos = next(m.start(1) for m in _BARE_CONSTANT.finditer(text) if m.group(1))
        return pos, f"non-finite number {exc} is not valid JSON"
    return 0, "a JSON document nested too deeply" if isinstance(exc, RecursionError) else f"not valid JSON ({exc})"


def read_json(path):
    """The one JSON value of a strict JSON file, after which at most a newline
    may follow; any defect is a FormatError naming file and line."""
    with json_blocks(path) as doc:
        value = doc.value()
        doc.end()
    return value


def checked(doc, key, types, bounds=None):
    """``doc[key]``, which must be there and be of one of the JSON ``types``:
    a tuple of ``int``, ``float``, ``str`` and ``type(None)`` (a boolean is
    no int), ``[types]`` for a list of such values or ``[[types]]`` for a
    list of such lists; each number must lie in the closed ``bounds``.
    Anything else is a ValueError naming the key and the value, for the
    caller to prefix with its file."""
    depth = 0
    while type(types) is list:
        types, depth = types[0], depth + 1
    types = types if type(types) is tuple else (types,)
    names = [{int: "integer", float: "float", str: "string", type(None): "null"}[t] for t in types]
    expected = f"JSON {names[0]}s{' in lists' * (depth - 1)}" if depth else f"JSON {' or '.join(names)}"
    if key not in doc:
        raise ValueError(f"{key}: missing")
    items = [doc[key]]
    for level, want in enumerate([(list,)] * depth + [types]):
        odd = [x for x in items if type(x) not in want]
        if odd:
            raise ValueError(f"{key}: expected {expected}, got {odd[0]!r}")
        items = [y for x in items for y in x] if level < depth else items
    for x in items:
        if bounds and type(x) in (int, float) and not bounds[0] <= x <= bounds[1]:
            raise ValueError(f"{key}: {x!r} is outside [{bounds[0]}, {bounds[1]}]")
    return doc[key]


class JsonBlocks:
    """A strict JSON text read front to back in blocks of
    ``5 * JSON_FLOATS_PER_CALL`` characters.  The caller walks the layout
    with ``expect``; ``value`` parses one value whole, and ``floats``, the
    reading half of ``json_floats``, decodes a list of floats into a float64
    array, one ``json`` decode per run of values up to a comma.  Any defect
    is a FormatError naming the file and line."""

    def __init__(self, path, fh):
        self._path, self._fh, self._buf, self._line = path, fh, "", 1
        self._left = os.fstat(fh.fileno()).st_size  # bytes: never fewer than the characters left
        self._decoder = json.JSONDecoder(parse_constant=_reject_constant)

    def _more(self, size=5 * JSON_FLOATS_PER_CALL):
        text = self._fh.read(size)
        self._buf += text
        return bool(text)

    def _drop(self, n):
        if self._buf.find("\n", 0, n) >= 0:  # far faster than count
            self._line += self._buf.count("\n", 0, n)
        self._left -= n
        self._buf = self._buf[n:]

    def _error(self, message, pos=0):
        line = self._line + self._buf.count("\n", 0, pos)
        return FormatError(f"{self._path}:{line}: {message}")

    def _parse(self, text, shift=0):
        """``raw_decode(text)``, whose index i is unread position i + shift."""
        try:
            return self._decoder.raw_decode(text)
        except (ValueError, RecursionError) as exc:
            pos, message = _defect(exc, text)
            raise self._error(message, pos + shift) from None

    def expect(self, literal):
        """Read past ``literal``, which must come next."""
        while len(self._buf) < len(literal) and self._more():
            pass
        if not self._buf.startswith(literal):
            found = repr(self._buf[: len(literal)]) if self._buf else "the end of the file"
            raise self._error(f"not the JSON layout expected: {literal!r} expected, {found} found")
        self._drop(len(literal))

    def end(self):
        """Check that at most a newline is left."""
        while len(self._buf) < 2 and self._more():
            pass
        if self._buf not in ("", "\n"):
            raise self._error("not the JSON layout expected: text after the document")

    def value(self):
        """The next JSON value, parsed whole; each retry first reads as much
        again as is buffered, so n characters take O(n) decoding in all."""
        while True:
            try:
                value, end = self._decoder.raw_decode(self._buf)
                if end < len(self._buf):  # else a number may go on in the next block
                    break
            except (ValueError, RecursionError):  # it may end in the next block; a defect shows at the end of the file
                pass
            if not self._more(max(len(self._buf), 5 * JSON_FLOATS_PER_CALL)):
                value, end = self._parse(self._buf)
                break
        self._drop(end)
        return value

    def floats(self, n, label):
        """The n floats of the list whose ``[`` was just read, in a new array.
        Another count (counted to the list's end), a value that is no JSON
        float, or an n that the rest of the file cannot hold (n values take at
        least 5n - 2 characters) is a FormatError naming ``label``."""
        if 5 * n - 2 > self._left:
            raise FormatError(f"{self._path}: {label}: {n} values take at least {5 * n - 2} characters, "
                              f"{self._left} bytes are left")
        out, got, odd = np.empty(n), 0, ()
        while True:
            close = self._buf.find("]")
            cut = close if close >= 0 else self._buf.rfind(",")
            if cut < 0:
                if not self._more():
                    raise self._error("not valid JSON (the file ends inside a list)", len(self._buf))
                continue
            try:
                values = self._decoder.decode("[" + self._buf[:cut] + "]")
            except (ValueError, RecursionError):  # a cut inside a string or a nested list, or a defect:
                self._more(-1)  # parse the rest of the list whole to name the defect
                values, end = self._parse("[" + self._buf, -1)
                cut = close = end - 2
            if not values and (got or cut != close):
                raise self._error("not valid JSON (Expecting value)", cut)
            if not odd and set(map(type, values)) - {float}:
                odd = (next(x for x in values if type(x) is not float),)
            if not odd and got + len(values) <= n:
                out[got : got + len(values)] = values
            got += len(values)
            self._drop(cut + 1)
            if cut == close:
                break
        if got != n:
            raise FormatError(f"{self._path}: {label}: expected {n} values, got {got}")
        if odd:
            raise FormatError(f"{self._path}: {label}: expected JSON floats, got {odd[0]!r}")
        return out


@contextlib.contextmanager
def json_blocks(path):
    with _reading(path) as fh:
        yield JsonBlocks(path, fh)


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

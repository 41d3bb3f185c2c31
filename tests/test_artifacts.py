"""The one on-disk writer path: CSV dialect, strict JSON, bytes, atomic replacement."""

import errno
import math

import numpy as np
import pytest

from neurotopo.artifacts import (
    format_float,
    parse_float,
    parse_int,
    read_csv_rows,
    read_json,
    write_csv,
    write_bytes,
    write_json,
    write_text,
)
from neurotopo.errors import FormatError


class TestWriters:
    def test_float_spelling(self):
        assert format_float(math.nan) == "NaN"
        assert format_float(np.float64(0.1)) == "0.1"
        assert format_float(np.float32(0.5)) == "0.5"
        assert format_float(1) == "1.0"

    def test_csv_dialect(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["id", "n", "x"], [("a,b", np.int64(3), np.float64(0.25)), ("c", 4, math.nan)])
        assert path.read_bytes() == b'id,n,x\n"a,b",3,0.25\nc,4,NaN\n'
        header, rows = read_csv_rows(path)
        assert header == ["id", "n", "x"]
        assert rows == [(2, ["a,b", "3", "0.25"]), (3, ["c", "4", "NaN"])]

    def test_json_is_strict_and_newline_terminated(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"b": [1, 0.5], "a": None}, indent=1)
        assert path.read_text() == '{\n "b": [\n  1,\n  0.5\n ],\n "a": null\n}\n'
        with pytest.raises(ValueError):
            write_json(path, {"x": math.inf})
        assert read_json(path) == {"b": [1, 0.5], "a": None}

    def test_json_arrays_are_written_as_lists(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"a": [np.array([0.5, -0.0]), np.array([])], "b": {"c": np.arange(3.0)}, "d": [1, "é"]}
        write_json(path, doc)
        assert path.read_text() == '{"a": [[0.5, -0.0], []], "b": {"c": [0.0, 1.0, 2.0]}, "d": [1, "\\u00e9"]}\n'
        with pytest.raises(ValueError):
            write_json(path, {"a": np.array([0.5, math.nan])})
        with pytest.raises(TypeError):
            write_json(path, {"a": np.zeros(1)}, indent=1)
        assert read_json(path) == {"a": [[0.5, -0.0], []], "b": {"c": [0.0, 1.0, 2.0]}, "d": [1, "é"]}
        assert [p.name for p in tmp_path.iterdir()] == ["d.json"]

    def test_failed_write_leaves_target_and_no_temporary(self, tmp_path):
        path = tmp_path / "t.csv"
        write_text(path, "old\n")

        def rows():
            yield ("fine",)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_csv(path, ["h"], rows())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_bytes_written_as_given_or_not_at_all(self, tmp_path):
        path = tmp_path / "b.idx"
        write_bytes(path, [b"\x00\x00\x08\x01", b"\r\n\xff"])
        assert path.read_bytes() == b"\x00\x00\x08\x01\r\n\xff"

        def chunks():
            yield b"partial"
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_bytes(path, chunks())
        assert path.read_bytes() == b"\x00\x00\x08\x01\r\n\xff"
        assert [p.name for p in tmp_path.iterdir()] == ["b.idx"]

    def test_missing_directory_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_text(tmp_path / "nope" / "x.svg", "<svg/>")

    def test_unopenable_temporary_raises_only_its_own_error(self, tmp_path):
        # the temporary was never created, so no cleanup error hides the cause
        with pytest.raises(OSError) as info:
            write_text(tmp_path / ("x" * 300 + ".svg"), "<svg/>")
        assert info.value.errno == errno.ENAMETOOLONG
        assert info.value.__context__ is None
        assert list(tmp_path.iterdir()) == []


class TestReaders:
    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"a": 1,\n "b": NaN}', "d.json:2: non-finite number NaN"),
            ('{"s": "NaN Infinity",\n\n "b": [-Infinity]}', "d.json:3: non-finite number -Infinity"),
            ('{"a": 1,\n "b": }', "d.json:2: not valid JSON"),
            ("", "d.json:1: not valid JSON"),
        ],
    )
    def test_json_rejections_name_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "d.json"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            read_json(path)
        assert where in str(info.value)

    def test_json_not_utf8(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(b"\x89PNG")
        with pytest.raises(FormatError, match="d.json: not UTF-8"):
            read_json(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("", "t.csv: empty CSV"),
            ("a,b\n1,2\n3\n", "t.csv:3: expected 2 fields, got 1"),
            ("a,b\n1,2\n\n", "t.csv:3: expected 2 fields, got 0"),
            ("a,b\n1,2,3\n", "t.csv:2: expected 2 fields, got 3"),
        ],
    )
    def test_csv_rejections_name_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            read_csv_rows(path)
        assert where in str(info.value)

    @pytest.mark.parametrize("value", [0.1, -2.5e-07, 1e16, 3.0, -0.0])
    def test_float_cells_round_trip(self, value):
        assert parse_float(format_float(value)) == value
        assert math.isnan(parse_float(format_float(math.nan)))

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NAN", " 1.0", "1.0 ", "1.50", "1_0.0", "1e999", ""])
    def test_float_cells_the_writer_never_writes(self, cell):
        with pytest.raises(ValueError):
            parse_float(cell)

    @pytest.mark.parametrize("value", [0, 7, -3, 1234567890123, 2**63 - 1, -(2**63)])
    def test_int_cells_round_trip(self, value, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["n"], [(np.int64(value),)])
        assert parse_int(read_csv_rows(path)[1][0][1][0]) == value

    @pytest.mark.parametrize("cell", [" 1", "1 ", "1_0", "+1", "01", "-0", "1.0", "", "\u0661", "0x1",
                                      str(2**63), str(-(2**63) - 1), "1" * 25])
    def test_int_cells_the_writer_never_writes(self, cell):
        with pytest.raises(ValueError, match="plain decimal"):
            parse_int(cell)

    def test_crlf_csv_still_reads(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\r\n1,NaN\r\n")
        assert read_csv_rows(path) == (["a", "b"], [(2, ["1", "NaN"])])

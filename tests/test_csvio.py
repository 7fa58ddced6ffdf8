"""CSV text: one %.17g row writer, byte-identical to per-value formatting."""

import numpy as np
import pytest

from clarkekin.cli import main
from clarkekin.control import load_trace_csv
from clarkekin.csvio import format_float, format_rows, read_csv, write_csv
from clarkekin.sampling import load_batch_csv


def per_value_rows(rows) -> str:
    """The writers' former per-value loop, kept as the oracle."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)


def test_row_formatter_matches_per_value_format():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**63, size=40_000, dtype=np.uint64) | (
        rng.integers(0, 2, size=40_000, dtype=np.uint64) << np.uint64(63)
    )
    values = np.concatenate(
        [
            bits.view(np.float64),  # every exponent, subnormals and NaN payloads included
            rng.standard_normal(40_000) * 10.0 ** rng.uniform(-20, 20, 40_000),
            rng.uniform(-1.0, 1.0, 19_994),
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324],
        ]
    )
    assert values.size == 10**5
    rows = values.reshape(-1, 10)
    assert format_rows(rows) == per_value_rows(rows)
    assert [format_float(v) for v in values[-6:]] == ["nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324"]


def test_empty_rows():
    assert format_rows(np.empty((0, 4))) == ""


def test_trace_file_byte_identical_to_per_value_writer(tmp_path):
    trace_file = tmp_path / "trace.csv"
    argv = ["simulate", "--seed", "11", "--format", "csv", "--trace-out", str(trace_file), "--out", str(tmp_path / "s.json")]
    assert main(argv) == 0
    trace = load_trace_csv(trace_file)
    columns = (trace.time, trace.rho_desired, trace.rho_measured, trace.rho_command, trace.rho_plant)
    text = trace_file.read_text()
    header = text.split("\n", 1)[0]
    assert text == header + "\n" + per_value_rows(np.vstack(columns).T)


def test_sample_file_byte_identical_to_per_value_writer(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sample", "--method", "d", "--k", "200", "--seed", "7", "--out", str(out)]) == 0
    columns = load_batch_csv(out)
    assert out.read_text() == "rho_1,rho_2,rho_3\n" + per_value_rows(columns.T)


class TestReadCsv:
    HEADERS = [["a", "b", "c"], ["x", "y"]]

    def read(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        return read_csv(path, self.HEADERS)

    def test_round_trip(self, tmp_path):
        rows = np.random.default_rng(0).standard_normal((5, 3))
        write_csv(tmp_path / "w.csv", ["a", "b", "c"], rows)
        header, back = read_csv(tmp_path / "w.csv", self.HEADERS)
        assert header == ["a", "b", "c"]
        assert np.array_equal(back, rows)

    def test_second_header_blank_lines_and_spaces(self, tmp_path):
        header, rows = self.read(tmp_path, "x, y\r\n1, 2\n\n3,4\n")
        assert header == ["x", "y"]
        assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_header_only(self, tmp_path):
        header, rows = self.read(tmp_path, "a,b,c\n")
        assert rows.shape == (0, 3)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("1,2,3\n4,5,6\n", "header"),
            ("a,b\n1,2\n", "header"),
            ("", "header"),
            ("a,b,c\n1,2\n", "values"),
            ("a,b,c\n1,2,3\n4,5\n", "columns"),
            ("a,b,c\n1,q,3\n", "convert"),
            ("a,b,c\n1,2,3,\n", "convert"),
        ],
    )
    def test_rejects(self, tmp_path, text, match):
        with pytest.raises(ValueError, match=match) as exc:
            self.read(tmp_path, text)
        assert "\n" not in str(exc.value)

"""CSV text: one %.17g row writer, byte-identical to per-value formatting,
the header-then-blocks stream built on it, and the one in-place file writer."""

import ast
import itertools
import math
import os
import stat
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import clarkekin
from clarkekin.cli import main
from clarkekin.control import _trace_header
from clarkekin._csvblock import _PASS_VALUES
from clarkekin.csvio import (
    _BLOCK_ROWS,
    _FAST_VALUES,
    csv_chunks,
    displacement_header,
    format_float,
    format_rows,
    read_csv,
    write_text,
)


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
    assert_same_text(format_rows(rows), per_value_rows(rows))
    assert [format_float(v) for v in values[-6:]] == ["nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324"]


def assert_same_text(got: str, want: str) -> None:
    """got == want, failing with the first differing row: pytest's own report
    diffs the whole of two long texts and takes minutes on a formatter slip."""
    if got != want:
        wrong = [(g, w) for g, w in itertools.zip_longest(got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(wrong)} rows differ, first {wrong[0]}")


def exact_ties() -> np.ndarray:
    """Doubles m * 2**-j (m odd) whose decimal expansion has exactly 18 significant
    digits, the last a 5: %.17g rounds each from an exact half, to even. 2**-25 is one."""
    ties = []
    for j in range(2, 26):
        m = -(-(10**17) // 5**j) | 1  # the first odd m with m * 5**j >= 10**17
        ties += [m * 2.0**-j for m in range(m, m + 60, 2) if len(str(m * 5**j)) == 18]
    ties = np.array(ties)
    assert 2.0**-25 in ties and ties.size > 600
    return ties


def near_ties() -> np.ndarray:
    """Doubles v = c * 2**u of 1e34..1e42 whose v / 10**t (t = k - 16) lies
    2**(t - 1) / 10**t from a half, the closest a non-tie can come: 1.3e-13
    at t = 18, 1e-15 at t = 21. Those within 1e-9 of a half take the "%" path."""
    found = []
    for t in range(18, 26):
        k = 16 + t
        for u in range((10**k).bit_length() - 53, (10 ** (k + 1)).bit_length() - 52):
            for sign in (1, -1):
                # c * 2**u = 10**t / 2 + sign * 2**(t - 1) (mod 10**t), solved mod 5**t.
                c = (5**t + sign) // 2 * pow(2, t - u, 5**t) % 5**t
                c += -(-(2**52 - c) // 5**t) * 5**t
                found += [math.ldexp(c, u) for c in range(c, 2**53, 5**t) if 10**k <= c * 2**u < 10 ** (k + 1)]
    assert len(found) > 9000
    return np.array(found)


def near_powers_of_ten(ks) -> np.ndarray:
    """The double nearest each 10**k and its neighbours one ulp below and above."""
    nearest = np.array([float(f"1e{k}") for k in ks])
    return np.concatenate([np.nextafter(nearest, 0.0), nearest, np.nextafter(nearest, np.inf)])


def sensitive_values() -> np.ndarray:
    """Values that the block formatter gets wrong without its tie fallback or its
    exact decimal exponent; every exactness case below mixes some in."""
    return np.concatenate([exact_ties()[::50], near_powers_of_ten(range(-6, 18))])


def assert_exact(values, width: int) -> None:
    """format_rows on the values as rows of `width`, both signs, against the per-value oracle."""
    values = np.concatenate([values, -values])
    rows = np.resize(values, (-(-values.size // width), width))
    assert rows.size >= _FAST_VALUES
    assert_same_text(format_rows(rows), per_value_rows(rows))


class TestBlockFormatterExactness:
    """The numpy block formatter against the per-value oracle where %.17g is hardest."""

    def test_exact_ties_round_half_to_even(self):
        assert_exact(exact_ties(), 7)
        # A tie's 17-digit text: the half rounds to the even neighbour.
        assert format_float(2.0**-25) == "2.9802322387695312e-08"

    def test_near_ties(self):
        assert_exact(np.concatenate([near_ties(), sensitive_values()]), 4)

    def test_doubles_nearest_each_power_of_ten_and_their_neighbours(self):
        assert_exact(near_powers_of_ten(range(-330, 309)), 6)

    def test_the_fixed_and_exponent_forms_switch_where_g_does(self):
        edges = near_powers_of_ten([-5, -4, 16, 17])
        steps = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        values = np.concatenate([edges, steps, [9.99995e-5, 9.9999999999999995e-5, 99999999999999984.0, 1e16 + 2.0]])
        text = format_rows(np.resize(values, (200, 1)))
        for v in ("0.0001", "1.0000000000000001e-05", "10000000000000000", "1e+17"):
            assert v + "\n" in text
        assert_exact(np.concatenate([values, sensitive_values()]), 5)

    def test_subnormals_nan_payloads_inf_and_signed_zeros(self):
        rng = np.random.default_rng(24)
        subnormals = (rng.integers(1, 2**52, 300, dtype=np.uint64)).view(np.float64)
        nans = (rng.integers(1, 2**52, 50, dtype=np.uint64) | np.uint64(0x7FF << 52)).view(np.float64)
        specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, 2.0**-1022, np.nextafter(2.0**-1022, 0.0)]
        values = np.concatenate([subnormals, nans, specials, sensitive_values()])
        assert_exact(values, 9)
        assert_same_text(format_rows(np.zeros((_FAST_VALUES, 1))), "0\n" * _FAST_VALUES)
        assert_same_text(format_rows(np.full((_FAST_VALUES, 1), -0.0)), "-0\n" * _FAST_VALUES)

    @pytest.mark.parametrize("width", range(1, 25))
    def test_every_row_width_across_passes(self, width):
        # Rows span several passes of the formatter, so passes start and end inside rows.
        rng = np.random.default_rng(width)
        normal = rng.standard_normal(2 * _PASS_VALUES + 3 * width) * 10.0 ** rng.integers(-20, 20, 2 * _PASS_VALUES + 3 * width)
        values = np.concatenate([normal, sensitive_values()])
        rng.shuffle(values)
        assert_exact(values, width)

    @pytest.mark.parametrize("size", [_FAST_VALUES - 1, _FAST_VALUES, _PASS_VALUES - 1, _PASS_VALUES + 1])
    def test_block_sizes_on_both_sides_of_the_cuts(self, size):
        values = np.resize(sensitive_values(), size)
        for width in (1, 3):
            rows = np.resize(values, (size // width, width))
            assert_same_text(format_rows(rows), per_value_rows(rows))

    def test_the_exponent_table_is_exact(self):
        # _tables takes floor(b * log10(2)) in floating point; integers are the oracle.
        for b in range(-1074, 1024):
            exact = len(str(2**b)) - 1 if b >= 0 else len(str(5**-b)) - 1 + b
            assert np.floor(b * np.log10(2.0)) == exact


def test_format_rows_working_set_follows_values_not_rows():
    # The same 53,970 values as 21 and as 257 columns: the peak past the text
    # must not grow with the width of a row.
    rng = np.random.default_rng(25)
    beyond = []
    for shape in ((2570, 21), (210, 257)):
        rows = rng.standard_normal(shape)
        tracemalloc.start()
        try:
            text = format_rows(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        beyond.append(peak - len(text))
    assert abs(beyond[1] - beyond[0]) <= 2**18, beyond


def test_empty_rows():
    assert format_rows(np.empty((0, 4))) == ""
    assert list(csv_chunks(["a", "b"], np.empty((0, 2)))) == ["a,b\n"]


def test_csv_chunks_are_the_header_then_blocks_of_rows():
    rows = np.random.default_rng(22).standard_normal((2 * _BLOCK_ROWS + 5, 3))
    chunks = list(csv_chunks(["a", "b", "c"], rows))
    assert chunks[0] == "a,b,c\n"
    assert [chunk.count("\n") for chunk in chunks[1:]] == [_BLOCK_ROWS, _BLOCK_ROWS, 5]
    assert_same_text("".join(chunks[1:]), per_value_rows(rows))


@pytest.mark.parametrize("split", [1, 2])
def test_csv_chunks_set_parts_side_by_side(split):
    # The chunks of the columns in two parts, one a transposed view, are those of the whole rows.
    rows = np.random.default_rng(23).standard_normal((2 * _BLOCK_ROWS + 5, 3))
    parts = (rows[:, :split], np.asfortranarray(rows[:, split:]))
    got, want = list(csv_chunks(["a", "b", "c"], *parts)), list(csv_chunks(["a", "b", "c"], rows))
    # The same text cut at the same places is the same chunks.
    assert [len(chunk) for chunk in got] == [len(chunk) for chunk in want]
    assert_same_text("".join(got), "".join(want))


def test_trace_file_byte_identical_to_per_value_writer(tmp_path):
    trace_file = tmp_path / "trace.csv"
    argv = ["simulate", "--seed", "11", "--format", "csv", "--trace-out", str(trace_file), "--out", str(tmp_path / "s.json")]
    assert main(argv) == 0
    header, rows = read_csv(trace_file, [_trace_header(5)])
    assert_same_text(trace_file.read_text(), ",".join(header) + "\n" + per_value_rows(rows))


def test_sample_file_byte_identical_to_per_value_writer(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sample", "--method", "d", "--k", "200", "--seed", "7", "--out", str(out)]) == 0
    _, rows = read_csv(out, [displacement_header(3)])
    assert_same_text(out.read_text(), "rho_1,rho_2,rho_3\n" + per_value_rows(rows))


class TestReadCsv:
    HEADERS = [["a", "b", "c"], ["x", "y"]]

    def read(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        return read_csv(path, self.HEADERS)

    def test_round_trip(self, tmp_path):
        rows = np.random.default_rng(0).standard_normal((5, 3))
        write_text(tmp_path / "w.csv", csv_chunks(["a", "b", "c"], rows))
        header, back = read_csv(tmp_path / "w.csv", self.HEADERS)
        assert header == ["a", "b", "c"]
        assert np.array_equal(back, rows)

    def test_second_header_blank_lines_and_spaces(self, tmp_path):
        header, rows = self.read(tmp_path, "x, y\r\n1, 2\n\n3,4\n")
        assert header == ["x", "y"]
        assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_header_only(self, tmp_path):
        # loadtxt warns on a file with no rows; read_csv reads it as zero rows, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


class TestWriteText:
    def test_rewrite_over_a_longer_file_leaves_no_old_tail(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"x" * 100_000)
        write_text(path, ("a,b\n", "1,2\n"))
        assert path.read_bytes() == b"a,b\n1,2\n"

    def test_rewrite_over_a_shorter_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"x" * 3)
        write_text(path, ("a,b\n", "1,2\n" * 20_000))
        assert path.read_bytes() == b"a,b\n" + b"1,2\n" * 20_000

    def test_new_file_and_no_chunks(self, tmp_path):
        path = tmp_path / "new.txt"
        write_text(path, ())
        assert path.read_bytes() == b""
        path.write_bytes(b"old")
        write_text(path, iter(()))
        assert path.read_bytes() == b""

    def test_symlink_is_kept_and_its_target_rewritten(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old text, longer than the new\n")
        link.symlink_to(target)
        write_text(link, ("new\n",))
        assert link.is_symlink()
        assert target.read_text() == "new\n"

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        path, other = tmp_path / "a.txt", tmp_path / "b.txt"
        path.write_text("old text, longer than the new\n")
        os.link(path, other)
        write_text(path, ("new\n",))
        assert other.read_text() == "new\n"
        assert os.stat(path).st_ino == os.stat(other).st_ino

    def test_mode_bits_are_kept(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("old text\n")
        path.chmod(0o640)
        write_text(path, ("new\n",))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert path.read_text() == "new\n"

    def test_dev_null_is_written_and_not_cut(self):
        # ftruncate on a character device fails, so this passes only because
        # the writer cuts regular files alone.
        write_text(os.devnull, ("a,b\n", "1,2\n"))

    def test_fifo_gets_every_byte(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_text(fifo, ("a,b\n", "1,2\n" * 50_000))
        reader.join(timeout=30)
        assert got == [b"a,b\n" + b"1,2\n" * 50_000]

    @pytest.mark.parametrize("written", [0, 3, 200_000])
    def test_failing_chunks_leave_the_file_empty(self, tmp_path, written):
        # The new head may already be on disk when the chunks fail; the file
        # must not keep it in front of the old tail, which can parse as a
        # valid CSV with stale rows.
        path = tmp_path / "f.csv"
        old = "a,b\n" + "9,9\n" * 100_000
        path.write_text(old)

        def chunks():
            yield "a,b\n"
            yield "1,2\n" * (written // 4)
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            write_text(path, chunks())
        assert path.read_bytes() == b""

    def test_csv_chunks_failing_midway_leave_the_file_empty(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n" + "9,9\n" * 10_000)
        calls = []

        def failing_format(rows):
            if calls:
                raise MemoryError("out of memory")
            calls.append(1)
            return format_rows(rows)

        monkeypatch.setattr("clarkekin.csvio.format_rows", failing_format)
        with pytest.raises(MemoryError):
            write_text(path, csv_chunks(["a", "b"], np.ones((3 * _BLOCK_ROWS, 2))))
        assert calls and path.read_bytes() == b""

    def test_a_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            write_text(tmp_path, ("x",))


# The names a read-only os.open flags expression may hold (os.O_RDONLY
# walks as the names os and O_RDONLY); any other name counts as writing.
_READ_FLAGS = {"os", "O_RDONLY", "O_CLOEXEC", "O_NOFOLLOW", "O_NONBLOCK", "O_DIRECTORY", "O_NOCTTY"}


def _call_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _opens_to_write(call: ast.Call) -> bool:
    name = _call_name(call.func)
    if name not in ("open", "io.open", "os.open"):
        return False
    arg = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg in ("mode", "flags"):
            arg = kw.value
    if name == "os.open":
        names = {n.id for n in ast.walk(arg) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(arg) if isinstance(n, ast.Attribute)}
        return not names or not names <= _READ_FLAGS
    if arg is None:
        return False
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return any(c in arg.value for c in "wax+")
    return True  # a mode computed at run time may write


def _calls(tree, keep) -> list[tuple[str, ast.Call]]:
    """(enclosing function, call) of each call in tree for which keep(call) holds."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and keep(child):
                found.append((where, child))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(tree, "<module>")
    return found


def _writing_opens(tree) -> list[tuple[str, ast.Call]]:
    """(enclosing function, call) of each open(), io.open() or os.open() call that can write."""
    return _calls(tree, _opens_to_write)


def test_write_text_is_the_only_code_that_opens_a_file_to_write():
    src = Path(clarkekin.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 8
    found = {}
    for module in modules:
        for where, call in _writing_opens(ast.parse(module.read_text(), str(module))):
            found.setdefault((module.name, where), []).append(ast.unparse(call.args[0]))
    # write_text's own os.open and its text wrapper over that descriptor, and
    # the os.devnull that the CLI puts in place of a stdout its reader closed.
    assert found == {("csvio.py", "write_text"): ["path", "fd"], ("cli.py", "_emit"): ["os.devnull"]}, found


def test_the_cli_writes_only_through_emit():
    # Every command's output, stdout and files alike, goes through _emit,
    # the one caller of write_text and of sys.stdout's writers in cli.py.
    module = Path(clarkekin.__file__).parent / "cli.py"
    writers = ("write_text", "sys.stdout.write", "sys.stdout.writelines", "print")
    found = _calls(ast.parse(module.read_text()), lambda call: ast.unparse(call.func) in writers)
    assert sorted((where, ast.unparse(call.func)) for where, call in found) == [
        ("_emit", "sys.stdout.writelines"),
        ("_emit", "write_text"),
    ]


@pytest.mark.parametrize(
    "code, writes",
    [
        ("open(p)", False),
        ("open(p, 'r')", False),
        ("open(p, mode='rb')", False),
        ("open(p, 'w')", True),
        ("open(p, 'a')", True),
        ("open(p, 'x')", True),
        ("open(p, 'r+')", True),
        ("open(p, mode=m)", True),
        ("io.open(p, 'wb')", True),
        ("os.open(p, os.O_RDONLY)", False),
        ("os.open(p, os.O_RDONLY | os.O_CLOEXEC)", False),
        ("os.open(p, os.O_WRONLY)", True),
        ("os.open(p, os.O_RDWR)", True),
        ("os.open(p, flags=os.O_CREAT)", True),
        ("os.open(p, f)", True),
        ("def g():\n    with open(p, 'w') as fh:\n        pass", True),
    ],
)
def test_the_open_guard_sees_writing_modes(code, writes):
    assert bool(_writing_opens(ast.parse(code))) == writes

"""CSV text: the one float format, the block stream, the file writer and the header-checked reader.

Every float is written as "%.17g", which reads back to the same double and
gives the same text as format(float(v), ".17g") for every value, nan, inf
and -0.0 included. A file starts with one header line naming its columns.
Every CSV output, stdout included, is the csv_chunks stream, so a block of
_BLOCK_ROWS rows, not the file, bounds its text: `sample --k 1000000 --out`
peaks at 59 MB RSS, `fk --in` of 200,000 rows at 78 MB (289, 248 MB whole).

format_rows writes a block of _FAST_VALUES (200) values or more in numpy,
2048 values per pass (_csvblock), into the bytes of "%.17g". The text
is exact by construction, not by tolerance: the decimal exponent comes
from v's binary exponent and one comparison with the smallest double at
or above the next power of ten; |v| * 10**(16 - k) is Dekker's exact
product with a double-double power of ten, within 1e-14 of the true value,
and np.rint rounds it half to even as "%" does. "%" itself formats, one
value at a time, every value whose fraction lies within 1e-9 of one half,
and nan, inf, subnormals and |v| outside 2**-328..2**328 (three-digit
exponents). Below 200 values the numpy path's fixed cost, about 60 us,
outweighs what it saves on the template's 0.5 us per value. A pass holds
about 180 bytes per value whatever the row width (0.36 MiB under
tracemalloc at 2048 values), so a 256-row block of 21 columns peaks at
0.41 MiB, against 0.31 MiB for the template. The tables take 0.26 MB,
built on first use.

write_text is the only code that opens a file to write. It writes over the
old bytes and then cuts the file at the end of the new text. Truncating on
open costs more: ext4 (auto_da_alloc) starts writeback on closing a file
truncated to zero and rewritten, and on renaming a file over another. On a
2-vCPU host's ext4 root, medians of 300 rewrites of 1.5 kB: 84 us truncated,
101-106 us renamed, 13 us in place; of 100 kB: 176-188, 211-241 and 25-29 us.
In place also keeps links and the file's mode, and writes to /dev/null.
"""

from __future__ import annotations

import itertools
import os
import stat
import warnings

import numpy as np

_BLOCK_ROWS = 256
_FAST_VALUES = 200  # blocks of fewer values take the "%" template: the measured break-even


def format_float(x: float) -> str:
    """One float as 17 significant digits."""
    return "%.17g" % x


def format_rows(rows) -> str:
    """One line per row of a 2-D array, values as %.17g joined by commas.

    A block of fewer than _FAST_VALUES values goes through one "%" template,
    a larger one through _csvblock.format_block, which writes the same bytes.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.size < _FAST_VALUES:
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        return (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    from ._csvblock import format_block  # imported on first use, so small outputs never load it

    return format_block(rows)


def displacement_header(n: int) -> list[str]:
    """Column names rho_1..rho_n of a file of displacement rows."""
    return [f"rho_{i + 1}" for i in range(n)]


def csv_chunks(header: list[str], *parts):
    """The header line, then the text of _BLOCK_ROWS rows at a time. Row i is row i of
    each 2-D array in parts side by side, so no array of all the file's rows is built."""
    parts = [np.asarray(part, dtype=float) for part in parts]
    starts = range(0, parts[0].shape[0], _BLOCK_ROWS)
    blocks = (format_rows(np.concatenate([part[i : i + _BLOCK_ROWS] for part in parts], axis=1)) for i in starts)
    return itertools.chain([",".join(header) + "\n"], blocks)


def write_text(path, chunks) -> None:
    """Write the strings of `chunks` over path's old bytes, then cut a regular file there.

    If writing fails, chunks raising included, a regular file is left empty,
    never the new head followed by an old tail.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular, end = stat.S_ISREG(os.fstat(fd).st_mode), 0
        try:
            with open(fd, "w", closefd=False) as fh:
                fh.writelines(chunks)
            if regular:
                end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            if regular:
                os.ftruncate(fd, end)
    finally:
        os.close(fd)


def read_csv(path, headers: list[list[str]] | None = None) -> tuple[list[str], np.ndarray]:
    """The header and the (rows, columns) float array of a CSV file.

    Line 1 must be one of `headers` if given; blank lines are skipped. A different
    header, a row whose value count differs from the header's, or a value
    that is not a number raises ValueError with a one-line message. A file
    holding only the header gives zero rows.
    """
    with open(path) as fh:
        first = fh.readline()
        header = [name.strip() for name in first.split(",")]
        if headers is not None and header not in headers:
            expected = " or ".join(repr(",".join(h)) for h in headers)
            raise ValueError(f"{path}: line 1 must be the header {expected}, got {first.strip()!r}")
        try:
            with warnings.catch_warnings():
                # loadtxt warns on a file with no rows; zero rows are valid.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if rows.size == 0:
        rows = rows.reshape(0, len(header))
    if rows.shape[1] != len(header):
        raise ValueError(f"{path}: rows hold {rows.shape[1]} values, the header names {len(header)}")
    return header, rows

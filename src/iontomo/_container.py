"""Shared file formats: ``%.17g`` CSV tables and a JSON-header binary grid container.

CSV text is Python's ``"%.17g" % v`` byte for byte, made by :mod:`iontomo._csvtext`; ``%`` itself
formats only +-inf, nan and values within 1e-9 of a rounding tie (such as 1000000000000000.25).

Container layout: one UTF-8 JSON line (terminated by ``\\n``) describing axes,
shape and dtype, followed by the flat values as little-endian float64 in
row-major order.  Each axis is stored as (first, last, n) and rebuilt with
``np.linspace``; :func:`save_container` refuses an axis that this does not
rebuild bit for bit, so every saved axis reloads bit-exact.

A grid of either format is written by :func:`save_grid` and read by
:func:`grid_rows` as blocks of whole rows, each formatted or parsed as it
arrives, so neither holds the whole grid; the array functions
(:func:`save_csv_triples`, :func:`load_grid` and the rest) go through the
same code with the array as its blocks.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np

_FORMAT = "iontomo-grid"
_VERSION = 1

#: Lines parsed per block by :func:`_csv_rows`.
_CSV_BLOCK_ROWS = 1024
#: Values per row block that :func:`grid_rows` reads from a container (whole rows, at least one).
_READ_VALUES = 4096
#: Values per ``_csvtext`` call (whole rows, at least one; the row writer's equal calls take up to 1.5 times
#: as many): about 0.65 MB of scratch; smaller calls cost more.
_CSV_TEXT_VALUES = 2048
#: Characters per read when :func:`_csv_rows` counts the lines of a file.
_CSV_READ_CHARS = 1 << 16


def _atomic_write(path: str, data) -> None:
    """Write ``data`` (bytes, or an iterable of bytes chunks) to ``path``."""
    # temp-then-rename in the destination directory, never a partial file
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_container(path: str, kind: str, axis_names: list[str], axes: list[np.ndarray], values: np.ndarray) -> None:
    """Write the container; ValueError naming the axis, and nothing written, unless each axis is a ``np.linspace``."""
    _atomic_write(path, _container_chunks(kind, axis_names, axes, [values]))


def _container_chunks(kind: str, axis_names: list[str], axes: list[np.ndarray], blocks):
    """The container's header line, then the values of each leading-axis block that ``blocks`` yields."""
    for name, ax in zip(axis_names, axes):
        if np.linspace(ax[0], ax[-1], ax.size).tobytes() != np.asarray(ax, dtype=float).tobytes():
            raise ValueError(f"axis {name!r} is not np.linspace(first, last, n) bit for bit; "
                             "the container stores only first, last and n")
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": kind,
        "axis_names": axis_names,
        "axes": {
            name: {"first": float(ax[0]), "last": float(ax[-1]), "n": int(ax.size)}
            for name, ax in zip(axis_names, axes)
        },
        "shape": [int(ax.size) for ax in axes],
        "dtype": "<f8",
        "order": "C",
    }
    yield json.dumps(header, sort_keys=True).encode() + b"\n"
    for values in blocks:
        yield np.ascontiguousarray(values, dtype="<f8").tobytes()


def load_container(path: str):
    """Returns (kind, axes list, values). Raises ValueError on malformed input, the header's fields included."""
    with open(path, "rb") as fh:
        kind, axes = _read_header(fh, path)
        payload = fh.read()
    values = np.frombuffer(payload, dtype="<f8").reshape([ax.size for ax in axes]).copy()
    return kind, axes, values


def _read_header(fh, path: str):
    """(kind, axes) of the container open in ``fh``, left at its payload; ValueError unless the header is
    well formed and the payload holds its values."""
    line = fh.readline()
    try:
        header = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a grid container ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise ValueError(f"{path}: missing container format marker")
    if header.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported container version {header.get('version')!r}")
    kind, shape, names, axes = (header.get(key) for key in ("kind", "shape", "axis_names", "axes"))
    try:  # a missing field, or one of another type, raises
        valid = (isinstance(kind, str) and (header.get("dtype"), header.get("order")) == ("<f8", "C")
                 and all(type(n) is int and n >= 0 for n in shape) and [axes[a]["n"] for a in names] == shape
                 and all(math.isfinite(axes[a][end]) for a in names for end in ("first", "last")))
    except (KeyError, TypeError):
        valid = False
    if not valid:
        raise ValueError(f"{path}: malformed container header (kind, shape, axes, dtype '<f8', order 'C')")
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != 8 * math.prod(shape):
        raise ValueError(f"{path}: payload holds {size} bytes, expected {8 * math.prod(shape)}")
    return kind, [np.linspace(axes[name]["first"], axes[name]["last"], n) for name, n in zip(names, shape)]


#: CSV columns of each grid kind; the first two also name its container axes.
_GRID_COLUMNS = {"sinogram": ("phi", "x", "w"), "wigner": ("q", "p", "w")}


def save_grid(path: str, fmt: str, kind: str, ax0: np.ndarray, ax1: np.ndarray, blocks) -> None:
    """Write a grid of ``kind`` as CSV triples (``fmt="csv"``) or as the container (``"bin"``).

    ``blocks`` yields the grid's rows (along ``ax0``) as 2-D blocks in order,
    and each is formatted as it arrives, so only one block need exist at a
    time.  An exception from ``blocks`` removes the temp file: nothing is written.
    """
    columns = _GRID_COLUMNS[kind]
    if fmt == "csv":
        chunks = _csv_triples_chunks(columns, ax0, ax1, blocks)
    elif fmt == "bin":
        chunks = _container_chunks(kind, list(columns[:2]), [ax0, ax1], blocks)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    _atomic_write(path, chunks)


def grid_rows(path: str, kind: str, *, count: bool = False):
    """The rows of a grid file of either format, as :func:`save_grid` writes it, while they are read.

    Yields ``(ax0, ax1, values, total)`` blocks of whole rows in file order:
    the block's ax0 values, the inner axis (the same array each time), its
    ``(len(ax0), len(ax1))`` values and the number of rows the file holds:
    exact for the container; for a CSV file a bound from a line count, made
    only with ``count``, and None without it.  A malformed file or another
    kind raises ValueError when the reader reaches the fault; blocks before
    it have been yielded.  The container's header and payload size are
    checked before the first block, and a CSV file is read by
    :func:`_csv_rows`.
    """
    with open(path, "rb") as fh:
        if fh.read(1) != b"{":
            yield from _csv_rows(path, _GRID_COLUMNS[kind], count=count)
            return
        fh.seek(0)
        got, axes = _read_header(fh, path)
        ax0, ax1 = axes
        if got != kind:
            raise ValueError(f"{path}: container holds {got!r}, not {kind!r}")
        step = max(1, _READ_VALUES // max(1, ax1.size))
        # an empty ax0 still gives one block, which carries ax1
        for start in range(0, max(1, ax0.size), step):
            rows = ax0[start:start + step]
            values = np.frombuffer(fh.read(8 * rows.size * ax1.size), dtype="<f8").reshape(rows.size, ax1.size)
            yield rows, ax1, values, ax0.size


def load_grid(path: str, kind: str):
    """Inverse of :func:`save_grid`, either format; ValueError on a malformed file or another kind."""
    return _collect(grid_rows(path, kind, count=True))


def _collect(blocks):
    """(ax0, ax1, values) of all the rows of :func:`grid_rows` blocks, in one array of their ``total`` rows."""
    ax0, rows = [], 0
    for a0, ax1, block, total in blocks:
        if not ax0:
            values = np.empty((total, ax1.size))
        values[rows:rows + len(a0)] = block
        ax0.append(a0)
        rows += len(a0)
        block = None  # freed before the next block is read
    return np.concatenate(ax0), ax1, values[:rows]


def save_csv_rows(path: str, colnames, columns) -> None:
    """CSV with a header line and row i holding ``column[i]`` of every column.

    Values are written as ``%.17g``, which round-trips float64 exactly.  Rows
    are stacked and formatted one block at a time, so no copy of the whole
    table is made.

    Raises
    ------
    ValueError
        If the columns are not 1-D or differ in length; nothing is written.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if any(c.ndim != 1 or c.size != columns[0].size for c in columns):
        raise ValueError(f"columns must be 1-D and of equal length, got shapes {[c.shape for c in columns]}")
    _save_csv_blocks(path, colnames, [columns])


def _save_csv_blocks(path: str, colnames, blocks) -> None:
    """:func:`save_csv_rows` of the tables ``blocks`` yields one after another.

    Each block is a sequence of equal-length 1-D float columns, formatted as
    it arrives, so only one block need exist at a time, in the equal kernel
    calls of :func:`_calls`.  An exception from ``blocks`` removes the temp
    file: nothing is written.
    """
    from . import _csvtext

    def chunks():
        yield (",".join(colnames) + "\n").encode()
        for columns in blocks:
            for rows in _calls(columns[0].size, len(colnames)):
                yield _csvtext.lines(np.column_stack([c[rows] for c in columns]))

    _atomic_write(path, chunks())


def _calls(n_rows: int, row_values: int):
    """Slices that cut ``n_rows`` rows of ``row_values`` values into ``_csvtext`` calls of equal size.

    Their number is the rows over the whole rows in ``_CSV_TEXT_VALUES``
    values, rounded to the nearest (at least one): a 4096-row block of 6
    columns makes 12 calls of 341-342 rows, not 12 of 341 and a short tail
    that pays a whole call's fixed cost.
    """
    calls = max(1, round(n_rows / max(1, _CSV_TEXT_VALUES // max(1, row_values)))) if n_rows else 0
    return [slice(n_rows * i // calls, n_rows * (i + 1) // calls) for i in range(calls)]


def save_csv_triples(path: str, colnames: tuple[str, str, str], ax0: np.ndarray, ax1: np.ndarray, values: np.ndarray) -> None:
    """Row-major (ax0-major) CSV with one (a0, a1, value) triple per line.

    The same bytes as :func:`save_csv_rows` on the repeated and tiled axes,
    but each axis is formatted once, and the lines of several ax0 values
    are assembled per kernel call.
    """
    values = np.asarray(values, dtype=float).reshape(len(ax0), len(ax1))
    _atomic_write(path, _csv_triples_chunks(colnames, ax0, ax1, [values]))


def _csv_triples_chunks(colnames, ax0: np.ndarray, ax1: np.ndarray, blocks):
    """The text of :func:`save_csv_triples`: its header, then each block of ax0 rows in the calls of :func:`_calls`."""
    from . import _csvtext

    text0, keep0 = _csvtext.packed(np.asarray(ax0, dtype=float))
    inner = _csvtext.packed(np.asarray(ax1, dtype=float))
    yield (",".join(colnames) + "\n").encode()
    start = 0
    for values in blocks:
        for rows in _calls(len(values), len(ax1)):
            at = slice(start + rows.start, start + rows.stop)
            yield _csvtext.lines(values[rows, :, None], (text0[at, None], keep0[at, None]), inner)
        start += len(values)


def load_csv_triples(path: str, colnames: tuple[str, str, str]):
    """Inverse of :func:`save_csv_triples`; returns (ax0, ax1, values), the rows of :func:`_csv_rows`."""
    return _collect(_csv_rows(path, colnames, count=True))


def _csv_rows(path: str, colnames: tuple[str, str, str], *, count: bool = False):
    """The :func:`grid_rows` blocks of a CSV triples file, each yielded once its rows are whole.

    Parses ``_CSV_BLOCK_ROWS`` lines at a time.  With ``count``, a line count
    beforehand, a second read of the file, gives ``total``, which
    :func:`_collect` sizes its array by; without it ``total`` is None.  The
    first ax0 run, held as its ax1 and value pieces, fixes the
    inner length n1; each later run must hold one ax0 value and repeat the
    first run's ax1.  After the first run, each block's rows are checked as
    they arrive, against ``ax1[j0:j0 + m]`` and the ax0 of their runs, and a
    row that spans blocks is filled in place, so the scratch is one block and
    one row however long a run is.  The first fault in file order is raised,
    save that a line that does not parse (loadtxt's error, its row counted in
    the file) goes before the faults earlier in its block.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(colnames):
            raise ValueError(f"{path}: expected header {','.join(colnames)!r}, got {header!r}")
        capacity = None
        if count:
            body = fh.tell()
            # the text layer counts "\r" and "\r\n" endings as loadtxt reads them
            capacity, last = 0, "\n"
            while chunk := fh.read(_CSV_READ_CHARS):
                capacity += chunk.count("\n")
                last = chunk[-1]
            capacity += last != "\n"
            fh.seek(body)
        rows = 0
        n1, head_x, head_w = None, [], []  # inner run length, the first run's ax1 and value pieces
        row, fill, runs = None, 0, []  # the open row, its values so far, the ax0 of the rows not yet yielded

        def fault(i, got, want):
            raise ValueError(f"{path}: row {i + 1} after the header: ({colnames[0]}, {colnames[1]}) = "
                             f"{tuple(v.item() for v in got)}, expected {tuple(v.item() for v in want)}: "
                             f"each run of {n1} rows must hold one {colnames[0]} and repeat the first run's "
                             f"{colnames[1]}")

        def first_run():
            """The first run's ax1 and values; raise at the first NaN of its ax1 (it differs from itself)."""
            ax1 = np.concatenate(head_x)
            head_x.clear()
            if (nan := np.isnan(ax1)).any():
                j = int(np.argmax(nan))
                fault(j, (first0, ax1[j]), (first0, ax1[j]))
            w = np.concatenate(head_w)
            head_w.clear()
            return ax1, w

        def check(at, c0, c1):
            """Raise at the first of the rows ``c0, c1``, from file row ``at`` on, that is off the grid."""
            run, col = np.divmod(np.arange(at % n1, at % n1 + c0.size), n1)
            heads = c0[(-at) % n1::n1]  # the ax0 of each run that starts in these rows
            want0 = (np.append(runs[-1], heads) if at % n1 else heads)[run]
            bad = (c0 != want0) | (c1 != ax1[col])
            if bad.any():
                i = int(np.argmax(bad))
                fault(at + i, (c0[i], c1[i]), (want0[i], ax1[col[i]]))
            runs.extend(heads.tolist())

        while (block := _parse_rows(fh, rows)) is not None:
            if not (m := len(block)):
                continue
            if not rows:
                first0 = block[0, 0]
                if block.shape[1] != 3:
                    raise ValueError(f"{path}: expected 3 columns, got {block.shape[1]}")
                if np.isnan(first0):  # it starts no run
                    raise ValueError(f"{path}: row 1 after the header: {colnames[0]} is not a number")
            at, rows = rows, rows + m
            if n1 is None:
                cut = int(np.argmax(np.append(block[:, 0] != first0, True)))
                head_x.append(block[:cut, 1].copy())
                head_w.append(block[:cut, 2].copy())
                if cut == m:
                    continue
                n1, at, block = at + cut, at + cut, block[cut:]
                ax1, row = first_run()
                fill, runs = n1, [first0]
            check(at, block[:, 0], block[:, 1])
            w, done = block[:, 2], []
            if fill:  # the open row takes the block's first values
                k = min(n1 - fill, w.size)
                row[fill:fill + k], fill, w = w[:k], fill + k, w[k:]
                if fill == n1:
                    done.append(row[np.newaxis])
                    row, fill = None, 0
            whole = w.size // n1 * n1
            if whole:
                done.append(w[:whole].reshape(-1, n1))
            if done:
                done = done[0] if len(done) == 1 else np.concatenate(done)
                yield np.array(runs[:len(done)]), ax1, done, None if capacity is None else capacity // n1
                del runs[:len(done)]
                done = None  # the rows are freed before the next one is opened
            if whole < w.size:
                row, fill = np.empty(n1), w.size - whole
                row[:fill] = w[whole:]
            block = w = None  # freed before the next block is parsed
    if not rows:  # an empty table parses as one column
        raise ValueError(f"{path}: expected 3 columns, got 1")
    if n1 is None:  # one run
        n1 = rows
        ax1, row = first_run()
        yield np.array([first0]), ax1, row[np.newaxis], 1
    elif fill:
        raise ValueError(f"{path}: ragged grid ({rows} rows, inner run {n1})")


def _parse_rows(fh, offset: int):
    """``np.loadtxt`` of the next ``_CSV_BLOCK_ROWS`` lines of ``fh``, which follow ``offset`` rows; None at the end.

    After the first row, a row of three zeros goes first and is dropped, so a
    row of another width fails as in a one-shot load; a row number in an
    error is moved from the block to the file.  A block of only blank or
    comment lines parses to no rows, without loadtxt's warning.
    """
    if not (lines := list(itertools.islice(fh, _CSV_BLOCK_ROWS))):
        return None
    lead = offset > 0
    if lead:
        lines.insert(0, "0,0,0\n")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            block = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        shift = offset - lead
        # the last "at row" is numpy's own; a quoted field comes before it
        message, found = re.subn(r"(.*)at row (\d+)", lambda m: f"{m[1]}at row {int(m[2]) + shift}", str(exc),
                                 count=1, flags=re.DOTALL)
        if not found or shift == 0:
            raise
        raise ValueError(message) from exc
    return block[1:] if lead else block

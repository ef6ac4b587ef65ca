"""Shared file formats: ``%.17g`` CSV tables and a JSON-header binary grid container.

CSV text is Python's ``"%.17g" % v`` byte for byte, made by :mod:`iontomo._csvtext`; ``%`` itself
formats only +-inf, nan and values within 1e-9 of a rounding tie (such as 1000000000000000.25).

Container layout: one UTF-8 JSON line (terminated by ``\\n``) describing axes,
shape and dtype, followed by the flat values as little-endian float64 in
row-major order.  Each axis is stored as (first, last, n) and rebuilt with
``np.linspace``; :func:`save_container` refuses an axis that this does not
rebuild bit for bit, so every saved axis reloads bit-exact.
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

#: Lines parsed per block by :func:`load_csv_triples`.
_CSV_BLOCK_ROWS = 1024
#: Values per ``_csvtext`` call (whole rows, at least one; the row writer's equal calls take up to 1.5 times
#: as many): about 0.65 MB of scratch; smaller calls cost more.
_CSV_TEXT_VALUES = 2048
#: Characters per read when :func:`load_csv_triples` counts the lines of a file.
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
        "shape": list(values.shape),
        "dtype": "<f8",
        "order": "C",
    }
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    _atomic_write(path, json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def load_container(path: str):
    """Returns (kind, axes list, values). Raises ValueError on malformed input, the header's fields included."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
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
    n = math.prod(shape)
    if len(payload) != 8 * n:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, expected {8 * n}")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return kind, [np.linspace(axes[name]["first"], axes[name]["last"], n) for name, n in zip(names, shape)], values


#: CSV columns of each grid kind; the first two also name its container axes.
_GRID_COLUMNS = {"sinogram": ("phi", "x", "w"), "wigner": ("q", "p", "w")}


def save_grid(path: str, fmt: str, kind: str, ax0: np.ndarray, ax1: np.ndarray, values: np.ndarray) -> None:
    """Write a grid of ``kind`` as CSV triples (``fmt="csv"``) or as the container (``"bin"``)."""
    columns = _GRID_COLUMNS[kind]
    if fmt == "csv":
        save_csv_triples(path, columns, ax0, ax1, values)
    elif fmt == "bin":
        save_container(path, kind, list(columns[:2]), [ax0, ax1], values)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_grid(path: str, kind: str):
    """Inverse of :func:`save_grid`, either format; ValueError on a malformed file or another kind."""
    with open(path, "rb") as fh:
        csv = fh.read(1) != b"{"
    if csv:
        return load_csv_triples(path, _GRID_COLUMNS[kind])
    got, (ax0, ax1), values = load_container(path)
    if got != kind:
        raise ValueError(f"{path}: container holds {got!r}, not {kind!r}")
    return ax0, ax1, values


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
    it arrives, so only one block need exist at a time.  A block is cut into
    kernel calls of equal size, their number the block's values over
    ``_CSV_TEXT_VALUES`` rounded to the nearest (at least one): a 4096-row
    block of 6 columns makes 12 calls of 341-342 rows, not 12 of 341 and a
    short tail that pays a whole call's fixed cost.  An exception from
    ``blocks`` removes the temp file: nothing is written.
    """
    from . import _csvtext

    def chunks():
        yield (",".join(colnames) + "\n").encode()
        per_call = max(1, _CSV_TEXT_VALUES // len(colnames))
        for columns in blocks:
            size = columns[0].size
            calls = max(1, round(size / per_call)) if size else 0
            for i in range(calls):
                rows = slice(size * i // calls, size * (i + 1) // calls)
                yield _csvtext.lines(np.column_stack([c[rows] for c in columns]))

    _atomic_write(path, chunks())


def save_csv_triples(path: str, colnames: tuple[str, str, str], ax0: np.ndarray, ax1: np.ndarray, values: np.ndarray) -> None:
    """Row-major (ax0-major) CSV with one (a0, a1, value) triple per line.

    The same bytes as :func:`save_csv_rows` on the repeated and tiled axes,
    but each axis is formatted once, and the lines of several ax0 values
    are assembled per kernel call.
    """
    from . import _csvtext

    values = np.asarray(values, dtype=float).reshape(len(ax0), len(ax1))
    text0, keep0 = _csvtext.packed(np.asarray(ax0, dtype=float))
    inner = _csvtext.packed(np.asarray(ax1, dtype=float))
    step = max(1, _CSV_TEXT_VALUES // max(1, len(ax1)))

    def chunks():
        yield (",".join(colnames) + "\n").encode()
        for start in range(0, len(ax0), step):
            rows = slice(start, start + step)
            yield _csvtext.lines(values[rows, :, None], (text0[rows, None], keep0[rows, None]), inner)

    _atomic_write(path, chunks())


def load_csv_triples(path: str, colnames: tuple[str, str, str]):
    """Inverse of :func:`save_csv_triples`; returns (ax0, ax1, values).

    Parses ``_CSV_BLOCK_ROWS`` lines at a time into a values array sized by a
    line count beforehand.  The first ax0 run, held as its ax1 pieces, fixes
    the inner length n1; each later run must hold one ax0 value and repeat the
    first run's ax1.  After the first run, each block's rows are checked as
    they arrive, against ``ax1[j0:j0 + m]`` and the ax0 of their runs, so the
    scratch is one block however long a run is.  The first fault in file order
    is raised, save that a line that does not parse (loadtxt's error, its row
    counted in the file) goes before the faults earlier in its block.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(colnames):
            raise ValueError(f"{path}: expected header {','.join(colnames)!r}, got {header!r}")
        body = fh.tell()
        # the text layer counts "\r" and "\r\n" endings as loadtxt reads them
        capacity, last = 0, "\n"
        while chunk := fh.read(_CSV_READ_CHARS):
            capacity += chunk.count("\n")
            last = chunk[-1]
        capacity += last != "\n"
        fh.seek(body)
        values = np.empty(capacity)
        rows = 0
        n1, head, ax0 = None, [], []  # inner run length, first run's ax1 pieces, each run's ax0

        def fault(i, got, want):
            raise ValueError(f"{path}: row {i + 1} after the header: ({colnames[0]}, {colnames[1]}) = "
                             f"{tuple(v.item() for v in got)}, expected {tuple(v.item() for v in want)}: "
                             f"each run of {n1} rows must hold one {colnames[0]} and repeat the first run's "
                             f"{colnames[1]}")

        def check_first_run(first0):
            """Raise at the first NaN of the first run's ax1 (it differs from itself); keep its ax0."""
            if (nan := np.isnan(ax1)).any():
                j = int(np.argmax(nan))
                fault(j, (first0, ax1[j]), (first0, ax1[j]))
            ax0.append(np.array([first0]))

        def check(at, c0, c1):
            """Raise at the first of the rows ``c0, c1``, from file row ``at`` on, that is off the grid."""
            run, col = np.divmod(np.arange(at % n1, at % n1 + c0.size), n1)
            heads = c0[(-at) % n1::n1]  # the ax0 of each run that starts in these rows
            want0 = (np.append(ax0[-1][-1], heads) if at % n1 else heads)[run]
            bad = (c0 != want0) | (c1 != ax1[col])
            if bad.any():
                i = int(np.argmax(bad))
                fault(at + i, (c0[i], c1[i]), (want0[i], ax1[col[i]]))
            if heads.size:
                ax0.append(heads.copy())

        with warnings.catch_warnings():
            # a block of only blank or comment lines parses to no rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            while (block := _parse_rows(fh, rows)) is not None:
                if not (m := len(block)):
                    continue
                if not rows:
                    first0 = block[0, 0]
                    if block.shape[1] != 3:
                        raise ValueError(f"{path}: expected 3 columns, got {block.shape[1]}")
                    if np.isnan(first0):  # it starts no run
                        raise ValueError(f"{path}: row 1 after the header: {colnames[0]} is not a number")
                values[rows:rows + m] = block[:, 2]
                at, rows = rows, rows + m
                if n1 is None:
                    cut = int(np.argmax(np.append(block[:, 0] != first0, True)))
                    head.append(block[:cut, 1].copy())
                    if cut == m:
                        continue
                    n1, at, block = at + cut, at + cut, block[cut:]
                    ax1, head = np.concatenate(head), None
                    check_first_run(first0)
                check(at, block[:, 0], block[:, 1])
                block = None  # freed before the next block is parsed
    if not rows:  # an empty table parses as one column
        raise ValueError(f"{path}: expected 3 columns, got 1")
    if n1 is None:  # one run
        n1, ax1 = rows, np.concatenate(head)
        check_first_run(first0)
    elif rows % n1:
        raise ValueError(f"{path}: ragged grid ({rows} rows, inner run {n1})")
    return np.concatenate(ax0), ax1, values[:rows].reshape(-1, n1)


def _parse_rows(fh, offset: int):
    """``np.loadtxt`` of the next ``_CSV_BLOCK_ROWS`` lines of ``fh``, which follow ``offset`` rows; None at the end.

    After the first row, a row of three zeros goes first and is dropped, so a
    row of another width fails as in a one-shot load; a row number in an
    error is moved from the block to the file.
    """
    if not (lines := list(itertools.islice(fh, _CSV_BLOCK_ROWS))):
        return None
    lead = offset > 0
    if lead:
        lines.insert(0, "0,0,0\n")
    try:
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

"""Shared file formats: ``%.17g`` CSV tables and a JSON-header binary grid container.

Container layout: one UTF-8 JSON line (terminated by ``\\n``) describing axes,
shape and dtype, followed by the flat values as little-endian float64 in
row-major order.  Uniform axes are stored as (first, last, n) and rebuilt with
``np.linspace`` so reload is bit-exact.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

_FORMAT = "iontomo-grid"
_VERSION = 1

#: Rows formatted per chunk by the CSV writers.  A ``%.17g`` value takes at most
#: 25 bytes with its separator, so a block of the six-column epsilon table is at
#: most 154 kB of text; with its bytes copy and Python floats, :func:`save_csv_rows`
#: peaks at about 0.45 MB however long the table.
_CSV_BLOCK_ROWS = 1024


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
    """Returns (kind, axes list, values). Raises ValueError on malformed input."""
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
    shape = tuple(header["shape"])
    n = int(np.prod(shape))
    if len(payload) != 8 * n:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, expected {8 * n}")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    axes = []
    for name in header["axis_names"]:
        spec = header["axes"][name]
        axes.append(np.linspace(spec["first"], spec["last"], spec["n"]))
    return header["kind"], axes, values


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
    n_rows = columns[0].size if columns else 0
    row = ",".join(["%.17g"] * len(columns)) + "\n"

    def chunks():
        yield (",".join(colnames) + "\n").encode()
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            yield ((row * block.shape[0]) % tuple(block.ravel().tolist())).encode()

    _atomic_write(path, chunks())


def save_csv_triples(path: str, colnames: tuple[str, str, str], ax0: np.ndarray, ax1: np.ndarray, values: np.ndarray) -> None:
    """Row-major (ax0-major) CSV with one (a0, a1, value) triple per line.

    The same bytes as :func:`save_csv_rows` on the repeated and tiled axes,
    but each axis value is formatted once: a line template carries the axis
    text and only the values go through ``%``.
    """
    values = np.asarray(values, dtype=float).reshape(len(ax0), len(ax1))
    tails = [",%.17g,%%.17g\n" % a1 for a1 in np.asarray(ax1, dtype=float).tolist()]

    def chunks():
        yield (",".join(colnames) + "\n").encode()
        for a0, row in zip(np.asarray(ax0, dtype=float).tolist(), values):
            head = "%.17g" % a0
            for start in range(0, len(tails), _CSV_BLOCK_ROWS):
                template = head + head.join(tails[start:start + _CSV_BLOCK_ROWS])
                yield (template % tuple(row[start:start + _CSV_BLOCK_ROWS].tolist())).encode()

    _atomic_write(path, chunks())


def load_csv_triples(path: str, colnames: tuple[str, str, str]):
    """Inverse of :func:`save_csv_triples`; returns (ax0, ax1, values)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != ",".join(colnames):
        raise ValueError(f"{path}: expected header {','.join(colnames)!r}, got {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {data.shape[1]}")
    col0 = data[:, 0]
    # length of the first ax0 run gives the inner (ax1) dimension
    starts_run = col0 != col0[0]
    n1 = int(np.argmax(starts_run)) if starts_run.any() else data.shape[0]
    if n1 == 0:
        raise ValueError(f"{path}: row 1 after the header: {colnames[0]} is not a number")
    if data.shape[0] % n1 != 0:
        raise ValueError(f"{path}: ragged grid ({data.shape[0]} rows, inner run {n1})")
    n0 = data.shape[0] // n1
    grid = data.reshape(n0, n1, 3)
    # each run holds one ax0 value and repeats the first run's ax1 axis
    bad = (grid[:, :, 0] != grid[:, :1, 0]) | (grid[:, :, 1] != grid[:1, :, 1])
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n1)
        got, want = grid[i, j, :2].tolist(), [grid[i, 0, 0].item(), grid[0, j, 1].item()]
        raise ValueError(f"{path}: row {i * n1 + j + 1} after the header: ({colnames[0]}, {colnames[1]}) = "
                         f"{tuple(got)}, expected {tuple(want)}: each run of {n1} rows must hold one "
                         f"{colnames[0]} and repeat the first run's {colnames[1]}")
    ax0 = grid[:, 0, 0].copy()
    ax1 = grid[0, :, 1].copy()
    values = grid[:, :, 2].copy()
    return ax0, ax1, values

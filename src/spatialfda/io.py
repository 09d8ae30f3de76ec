"""Reading and writing the functional-data CSV format, plus small tables.

A functional-data file is plain CSV with no quoting:

    # key=value                 zero or more metadata comment lines
    t_1,t_2,...,t_D             grid points, strictly increasing
    #weights,w_1,...,w_D        optional quadrature weights row
    x_11,x_12,...,x_1D          one curve per row

The weights row is recognized by the literal first cell ``#weights``; plain
comments use ``#`` followed by a space. When the weights row is absent,
equispaced grids get trapezoid weights and anything else equal weights 1/D.
All numbers are written with ``repr``, so a write/read round trip preserves
every float bit for bit.

A cell is any spelling Python's ``float()`` accepts, surrounding whitespace
included, and must be finite. The curve rows are parsed in one bulk
``numpy.loadtxt`` call, which accepts a subset of those spellings with the
same bits. A file it declines is read again row by row with the same result:
one with a comment line among its curves, a spelling such as ``1_0``, or a
bad cell. Blank lines are skipped either way. Parse failures come from the
row-by-row reading and raise ParseError tagged with the 1-based line number.
The parsed curve array is handed to FunctionalSample without a copy.

write_sample and write_table stream: they format and write one row at a
time, so writing needs no memory beyond the data itself and one row of
text.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ParseError
from .funcspace import FunctionalSample, Grid

WEIGHTS_MARKER = "#weights"


def _csv_row(values: np.ndarray) -> str:
    """One line of repr-formatted floats; tolist gives Python floats, so no float() is needed."""
    return ",".join(map(repr, values.tolist())) + "\n"


def _parse_row(cells: list[str], lineno: int) -> np.ndarray:
    out = np.empty(len(cells))
    for j, cell in enumerate(cells):
        try:
            out[j] = float(cell)
        except ValueError:
            raise ParseError(
                f"cell {j + 1} is not a number: {cell.strip()!r}", line=lineno
            ) from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        j = int(bad[0])
        raise ParseError(f"cell {j + 1} is not finite: {cells[j].strip()!r}", line=lineno)
    return out


def _default_weights(points: np.ndarray) -> np.ndarray:
    gaps = np.diff(points)
    if np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        h = float(gaps[0])
        w = np.full(points.size, h)
        w[0] = w[-1] = h / 2.0
        return w
    return np.full(points.size, 1.0 / points.size)


def _bulk_curves(lines, width: int) -> np.ndarray | None:
    """Every remaining curve row in one loadtxt call.

    None when the row loop must read the file instead, so that its checks
    and messages apply: a line loadtxt rejects (every ``#`` line is one), a
    width other than the grid's, or a non-finite value. loadtxt accepts a
    subset of float()'s spellings, with identical bits, and skips empty
    lines as the row loop does.
    """
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def _read(fh, bulk: bool):
    """Metadata, grid points, weights (None when absent) and curve rows of fh.

    With bulk, the curve rows go to _bulk_curves, and None is returned when
    it declines them; otherwise each row is parsed and checked here.
    """
    metadata: dict[str, str] = {}
    points = None
    weights = None
    curves: list[np.ndarray] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        cells = line.split(",")
        if cells[0] == WEIGHTS_MARKER:
            if points is None:
                raise ParseError("weights row before grid row", line=lineno)
            if weights is not None:
                raise ParseError("second weights row", line=lineno)
            if curves:
                raise ParseError("weights row after curve rows", line=lineno)
            if len(cells) - 1 != points.size:
                raise ParseError(
                    f"{len(cells) - 1} weights for {points.size} grid points",
                    line=lineno,
                )
            weights = _parse_row(cells[1:], lineno)
            if np.any(weights <= 0):
                raise ParseError("weights must be positive", line=lineno)
            continue
        if line.lstrip().startswith("#"):
            body = line.lstrip().lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        if points is None:
            points = _parse_row(cells, lineno)
            if points.size < 2:
                raise ParseError("grid row needs at least 2 points", line=lineno)
            if not np.all(np.diff(points) > 0):
                raise ParseError("grid points must be strictly increasing", line=lineno)
            continue
        if bulk:
            values = _bulk_curves(itertools.chain([raw], fh), points.size)
            return None if values is None else (metadata, points, weights, values)
        row = _parse_row(cells, lineno)
        if row.size != points.size:
            raise ParseError(
                f"row has {row.size} cells, expected {points.size}", line=lineno
            )
        curves.append(row)
    return metadata, points, weights, np.vstack(curves) if curves else None


def read_sample(path) -> tuple[FunctionalSample, dict]:
    """Read a functional-data CSV; returns the sample and its metadata.

    Metadata is every ``# key=value`` comment line, parsed into a dict;
    comment lines without ``=`` are ignored. The curve rows are parsed in
    one bulk call; a file that call declines is read again row by row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        parsed = _read(fh, bulk=True)
    if parsed is None:
        with open(path, "r", encoding="utf-8") as fh:
            parsed = _read(fh, bulk=False)
    metadata, points, weights, values = parsed
    if points is None:
        raise ParseError("no grid row found", line=1)
    if values is None:
        raise ParseError("no curve rows found", line=1)
    if weights is None:
        weights = _default_weights(points)
    grid = Grid.custom(points, weights)
    values.flags.writeable = False
    return FunctionalSample(grid, values), metadata


def write_text(path, text) -> None:
    """Write text as utf-8 with "\\n" line ends: the one writer of every artifact.

    text is one string, or an iterable of strings written in turn, which is
    how write_sample and write_table stream their rows.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)


def _metadata_lines(metadata: dict | None):
    """One ``# key=value`` line per metadata entry, in insertion order."""
    return (f"# {key}={value}\n" for key, value in (metadata or {}).items())


def write_sample(path, sample: FunctionalSample, metadata: dict | None = None) -> None:
    """Write a functional-data CSV (grid row, weights row, one row per curve), row by row."""

    def lines():
        yield from _metadata_lines(metadata)
        yield _csv_row(sample.grid.points)
        yield WEIGHTS_MARKER + "," + _csv_row(sample.grid.weights)
        for row in sample.values:
            yield _csv_row(row)

    write_text(path, lines())


def write_table(path, columns: list[str], rows, metadata: dict | None = None) -> None:
    """Write a small named-column CSV (depths, DD points, study medians).

    Floats are formatted with repr, everything else with str; the header
    row carries the column names. A row of the wrong width raises
    ValueError, after the rows before it are written.
    """

    def lines():
        yield from _metadata_lines(metadata)
        yield ",".join(columns) + "\n"
        for row in rows:
            cells = [repr(float(v)) if isinstance(v, float) else str(v) for v in row]
            if len(cells) != len(columns):
                raise ValueError("row width does not match column count")
            yield ",".join(cells) + "\n"

    write_text(path, lines())

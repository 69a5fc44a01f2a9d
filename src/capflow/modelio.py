"""Text file formats for finite models, grid fields, and masks.

Finite-model file::

    atoms <m>
    <w_1> ... <w_m>
    field <name>
    <v_1> ... <v_m>
    ...

Grid field file::

    field v1 grid=<N>[x<N>] L=<len> layout=row-major
    <values, row-major, whitespace separated>

Mask files reuse the field layouts with 0/1 entries; for finite models a
bare whitespace-separated 0/1 list (no header) is also accepted.

Kernel matrix file (finite models): the m*m entries, row-major, whitespace
separated, no header.
"""
from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .grid import Grid
from .measure import DiscreteMeasureSpace, Field

__all__ = [
    "read_finite_model",
    "write_finite_model",
    "read_grid_field",
    "write_grid_field",
    "read_mask_values",
    "read_kernel_matrix",
    "grid_of",
]


def _header(path, lines: list) -> int:
    """Index of the first non-blank line, the header line of every format."""
    for pos, line in enumerate(lines):
        if line.strip():
            return pos
    raise ValueError(f"{path}: empty file")


def read_finite_model(path) -> Tuple[DiscreteMeasureSpace, Dict[str, np.ndarray]]:
    lines = Path(path).read_text().splitlines()
    pos = _header(path, lines)
    head = lines[pos].split()
    if len(head) != 2 or head[0] != "atoms":
        raise ValueError(f"{path}: expected 'atoms <m>' header, got {lines[pos]!r}")
    m = _number(path, head[1], "atom count", int)
    if m < 1:
        raise ValueError(f"{path}: atom count must be at least 1, got {m}")
    pos += 1
    toks: list = []
    while pos < len(lines) and len(toks) < m:
        toks.extend(lines[pos].split())
        pos += 1
    if len(toks) < m:
        raise ValueError(f"{path}: expected {m} weights")
    space = DiscreteMeasureSpace(_numbers(path, toks[:m]))
    fields: Dict[str, np.ndarray] = {}
    name = None
    buf: list = []
    for line in lines[pos:]:
        parts = line.split()
        if parts and parts[0] == "field":
            if name is not None:
                fields[name] = _finish_field(path, name, buf, m)
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed field header {line!r}")
            name, buf = parts[1], []
        else:
            buf.extend(parts)
    if name is not None:
        fields[name] = _finish_field(path, name, buf, m)
    return space, fields


def _finish_field(path, name, buf, m) -> np.ndarray:
    if len(buf) != m:
        raise ValueError(f"{path}: field {name!r} has {len(buf)} values, want {m}")
    return _numbers(path, buf)


def write_finite_model(path, space: DiscreteMeasureSpace,
                       fields: Optional[Dict[str, np.ndarray]] = None) -> None:
    out = [f"atoms {space.size}", " ".join(repr(float(w)) for w in space.weights)]
    for name, vals in (fields or {}).items():
        out.append(f"field {name}")
        out.append(" ".join(repr(float(v)) for v in np.asarray(vals).ravel()))
    Path(path).write_text("\n".join(out) + "\n")


def _parse_grid_header(path, line: str) -> Tuple[str, float]:
    """The grid= spec and the side length L of a grid-file header."""
    parts = line.split()
    if parts[:2] != ["field", "v1"]:
        raise ValueError(f"{path}: expected 'field v1 ...' header, got {line!r}")
    kv = {}
    for p in parts[2:]:
        if "=" not in p:
            raise ValueError(f"{path}: malformed header token {p!r}")
        k, v = p.split("=", 1)
        kv[k] = v
    if kv.get("layout", "row-major") != "row-major":
        raise ValueError(f"{path}: unsupported layout {kv.get('layout')!r}")
    if not {"grid", "L"} <= kv.keys():
        raise ValueError(f"{path}: header {line!r} needs grid= and L=")
    return kv["grid"], _number(path, kv["L"], "L")


def _grid_spec(path, spec: str) -> Tuple[int, int]:
    """(n, N) of a grid size written N (a line) or NxN (a square), the
    grammar of a header's grid= and of the CLI's --grid."""
    a, x, b = spec.partition("x")
    if x and a != b:
        raise ValueError(f"{path}: anisotropic grids unsupported ({spec})")
    return (2 if x else 1), _number(path, a, "grid", int)


def grid_of(path, spec: str, L: float) -> Grid:
    """The grid of size `spec` (N or NxN) and side `L`; a size or side the
    grid rejects is named with `path`, the file or flag it came from."""
    n, N = _grid_spec(path, spec)
    try:
        return Grid(n, L, N)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_grid_field(path, grid: Optional[Grid] = None) -> Tuple[Grid, np.ndarray]:
    """Read a grid field; when `grid` is supplied the header must match it
    and the returned values bind to that instance."""
    lines = Path(path).read_text().splitlines()
    pos = _header(path, lines)
    gspec, L = _parse_grid_header(path, lines[pos])
    if grid is None:
        grid = grid_of(path, gspec, L)
    elif not isinstance(grid, Grid):
        raise ValueError(f"{path}: grid-format file for a non-grid space")
    elif (grid.n, grid.N) != _grid_spec(path, gspec) or abs(grid.L - L) > 1e-12:
        raise ValueError(f"{path}: header (grid={gspec}, L={L}) does not match "
                         f"the bound grid {grid!r}")
    toks: list = []
    for line in lines[pos + 1:]:
        toks.extend(line.split())
    if len(toks) != grid.size:
        raise ValueError(f"{path}: expected {grid.size} values, got {len(toks)}")
    return grid, _numbers(path, toks)


def write_grid_field(path, grid: Grid, values) -> None:
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != grid.size:
        raise ValueError(f"need {grid.size} values, got {vals.size}")
    gspec = f"{grid.N}x{grid.N}" if grid.n == 2 else f"{grid.N}"
    lines = [f"field v1 grid={gspec} L={grid.L!r} layout=row-major"]
    if grid.n == 2:
        for row in vals.reshape(grid.N, grid.N):
            lines.append(" ".join(repr(float(v)) for v in row))
    else:
        lines.append(" ".join(repr(float(v)) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def read_mask_values(path, space) -> np.ndarray:
    """Read a 0/1 mask bound to `space` (grid header or bare token list)."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if lines[_header(path, lines)].lstrip().startswith("field"):
        _, vals = read_grid_field(path, space)
    else:
        vals = _entries(path, text, space.size)
    bad = ~np.isin(vals, (0.0, 1.0))
    if bad.any():
        raise ValueError(f"{path}: mask entries must be 0 or 1")
    return vals.astype(bool)


def read_kernel_matrix(path, m: int) -> np.ndarray:
    """Read the m*m kernel matrix of a finite model (row-major entries)."""
    return _entries(path, Path(path).read_text(), m * m).reshape(m, m)


def _entries(path, text: str, want: int) -> np.ndarray:
    """The `want` whitespace-separated numbers of a headerless file."""
    toks = text.split()
    if len(toks) != want:
        raise ValueError(f"{path}: expected {want} entries, got {len(toks)}")
    return _numbers(path, toks)


def _numbers(path, toks: list) -> np.ndarray:
    """The tokens as floats, through `_number`."""
    return np.array([_number(path, t) for t in toks])


def _number(path, tok: str, what: str = "entry", kind=float):
    """`kind(tok)`; a token that does not convert is named, with the file
    and what it stands for, in a ValueError."""
    try:
        return kind(tok)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: {what} {tok!r} is not {noun}") from None


def field_from_file(path, space) -> Field:
    """Convenience: read a grid field file bound to `space`."""
    _, vals = read_grid_field(path, space)
    return Field(space, vals)

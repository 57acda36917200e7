"""Grid domains, scalar-field time series, and file ingestion.

A domain is a regular 2D or 3D lattice with per-axis spacing and optional
per-axis wrap-around (e.g. a longitude axis). Vertices are addressed by a
single linear index in C order (last axis fastest). Adjacency follows the
Freudenthal triangulation of the lattice: in 2D the four axis neighbors
plus the (+1,+1)/(-1,-1) diagonal, in 3D the 14-neighbor stencil given by
all offsets in {0,1}^3 and their negatives.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

RAW_MAGIC = b"XTRK"
RAW_VERSION_SERIES = 1
RAW_VERSION_LABELS = 2

# dtype codes in the raw header
_DTYPE_F32 = 0
_DTYPE_F64 = 1
_DTYPE_U32 = 2
_DTYPES = {_DTYPE_F32: np.dtype("<f4"), _DTYPE_F64: np.dtype("<f8"), _DTYPE_U32: np.dtype("<u4")}

SeriesFormat = Literal["raw-f32", "raw-f64", "csv"]


class SeriesFormatError(ValueError):
    """A series file violates the on-disk contract.

    ``offset`` is the byte offset of the offending datum when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class NonFiniteValue(ValueError):
    """A series step holds a non-finite value; ``step`` and ``vertex`` locate the first."""

    def __init__(self, step: int, vertex: int):
        super().__init__(f"step {step} contains a non-finite value at vertex {vertex}")
        self.step, self.vertex = step, vertex


def step_values(a) -> np.ndarray:
    """a as a step's values: float32 and float64 as stored, any other type
    as a float64 copy. Not reshaped, so a view of a buffer stays that view."""
    a = np.asarray(a)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


def first_non_finite(values: np.ndarray) -> int | None:
    """Flat (C-order) index of the first non-finite value, or None."""
    # a NaN or an infinity shows in the minimum or the maximum: no mask is built
    if np.isfinite(values.min()) and np.isfinite(values.max()):
        return None
    return int(np.flatnonzero(~np.isfinite(values))[0])


@dataclass(frozen=True)
class GridDomain:
    """Regular 2D/3D vertex lattice with spacing and per-axis periodicity."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    periodic: tuple[bool, ...]

    def __init__(self, dims, spacing=None, periodic=None):
        dims = tuple(int(d) for d in dims)
        rank = len(dims)
        if spacing is None:
            spacing = (1.0,) * rank
        if periodic is None:
            periodic = (False,) * rank
        spacing = tuple(float(s) for s in spacing)
        periodic = tuple(bool(p) for p in periodic)
        if rank not in (2, 3):
            raise ValueError(f"domain rank must be 2 or 3, got {rank}")
        if any(d < 2 for d in dims):
            raise ValueError(f"every axis needs at least 2 vertices, got dims={dims}")
        if len(spacing) != rank or len(periodic) != rank:
            raise ValueError("dims, spacing and periodic must have equal length")
        if any(not (s > 0.0) or not math.isfinite(s) for s in spacing):
            raise ValueError(f"spacing must be strictly positive, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "periodic", periodic)
        # stored once; not a field, so equality, hashing and repr ignore it
        object.__setattr__(self, "vertex_count", math.prod(dims))

    @property
    def rank(self) -> int:
        return len(self.dims)

    def coords_of(self, v: int) -> tuple[int, ...]:
        """Lattice coordinate of a linear vertex index (C order)."""
        self._check_vertex(v)
        return tuple(int(c) for c in np.unravel_index(v, self.dims))

    def vertex_at(self, coords: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(int(c) for c in coords), self.dims))

    def position(self, v: int) -> tuple[float, ...]:
        """World position of a vertex (coordinate times spacing, per axis)."""
        return tuple(c * s for c, s in zip(self.coords_of(v), self.spacing))

    def positions(self, vertices) -> np.ndarray:
        """World positions of the given vertices, shape (n, rank); each row
        equals ``position`` of that vertex."""
        coords = np.stack(np.unravel_index(np.asarray(vertices, np.int64), self.dims), axis=-1)
        return coords * np.asarray(self.spacing)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range for {self.vertex_count} vertices")


def _freudenthal_offsets(rank: int) -> tuple[tuple[int, ...], ...]:
    # All nonzero offsets in {0,1}^rank plus their negatives: 6 in 2D, 14 in 3D.
    ups = [o for o in product((0, 1), repeat=rank) if any(o)]
    return tuple(ups + [tuple(-x for x in o) for o in ups])


def offset_slices(domain: GridDomain):
    """Freudenthal adjacency as slice pairs on the grid reshaped to ``dims``.

    Yields ``(k, src, dst)`` for each of the K/2 positive offsets k of
    ``_freudenthal_offsets``: ``grid[dst]`` holds the +k neighbor of each
    vertex of ``grid[src]``, and ``grid[src]`` the -k neighbor (offset
    k + K/2 of ``_freudenthal_offsets``) of each vertex of ``grid[dst]``. A
    periodic axis the offset steps along adds a wrap piece (``[n-1:n]`` to
    ``[0:1]``), so one offset yields up to 2**rank pieces. Together the
    pieces cover every (vertex, offset) pair that stays in the domain
    exactly once, in one direction or the other, without building a
    (V, K) neighbor table.
    """
    offsets = _freudenthal_offsets(domain.rank)
    for k, off in enumerate(offsets[: len(offsets) // 2]):
        per_axis = []
        for o, n, per in zip(off, domain.dims, domain.periodic):
            if not o:
                per_axis.append(((slice(None), slice(None)),))
            elif per:
                per_axis.append(((slice(0, n - 1), slice(1, n)), (slice(n - 1, n), slice(0, 1))))
            else:
                per_axis.append(((slice(0, n - 1), slice(1, n)),))
        for pieces in product(*per_axis):
            yield k, tuple(s for s, _ in pieces), tuple(d for _, d in pieces)


def sampling_offsets(
    domain: GridDomain, mode: str, d: float, lattice_units: bool = False
) -> np.ndarray:
    """Lattice offsets of a sampling neighborhood, shape (S, rank).

    Every neighborhood of radius ``d`` is a translate of this one set:
    ``euclidean`` keeps the offsets o with ``sum_a (|o_a| s_a)**2 <= d**2``
    (s the spacing, or 1 under ``lattice_units``); ``combinatorial`` keeps
    those within floor(d) Freudenthal hops, ``max(0, max o) + max(0,
    -min o)``. Each axis reaches at most its length - 1 either way, so the
    set has fewer than 2**rank * V rows however large d is. On periodic
    axes offsets are reduced to residues in [0, n) and duplicates dropped,
    so no two offsets reach the same vertex; on the others they stay signed
    and ``stencil_vertices`` clips them. Built anew on every call.
    """
    if not (d >= 0 and math.isfinite(d)):
        raise ValueError(f"d must be a finite non-negative number, got {d}")
    if mode == "euclidean":
        spacing = (1.0,) * domain.rank if lattice_units else domain.spacing
        axes = []
        for n, sp in zip(domain.dims, spacing):
            o = np.arange(-(n - 1), n)
            axes.append(o[np.abs(o) * sp <= d])
        grids = np.meshgrid(*axes, indexing="ij")
        # summed per axis in axis order: another order rounds differently
        # and can move a point lying on the sphere across it
        d2 = sum((np.abs(g) * sp) ** 2 for g, sp in zip(grids, spacing))
        keep = d2 <= d * d
    elif mode == "combinatorial":
        hops = math.floor(d)
        grids = np.meshgrid(*(np.arange(-min(hops, n - 1), min(hops, n - 1) + 1)
                              for n in domain.dims), indexing="ij")
        top = np.maximum(0, np.maximum.reduce(grids))
        bottom = np.maximum(0, -np.minimum.reduce(grids))
        keep = top + bottom <= hops
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    offsets = np.stack([g[keep] for g in grids], axis=-1)
    for a, (n, per) in enumerate(zip(domain.dims, domain.periodic)):
        if per:
            offsets[:, a] %= n
    if any(domain.periodic):
        # the distinct rows in lexicographic order, as np.unique(axis=0)
        # gives them, which imports numpy.ma
        offsets = offsets[np.lexsort(offsets.T[::-1])]
        offsets = offsets[np.r_[True, (offsets[1:] != offsets[:-1]).any(axis=1)]]
    return offsets


def stencil_vertices(domain: GridDomain, offsets: np.ndarray, centers) -> tuple[np.ndarray, np.ndarray]:
    """Each center translated by each offset of ``sampling_offsets``.

    Returns ``(ids, inside)``, both (len(centers), S): the vertex reached,
    wrapping periodic axes, and whether it lies in the domain; where it does
    not (clipped on a non-periodic axis) ``ids`` holds no vertex.
    """
    coords = np.unravel_index(np.asarray(centers, dtype=np.int64), domain.dims)
    ids = np.zeros((coords[0].size, offsets.shape[0]), dtype=np.int64)
    inside = np.ones(ids.shape, dtype=bool)
    stride = 1
    for a in reversed(range(domain.rank)):
        n = domain.dims[a]
        x = coords[a][:, None] + offsets[None, :, a]
        if domain.periodic[a]:
            x[x >= n] -= n
        else:
            inside &= (x >= 0) & (x < n)
        x *= stride
        ids += x
        stride *= n
    return ids, inside


def minimum_image_distance(domain: GridDomain, pa, pb):
    """World distance between positions, wrapping periodic axes: a float
    for two positions, an array for two (n, rank) arrays of rows."""
    pa, pb = np.asarray(pa, np.float64), np.asarray(pb, np.float64)
    total = np.zeros(pa.shape[:-1])
    for a in range(domain.rank):
        delta = np.abs(pa[..., a] - pb[..., a])
        if domain.periodic[a]:
            period = domain.dims[a] * domain.spacing[a]
            delta = delta % period
            delta = np.minimum(delta, period - delta)
        total = total + delta * delta
    return float(np.sqrt(total)) if total.ndim == 0 else np.sqrt(total)


@dataclass(frozen=True, eq=False)
class ScalarFieldSeries:
    """Time-ordered stack of scalar fields sharing one grid domain."""

    domain: GridDomain
    steps: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a series needs at least one time step")
        steps = []
        for t, s in enumerate(self.steps):
            arr = step_values(s)
            if arr.size != self.domain.vertex_count:
                raise ValueError(
                    f"step {t} has {arr.size} values, domain has {self.domain.vertex_count} vertices"
                )
            bad = first_non_finite(arr)
            if bad is not None:
                raise NonFiniteValue(t, bad)
            if arr.ndim != 1 or not isinstance(arr.base, bytes):  # someone could write it
                arr = arr.flatten()
                arr.flags.writeable = False
            steps.append(arr)
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def _read_exact(fh, n: int, what: str, offset: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise SeriesFormatError(f"truncated file while reading {what}", offset=offset)
    return buf


def _read_raw(path, check) -> tuple[GridDomain, list[np.ndarray], int]:
    """A raw file's domain, steps and payload offset, once ``check(version,
    dtype code, step count)`` passes. The payload's size is compared with the
    header's before any of it is read; each step is read into its own bytes."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic", 0)
        if magic != RAW_MAGIC:
            raise SeriesFormatError(f"bad magic {magic!r}, expected {RAW_MAGIC!r}", offset=0)
        version, rank = struct.unpack("<II", _read_exact(fh, 8, "version/rank", 4))
        if rank not in (2, 3):
            raise SeriesFormatError(f"rank must be 2 or 3, got {rank}", offset=8)
        fields, off = [], 12
        for what, fmt in (("dims", f"<{rank}I"), ("step count", "<I"), ("dtype/periodic", "<BB"),
                          ("reserved bytes", "2x"), ("spacing", f"<{rank}d")):
            fields.append(struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), what, off)))
            off += struct.calcsize(fmt)
        dims, (n_steps,), (code, periodic_mask), _, spacing = fields
        if code not in _DTYPES:
            raise SeriesFormatError(f"unknown dtype code {code}", offset=16 + 4 * rank)
        check(version, code, n_steps)
        try:
            domain = GridDomain(dims, spacing, [periodic_mask >> a & 1 for a in range(rank)])
        except ValueError as e:
            raise SeriesFormatError(f"invalid domain in header: {e}") from e
        size = domain.vertex_count * _DTYPES[code].itemsize
        held = os.fstat(fh.fileno()).st_size - off
        if held != n_steps * size:
            raise SeriesFormatError(f"payload holds {held} bytes, header declares {n_steps * size} "
                                    f"({n_steps} steps x {domain.vertex_count} vertices)", off)
        steps = [np.frombuffer(_read_exact(fh, size, "payload", off + t * size), _DTYPES[code])
                 for t in range(n_steps)]
    return domain, steps, off


def _load_csv(path) -> ScalarFieldSeries:
    """One 2D step per file; each text row spans the last axis."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                row = [float(c) for c in cells]
            except ValueError as e:
                raise SeriesFormatError(f"line {lineno}: {e}") from e
            if rows and len(row) != len(rows[0]):
                raise SeriesFormatError(
                    f"line {lineno} has {len(row)} values, expected {len(rows[0])}"
                )
            rows.append(row)
    if len(rows) < 2 or len(rows[0]) < 2:
        raise SeriesFormatError(f"csv grid must be at least 2x2, got {len(rows)} rows")
    arr = np.asarray(rows, dtype=np.float64)
    try:
        return ScalarFieldSeries(GridDomain(arr.shape), (arr.reshape(-1),))
    except NonFiniteValue as e:
        r, c = divmod(e.vertex, arr.shape[1])
        raise SeriesFormatError(f"non-finite value at row {r}, column {c}") from e


def load_series(path: str | Path, format: SeriesFormat) -> ScalarFieldSeries:
    """Load a series file in the declared format, validating the layout."""
    if format == "csv":
        return _load_csv(path)
    expect_code = {"raw-f32": _DTYPE_F32, "raw-f64": _DTYPE_F64}.get(format)
    if expect_code is None:
        raise ValueError(f"unknown series format {format!r}")

    def check(version, code, n_steps):
        if version != RAW_VERSION_SERIES:
            raise SeriesFormatError(f"unsupported series version {version}", offset=4)
        if code != expect_code:
            raise SeriesFormatError(
                f"dtype code {code} does not match the declared format (expected {expect_code})"
            )
        if n_steps < 1:
            raise SeriesFormatError("series declares zero time steps")

    domain, steps, off = _read_raw(path, check)
    try:
        return ScalarFieldSeries(domain, tuple(steps))
    except NonFiniteValue as e:
        at = e.step * domain.vertex_count + e.vertex
        raise SeriesFormatError(f"non-finite value at step {e.step}, vertex {e.vertex}",
                                off + at * steps[0].itemsize) from e


class _Output(io.FileIO):
    """A file whose failed writes name it (the OS error does not) and delete it."""

    def write(self, b):
        try:
            return super().write(b)
        except OSError as e:
            e.filename = str(self.name)
            with contextlib.suppress(OSError):  # the failed write is the error to report
                os.unlink(self.name)
            raise


def open_output(path) -> io.BufferedWriter:
    """``open(path, "wb")``, whose failed writes, the flush at close's too,
    name path and delete the file."""
    return io.BufferedWriter(_Output(path, "w"))


def _write_raw(path, domain: GridDomain, steps, code: int, version: int) -> None:
    rank = domain.rank
    mask = sum(1 << a for a, p in enumerate(domain.periodic) if p)
    with open_output(path) as fh:
        fh.write(RAW_MAGIC + struct.pack(f"<II{rank}IIBBxx{rank}d", version, rank, *domain.dims,
                                         len(steps), code, mask, *domain.spacing))
        for step in steps:
            fh.write(step.astype(_DTYPES[code], copy=False).tobytes())


def save_series(series: ScalarFieldSeries, path: str | Path) -> None:
    """Write a series in the raw layout, keeping its value dtype."""
    code = _DTYPE_F32 if series.steps[0].dtype == np.float32 else _DTYPE_F64
    _write_raw(path, series.domain, series.steps, code, RAW_VERSION_SERIES)


def save_labels(labels: np.ndarray, domain: GridDomain, path: str | Path) -> None:
    """Debug dump of a per-vertex label array (u32 payload variant)."""
    arr = np.asarray(labels)
    if arr.size != domain.vertex_count:
        raise ValueError("label array does not match the domain")
    _write_raw(path, domain, [arr], _DTYPE_U32, RAW_VERSION_LABELS)


def load_labels(path: str | Path) -> tuple[np.ndarray, GridDomain]:
    """A label dump's per-vertex labels, as int32, and its domain."""
    def check(version, code, n_steps):
        if version != RAW_VERSION_LABELS or code != _DTYPE_U32 or n_steps != 1:
            raise SeriesFormatError("not a label dump")

    domain, (labels,), off = _read_raw(path, check)
    wide = np.flatnonzero(labels >= 2**31)
    if wide.size:
        v = int(wide[0])
        raise SeriesFormatError(f"label {labels[v]} at vertex {v} does not fit in int32", off + 4 * v)
    return labels.astype(np.int32), domain


def stack_series(parts: Sequence[ScalarFieldSeries]) -> ScalarFieldSeries:
    """Concatenate single-file series (e.g. per-step CSV files) in time order."""
    if not parts:
        raise ValueError("no series to stack")
    domain = parts[0].domain
    for p in parts[1:]:
        if p.domain != domain:
            raise ValueError("all parts must share one domain")
    return ScalarFieldSeries(domain, tuple(s for p in parts for s in p.steps))

"""Grid domains, scalar-field time series, and file ingestion.

A domain is a regular 2D or 3D lattice with per-axis spacing and optional
per-axis wrap-around (e.g. a longitude axis). Vertices are addressed by a
single linear index in C order (last axis fastest). Adjacency follows the
Freudenthal triangulation of the lattice: in 2D the four axis neighbors
plus the (+1,+1)/(-1,-1) diagonal, in 3D the 14-neighbor stencil given by
all offsets in {0,1}^3 and their negatives.
"""

from __future__ import annotations

import io
import math
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
            arr = np.asarray(s)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float64)
            arr = arr.reshape(-1)
            if arr.size != self.domain.vertex_count:
                raise ValueError(
                    f"step {t} has {arr.size} values, domain has {self.domain.vertex_count} vertices"
                )
            if not np.isfinite(arr).all():
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ValueError(f"step {t} contains a non-finite value at vertex {bad}")
            arr = arr.copy()
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


def _parse_raw_header(fh):
    off = 0
    magic = _read_exact(fh, 4, "magic", off)
    if magic != RAW_MAGIC:
        raise SeriesFormatError(f"bad magic {magic!r}, expected {RAW_MAGIC!r}", offset=0)
    off = 4
    version, rank = struct.unpack("<II", _read_exact(fh, 8, "version/rank", off))
    off += 8
    if rank not in (2, 3):
        raise SeriesFormatError(f"rank must be 2 or 3, got {rank}", offset=8)
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims", off))
    off += 4 * rank
    (n_steps,) = struct.unpack("<I", _read_exact(fh, 4, "step count", off))
    off += 4
    dtype_code, periodic_mask = struct.unpack("<BB", _read_exact(fh, 2, "dtype/periodic", off))
    off += 2
    _read_exact(fh, 2, "reserved bytes", off)
    off += 2
    spacing = struct.unpack(f"<{rank}d", _read_exact(fh, 8 * rank, "spacing", off))
    off += 8 * rank
    if dtype_code not in _DTYPES:
        raise SeriesFormatError(f"unknown dtype code {dtype_code}", offset=16 + 4 * rank)
    periodic = tuple(bool(periodic_mask >> a & 1) for a in range(rank))
    return version, dims, n_steps, dtype_code, periodic, spacing, off


def _load_raw(path: Path, expect_code: int) -> ScalarFieldSeries:
    with open(path, "rb") as fh:
        version, dims, n_steps, code, periodic, spacing, payload_off = _parse_raw_header(fh)
        if version != RAW_VERSION_SERIES:
            raise SeriesFormatError(f"unsupported series version {version}", offset=4)
        if code != expect_code:
            raise SeriesFormatError(
                f"dtype code {code} does not match the declared format (expected {expect_code})"
            )
        if n_steps < 1:
            raise SeriesFormatError("series declares zero time steps")
        try:
            domain = GridDomain(dims, spacing, periodic)
        except ValueError as e:
            raise SeriesFormatError(f"invalid domain in header: {e}") from e
        dtype = _DTYPES[code]
        n_values = domain.vertex_count * n_steps
        payload = fh.read()
    expected = n_values * dtype.itemsize
    if len(payload) != expected:
        raise SeriesFormatError(
            f"payload holds {len(payload)} bytes, header declares {expected} "
            f"({n_steps} steps x {domain.vertex_count} vertices)",
            offset=payload_off,
        )
    values = np.frombuffer(payload, dtype=dtype)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        idx = int(bad[0])
        raise SeriesFormatError(
            f"non-finite value at step {idx // domain.vertex_count}, "
            f"vertex {idx % domain.vertex_count}",
            offset=payload_off + idx * dtype.itemsize,
        )
    steps = values.reshape(n_steps, domain.vertex_count)
    return ScalarFieldSeries(domain, tuple(steps[t] for t in range(n_steps)))


def _load_csv(path: Path) -> ScalarFieldSeries:
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
    if not np.isfinite(arr).all():
        r, c = [int(x[0]) for x in np.nonzero(~np.isfinite(arr))]
        raise SeriesFormatError(f"non-finite value at row {r}, column {c}")
    domain = GridDomain(arr.shape)
    return ScalarFieldSeries(domain, (arr.reshape(-1),))


def load_series(path: str | Path, format: SeriesFormat) -> ScalarFieldSeries:
    """Load a series file in the declared format, validating the layout."""
    path = Path(path)
    if format == "raw-f32":
        return _load_raw(path, _DTYPE_F32)
    if format == "raw-f64":
        return _load_raw(path, _DTYPE_F64)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown series format {format!r}")


def _write_raw_header(fh, domain: GridDomain, n_steps: int, dtype_code: int, version: int):
    rank = domain.rank
    mask = sum(1 << a for a, p in enumerate(domain.periodic) if p)
    fh.write(RAW_MAGIC)
    fh.write(struct.pack("<II", version, rank))
    fh.write(struct.pack(f"<{rank}I", *domain.dims))
    fh.write(struct.pack("<I", n_steps))
    fh.write(struct.pack("<BBxx", dtype_code, mask))
    fh.write(struct.pack(f"<{rank}d", *domain.spacing))


class _Output(io.FileIO):
    """A file whose failed writes name it; the OS error does not."""

    def write(self, b):
        try:
            return super().write(b)
        except OSError as e:
            e.filename = str(self.name)
            raise


def open_output(path) -> io.BufferedWriter:
    """``open(path, "wb")``, whose failed writes, the flush at close's too,
    name path."""
    return io.BufferedWriter(_Output(path, "w"))


def save_series(series: ScalarFieldSeries, path: str | Path) -> None:
    """Write a series in the raw layout, keeping its value dtype."""
    code = _DTYPE_F32 if series.steps[0].dtype == np.float32 else _DTYPE_F64
    dtype = _DTYPES[code]
    with open_output(path) as fh:
        _write_raw_header(fh, series.domain, series.n_steps, code, RAW_VERSION_SERIES)
        for step in series.steps:
            fh.write(step.astype(dtype, copy=False).tobytes())


def save_labels(labels: np.ndarray, domain: GridDomain, path: str | Path) -> None:
    """Debug dump of a per-vertex label array (u32 payload variant)."""
    arr = np.asarray(labels)
    if arr.size != domain.vertex_count:
        raise ValueError("label array does not match the domain")
    with open_output(path) as fh:
        _write_raw_header(fh, domain, 1, _DTYPE_U32, RAW_VERSION_LABELS)
        fh.write(arr.astype("<u4").tobytes())


def load_labels(path: str | Path) -> tuple[np.ndarray, GridDomain]:
    with open(path, "rb") as fh:
        version, dims, n_steps, code, periodic, spacing, payload_off = _parse_raw_header(fh)
        if version != RAW_VERSION_LABELS or code != _DTYPE_U32 or n_steps != 1:
            raise SeriesFormatError("not a label dump")
        domain = GridDomain(dims, spacing, periodic)
        payload = fh.read()
    expected = domain.vertex_count * 4
    if len(payload) != expected:
        raise SeriesFormatError(
            f"payload holds {len(payload)} bytes, expected {expected}", offset=payload_off
        )
    return np.frombuffer(payload, dtype="<u4").astype(np.int32), domain


def stack_series(parts: Sequence[ScalarFieldSeries]) -> ScalarFieldSeries:
    """Concatenate single-file series (e.g. per-step CSV files) in time order."""
    if not parts:
        raise ValueError("no series to stack")
    domain = parts[0].domain
    for p in parts[1:]:
        if p.domain != domain:
            raise ValueError("all parts must share one domain")
    return ScalarFieldSeries(domain, tuple(s for p in parts for s in p.steps))

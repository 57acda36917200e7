"""Overlap and correspondence matrices between consecutive time steps.

Four strategies relate the extrema of step t to those of a neighboring
step: counting how a sampling neighborhood of each extremum (Euclidean or
combinatorial) distributes over the other step's manifolds, counting the
pairwise intersections of the manifolds themselves, or the binary baseline
that maps an extremum to the single manifold containing its vertex.

Overlap entries are exact integer counts; dividing each row by its
denominator (neighborhood size, manifold size, or 1) turns an overlap
matrix into a row-stochastic correspondence matrix.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Literal, get_args

import numpy as np

from .field import open_output, sampling_offsets, stencil_vertices
from .morse import ManifoldLabeling, _chunks, _id_dtype

Direction = Literal["forward", "backward"]
Strategy = Literal["sampling-euclidean", "sampling-combinatorial", "manifold-overlap", "binary"]
SamplingMode = Literal["euclidean", "combinatorial"]
Kind = Literal["overlap", "correspondence"]

STRATEGY_OF_MODE = {"euclidean": "sampling-euclidean", "combinatorial": "sampling-combinatorial"}


def _keys_and_counts(rows: int, cols: int, ii, jj, cc=None):
    """Ascending row-major keys ``i * cols + j`` and their counts, one per
    (i, j), of a rows x cols matrix from (i, j) entries in any order; each
    entry adds its count from cc, or 1 without cc, and repeated (i, j) sum.
    Both come back as int64.

    The entries are counted ``_chunk_size`` at a time, with int32 keys
    while rows * cols < 2**31, and the chunks' sorted runs are then merged,
    so memory grows with the distinct (i, j) plus one chunk, not with the
    entry count.
    """
    ii, jj = np.asarray(ii), np.asarray(jj)
    cc = None if cc is None else np.asarray(cc, dtype=np.int64)
    dt = _id_dtype(rows * cols)
    keys, counts = [np.empty(0, dt)], [np.empty(0, np.int64)]
    for s in _chunks(ii.size):
        i, j = ii[s], jj[s]
        if not ((i >= 0) & (i < rows) & (j >= 0) & (j < cols)).all():
            raise ValueError("entry outside the matrix")
        k = i.astype(dt)
        k *= cols
        k += j
        if cc is None:
            k.sort()
            u, at = _runs(k)
            c = np.diff(at, append=k.size)
        else:
            order = np.argsort(k)
            u, at = _runs(k[order])
            c = np.add.reduceat(cc[s][order], at)
        keys.append(u)
        counts.append(c)
    if dt == np.int32 and max(c.max(initial=0) for c in counts) < 2**32:
        # each (key, count) packed into one int64, the key in its high half,
        # so that one in-place sort merges the runs
        packed = np.empty(sum(map(len, keys)), np.int64)
        halves = packed.view(np.int32).reshape(-1, 2)
        np.concatenate(keys, out=halves[:, _HIGH])
        np.concatenate(counts, out=halves[:, 1 - _HIGH], casting="unsafe")
        del keys, counts
        packed.sort()
        u, at = _runs(halves[:, _HIGH])
        packed &= 2**32 - 1  # the counts alone
        c = np.add.reduceat(packed, at)
        del packed, halves
    else:
        k, c = np.concatenate(keys), np.concatenate(counts)
        del keys, counts
        order = np.argsort(k)
        u, at = _runs(k[order])
        c = np.add.reduceat(c[order], at)
    return u.astype(np.int64), c


# the int32 half of an int64 that holds its high bits
_HIGH = int(sys.byteorder == "little")


def _runs(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the ascending k, and where the run of each
    starts."""
    first = np.empty(k.size, bool)
    first[:1] = True
    np.not_equal(k[1:], k[:-1], out=first[1:])
    at = np.flatnonzero(first)
    return k[at], at


def _find(keys: np.ndarray, at) -> np.ndarray:
    """Position of each ``at`` in the ascending ``keys``, -1 where absent."""
    if not keys.size:
        return np.full(np.shape(at), -1, np.int64)
    k = np.minimum(np.searchsorted(keys, at), keys.size - 1)
    return np.where(keys[k] == at, k, -1)


def _ints(value, what: str) -> np.ndarray:
    """A document's integer value or list as int64; ``ValueError`` naming it
    unless every number in it is a JSON integer (no float, even if integral,
    no bool and no str)."""
    return _numbers(value, what, "i", "integers").astype(np.int64, copy=False)


def _reals(value, what: str) -> np.ndarray:
    """A document's number or list of numbers as float64; ``ValueError``
    naming it unless every value in it is a JSON number (no bool, no str)
    that a float64 holds. An integer is read as a float64 whatever its size,
    also outside int64, where numpy alone reads uint64 or object values."""
    a = np.asarray(value)
    if a.dtype.kind in "uO" and all(type(x) in (int, float) for x in _flat(value, a.ndim)):
        def real(x):
            try:
                return float(x)
            except OverflowError:
                raise ValueError(f"{what} must be numbers, got {x}, "
                                 "which does not fit in float64") from None

        return np.array([real(x) for x in _flat(value, a.ndim)], np.float64).reshape(a.shape)
    return _numbers(value, what, "if", "numbers").astype(np.float64, copy=False)


def _flat(value, ndim: int):
    """The parsed values of an ``ndim``-deep nested list, in order."""
    flat = [value]
    for _ in range(ndim):
        flat = chain.from_iterable(flat)
    return flat


def _numbers(value, what: str, kinds: str, noun: str) -> np.ndarray:
    a = np.asarray(value)
    # numpy reads true and false among numbers as 1 and 0, and an integer
    # outside int64 as uint64, float64 or object: passes over the parsed
    # values find them
    if a.ndim and bool in map(type, _flat(value, a.ndim)):
        raise ValueError(f"{what} must be {noun}, got a boolean")
    if a.size and a.dtype.kind not in kinds:
        if "f" not in kinds:  # a real-valued key reads any integer (see _reals)
            big = next((x for x in _flat(value, a.ndim)
                        if type(x) is int and not -2**63 <= x < 2**63), None)
            if big is not None:
                raise ValueError(f"{what} must be {noun}, got {big}, which does not fit in int64")
        raise ValueError(f"{what} must be {noun}, got {a.dtype} values")
    return a


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Sparse integer counts over row denominators, one ascending row-major
    key ``i * cols + j`` per stored entry; only this type packs the keys.

    ``kind`` picks what ``values`` and ``to_dense`` return: the counts of
    an overlap matrix, or the probabilities ``probs`` of a correspondence
    matrix. Feature rows may fall short of their denominator.
    """

    rows: int
    cols: int
    direction: Direction
    strategy: Strategy
    keys: np.ndarray
    counts: np.ndarray
    row_denominators: np.ndarray
    kind: Kind = "overlap"

    def __post_init__(self):
        assert self.kind in ("overlap", "correspondence")
        assert self.keys.size == self.counts.size
        assert self.row_denominators.size == self.rows
        assert (np.diff(self.keys) > 0).all(), "one entry per (i, j), row-major"
        assert not self.keys.size or 0 <= self.keys[0] <= self.keys[-1] < self.rows * self.cols
        assert (self.row_denominators > 0).all()
        assert (self.counts >= 1).all(), "zero counts must be absent"
        assert (self.counts <= self.row_denominators[self.i]).all()
        for a in (self.keys, self.counts, self.row_denominators):
            a.flags.writeable = False

    @property
    def i(self) -> np.ndarray:
        """Row of every stored entry."""
        return self.keys // max(self.cols, 1)

    @property
    def j(self) -> np.ndarray:
        """Column of every stored entry."""
        return self.keys % max(self.cols, 1)

    def key(self, i, j) -> np.ndarray:
        """Row-major key of each (i, j) of this shape."""
        return np.asarray(i, np.int64) * self.cols + j

    def unkey(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) of each row-major key of this shape."""
        return np.divmod(keys, max(self.cols, 1))

    @cached_property
    def probs(self) -> np.ndarray:
        # derived on first use, so an overlap and its normalized twin
        # never both hold a copy
        probs = self.counts / self.row_denominators[self.i]
        probs.flags.writeable = False
        return probs

    def probs_at(self, keys) -> np.ndarray:
        """The probability at each row-major key, NaN where no entry is stored."""
        return np.append(self.probs, np.nan)[_find(self.keys, keys)]  # -1 reads the NaN

    @property
    def values(self) -> np.ndarray:
        """Stored values of this kind: probabilities or counts."""
        return self.probs if self.kind == "correspondence" else self.counts

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=self.values.dtype)
        out[self.i, self.j] = self.values
        return out

    def row_sums(self) -> np.ndarray:
        """Summed counts per row."""
        out = np.zeros(self.rows, dtype=np.int64)
        np.add.at(out, self.i, self.counts)
        return out

    def transpose(self, row_denominators) -> "OverlapMatrix":
        direction = "backward" if self.direction == "forward" else "forward"
        # int32 rows and columns where they fit: half the counter's input
        i, j = (a.astype(_id_dtype(max(self.rows, self.cols))) for a in self.unkey(self.keys))
        return OverlapMatrix(
            self.cols, self.rows, direction, self.strategy,
            *_keys_and_counts(self.cols, self.rows, j, i, self.counts),
            np.asarray(row_denominators, dtype=np.int64), self.kind,
        )


def _complete_rows(m: OverlapMatrix) -> OverlapMatrix:
    """``m``, after checking that every row accounts for its whole
    denominator: balls are fully labeled and manifolds partition the
    domain, so extremum-level rows always do."""
    assert (m.row_sums() == m.row_denominators).all()
    return m


def _check_pair(a: ManifoldLabeling, b: ManifoldLabeling):
    if a.domain != b.domain:
        raise ValueError("labelings live on different domains")
    if a.extrema.kind != b.extrema.kind:
        raise ValueError(f"labelings track different kinds ({a.extrema.kind} vs {b.extrema.kind})")


def sampling_overlap(
    labeling_t: ManifoldLabeling,
    labeling_other: ManifoldLabeling,
    mode: SamplingMode,
    d: float,
    direction: Direction,
    lattice_units: bool = False,
) -> OverlapMatrix:
    """Count how each extremum's neighborhood spreads over the other
    step's manifolds; the row denominator is the neighborhood size. The
    stencil lives on the domain the two labelings share.

    Every neighborhood is one offset stencil translated to its extremum,
    gathered for a block of extrema at a time; a block holds about V
    (extremum, offset) pairs, so its temporaries stay O(V).
    """
    _check_pair(labeling_t, labeling_other)
    domain = labeling_t.domain
    n, cols = labeling_t.n_extrema, labeling_other.n_extrema
    offsets = sampling_offsets(domain, mode, d, lattice_units)
    centers = labeling_t.extrema.vertex
    step = max(1, domain.vertex_count // offsets.shape[0])
    keys, counts, denom = [], [], []
    for lo in range(0, n, step):
        ids, inside = stencil_vertices(domain, offsets, centers[lo:lo + step])
        size = inside.sum(axis=1)
        rows = np.repeat(np.arange(size.size), size)  # relative to the block
        k, c = _keys_and_counts(size.size, cols, rows, labeling_other.label[ids[inside]])
        keys.append(k + lo * cols)
        counts.append(c)
        denom.append(size)
    # blocks cover ascending row ranges, so their keys ascend overall
    return _complete_rows(OverlapMatrix(
        n, cols, direction, STRATEGY_OF_MODE[mode], np.concatenate(keys),
        np.concatenate(counts), np.concatenate(denom),
    ))


def manifold_overlap(
    labeling_t: ManifoldLabeling, labeling_next: ManifoldLabeling
) -> tuple[OverlapMatrix, OverlapMatrix]:
    """Pairwise manifold intersection sizes for steps t and t+1.

    Returns the forward matrix at t and the backward matrix at t+1; the
    backward matrix is the exact transpose. Parameter-free and global: one
    chunked pass over the vertices counts every joint label pair that
    occurs, so beyond the two labelings memory grows with the stored
    entries plus one chunk of vertices, not with n_t * n_n.
    """
    _check_pair(labeling_t, labeling_next)
    n_t, n_n = labeling_t.n_extrema, labeling_next.n_extrema
    forward = _complete_rows(OverlapMatrix(
        n_t, n_n, "forward", "manifold-overlap",
        *_keys_and_counts(n_t, n_n, labeling_t.label, labeling_next.label),
        labeling_t.sizes,
    ))
    return forward, _complete_rows(forward.transpose(labeling_next.sizes))


def binary_correspondence(
    labeling_t: ManifoldLabeling, labeling_other: ManifoldLabeling, direction: Direction
) -> OverlapMatrix:
    """One-to-one baseline: an extremum maps with probability 1 to the
    manifold of the other step that contains its vertex."""
    _check_pair(labeling_t, labeling_other)
    n, cols = labeling_t.n_extrema, labeling_other.n_extrema
    keys = np.arange(n, dtype=np.int64) * cols + labeling_other.label[labeling_t.extrema.vertex]
    one = np.ones(n, dtype=np.int64)
    return _complete_rows(OverlapMatrix(n, cols, direction, "binary", keys, one, one,
                                        "correspondence"))


def normalize(o: OverlapMatrix) -> OverlapMatrix:
    """Read each row divided by its denominator; shares o's arrays."""
    return replace(o, kind="correspondence")


def doc_to_matrix(doc: dict) -> tuple[OverlapMatrix, int]:
    """The matrix of a document read from outside; every invariant of the
    type, integral shapes, steps, denominators and entries included, is
    checked with a ``ValueError``, so ``python -O`` loads no malformed
    document either."""
    for key, names in (("kind", get_args(Kind)), ("direction", get_args(Direction)),
                       ("strategy", get_args(Strategy))):
        if doc[key] not in names:
            raise ValueError(f"unknown matrix {key} {doc[key]!r}")
    rows, cols = (int(_ints(doc[key], repr(key))) for key in ("rows", "cols"))
    if rows < 0 or cols < 0:
        raise ValueError(f"negative shape {rows} x {cols}")
    if rows * cols >= 2**63:  # every key i * cols + j must fit in int64
        raise ValueError(f"shape {rows} x {cols} has more cells than int64 keys can index")
    denom = _ints(doc["denominators"], "'denominators'").reshape(-1)
    if denom.size != rows:
        raise ValueError(f"{denom.size} denominators for {rows} rows")
    if (denom < 1).any():
        raise ValueError("denominators must be positive")
    ii, jj, cc = _ints(doc["entries"], "'entries'").reshape(-1, 3).T
    if (cc < 1).any():
        raise ValueError("entry counts must be at least 1")
    keys, counts = _keys_and_counts(rows, cols, ii, jj, cc)
    if (counts > denom[keys // max(cols, 1)]).any():
        raise ValueError("an entry count exceeds its row denominator")
    t = int(_ints(doc["t"], "'t'"))
    if t < 0:
        raise ValueError(f"negative step t={t}")
    return OverlapMatrix(rows, cols, doc["direction"], doc["strategy"],
                         keys, counts, denom, doc["kind"]), t


# Rows per block of the artifact writers: it bounds the temporaries the
# writers hold at once, however long the document.
_BLOCK = 8192
_SLOT = re.compile(r"%[ds]")


def _digits(v: np.ndarray) -> np.ndarray:
    """Decimal ASCII of each integer, one row per value of a NUL-padded
    uint8 matrix; a leading sign column exists only when a value is negative."""
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # |v| in uint64, also for the int64 minimum
    top = int(mag.max())
    if top < 2**32:
        mag = mag.astype(np.uint32)
    sign = int(neg.any())
    out = np.empty((v.size, sign + len(str(top))), np.uint8)
    if sign:
        out[:, 0] = np.where(neg, ord("-"), 0)
    last = out.shape[1] - 1
    for k in range(last, sign - 1, -1):
        rest, d = np.divmod(mag, 10)
        d += ord("0")
        if k < last:
            d[mag == 0] = 0  # a leading zero
        out[:, k] = d
        mag = rest
    return out


def _texts(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt(x)`` of each value, one row per value of a NUL-padded uint8
    matrix; fmt is called once per distinct value (per bit pattern for
    floats, so -0.0 and 0.0 stay apart)."""
    floats = values.dtype.kind == "f"
    distinct, inverse = np.unique(values.view(np.int64) if floats else values,
                                  return_inverse=True)
    if floats:
        distinct = distinct.view(np.float64)
    table = np.array(list(map(fmt, distinct.tolist())), dtype=bytes)
    return table[inverse].view(np.uint8).reshape(inverse.size, table.itemsize)


def _rows(template: str, sep: str, columns, lo: int, hi: int):
    """Rows lo..hi-1 of ``template`` joined by sep, as ASCII bytes, one
    chunk per block of at most ``_BLOCK`` rows.

    Slot k of the template takes row i of column k: a ``%d`` slot an
    integer array, or a function ``f(a, b)`` giving rows a..b-1 of one, and
    a ``%s`` slot a (values, fmt) pair spelled by ``_texts``. Each block
    tiles a skeleton row whose slots are NUL, copies the cells into the
    slots and drops the NUL padding.
    """
    pieces = [p.encode("ascii") for p in _SLOT.split(template)]
    pieces[-1] += sep.encode("ascii")
    for a in range(lo, hi, _BLOCK):
        b = min(a + _BLOCK, hi)
        cells = [_texts(c[0][a:b], c[1]) if isinstance(c, tuple)
                 else _digits(c(a, b) if callable(c) else c[a:b]) for c in columns]
        skeleton = b"".join(p + bytes(c.shape[1]) for p, c in zip(pieces, cells)) + pieces[-1]
        block = np.tile(np.frombuffer(skeleton, np.uint8), (b - a, 1))
        at = 0
        for p, c in zip(pieces, cells):
            at += len(p)
            block[:, at:at + c.shape[1]] = c
            at += c.shape[1]
        chunk = block.tobytes().translate(None, b"\0")
        yield chunk[:len(chunk) - len(sep)] if b == hi else chunk


def _json_list(template: str, columns, n: int):
    """Chunks of a JSON list laid out as ``json.dumps(indent=2)`` lays out a
    value of the top-level object; item k is ``template`` filled with row k."""
    if not n:
        yield b"[]"
        return
    yield b"[\n    "
    yield from _rows(template, ",\n    ", columns, 0, n)
    yield b"\n  ]"


def save_matrix(m, t: int, path, twin=None) -> None:
    """Write m at step t as one JSON document, laid out as ``json.dumps(doc,
    sort_keys=True, indent=2)`` lays it out, straight from the entry arrays,
    in ASCII chunks. The document holds ``t``, ``kind``, ``direction``,
    ``strategy``, ``rows``, ``cols``, the row ``denominators`` and the
    ``entries`` as ``[i, j, count]`` rows; integer counts keep the
    normalization reproducible, and ``doc_to_matrix`` reads it back.

    With ``twin``, the overlap m's normalized twin, whose document differs
    only in "kind", goes there in the same pass: each block is formatted
    once and written to both files, and none is kept after its write.
    """
    assert twin is None or m.kind == "overlap"
    docs = [(path, m.kind)] + ([] if twin is None else [(twin, "correspondence")])
    # each block's rows and columns come from its own keys
    entries = [lambda a, b: m.unkey(m.keys[a:b])[0], lambda a, b: m.unkey(m.keys[a:b])[1],
               m.counts]
    with ExitStack() as stack:
        files = [stack.enter_context(open_output(p)) for p, _ in docs]

        def write(chunks):
            for chunk in chunks:
                for fh in files:
                    fh.write(chunk)

        write([f'{{\n  "cols": {int(m.cols)},\n  "denominators": '.encode()])
        write(_json_list("%d", [m.row_denominators], m.rows))
        write([f',\n  "direction": {json.dumps(m.direction)},\n  "entries": '.encode()])
        write(_json_list("[\n      %d,\n      %d,\n      %d\n    ]", entries, m.counts.size))
        for fh, (_, kind) in zip(files, docs):
            fh.write(f',\n  "kind": "{kind}",\n  "rows": {int(m.rows)},'
                     f'\n  "strategy": {json.dumps(m.strategy)},\n  "t": {int(t)}\n}}\n'.encode())

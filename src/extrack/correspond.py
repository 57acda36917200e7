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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .field import GridDomain, euclidean_ball, neighbor_table
from .morse import Extremum, ManifoldLabeling

Direction = Literal["forward", "backward"]
Strategy = Literal["sampling-euclidean", "sampling-combinatorial", "manifold-overlap", "binary"]
SamplingMode = Literal["euclidean", "combinatorial"]

STRATEGY_OF_MODE = {"euclidean": "sampling-euclidean", "combinatorial": "sampling-combinatorial"}


def _csr_from_entries(rows: int, ii, jj, cc):
    """Sort (i, j, count) triples into CSR arrays."""
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    cc = np.asarray(cc, dtype=np.int64)
    order = np.lexsort((jj, ii))
    ii, jj, cc = ii[order], jj[order], cc[order]
    return _indptr(rows, ii), jj, cc


def _indptr(rows: int, row_of: np.ndarray) -> np.ndarray:
    """CSR row pointers for entries whose sorted row ids are ``row_of``."""
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=rows), out=indptr[1:])
    return indptr


def _row_of(m) -> np.ndarray:
    """Row id of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(m.rows), np.diff(m.indptr))


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Sparse integer matrix of shared-vertex counts, row-compressed."""

    rows: int
    cols: int
    direction: Direction
    strategy: Strategy
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    row_denominators: np.ndarray

    def __post_init__(self):
        assert self.indptr.size == self.rows + 1
        assert self.indices.size == self.counts.size == self.indptr[-1]
        assert (self.counts >= 1).all(), "zero counts must be absent"
        assert (self.row_denominators > 0).all()
        csum = np.concatenate(([0], np.cumsum(self.counts)))
        self._validate_row_sums(csum[self.indptr[1:]] - csum[self.indptr[:-1]])
        for a in (self.indptr, self.indices, self.counts, self.row_denominators):
            a.flags.writeable = False

    def _validate_row_sums(self, row_sums: np.ndarray) -> None:
        # balls are fully labeled and manifolds partition the domain, so
        # extremum-level rows always account for their whole denominator
        assert (row_sums == self.row_denominators).all()

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(self.indptr[i], self.indptr[i + 1])
        return self.indices[sl], self.counts[sl]

    def entry(self, i: int, j: int) -> int:
        jj, cc = self.row(i)
        k = np.searchsorted(jj, j)
        if k < jj.size and jj[k] == j:
            return int(cc[k])
        return 0

    def items(self):
        for i in range(self.rows):
            jj, cc = self.row(i)
            for j, c in zip(jj, cc):
                yield int(i), int(j), int(c)

    def support(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.items()}

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        for i, j, c in self.items():
            out[i, j] = c
        return out

    def transpose(self, row_denominators) -> "OverlapMatrix":
        indptr, indices, counts = _csr_from_entries(self.cols, self.indices, _row_of(self),
                                                    self.counts)
        direction = "backward" if self.direction == "forward" else "forward"
        return type(self)(
            self.cols, self.rows, direction, self.strategy, indptr, indices, counts,
            np.asarray(row_denominators, dtype=np.int64),
        )


@dataclass(frozen=True, eq=False)
class CorrespondenceMatrix:
    """Row-normalized overlap: entry (i, j) is a probability in (0, 1]."""

    rows: int
    cols: int
    direction: Direction
    strategy: Strategy
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    row_denominators: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        assert self.indptr.size == self.rows + 1
        assert self.indices.size == self.counts.size == self.probs.size == self.indptr[-1]
        assert ((self.probs > 0) & (self.probs <= 1)).all()
        for a in (self.indptr, self.indices, self.counts, self.row_denominators, self.probs):
            a.flags.writeable = False

    row = OverlapMatrix.row
    support = OverlapMatrix.support

    def items(self):
        for i in range(self.rows):
            sl = slice(self.indptr[i], self.indptr[i + 1])
            for j, p in zip(self.indices[sl], self.probs[sl]):
                yield int(i), int(j), float(p)

    def prob(self, i: int, j: int) -> float:
        jj = self.indices[self.indptr[i]:self.indptr[i + 1]]
        pp = self.probs[self.indptr[i]:self.indptr[i + 1]]
        k = np.searchsorted(jj, j)
        if k < jj.size and jj[k] == j:
            return float(pp[k])
        return 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for i, j, p in self.items():
            out[i, j] = p
        return out


def _check_pair(a: ManifoldLabeling, b: ManifoldLabeling):
    if a.domain != b.domain:
        raise ValueError("labelings live on different domains")
    if a.kind != b.kind:
        raise ValueError(f"labelings track different kinds ({a.kind} vs {b.kind})")


def sampling_neighborhood(
    m: Extremum,
    domain: GridDomain,
    mode: SamplingMode,
    d: float,
    lattice_units: bool = False,
) -> np.ndarray:
    """Vertex set within distance d of an extremum, sorted by id.

    Euclidean mode measures world distance (or plain lattice distance when
    ``lattice_units`` is set); combinatorial mode takes floor(d) hops of
    breadth-first search over the grid triangulation.
    """
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    if mode == "euclidean":
        dom = GridDomain(domain.dims, None, domain.periodic) if lattice_units else domain
        return euclidean_ball(dom, m.vertex, d)
    if mode == "combinatorial":
        depth = math.floor(d)
        nbr, valid = neighbor_table(domain)
        inside = np.zeros(domain.vertex_count, dtype=bool)
        inside[m.vertex] = True
        frontier = np.array([m.vertex])
        for _ in range(depth):
            step = np.unique(nbr[frontier][valid[frontier]])
            frontier = step[~inside[step]]
            if frontier.size == 0:
                break
            inside[frontier] = True
        return np.flatnonzero(inside)
    raise ValueError(f"unknown sampling mode {mode!r}")


def sampling_overlap(
    labeling_t: ManifoldLabeling,
    labeling_other: ManifoldLabeling,
    domain: GridDomain,
    mode: SamplingMode,
    d: float,
    direction: Direction,
    lattice_units: bool = False,
) -> OverlapMatrix:
    """Count how each extremum's neighborhood spreads over the other
    step's manifolds; the row denominator is the neighborhood size."""
    _check_pair(labeling_t, labeling_other)
    if domain != labeling_t.domain:
        raise ValueError("domain does not match the labelings")
    ii, jj, cc = [], [], []
    denom = np.empty(labeling_t.n_extrema, dtype=np.int64)
    for m in labeling_t.extrema:
        ball = sampling_neighborhood(m, domain, mode, d, lattice_units)
        denom[m.id] = ball.size
        labels, counts = np.unique(labeling_other.label[ball], return_counts=True)
        ii.extend([m.id] * labels.size)
        jj.extend(labels.tolist())
        cc.extend(counts.tolist())
    indptr, indices, counts = _csr_from_entries(labeling_t.n_extrema, ii, jj, cc)
    return OverlapMatrix(
        labeling_t.n_extrema, labeling_other.n_extrema, direction, STRATEGY_OF_MODE[mode],
        indptr, indices, counts, denom,
    )


def manifold_overlap(
    labeling_t: ManifoldLabeling, labeling_next: ManifoldLabeling
) -> tuple[OverlapMatrix, OverlapMatrix]:
    """Pairwise manifold intersection sizes for steps t and t+1.

    Returns the forward matrix at t and the backward matrix at t+1; the
    backward matrix is the exact transpose. Parameter-free and global: one
    pass over the vertices counts every joint label pair that occurs, so
    memory grows with the vertex count, not with n_t * n_n.
    """
    _check_pair(labeling_t, labeling_next)
    n_t, n_n = labeling_t.n_extrema, labeling_next.n_extrema
    joint = labeling_t.label.astype(np.int64) * n_n + labeling_next.label
    keys, counts = np.unique(joint, return_counts=True)
    # sorted row-major keys are already in CSR order
    ii, indices = np.divmod(keys, n_n)
    forward = OverlapMatrix(
        n_t, n_n, "forward", "manifold-overlap", _indptr(n_t, ii), indices, counts,
        labeling_t.sizes.astype(np.int64),
    )
    backward = forward.transpose(labeling_next.sizes.astype(np.int64))
    return forward, backward


def binary_correspondence(
    labeling_t: ManifoldLabeling, labeling_other: ManifoldLabeling, direction: Direction
) -> CorrespondenceMatrix:
    """One-to-one baseline: an extremum maps with probability 1 to the
    manifold of the other step that contains its vertex."""
    _check_pair(labeling_t, labeling_other)
    n = labeling_t.n_extrema
    jj = [int(labeling_other.label[m.vertex]) for m in labeling_t.extrema]
    indptr, indices, counts = _csr_from_entries(n, np.arange(n), jj, np.ones(n, dtype=np.int64))
    return CorrespondenceMatrix(
        n, labeling_other.n_extrema, direction, "binary", indptr, indices, counts,
        np.ones(n, dtype=np.int64), np.ones(n, dtype=np.float64),
    )


def normalize(o: OverlapMatrix) -> CorrespondenceMatrix:
    """Divide each row by its denominator; sparsity is preserved."""
    probs = o.counts / o.row_denominators[_row_of(o)]
    return CorrespondenceMatrix(
        o.rows, o.cols, o.direction, o.strategy,
        o.indptr, o.indices, o.counts, o.row_denominators, probs,
    )


def matrix_to_doc(m: OverlapMatrix | CorrespondenceMatrix, t: int) -> dict:
    """JSON document for either matrix kind; stores integer counts so the
    normalization stays reproducible."""
    return {
        "t": int(t),
        "kind": "correspondence" if isinstance(m, CorrespondenceMatrix) else "overlap",
        "direction": m.direction,
        "strategy": m.strategy,
        "rows": int(m.rows),
        "cols": int(m.cols),
        "denominators": m.row_denominators.tolist(),
        "entries": [list(e) for e in zip(_row_of(m).tolist(), m.indices.tolist(),
                                         m.counts.tolist())],
    }


def doc_to_matrix(doc: dict) -> tuple[OverlapMatrix | CorrespondenceMatrix, int]:
    rows, cols = int(doc["rows"]), int(doc["cols"])
    entries = doc["entries"]
    ii = [e[0] for e in entries]
    jj = [e[1] for e in entries]
    cc = [e[2] for e in entries]
    indptr, indices, counts = _csr_from_entries(rows, ii, jj, cc)
    denom = np.asarray(doc["denominators"], dtype=np.int64)
    o = OverlapMatrix(rows, cols, doc["direction"], doc["strategy"], indptr, indices, counts, denom)
    if doc["kind"] == "correspondence":
        return normalize(o), int(doc["t"])
    return o, int(doc["t"])


def _fill(template: str, sep: str, columns) -> str:
    """``template % row`` for each row of the columns, joined by sep, in
    one formatting call."""
    cells = np.empty((len(columns[0]), len(columns)), dtype=object)
    for k, c in enumerate(columns):
        cells[:, k] = c
    return sep.join([template] * cells.shape[0]) % tuple(cells.ravel().tolist())


def _json_list(template: str, columns, depth: int) -> str:
    """A JSON list laid out as ``json.dumps(indent=2)`` lays out a list at
    this nesting depth; item k is ``template`` filled with row k."""
    if not len(columns[0]):
        return "[]"
    pad = "  " * (depth + 1)
    return "[\n" + pad + _fill(template, ",\n" + pad, columns) + "\n" + "  " * depth + "]"


def save_matrix(m, t: int, path) -> None:
    """Write ``matrix_to_doc(m, t)`` as ``json.dumps(doc, sort_keys=True,
    indent=2)`` would, straight from the CSR arrays."""
    entries = _json_list("[\n      %d,\n      %d,\n      %d\n    ]",
                         [_row_of(m), m.indices, m.counts], 1)
    kind = "correspondence" if isinstance(m, CorrespondenceMatrix) else "overlap"
    text = (
        f'{{\n  "cols": {int(m.cols)},'
        f'\n  "denominators": {_json_list("%d", [m.row_denominators], 1)},'
        f'\n  "direction": {json.dumps(m.direction)},\n  "entries": {entries},'
        f'\n  "kind": "{kind}",\n  "rows": {int(m.rows)},'
        f'\n  "strategy": {json.dumps(m.strategy)},\n  "t": {int(t)}\n}}\n'
    )
    Path(path).write_text(text, encoding="utf-8")


def load_matrix(path) -> tuple[OverlapMatrix | CorrespondenceMatrix, int]:
    return doc_to_matrix(json.loads(Path(path).read_text(encoding="utf-8")))

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
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Literal

import numpy as np

from .field import GridDomain, sampling_offsets, stencil_vertices
from .morse import Extremum, ManifoldLabeling

Direction = Literal["forward", "backward"]
Strategy = Literal["sampling-euclidean", "sampling-combinatorial", "manifold-overlap", "binary"]
SamplingMode = Literal["euclidean", "combinatorial"]
Kind = Literal["overlap", "correspondence"]

STRATEGY_OF_MODE = {"euclidean": "sampling-euclidean", "combinatorial": "sampling-combinatorial"}


def _csr(rows: int, cols: int, ii, jj, cc=None):
    """CSR arrays (indptr, indices, counts) of a rows x cols matrix from
    (i, j) entries in any order; each entry adds its count from cc, or 1
    without cc, and repeated (i, j) keys sum."""
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    if not ((ii >= 0) & (ii < rows) & (jj >= 0) & (jj < cols)).all():
        raise ValueError("entry outside the matrix")
    keys = ii * cols + jj
    if cc is None:
        keys, counts = np.unique(keys, return_counts=True)
    else:
        keys, inv = np.unique(keys, return_inverse=True)
        counts = np.zeros(keys.size, dtype=np.int64)
        np.add.at(counts, inv, np.asarray(cc, dtype=np.int64))
    # sorted row-major keys are already in CSR order
    indptr = np.searchsorted(keys, np.arange(rows + 1, dtype=np.int64) * cols)
    return indptr, keys % max(cols, 1), counts


def _row_of(m) -> np.ndarray:
    """Row id of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(m.rows), np.diff(m.indptr))


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Sparse integer counts over row denominators, row-compressed.

    ``kind`` picks what ``items`` and ``to_dense`` return: the counts of an
    overlap matrix, or the probabilities ``probs`` of a correspondence
    matrix. Feature rows may fall short of their denominator.
    """

    rows: int
    cols: int
    direction: Direction
    strategy: Strategy
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    row_denominators: np.ndarray
    kind: Kind = "overlap"

    def __post_init__(self):
        assert self.kind in ("overlap", "correspondence")
        assert self.indptr.size == self.rows + 1 and self.indptr[0] == 0
        assert self.indices.size == self.counts.size == self.indptr[-1]
        assert self.row_denominators.size == self.rows
        assert ((self.indices >= 0) & (self.indices < self.cols)).all()
        assert (self.row_denominators > 0).all()
        assert (self.counts >= 1).all(), "zero counts must be absent"
        assert (self.counts <= self.row_denominators[_row_of(self)]).all()
        for a in (self.indptr, self.indices, self.counts, self.row_denominators):
            a.flags.writeable = False

    @cached_property
    def probs(self) -> np.ndarray:
        # derived on first use, so an overlap and its normalized twin
        # never both hold a copy
        probs = self.counts / self.row_denominators[_row_of(self)]
        probs.flags.writeable = False
        return probs

    @property
    def values(self) -> np.ndarray:
        """Stored values of this kind: probabilities or counts."""
        return self.probs if self.kind == "correspondence" else self.counts

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(self.indptr[i], self.indptr[i + 1])
        return self.indices[sl], self.counts[sl]

    def _at(self, i: int, j: int, values: np.ndarray, absent):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = lo + np.searchsorted(self.indices[lo:hi], j)
        return values[k] if k < hi and self.indices[k] == j else absent

    def entry(self, i: int, j: int) -> int:
        return int(self._at(i, j, self.counts, 0))

    def prob(self, i: int, j: int) -> float:
        return float(self._at(i, j, self.probs, 0.0))

    def items(self):
        return zip(_row_of(self).tolist(), self.indices.tolist(), self.values.tolist())

    def support(self) -> set[tuple[int, int]]:
        return set(zip(_row_of(self).tolist(), self.indices.tolist()))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=self.values.dtype)
        out[_row_of(self), self.indices] = self.values
        return out

    def row_sums(self) -> np.ndarray:
        """Summed counts per row."""
        csum = np.concatenate(([0], np.cumsum(self.counts)))
        return csum[self.indptr[1:]] - csum[self.indptr[:-1]]

    def unassigned_mass(self) -> np.ndarray:
        """Per-row share of the denominator that no stored entry accounts
        for, e.g. mass pointing outside the other step's features."""
        return (self.row_denominators - self.row_sums()) / self.row_denominators

    def transpose(self, row_denominators) -> "OverlapMatrix":
        direction = "backward" if self.direction == "forward" else "forward"
        return OverlapMatrix(
            self.cols, self.rows, direction, self.strategy,
            *_csr(self.cols, self.rows, self.indices, _row_of(self), self.counts),
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
    ``lattice_units`` is set); combinatorial mode takes floor(d) hops over
    the grid triangulation. One neighborhood of the offset stencil that
    ``sampling_overlap`` applies to every extremum at once; the library
    itself does not call it.
    """
    offsets = sampling_offsets(domain, mode, d, lattice_units)
    ids, inside = stencil_vertices(domain, offsets, [m.vertex])
    return np.sort(ids[inside])


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
    step's manifolds; the row denominator is the neighborhood size.

    Every neighborhood is one offset stencil translated to its extremum,
    gathered for a block of extrema at a time; a block holds about V
    (extremum, offset) pairs, so its temporaries stay O(V).
    """
    _check_pair(labeling_t, labeling_other)
    if domain != labeling_t.domain:
        raise ValueError("domain does not match the labelings")
    n, cols = labeling_t.n_extrema, labeling_other.n_extrema
    offsets = sampling_offsets(domain, mode, d, lattice_units)
    centers = labeling_t.extrema.vertex
    step = max(1, domain.vertex_count // offsets.shape[0])
    keys, counts, denom = [], [], []
    for lo in range(0, n, step):
        ids, inside = stencil_vertices(domain, offsets, centers[lo:lo + step])
        size = inside.sum(axis=1)
        rows = np.repeat(np.arange(lo, lo + size.size), size)
        k, c = np.unique(rows * cols + labeling_other.label[ids[inside]], return_counts=True)
        keys.append(k)
        counts.append(c)
        denom.append(size)
    keys = np.concatenate(keys)
    return _complete_rows(OverlapMatrix(
        n, cols, direction, STRATEGY_OF_MODE[mode],
        *_csr(n, cols, keys // cols, keys % cols, np.concatenate(counts)),
        np.concatenate(denom),
    ))


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
    forward = _complete_rows(OverlapMatrix(
        n_t, n_n, "forward", "manifold-overlap",
        *_csr(n_t, n_n, labeling_t.label, labeling_next.label),
        labeling_t.sizes.astype(np.int64),
    ))
    return forward, _complete_rows(forward.transpose(labeling_next.sizes.astype(np.int64)))


def binary_correspondence(
    labeling_t: ManifoldLabeling, labeling_other: ManifoldLabeling, direction: Direction
) -> OverlapMatrix:
    """One-to-one baseline: an extremum maps with probability 1 to the
    manifold of the other step that contains its vertex."""
    _check_pair(labeling_t, labeling_other)
    n, cols = labeling_t.n_extrema, labeling_other.n_extrema
    jj = labeling_other.label[labeling_t.extrema.vertex]
    return _complete_rows(OverlapMatrix(
        n, cols, direction, "binary", *_csr(n, cols, np.arange(n), jj),
        np.ones(n, dtype=np.int64), "correspondence",
    ))


def normalize(o: OverlapMatrix) -> OverlapMatrix:
    """Read each row divided by its denominator; shares o's arrays."""
    return replace(o, kind="correspondence")


def matrix_to_doc(m: OverlapMatrix, t: int) -> dict:
    """JSON document for either matrix kind; stores integer counts so the
    normalization stays reproducible."""
    return {
        "t": int(t),
        "kind": m.kind,
        "direction": m.direction,
        "strategy": m.strategy,
        "rows": int(m.rows),
        "cols": int(m.cols),
        "denominators": m.row_denominators.tolist(),
        "entries": [list(e) for e in zip(_row_of(m).tolist(), m.indices.tolist(),
                                         m.counts.tolist())],
    }


def doc_to_matrix(doc: dict) -> tuple[OverlapMatrix, int]:
    """The matrix of a document read from outside; every invariant of the
    type is checked with a ``ValueError``, so ``python -O`` loads no
    malformed document either."""
    if doc["kind"] not in ("overlap", "correspondence"):
        raise ValueError(f"unknown matrix kind {doc['kind']!r}")
    if doc["direction"] not in ("forward", "backward"):
        raise ValueError(f"unknown direction {doc['direction']!r}")
    rows, cols = int(doc["rows"]), int(doc["cols"])
    if rows < 0 or cols < 0:
        raise ValueError(f"negative shape {rows} x {cols}")
    denom = np.asarray(doc["denominators"], dtype=np.int64).reshape(-1)
    if denom.size != rows:
        raise ValueError(f"{denom.size} denominators for {rows} rows")
    if (denom < 1).any():
        raise ValueError("denominators must be positive")
    ii, jj, cc = np.asarray(doc["entries"], dtype=np.int64).reshape(-1, 3).T
    if (cc < 1).any():
        raise ValueError("entry counts must be at least 1")
    indptr, indices, counts = _csr(rows, cols, ii, jj, cc)
    if (counts > np.repeat(denom, np.diff(indptr))).any():
        raise ValueError("an entry count exceeds its row denominator")
    m = OverlapMatrix(rows, cols, doc["direction"], doc["strategy"],
                      indptr, indices, counts, denom, doc["kind"])
    return m, int(doc["t"])


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


# The arrays and text of the last body ``save_matrix`` formatted. An overlap
# and its normalized twin share their arrays and differ only in "kind", so
# the second file reuses the text; the arrays are read-only, so the same
# objects mean the same body.
_last_body: tuple = (None, None, None, None, None)


def _body(m) -> tuple[str, str]:
    """The denominators and entries lists of m's document as text."""
    global _last_body
    arrays = (m.indptr, m.indices, m.counts, m.row_denominators)
    if all(a is b for a, b in zip(arrays, _last_body)):
        return _last_body[4]
    text = (_json_list("%d", [m.row_denominators], 1),
            _json_list("[\n      %d,\n      %d,\n      %d\n    ]",
                       [_row_of(m), m.indices, m.counts], 1))
    _last_body = (*arrays, text)
    return text


def save_matrix(m, t: int, path) -> None:
    """Write ``matrix_to_doc(m, t)`` as ``json.dumps(doc, sort_keys=True,
    indent=2)`` would, straight from the CSR arrays."""
    denominators, entries = _body(m)
    text = (
        f'{{\n  "cols": {int(m.cols)},'
        f'\n  "denominators": {denominators},'
        f'\n  "direction": {json.dumps(m.direction)},\n  "entries": {entries},'
        f'\n  "kind": "{m.kind}",\n  "rows": {int(m.rows)},'
        f'\n  "strategy": {json.dumps(m.strategy)},\n  "t": {int(t)}\n}}\n'
    )
    Path(path).write_text(text, encoding="utf-8")


def load_matrix(path) -> tuple[OverlapMatrix, int]:
    return doc_to_matrix(json.loads(Path(path).read_text(encoding="utf-8")))

"""Extrema extraction, manifold labeling, and persistence simplification.

One time step at a time: find the minima (or maxima) of a scalar field on a
grid domain, assign every vertex to its extremum by discrete steepest
descent, and optionally cancel low-persistence extrema by relabeling their
basin into the merge partner's basin.

Ties are broken by vertex index everywhere (simulation of simplicity), so
flat plateaus resolve deterministically. Maxima reuse the minima path on
the negated field.

Both descent and the merge sweep walk the grid one Freudenthal offset at a
time through ``field.offset_slices``, so labeling needs O(V) memory and no
(V, K) neighbor table. Persistence follows the elder rule (Edelsbrunner,
Letscher and Zomorodian, 2002) over a union-find of basins that sees only
the lowest saddle edge of each pair of adjacent basins: any later edge
between the same two basins joins components already joined, as in
Kruskal's algorithm. Edges that share a saddle vertex keep their order in
the full edge enumeration, because that order decides which basin a
younger extremum merges into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .field import GridDomain, offset_slices

ExtremumKind = Literal["minimum", "maximum"]
ManifoldKind = Literal["ascending", "descending"]

_MANIFOLD_OF = {"minimum": "ascending", "maximum": "descending"}


class TotalOrder:
    """Strict total order on vertices: lexicographic (value, vertex id)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64).reshape(-1)

    def less(self, u: int, v: int) -> bool:
        return (self.values[u], u) < (self.values[v], v)

    def ascending(self) -> np.ndarray:
        """All vertex ids sorted ascending under the order."""
        return np.argsort(self.values, kind="stable")


@dataclass(frozen=True)
class Extremum:
    id: int
    vertex: int
    value: float
    persistence: float
    kind: ExtremumKind


@dataclass(frozen=True, eq=False)
class ManifoldLabeling:
    """Partition of the domain's vertices into extremum basins.

    ``label[v]`` is the dense id of the extremum whose manifold contains
    vertex v; ``sizes[i]`` counts the vertices labeled i. The private
    arrays record, per extremum, the merge saddle and the extremum it
    merges into (-1 for the global extremum), which lets ``simplify``
    relabel without re-running the sweep.
    """

    kind: ManifoldKind
    domain: GridDomain
    label: np.ndarray
    extrema: tuple[Extremum, ...]
    sizes: np.ndarray
    _saddles: np.ndarray = field(repr=False, default=None)
    _partners: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        assert self.label.size == self.domain.vertex_count
        assert int(self.sizes.sum()) == self.domain.vertex_count
        assert len(self.extrema) == self.sizes.size
        for e in self.extrema:
            assert self.label[e.vertex] == e.id
        self.label.flags.writeable = False
        self.sizes.flags.writeable = False

    @property
    def extremum_kind(self) -> ExtremumKind:
        return "minimum" if self.kind == "ascending" else "maximum"

    @property
    def n_extrema(self) -> int:
        return len(self.extrema)


def _descent_pointers(w: np.ndarray, domain: GridDomain) -> np.ndarray:
    """One steepest-descent step per vertex under the (value, id) order.

    Returns ptr where ptr[v] is the lexicographically smallest neighbor if
    that neighbor precedes v, else v itself (v is a minimum of w). Every
    offset piece updates a running (value, id) best per vertex in both
    directions, so no (V, K) table is built.
    """
    grid = w.reshape(domain.dims)
    ids = np.arange(w.size).reshape(domain.dims)
    best_w = grid.copy()
    best = ids.copy()
    for _, src, dst in offset_slices(domain):
        for here, there in ((src, dst), (dst, src)):
            cw, ci = grid[there], ids[there]
            bw, bi = best_w[here], best[here]
            take = (cw < bw) | ((cw == bw) & (ci < bi))
            np.copyto(bw, cw, where=take)
            np.copyto(bi, ci, where=take)
    return best.reshape(-1)


def _resolve_roots(ptr: np.ndarray) -> np.ndarray:
    # pointer doubling; chains strictly descend so this terminates
    root = ptr
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def _first_per_pair(pair: np.ndarray, key: np.ndarray):
    """Each distinct pair once, ascending, with its smallest key."""
    if not pair.size:
        return pair, key
    order = np.argsort(pair)
    pair = pair[order]
    starts = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
    return pair[starts], np.minimum.reduceat(key[order], starts)


def _merge_sweep(w: np.ndarray, domain: GridDomain, label: np.ndarray, ex_vertices: np.ndarray):
    """0-dimensional persistence of the minima of w by basin merging.

    Only edges between different basins can merge sublevel components
    (each basin's sublevel slice stays connected through its descent
    paths), so a union-find over basins processing boundary edges in
    ascending saddle order reproduces the vertex sweep.

    The sweep visits one edge per unordered basin pair: the first in sweep
    order. Every later edge between the same two basins joins components
    that are already one (the Kruskal argument), so dropping it changes
    nothing. The sweep order is the (value, id) order of the saddle, the
    edge's TotalOrder-larger endpoint, and among edges sharing a saddle
    vertex the order of their first directed slot ``v * K + k`` in
    ``neighbor_table``. That tie order matters: such edges all touch
    ``label[s]``, and which of them comes first decides which basin
    becomes a younger extremum's partner, and so what ``simplify``
    relabels.

    Returns (persistence, saddles, partners) per extremum; the global
    minimum gets +inf persistence, saddle and partner -1.
    """
    n_ex = ex_vertices.size
    pers = np.full(n_ex, np.inf)
    saddles = np.full(n_ex, -1, dtype=np.int64)
    partners = np.full(n_ex, -1, dtype=np.int64)
    if n_ex == 1:
        return pers, saddles, partners

    # sweep key: saddle rank, then the edge's first directed slot v * K + k;
    # one per undirected edge, and it fits in int64 while V * V * K < 2**63
    n_slots = 2 * (2**domain.rank - 1)
    n_keys = w.size * n_slots
    asc = np.argsort(w, kind="stable")
    rank = np.empty_like(asc)
    rank[asc] = np.arange(w.size)
    lab = label.reshape(domain.dims)
    rnk = rank.reshape(domain.dims)
    ids = np.arange(w.size).reshape(domain.dims)
    pairs, keys = [], []
    for k, src, dst in offset_slices(domain):
        cut = lab[src] != lab[dst]
        la, lb = lab[src][cut], lab[dst][cut]
        slot = np.minimum(ids[src][cut] * n_slots + k, ids[dst][cut] * n_slots + (k + n_slots // 2))
        key = np.maximum(rnk[src][cut], rnk[dst][cut]) * n_keys + slot
        pair, key = _first_per_pair(np.minimum(la, lb) * n_ex + np.maximum(la, lb), key)
        pairs.append(pair)
        keys.append(key)
    pair, key = _first_per_pair(np.concatenate(pairs), np.concatenate(keys))
    order = np.argsort(key)
    pair, key = pair[order], key[order]
    sad = asc[key // n_keys]

    uf = list(range(n_ex))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    ex_rank = rank[ex_vertices].tolist()
    dead, elders, at = [], [], []
    for e, (a, b) in enumerate(zip((pair // n_ex).tolist(), (pair % n_ex).tolist())):
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        # elder rule: the younger component representative dies here
        elder, young = (ra, rb) if ex_rank[ra] < ex_rank[rb] else (rb, ra)
        uf[young] = elder
        dead.append(young)
        elders.append(elder)
        at.append(e)
    partners[dead] = elders
    saddles[dead] = sad[at]
    pers[dead] = w[saddles[dead]] - w[ex_vertices[dead]]
    return pers, saddles, partners


def label_manifolds(step, domain: GridDomain, kind: ExtremumKind) -> ManifoldLabeling:
    """Assign every vertex to an extremum by discrete steepest descent.

    Minima produce ascending manifolds, maxima descending ones (computed
    on the negated field). Each vertex moves to its (value, id)-smallest
    neighbor while one precedes it; the terminal vertices are the extrema,
    numbered densely in vertex order.
    """
    values = np.asarray(step, dtype=np.float64).reshape(-1)
    if values.size != domain.vertex_count:
        raise ValueError("step length does not match the domain")
    w = -values if kind == "maximum" else values

    ptr = _descent_pointers(w, domain)
    root = _resolve_roots(ptr)
    ex_vertices = np.flatnonzero(ptr == np.arange(w.size))
    label = np.searchsorted(ex_vertices, root)
    sizes = np.bincount(label, minlength=ex_vertices.size)

    pers, saddles, partners = _merge_sweep(w, domain, label, ex_vertices)
    extrema = tuple(
        Extremum(i, int(v), float(values[v]), float(pers[i]), kind)
        for i, v in enumerate(ex_vertices)
    )
    return ManifoldLabeling(_MANIFOLD_OF[kind], domain, label, extrema, sizes, saddles, partners)


def persistence_pairs(step, domain: GridDomain, kind: ExtremumKind):
    """Extremum/saddle pairs as (extremum vertex, saddle vertex, persistence).

    The global extremum pairs with no saddle and reports +inf. Listed in
    extremum-vertex order.
    """
    lab = label_manifolds(step, domain, kind)
    out = []
    for e in lab.extrema:
        s = int(lab._saddles[e.id])
        out.append((e.vertex, None if s < 0 else s, e.persistence))
    return out


def simplify(
    labeling: ManifoldLabeling,
    step,
    threshold_pct: float,
    value_range: float | None = None,
) -> ManifoldLabeling:
    """Cancel extrema with persistence below a percentage of the range.

    The threshold is threshold_pct/100 times the step's value range (or an
    explicit ``value_range``, e.g. a series-global one). Each cancelled
    extremum's basin is relabeled to the surviving extremum its component
    merged into, following merge partners transitively. The global
    extremum (+inf persistence) always survives.
    """
    if not 0.0 <= threshold_pct <= 100.0:
        raise ValueError(f"threshold_pct must be in [0, 100], got {threshold_pct}")
    values = np.asarray(step, dtype=np.float64).reshape(-1)
    if values.size != labeling.domain.vertex_count:
        raise ValueError("step length does not match the labeling's domain")
    for e in labeling.extrema:
        if values[e.vertex] != e.value:
            raise ValueError("labeling was not produced from this step")
    if value_range is None:
        value_range = float(values.max() - values.min())
    threshold = threshold_pct / 100.0 * value_range

    pers = np.array([e.persistence for e in labeling.extrema])
    cancel = pers < threshold
    if not cancel.any():
        return labeling

    # cancelled extrema point at their merge partner, survivors at
    # themselves; partners are elder, so the pointers form a forest
    ptr = np.where(cancel, labeling._partners, np.arange(labeling.n_extrema))
    root = _resolve_roots(ptr)
    survivors = np.flatnonzero(~cancel)
    new_id = np.full(labeling.n_extrema, -1, dtype=np.int64)
    new_id[survivors] = np.arange(survivors.size)
    remap = new_id[root]

    label = remap[labeling.label]
    sizes = np.bincount(label, minlength=survivors.size)
    extrema = tuple(
        Extremum(int(new_id[i]), labeling.extrema[i].vertex, labeling.extrema[i].value,
                 labeling.extrema[i].persistence, labeling.extrema[i].kind)
        for i in survivors
    )
    saddles = labeling._saddles[survivors]
    old_partners = labeling._partners[survivors]
    partners = np.where(old_partners < 0, -1, remap[np.maximum(old_partners, 0)])
    return ManifoldLabeling(labeling.kind, labeling.domain, label, extrema, sizes, saddles, partners)

"""Extrema extraction, manifold labeling, and persistence simplification.

One time step at a time: find the minima (or maxima) of a scalar field on a
grid domain, assign every vertex to its extremum by discrete steepest
descent, and optionally cancel low-persistence extrema by relabeling their
basin into the merge partner's basin.

Ties are broken by vertex index everywhere (simulation of simplicity), so
flat plateaus resolve deterministically. Maxima reuse the minima path on
the negated field. Labeling sorts each step once into that strict order
(``asc`` and its inverse ``rank``, int32 while vertex ids fit) and then
compares only ranks.

Both descent and the merge sweep walk the grid one Freudenthal offset at a
time through ``field.offset_slices``, so labeling needs O(V) memory and no
(V, K) neighbor table. Descent is a running minimum of the rank plane.
The sweep keeps the lowest saddle edge of each pair of adjacent basins and
builds the minimum spanning forest of those edges with numpy Borůvka
rounds; sweep keys are unique, so that forest is exactly the set of edges
Kruskal's algorithm would merge along.
Persistence then follows the elder rule (Edelsbrunner, Letscher and
Zomorodian, 2002) over the forest's n_ex - 1 edges in sweep order. Edges
that share a saddle vertex keep their order in the full edge enumeration,
because that order decides which basin a younger extremum merges into.

A labeling holds its extrema as columns (``ExtremumColumns``): vertex,
value and persistence arrays whose row i is extremum i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
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
        return _total_order(self.values)[0]


def _id_dtype(n: int):
    """The integer type of ids 0..n-1: int32 while n fits, else int64."""
    return np.int32 if n < 2**31 else np.int64


def _total_order(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(asc, rank)`` of the strict (value, id) order on w.

    ``asc`` lists the vertex ids ascending under the order, equal to
    ``np.argsort(w, kind="stable")``, and ``rank`` is its inverse; both
    have ``_id_dtype(w.size)``. The default (unstable, SIMD) argsort does
    the work, and only the runs of equal values are re-sorted by id.
    """
    n = w.size
    asc = np.argsort(w)
    ws = w[asc]
    tie = ws[1:] == ws[:-1]  # position p + 1 equals position p
    del ws
    if tie.any():
        # run id per position, and the positions of runs longer than one
        run = np.concatenate(([0], np.cumsum(~tie, dtype=np.int64)))
        pos = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False])))
        key = run[pos] * n + asc[pos]  # runs ascend with the position
        key.sort()
        asc[pos] = key % n
        del run, pos, key
    del tie
    dt = _id_dtype(n)
    asc = asc.astype(dt)
    rank = np.empty(n, dtype=dt)
    rank[asc] = np.arange(n, dtype=dt)
    return asc, rank


@dataclass(frozen=True)
class Extremum:
    id: int
    vertex: int
    value: float
    persistence: float
    kind: ExtremumKind


@dataclass(frozen=True, eq=False)
class ExtremumColumns:
    """A labeling's extrema as parallel arrays; row i is extremum i.

    Ids are implicit (``arange``). Indexing and iteration yield
    ``Extremum`` objects, so the columns read like the tuple of extrema
    they stand for.
    """

    kind: ExtremumKind
    vertex: np.ndarray
    value: np.ndarray
    persistence: np.ndarray

    def __post_init__(self):
        for name, dtype in (("vertex", np.int64), ("value", np.float64),
                            ("persistence", np.float64)):
            a = np.asarray(getattr(self, name), dtype=dtype).reshape(-1)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        assert self.vertex.size == self.value.size == self.persistence.size

    @classmethod
    def from_objects(cls, kind: ExtremumKind, extrema) -> "ExtremumColumns":
        extrema = tuple(extrema)
        assert [e.id for e in extrema] == list(range(len(extrema))), "ids must be 0..n-1"
        assert all(e.kind == kind for e in extrema)
        return cls(kind, [e.vertex for e in extrema], [e.value for e in extrema],
                   [e.persistence for e in extrema])

    def take(self, rows: np.ndarray) -> "ExtremumColumns":
        """The given rows, renumbered 0..len(rows)-1."""
        return ExtremumColumns(self.kind, self.vertex[rows], self.value[rows],
                               self.persistence[rows])

    def __len__(self) -> int:
        return self.vertex.size

    def __getitem__(self, i: int) -> Extremum:
        i = range(len(self))[i]
        return Extremum(i, int(self.vertex[i]), float(self.value[i]),
                        float(self.persistence[i]), self.kind)

    def __iter__(self):
        return map(Extremum, range(len(self)), self.vertex.tolist(), self.value.tolist(),
                   self.persistence.tolist(), repeat(self.kind))


@dataclass(frozen=True, eq=False)
class ManifoldLabeling:
    """Partition of the domain's vertices into extremum basins.

    ``label[v]`` is the dense id of the extremum whose manifold contains
    vertex v; ``sizes[i]`` counts the vertices labeled i. The private
    arrays record, per extremum, the merge saddle and the extremum it
    merges into (-1 for the global extremum), which lets ``simplify``
    relabel without re-running the sweep. ``extrema`` may be given as a
    sequence of ``Extremum`` with ids 0..n-1; it is stored as columns.
    """

    kind: ManifoldKind
    domain: GridDomain
    label: np.ndarray
    extrema: ExtremumColumns
    sizes: np.ndarray
    _saddles: np.ndarray = field(repr=False, default=None)
    _partners: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if not isinstance(self.extrema, ExtremumColumns):
            object.__setattr__(self, "extrema",
                               ExtremumColumns.from_objects(self.extremum_kind, self.extrema))
        assert self.extrema.kind == self.extremum_kind
        assert self.label.size == self.domain.vertex_count
        assert int(self.sizes.sum()) == self.domain.vertex_count
        assert len(self.extrema) == self.sizes.size
        assert (self.label[self.extrema.vertex] == np.arange(len(self.extrema))).all()
        self.label.flags.writeable = False
        self.sizes.flags.writeable = False

    @property
    def extremum_kind(self) -> ExtremumKind:
        return "minimum" if self.kind == "ascending" else "maximum"

    @property
    def n_extrema(self) -> int:
        return len(self.extrema)


def _descent_pointers(asc: np.ndarray, rank: np.ndarray, domain: GridDomain) -> np.ndarray:
    """One steepest-descent step per vertex under the (value, id) order.

    Takes the order as ``_total_order`` returns it. Returns ptr where
    ptr[v] is the lexicographically smallest neighbor if that neighbor
    precedes v, else v itself (v is a minimum). Every offset piece lowers a
    running minimum of the rank plane in both directions, so no (V, K)
    table is built.
    """
    r = rank.reshape(domain.dims)
    best = r.copy()
    for _, src, dst in offset_slices(domain):
        for here, there in ((src, dst), (dst, src)):
            b = best[here]
            np.minimum(b, r[there], out=b)
    return asc[best.reshape(-1)]


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


def _merge_sweep(w: np.ndarray, asc: np.ndarray, rank: np.ndarray, domain: GridDomain,
                 label: np.ndarray, ex_vertices: np.ndarray):
    """0-dimensional persistence of the minima of w by basin merging.

    ``asc``/``rank`` are w's order from ``_total_order``. Only edges
    between different basins can merge sublevel components (each basin's
    sublevel slice stays connected through its descent paths), so a
    union-find over basins processing boundary edges in ascending saddle
    order reproduces the vertex sweep.

    The sweep visits one edge per unordered basin pair: the first in sweep
    order. Every later edge between the same two basins joins components
    that are already one (the Kruskal argument), so dropping it changes
    nothing. The sweep order is the rank of the saddle, the edge's
    TotalOrder-larger endpoint, and among edges sharing a saddle vertex the
    order of their first directed slot ``v * K + k`` in ``neighbor_table``.
    That tie order matters: such edges all touch ``label[s]``, and which of
    them comes first decides which basin becomes a younger extremum's
    partner, and so what ``simplify`` relabels.

    Vertex ids, labels and ranks are gathered in their own (int32) type,
    pair codes in int32 while n_ex**2 fits; sweep keys are int64.

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
    n_slots = np.int64(2 * (2**domain.rank - 1))
    n_keys = w.size * n_slots
    pair_dtype = _id_dtype(n_ex * n_ex)
    lab = label.reshape(domain.dims)
    ids = np.arange(w.size, dtype=rank.dtype).reshape(domain.dims)
    pairs, keys = [], []
    for k, src, dst in offset_slices(domain):
        v = ids[src][lab[src] != lab[dst]]
        if not v.size:
            continue
        # src and dst are equal-shaped boxes of one C-ordered grid, so their
        # vertex ids differ by one constant c; the edge's first directed
        # slot is v's +k slot if c > 0, else u's -k slot
        c = ids[dst].flat[0] - ids[src].flat[0]
        u = v + c
        la, lb = label[v], label[u]
        pair = np.minimum(la, lb).astype(pair_dtype) * n_ex + np.maximum(la, lb)
        del la, lb
        first, slot = (v, k) if c > 0 else (u, k + n_slots // 2)
        key = (np.maximum(rank[v], rank[u]).astype(np.int64) * w.size + first) * n_slots + slot
        del v, u, first
        pair, key = _first_per_pair(pair, key)
        pairs.append(pair)
        keys.append(key)
    del ids
    # n_ex > 1 on a connected grid, so some piece has a boundary edge
    pair = np.concatenate(pairs)
    del pairs
    key = np.concatenate(keys)
    del keys
    pair, key = _first_per_pair(pair, key)
    order = np.argsort(key)
    a, b = np.divmod(pair[order], n_ex)
    forest = _spanning_forest(a, b, n_ex)
    sad = asc[key[order[forest]] // n_keys]

    uf = list(range(n_ex))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    # every forest edge joins two components, in sweep order; by the elder
    # rule the younger component representative dies there
    ex_rank = rank[ex_vertices].tolist()
    dead, elders = [], []
    for ra, rb in zip(a[forest].tolist(), b[forest].tolist()):
        ra, rb = find(ra), find(rb)
        elder, young = (ra, rb) if ex_rank[ra] < ex_rank[rb] else (rb, ra)
        uf[young] = elder
        dead.append(young)
        elders.append(elder)
    partners[dead] = elders
    saddles[dead] = sad
    pers[dead] = w[sad] - w[ex_vertices[dead]]
    return pers, saddles, partners


def _spanning_forest(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Ascending positions of the minimum spanning forest's edges.

    Edge k joins nodes a[k] and b[k] of 0..n-1 and weighs k, so weights are
    unique and the forest is exactly the edge set Kruskal's algorithm
    merges along. Borůvka rounds: each component picks its lightest edge
    to another component, components hook along their picks (two
    components that pick each other share one edge, and the lower id stays
    root), and pointer doubling relabels; each round at least halves the
    components that still have an outgoing edge.
    """
    comp = np.arange(n)
    edge = np.arange(a.size)
    picked = []
    while True:
        ca, cb = comp[a], comp[b]
        out = ca != cb
        if not out.any():
            break
        a, b, edge, ca, cb = a[out], b[out], edge[out], ca[out], cb[out]
        k = np.arange(edge.size)
        lightest = np.full(n, edge.size)
        np.minimum.at(lightest, ca, k)
        np.minimum.at(lightest, cb, k)
        c = np.flatnonzero(lightest < edge.size)
        k = lightest[c]
        other = np.where(ca[k] == c, cb[k], ca[k])
        parent = np.arange(n)
        parent[c] = other
        mutual = parent[other] == c
        parent[c[mutual & (c < other)]] = c[mutual & (c < other)]
        picked.append(edge[k[~(mutual & (c > other))]])
        comp = _resolve_roots(parent)[comp]
    return np.sort(np.concatenate(picked)) if picked else edge[:0]


def label_manifolds(step, domain: GridDomain, kind: ExtremumKind) -> ManifoldLabeling:
    """Assign every vertex to an extremum by discrete steepest descent.

    Minima produce ascending manifolds, maxima descending ones (computed
    on the negated field). Each vertex moves to its (value, id)-smallest
    neighbor while one precedes it; the terminal vertices are the extrema,
    numbered densely in vertex order. Values must be finite.
    """
    values = np.asarray(step, dtype=np.float64).reshape(-1)
    if values.size != domain.vertex_count:
        raise ValueError("step length does not match the domain")
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"step contains a non-finite value at vertex {bad}")
    w = -values if kind == "maximum" else values

    asc, rank = _total_order(w)
    ptr = _descent_pointers(asc, rank, domain)
    is_extremum = ptr == np.arange(w.size, dtype=rank.dtype)
    ex_vertices = np.flatnonzero(is_extremum)
    # extremum ids in vertex order: the running count of extrema, minus one
    id_map = np.cumsum(is_extremum, dtype=rank.dtype)
    id_map -= 1
    del is_extremum
    label = id_map[_resolve_roots(ptr)]
    del ptr, id_map
    sizes = np.bincount(label, minlength=ex_vertices.size)

    pers, saddles, partners = _merge_sweep(w, asc, rank, domain, label, ex_vertices)
    extrema = ExtremumColumns(kind, ex_vertices, values[ex_vertices], pers)
    return ManifoldLabeling(_MANIFOLD_OF[kind], domain, label, extrema, sizes, saddles, partners)


def persistence_pairs(step, domain: GridDomain, kind: ExtremumKind):
    """Extremum/saddle pairs as (extremum vertex, saddle vertex, persistence).

    The global extremum pairs with no saddle and reports +inf. Listed in
    extremum-vertex order.
    """
    lab = label_manifolds(step, domain, kind)
    saddles = lab._saddles.astype(object)
    saddles[lab._saddles < 0] = None
    ex = lab.extrema
    return list(zip(ex.vertex.tolist(), saddles.tolist(), ex.persistence.tolist()))


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
    ex = labeling.extrema
    if (values[ex.vertex] != ex.value).any():
        raise ValueError("labeling was not produced from this step")
    if value_range is None:
        value_range = float(values.max() - values.min())
    threshold = threshold_pct / 100.0 * value_range

    cancel = ex.persistence < threshold
    if not cancel.any():
        return labeling

    # cancelled extrema point at their merge partner, survivors at
    # themselves; partners are elder, so the pointers form a forest
    ptr = np.where(cancel, labeling._partners, np.arange(labeling.n_extrema))
    root = _resolve_roots(ptr)
    survivors = np.flatnonzero(~cancel)
    new_id = np.full(labeling.n_extrema, -1, dtype=labeling.label.dtype)
    new_id[survivors] = np.arange(survivors.size)
    remap = new_id[root]

    label = remap[labeling.label]
    sizes = np.bincount(label, minlength=survivors.size)
    extrema = ex.take(survivors)
    saddles = labeling._saddles[survivors]
    old_partners = labeling._partners[survivors]
    partners = np.where(old_partners < 0, -1, remap[np.maximum(old_partners, 0)].astype(np.int64))
    return ManifoldLabeling(labeling.kind, labeling.domain, label, extrema, sizes, saddles, partners)

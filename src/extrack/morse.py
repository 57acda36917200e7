"""Extrema extraction, manifold labeling, and persistence simplification.

One time step at a time: find the minima (or maxima) of a scalar field on a
grid domain, assign every vertex to its extremum by discrete steepest
descent, and optionally cancel low-persistence extrema by relabeling their
basin into the merge partner's basin.

Ties are broken by vertex index everywhere (simulation of simplicity), so
flat plateaus resolve deterministically. Labeling sorts each step once
into that strict order (``asc`` and its inverse ``rank``, int32 while
vertex ids fit), by ascending value for minima and by descending value for
maxima, ties to the lower id either way, and then compares only ranks;
maxima run the minima path on that order, with no negated copy of the
field.

Both descent and the merge sweep walk the grid one Freudenthal offset at a
time through ``field.offset_slices``, so labeling needs O(V) memory and no
(V, K) neighbor table. Descent is a running minimum of the rank plane.
The sweep keeps the lowest saddle edge of each pair of adjacent basins:
each offset piece packs its boundary edges into one int64 code (basin
pair, saddle rank, a 1-bit tie class) and sorts the codes in place, and
the first edge of each pair merges into a running sorted array (see
``_merge_sweep``). It then builds the minimum spanning forest of those
edges with numpy Borůvka rounds; sweep keys are unique, so that forest is
exactly the set of edges Kruskal's algorithm would merge along.
Persistence then follows the elder rule (Edelsbrunner, Letscher and
Zomorodian, 2002) over the forest's n_ex - 1 edges in sweep order. Edges
that share a saddle vertex keep their order in the full edge enumeration,
because that order decides which basin a younger extremum merges into; a
per-domain table of tie classes encodes it in the sweep key.

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


def _id_dtype(n: int):
    """The integer type of ids 0..n-1: int32 while n fits, else int64."""
    return np.int32 if n < 2**31 else np.int64


def _total_order(w: np.ndarray, descending: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``(asc, rank)`` of the strict order on w: by value, ascending or
    ``descending``, ties to the lower vertex id either way.

    ``asc`` lists the vertex ids in that order, equal to
    ``np.argsort(w, kind="stable")`` (``np.argsort(-w, kind="stable")``
    when descending), and ``rank`` is its inverse; both have
    ``_id_dtype(w.size)``. The default (unstable, SIMD) argsort does the
    work, read backwards when descending, and only the runs of equal
    values are re-sorted by id.
    """
    n = w.size
    asc = np.argsort(w)
    if descending:
        asc = asc[::-1]
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

    Ids are implicit (``arange``). Indexing and iteration yield read-only
    ``Extremum`` views, so the columns read like the tuple of extrema they
    stand for.
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
    relabel without re-running the sweep. Minima have ascending manifolds
    and maxima descending ones; ``extrema.kind`` says which.
    """

    domain: GridDomain
    label: np.ndarray
    extrema: ExtremumColumns
    sizes: np.ndarray
    _saddles: np.ndarray = field(repr=False, default=None)
    _partners: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        assert self.label.size == self.domain.vertex_count
        assert int(self.sizes.sum()) == self.domain.vertex_count
        assert len(self.extrema) == self.sizes.size
        assert (self.label[self.extrema.vertex] == np.arange(len(self.extrema))).all()
        self.label.flags.writeable = False
        self.sizes.flags.writeable = False

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


# Bit width of the packed edge codes, so that every code is a non-negative
# int64. Only tests lower it, to force the split over pair-code ranges.
_CODE_BITS = 63


def _boundary_pieces(domain: GridDomain):
    """The pieces of ``offset_slices`` with their sweep tie classes.

    Returns ``(pieces, n_cls)``; each piece is ``(src, dst, up, cls)``.
    Vertex ids in ``dst`` exceed those in ``src`` by one constant c, and
    ``up`` says c > 0. Edges that share a saddle s sweep in the order of
    their first directed slot ``(first, slot)``: first is the edge's lower
    vertex id, so s itself or s - |c|, and slot is k if c > 0, else the
    opposite slot k + K/2. So their order is that of the tie classes
    ``(first - s, slot)``; the domain's classes, sorted, are numbered
    0..n_cls-1. ``cls[1]`` is the class of the piece's edges whose saddle
    is the lower vertex id, ``(0, slot)``, and ``cls[0]`` that of the
    others, ``(-|c|, slot)``, always the smaller of the two.
    """
    half = 2**domain.rank - 1
    pieces = []
    for k, src, dst in offset_slices(domain):
        c = int(np.ravel_multi_index([b.start or 0 for b in dst], domain.dims)
                - np.ravel_multi_index([b.start or 0 for b in src], domain.dims))
        slot = k if c > 0 else k + half
        pieces.append((src, dst, c > 0, ((-abs(c), slot), (0, slot))))
    number = {t: i for i, t in enumerate(sorted({t for *_, ts in pieces for t in ts}))}
    return [(src, dst, up, np.array([number[t] for t in ts], np.uint8))
            for src, dst, up, ts in pieces], len(number)


def _firsts(code: np.ndarray, kb: int) -> np.ndarray:
    """The first code of each run of equal ``code >> kb`` in sorted code."""
    pair = code >> kb
    first = np.empty(code.size, dtype=bool)
    first[:1] = True
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    del pair
    return code[first]


def _merge_sweep(values: np.ndarray, asc: np.ndarray, rank: np.ndarray, domain: GridDomain,
                 label: np.ndarray, ex_vertices: np.ndarray, descending: bool = False):
    """0-dimensional persistence of the minima of values (of the maxima
    when ``descending``) by basin merging.

    ``asc``/``rank`` are the order from ``_total_order(values,
    descending)``. Only edges between different basins can merge sublevel
    components (each basin's sublevel slice stays connected through its
    descent paths), so a union-find over basins processing boundary edges
    in ascending saddle order reproduces the vertex sweep.

    The sweep visits one edge per unordered basin pair: the first in sweep
    order. Every later edge between the same two basins joins components
    that are already one (the Kruskal argument), so dropping it changes
    nothing. The sweep order is the rank of the saddle, the edge's larger
    endpoint in the order, and among edges sharing a saddle vertex the
    order of their first directed slot ``v * K + k``, where k indexes the K
    offsets of ``field._freudenthal_offsets`` (positive ones first). That
    tie order matters: such edges all touch ``label[s]``, and which of them
    comes first decides which basin becomes a younger extremum's partner,
    and so what ``simplify`` relabels. ``_boundary_pieces`` reduces it to
    a small table of tie classes, so an edge's sweep key is
    ``rank(s) << cb | class``, with cb = bits(n_cls - 1).

    Each offset piece packs its boundary edges into one int64 code each,
    ``(pair << vb | rank(s)) << 1 | lower``: pair = lo * n_ex + hi for the
    basin labels lo < hi, vb = bits(V - 1), and ``lower`` set where the
    saddle is the edge's lower vertex id (the piece's own 1-bit class, in
    class order). One in-place value sort groups each basin pair with its
    first edge in front, and the firsts merge into running sorted arrays
    of ``(pair << vb | rank(s)) << cb | class``; there a pair keeps its
    lowest code, the first edge in sweep order. No boundary edge is
    argsorted.

    Where a code would not fit in 63 bits, the same loop runs over ranges
    of pair codes (lo-major, so ranges of the lower label), each packed
    relative to its start: ``2**(62 - vb)`` pairs per piece sort and
    ``2**(63 - vb - cb)`` per running array, at least 2**26 each for any
    V < 2**31. The per-piece bit keeps the sorts to one range up to about
    200³ white noise; only the running arrays split there. Beyond the
    order, the labels and the running arrays, a piece holds a few int32
    and two int64 arrays of its boundary edges.

    The running arrays give one first edge per pair, with its sweep key
    as the weight for ``_spanning_forest``; the elder rule then visits the
    forest's n_ex - 1 edges in sweep order.

    Returns (persistence, saddles, partners) per extremum; the global
    extremum gets +inf persistence, saddle and partner -1.
    """
    n_ex = ex_vertices.size
    pers = np.full(n_ex, np.inf)
    saddles = np.full(n_ex, -1, dtype=np.int64)
    partners = np.full(n_ex, -1, dtype=np.int64)
    if n_ex == 1:
        return pers, saddles, partners

    pieces, n_cls = _boundary_pieces(domain)
    vb = (values.size - 1).bit_length()  # bits of a rank
    cb = (n_cls - 1).bit_length()  # bits of a tie class, at least 1
    n_pairs = (n_ex - 1) * n_ex  # pair codes lo * n_ex + hi, lo < hi < n_ex
    sort_span = 1 << max(0, _CODE_BITS - 1 - vb)  # pair codes per piece sort
    run_span = 1 << max(0, _CODE_BITS - cb - vb)  # pair codes per running array
    runs = [np.empty(0, np.int64)] * -(-n_pairs // run_span)
    lab, r = label.reshape(domain.dims), rank.reshape(domain.dims)
    for src, dst, up, cls in pieces:
        at = np.flatnonzero(lab[src] != lab[dst])
        la, lb = np.take(lab[src], at), np.take(lab[dst], at)
        s, t = np.take(r[src], at), np.take(r[dst], at)
        del at
        lower = s > t if up else t > s
        np.maximum(s, t, out=s)  # the saddle's rank
        del t
        pair = np.minimum(la, lb, dtype=np.int64)
        pair *= n_ex
        pair += np.maximum(la, lb, out=la)
        del la, lb
        firsts = []
        for p0 in range(0, n_pairs, sort_span):
            if sort_span >= n_pairs:  # one range: pack the codes in place over pair
                part, code = slice(None), pair
            else:
                part = (pair >= p0) & (pair < p0 + sort_span)
                code = pair[part] - p0
            code <<= vb
            code |= s[part]
            code <<= 1
            code |= lower[part]
            code.sort()
            firsts.append((p0, _firsts(code, vb + 1)))
            del code
        del pair, s, lower
        for p0, code in firsts:
            # each running array's share, the tie class in place of the lower bit
            starts = np.arange(0, min(sort_span, n_pairs - p0), run_span, dtype=np.int64)
            shares = np.split(code, np.searchsorted(code, starts[1:] << vb + 1))
            for j, (start, share) in enumerate(zip(starts, shares), p0 // run_span):
                if share.size:
                    new = share >> 1
                    new -= start << vb
                    new <<= cb
                    new |= cls[share & 1]
                    both = np.concatenate((runs[j], new))
                    runs[j] = new = None
                    both.sort(kind="stable")  # two sorted runs: one merge pass
                    runs[j] = _firsts(both, vb + cb)
                    del both
        del firsts, code, shares, share

    # the first edges: basin labels, and sweep keys as forest weights
    n = sum(run.size for run in runs)
    a, b = np.empty(n, label.dtype), np.empty(n, label.dtype)
    key = np.empty(n, np.int64)
    end = 0
    for j in range(len(runs)):
        run, runs[j] = runs[j], None
        part = slice(end, end + run.size)
        end += run.size
        key[part] = run & (1 << vb + cb) - 1
        run >>= vb + cb
        run += j * run_span
        a[part], b[part] = np.divmod(run, n_ex)
        del run
    forest = _spanning_forest(a, b, n_ex, key)
    sad = asc[key[forest] >> cb]
    a, b = a[forest], b[forest]
    del key, forest

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
    for ra, rb in zip(a.tolist(), b.tolist()):
        ra, rb = find(ra), find(rb)
        elder, young = (ra, rb) if ex_rank[ra] < ex_rank[rb] else (rb, ra)
        uf[young] = elder
        dead.append(young)
        elders.append(elder)
    partners[dead] = elders
    saddles[dead] = sad
    if descending:
        pers[dead] = values[ex_vertices[dead]] - values[sad]
    else:
        pers[dead] = values[sad] - values[ex_vertices[dead]]
    return pers, saddles, partners


def _spanning_forest(a: np.ndarray, b: np.ndarray, n: int, weight: np.ndarray) -> np.ndarray:
    """Positions of the minimum spanning forest's edges, by ascending weight.

    Edge k joins nodes a[k] and b[k] of 0..n-1 and weighs ``weight[k]``.
    Weights are unique, so the forest is exactly the edge set Kruskal's
    algorithm merges along, in the order it merges them. Borůvka rounds:
    each component picks its lightest edge to another component (the edge
    whose weight is the component's minimum, so no edge list is sorted),
    components hook along their picks (two components that pick each other
    share one edge, and the lower id stays root), and pointer doubling
    relabels; each round at least halves the components that still have an
    outgoing edge.
    """
    ca, cb, w, edge = a, b, weight, np.arange(a.size, dtype=_id_dtype(a.size))
    ids = np.arange(n, dtype=np.result_type(a, b))
    picked = []
    while True:
        out = ca != cb
        if not out.any():
            break
        if not out.all():
            ca, cb, w, edge = ca[out], cb[out], w[out], edge[out]
        del out
        lightest = np.full(n, np.iinfo(np.int64).max)
        np.minimum.at(lightest, ca, w)
        np.minimum.at(lightest, cb, w)
        by_a, by_b = w == lightest[ca], w == lightest[cb]
        del lightest
        parent = ids.copy()
        parent[ca[by_a]] = cb[by_a]
        parent[cb[by_b]] = ca[by_b]
        mutual = (parent[parent] == ids) & (ids < parent)
        parent[mutual] = ids[mutual]
        picked.append(edge[by_a | by_b])
        del by_a, by_b, mutual
        root = _resolve_roots(parent)
        ca, cb = root[ca], root[cb]
    forest = np.concatenate(picked) if picked else edge[:0]
    fw = weight[forest]
    order = np.empty_like(forest)
    order[np.searchsorted(np.sort(fw), fw)] = forest
    return order


def label_manifolds(step, domain: GridDomain, kind: ExtremumKind) -> ManifoldLabeling:
    """Assign every vertex to an extremum by discrete steepest descent.

    Minima produce ascending manifolds, maxima descending ones (the same
    path on the descending (value, id) order, ties still to the lower id).
    Each vertex moves to its first neighbor in that order while one
    precedes it; the terminal vertices are the extrema, numbered densely in
    vertex order. Values must be finite.
    """
    if kind not in ("minimum", "maximum"):
        raise ValueError(f"kind must be 'minimum' or 'maximum', got {kind!r}")
    values = np.asarray(step, dtype=np.float64).reshape(-1)
    if values.size != domain.vertex_count:
        raise ValueError("step length does not match the domain")
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"step contains a non-finite value at vertex {bad}")
    descending = kind == "maximum"

    asc, rank = _total_order(values, descending)
    ptr = _descent_pointers(asc, rank, domain)
    is_extremum = ptr == np.arange(values.size, dtype=rank.dtype)
    ex_vertices = np.flatnonzero(is_extremum)
    # extremum ids in vertex order: the running count of extrema, minus one
    id_map = np.cumsum(is_extremum, dtype=rank.dtype)
    id_map -= 1
    del is_extremum
    label = id_map[_resolve_roots(ptr)]
    del ptr, id_map
    sizes = np.bincount(label, minlength=ex_vertices.size)

    pers, saddles, partners = _merge_sweep(values, asc, rank, domain, label, ex_vertices,
                                           descending)
    extrema = ExtremumColumns(kind, ex_vertices, values[ex_vertices], pers)
    return ManifoldLabeling(domain, label, extrema, sizes, saddles, partners)


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
    return ManifoldLabeling(labeling.domain, label, extrema, sizes, saddles, partners)

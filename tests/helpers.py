"""Shared builders and brute-force oracles used across the test suite.

Oracles here are deliberately slow and dumb: plain Python loops over
explicit definitions, so library results are checked against independent
arithmetic rather than against themselves.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

import extrack
from extrack.correspond import _ints, _reals, doc_to_matrix
from extrack.features import FeatureSet
from extrack.field import (GridDomain, ScalarFieldSeries, _freudenthal_offsets,
                           minimum_image_distance, sampling_offsets, stencil_vertices)
from extrack.morse import Extremum, ExtremumColumns, ManifoldLabeling
from extrack.synth import _oracle_neighbors as brute_neighbors  # the one brute-force 1-ring
from extrack.trackgraph import (_BIN_WIDTHS, _TRACK_COLORS, EdgeColumns, GraphEdge, GraphNode,
                                NodeColumns, TrackingGraph, _pos_array)


def grid_series(values_per_step, spacing=None, periodic=None) -> ScalarFieldSeries:
    """Build a series from a list of 2D/3D nested lists."""
    first = np.asarray(values_per_step[0], dtype=np.float64)
    domain = GridDomain(first.shape, spacing, periodic)
    return ScalarFieldSeries(domain, tuple(np.asarray(v, dtype=np.float64).reshape(-1) for v in values_per_step))


def random_series(rng, dims, n_steps, periodic=None) -> ScalarFieldSeries:
    domain = GridDomain(dims, periodic=periodic)
    steps = tuple(rng.standard_normal(domain.vertex_count) for _ in range(n_steps))
    return ScalarFieldSeries(domain, steps)


def brute_ball(domain: GridDomain, center: int, d: float) -> list[int]:
    """Euclidean ball by checking every vertex with explicit minimum image."""
    cc = domain.coords_of(center)
    out = []
    for v in range(domain.vertex_count):
        vc = domain.coords_of(v)
        d2 = 0.0
        for a in range(domain.rank):
            delta = abs(vc[a] - cc[a])
            if domain.periodic[a]:
                delta = min(delta, domain.dims[a] - delta)
            d2 += (delta * domain.spacing[a]) ** 2
        if d2 <= d * d + 1e-12:
            out.append(v)
    return out


def brute_minimum_image(domain: GridDomain, pa, pb) -> float:
    d2 = 0.0
    for a in range(domain.rank):
        delta = abs(pa[a] - pb[a])
        if domain.periodic[a]:
            period = domain.dims[a] * domain.spacing[a]
            delta = delta % period
            delta = min(delta, period - delta)
        d2 += delta * delta
    return math.sqrt(d2)


def fake_labeling(domain: GridDomain, label, kind="minimum", values=None) -> ManifoldLabeling:
    """Hand-built labeling: extremum i sits at the first vertex labeled i."""
    label = np.asarray(label, dtype=np.int64).reshape(-1)
    n = int(label.max()) + 1
    extrema = []
    for i in range(n):
        v = int(np.flatnonzero(label == i)[0])
        val = 0.0 if values is None else float(values[i])
        extrema.append(Extremum(i, v, val, math.inf, kind))
    return ManifoldLabeling(domain, label.copy(), extremum_columns(kind, extrema))


def brute_combinatorial_ball(domain: GridDomain, center: int, depth: int) -> list[int]:
    """Hop-limited breadth-first search using the brute neighbor walk."""
    dist = {center: 0}
    frontier = [center]
    for k in range(depth):
        nxt = []
        for v in frontier:
            for u in brute_neighbors(domain, v):
                if u not in dist:
                    dist[u] = k + 1
                    nxt.append(u)
        frontier = nxt
    return sorted(dist)


def oracle_sampling_overlap(lab_t, lab_other, domain: GridDomain, mode, d, lattice_units=False):
    """Dense sampling counts and row denominators, one brute-force
    neighborhood per extremum."""
    counts = np.zeros((lab_t.n_extrema, lab_other.n_extrema), dtype=np.int64)
    denom = np.zeros(lab_t.n_extrema, dtype=np.int64)
    for m in lab_t.extrema:
        if mode == "combinatorial":
            ball = brute_combinatorial_ball(domain, m.vertex, math.floor(d))
        elif lattice_units:
            ball = brute_ball(GridDomain(domain.dims, None, domain.periodic), m.vertex, d)
        else:
            ball = brute_ball(domain, m.vertex, d)
        denom[m.id] = len(ball)
        for v in ball:
            counts[m.id, lab_other.label[v]] += 1
    return counts, denom


def run_python(*args, optimize=False, preexec_fn=None, stdout=subprocess.PIPE):
    """``python [-O] args`` in a child that imports this checkout's extrack;
    ``-O`` strips every ``assert``, and ``preexec_fn`` runs in the child
    before it starts Python (to set its own resource limits, say). The
    child's stdout is captured, or goes to the given file descriptor."""
    src = str(Path(extrack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120,
                          preexec_fn=preexec_fn)


# Reference implementations of steepest descent and the merge sweep: one
# (V, K) neighbor table and one union-find step per directed boundary
# edge, kept as the judges of the offset-slice code in extrack.morse.


@lru_cache(maxsize=16)
def neighbor_table(domain: GridDomain) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex Freudenthal neighbors as a padded (V, K) table.

    Returns ``(nbr, valid)`` where invalid slots (clipped at a non-periodic
    boundary) hold the vertex's own index. Rows may contain duplicates on
    tiny periodic axes. Both arrays are read-only and shared via a cache.
    Only the reference implementations below read it; labeling walks
    ``offset_slices`` and stencils use ``sampling_offsets``.
    """
    dims = np.asarray(domain.dims)
    v_ids = np.arange(domain.vertex_count)
    coords = np.indices(domain.dims).reshape(domain.rank, -1)
    offsets = _freudenthal_offsets(domain.rank)
    nbr = np.empty((domain.vertex_count, len(offsets)), dtype=np.int64)
    valid = np.ones_like(nbr, dtype=bool)
    for k, off in enumerate(offsets):
        nc = coords + np.asarray(off)[:, None]
        ok = np.ones(domain.vertex_count, dtype=bool)
        for a in range(domain.rank):
            if domain.periodic[a]:
                nc[a] %= dims[a]
            else:
                ok &= (nc[a] >= 0) & (nc[a] < dims[a])
                np.clip(nc[a], 0, dims[a] - 1, out=nc[a])
        ids = np.ravel_multi_index(tuple(nc), domain.dims)
        nbr[:, k] = np.where(ok, ids, v_ids)
        valid[:, k] = ok
    nbr.flags.writeable = False
    valid.flags.writeable = False
    return nbr, valid


def peak_over_field(call, field: np.ndarray) -> float:
    """The tracemalloc peak of ``call()`` over the field's bytes: what the
    call holds at once beyond the field, in the unit of every memory bound
    of the suite."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / field.nbytes
    finally:
        tracemalloc.stop()


def oracle_descent_pointers(w: np.ndarray, domain: GridDomain) -> np.ndarray:
    """One steepest-descent step per vertex under the (value, id) order.

    Returns ptr where ptr[v] is the lexicographically smallest neighbor if
    that neighbor precedes v, else v itself (v is a minimum of w).
    """
    nbr, valid = neighbor_table(domain)
    v_ids = np.arange(w.size)
    nv = np.where(valid, w[nbr], np.inf)
    # argmin of (value, id) per row: min value first, min id among those
    row_min = nv.min(axis=1)
    tied_ids = np.where(nv == row_min[:, None], nbr, w.size)
    best = tied_ids.min(axis=1)
    move = (row_min < w) | ((row_min == w) & (best < v_ids))
    return np.where(move, best, v_ids)


def oracle_merge_sweep(w: np.ndarray, domain: GridDomain, label: np.ndarray, ex_vertices: np.ndarray):
    """0-dimensional persistence of the minima of w by basin merging.

    Only edges between different basins can merge sublevel components
    (each basin's sublevel slice stays connected through its descent
    paths), so a union-find over basins processing boundary edges in
    ascending saddle order reproduces the vertex sweep.

    Returns (persistence, saddles, partners) per extremum; the global
    minimum gets +inf persistence, saddle and partner -1.
    """
    n_ex = ex_vertices.size
    pers = np.full(n_ex, np.inf)
    saddles = np.full(n_ex, -1, dtype=np.int64)
    partners = np.full(n_ex, -1, dtype=np.int64)
    if n_ex == 1:
        return pers, saddles, partners

    nbr, valid = neighbor_table(domain)
    boundary = valid & (label[nbr] != label[:, None])
    vv, kk = np.nonzero(boundary)
    uu = nbr[vv, kk]
    # the saddle of an edge is its TotalOrder-larger endpoint; each
    # undirected edge shows up twice, the second hit is a no-op union
    swap = (w[uu] > w[vv]) | ((w[uu] == w[vv]) & (uu > vv))
    sad = np.where(swap, uu, vv)
    order = np.lexsort((sad, w[sad]))
    lab_a = label[vv][order]
    lab_b = label[uu][order]
    sad = sad[order]

    uf = np.arange(n_ex)

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    ex_w = w[ex_vertices]
    for e in range(sad.size):
        ra, rb = find(int(lab_a[e])), find(int(lab_b[e]))
        if ra == rb:
            continue
        # elder rule: the younger component representative dies here
        if (ex_w[ra], ra) < (ex_w[rb], rb):
            elder, young = ra, rb
        else:
            elder, young = rb, ra
        s = int(sad[e])
        pers[young] = w[s] - ex_w[young]
        saddles[young] = s
        partners[young] = elder
        uf[young] = elder
    return pers, saddles, partners


def oracle_spanning_forest(a, b, n: int) -> list[int]:
    """Kruskal's algorithm over edges k = (a[k], b[k]) taken in position
    order: the positions of the edges that join two components."""
    uf = list(range(n))

    def find(x: int) -> int:
        while uf[x] != x:
            x = uf[x]
        return x

    out = []
    for k, (u, v) in enumerate(zip(a, b)):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            uf[ru] = rv
            out.append(k)
    return out


def oracle_extrema(w: np.ndarray, values: np.ndarray, domain: GridDomain, kind):
    """The tuple of ``Extremum`` objects a labeling of w stands for, from
    the oracle descent and sweep."""
    ptr = oracle_descent_pointers(w, domain)
    ex = np.flatnonzero(ptr == np.arange(w.size))
    root = ptr
    while not np.array_equal(root[root], root):
        root = root[root]
    pers = oracle_merge_sweep(w, domain, np.searchsorted(ex, root), ex)[0]
    return tuple(Extremum(i, int(v), float(values[v]), float(pers[i]), kind)
                 for i, v in enumerate(ex))


# Adapters from per-object test inputs to the library's columns, and
# per-entry views of its results. The library takes columns only and
# builds objects only as output views.


def extremum_columns(kind, extrema) -> ExtremumColumns:
    """The columns of a sequence of ``Extremum``; row i is the i-th one, as
    ids are implicit."""
    extrema = list(extrema)
    return ExtremumColumns(kind, [e.vertex for e in extrema], [e.value for e in extrema],
                           [e.persistence for e in extrema])


def feature_set(t: int, sets) -> FeatureSet:
    """The columns of a sequence of extremum-id sequences, one per feature."""
    sets = [list(s) for s in sets]
    return FeatureSet(t, np.array(list(chain.from_iterable(sets)), dtype=np.int64),
                      [len(s) for s in sets])


def index_sets(fs) -> tuple[tuple[int, ...], ...]:
    """The extremum ids of each feature of fs, in feature order."""
    ends = np.cumsum(fs.sizes).tolist()
    flat = fs.members.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))


def neighborhood(domain: GridDomain, v: int, mode, d, lattice_units=False) -> np.ndarray:
    """The sorted vertices of v's sampling neighborhood, through the
    library's one offset stencil; the combinatorial one of radius 1 is v's
    1-ring plus v."""
    ids, inside = stencil_vertices(domain, sampling_offsets(domain, mode, d, lattice_units), [v])
    return np.sort(ids[inside])


def layer_of(nodes) -> NodeColumns:
    """The columns of a sequence of ``GraphNode``, sorted by (t, id); the
    nodes' tracks are not node columns and are left out."""
    nodes = sorted(nodes, key=lambda n: (n.t, n.id))
    return NodeColumns(*(np.array([getattr(n, k) for n in nodes], dtype).reshape(len(nodes))
                         for k, dtype in (("t", np.int64), ("id", np.int64), ("kind", str),
                                          ("vertex", np.int64), ("value", np.float64))),
                       _pos_array([n.pos for n in nodes], len(nodes)))


def node_views(layer: NodeColumns) -> list[GraphNode]:
    """The ``GraphNode`` of each row of ``layer``, with no track (-1)."""
    no_tracks = np.full(len(layer), -1, np.int64)
    return list(TrackingGraph(layer, EdgeColumns.concat([]), tracks=no_tracks).nodes)


def edges_of(nodes, t, i, j, pf, pb, strength) -> EdgeColumns:
    """The columns of edges joining node (t, i) to node (t + 1, j) of the
    ``NodeColumns`` nodes, sorted by (src, dst); an absent node gets row -1,
    which ``TrackingGraph`` refuses, and an absent probability (None or
    NaN) becomes NaN."""
    t, i, j = (np.asarray(a, np.int64).reshape(-1) for a in (t, i, j))
    src, dst = nodes.rows(t, i), nodes.rows(t + 1, j)
    order = np.lexsort((dst, src))
    return EdgeColumns(src[order], dst[order],
                       *(np.asarray(a, np.float64).reshape(-1)[order] for a in (pf, pb, strength)))


def graph_of(nodes, edges, meta=None) -> TrackingGraph:
    """A graph of ``GraphNode``/``GraphEdge`` sequences that keeps the
    nodes' tracks."""
    nodes = sorted(nodes, key=lambda n: (n.t, n.id))
    layer, edges = layer_of(nodes), list(edges)
    columns = ([getattr(e, k) for e in edges]
               for k in ("t", "i", "j", "p_forward", "p_backward", "strength"))
    return TrackingGraph(layer, edges_of(layer, *columns), meta,
                         np.array([n.track for n in nodes], np.int64))


def _oracle_records(doc, name: str, keys: tuple[str, ...]) -> list[dict]:
    records = doc.get(name) if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise ValueError(f"a graph document needs a {name!r} list")
    for k, x in enumerate(records):
        missing = [key for key in keys if key not in x] if isinstance(x, dict) else list(keys)
        if missing:
            raise ValueError(f"{name}[{k}] lacks {', '.join(missing)}")
    return records


def oracle_column(records: list[dict], name: str, key: str, default=None):
    """``key`` of every record, checked as the tree reader checks it."""
    c = [x.get(key, default) for x in records]
    if key == "kind":
        bad = [k for k in c if k not in ("extremum", "feature")]
        if bad:
            raise ValueError(f"node kind {bad[0]!r} is neither 'extremum' nor 'feature'")
        return c
    integer = key in ("t", "id", "vertex", "track", "i", "j")
    a = (_ints if integer else _reals)(c, f"{name} {key!r}")
    shape = "one list of numbers" if key == "pos" else "one integer" if integer else "one number"
    if c and a.ndim != 1 + (key == "pos"):
        raise ValueError(f"each {name} {key!r} must be {shape}")
    return a


def oracle_import_graph(text: str) -> TrackingGraph:
    """The tree reader: the whole document parsed by ``json.loads``, then
    checked and read into columns key by key, raising the first error in
    the order the library's reader must keep."""
    doc = json.loads(text)
    node_keys = ("t", "id", "kind", "vertex", "value", "pos", "track")
    nd = _oracle_records(doc, "nodes", node_keys)
    ed = _oracle_records(doc, "edges", ("t", "i", "j", "strength"))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("graph meta must be an object")
    t, id, kind, vertex, value, pos, track = (oracle_column(nd, "node", k) for k in node_keys)
    order = np.lexsort((id, t))
    nodes = NodeColumns(t[order], id[order], np.asarray(kind, str)[order], vertex[order],
                        value[order], _pos_array(pos, len(nd))[order])
    tracks = track[order]
    if len(nodes) and nodes.t[0] < 0:
        raise ValueError(f"node t{nodes.t[0]} #{nodes.id[0]} has a negative step")
    twice = np.flatnonzero((np.diff(nodes.t) == 0) & (np.diff(nodes.id) == 0))
    if twice.size:
        k = twice[0]
        raise ValueError(f"node t{nodes.t[k]} #{nodes.id[k]} is listed twice")
    t, i, j, pf, pb, strength = (oracle_column(ed, "edge", k, float("nan"))
                                 for k in ("t", "i", "j", "pf", "pb", "strength"))
    src, dst = nodes.rows(t, i), nodes.rows(t + 1, j)
    absent = np.flatnonzero((src < 0) | (dst < 0))
    if absent.size:
        k = absent[np.lexsort((j[absent], i[absent], t[absent]))[0]]
        raise ValueError(f"edge t{t[k]} {i[k]} -> {j[k]} names a node that does not exist")
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    twice = np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))
    if twice.size:
        a, b = src[twice[0]], dst[twice[0]]
        raise ValueError(f"edge t{nodes.t[a]} {nodes.id[a]} -> {nodes.id[b]} is listed twice")
    e = EdgeColumns(src, dst, pf[order], pb[order], strength[order])
    if not ((e.strength > 0.0) & (e.strength <= 1.0)).all():
        raise ValueError("edge strengths must lie in (0, 1]")
    for name, p in (("pf", e.pf), ("pb", e.pb)):
        if ((p <= 0.0) | (p > 1.0)).any():
            raise ValueError(f"edge {name} values must lie in (0, 1]")
    if (np.isnan(e.pf) & np.isnan(e.pb)).any():
        raise ValueError("an edge needs pf or pb")
    return TrackingGraph(nodes, e, meta, tracks)


def nodes_at(g, t: int) -> list[GraphNode]:
    """The nodes of layer t, by id."""
    return [n for n in g.nodes if n.t == t]


def edge_set(g) -> set[tuple[int, int, int]]:
    """Every edge of g as (t, i, j)."""
    return set(zip(*(a.tolist() for a in g.edge_ends())))


def items(m):
    """(i, j, value) per stored entry, the value of m's kind."""
    return zip(m.i.tolist(), m.j.tolist(), m.values.tolist())


def support(m) -> set[tuple[int, int]]:
    """The (i, j) of every stored entry."""
    return set(zip(m.i.tolist(), m.j.tolist()))


def _at(m, i: int, j: int, values: np.ndarray):
    hit = np.flatnonzero((m.i == i) & (m.j == j))
    return values[hit[0]] if hit.size else 0


def entry(m, i: int, j: int) -> int:
    """The count at (i, j), 0 where no entry is stored."""
    return int(_at(m, i, j, m.counts))


def prob(m, i: int, j: int) -> float:
    """The probability at (i, j), 0.0 where no entry is stored."""
    return float(_at(m, i, j, m.probs))


def assert_oracle_entries(m, dense) -> None:
    """m stores one strictly ascending row-major key per nonzero cell of the
    dense oracle, with that cell's count."""
    ii, jj = np.nonzero(dense)  # in row-major order
    keys, counts = ii * dense.shape[1] + jj, dense[ii, jj]
    assert (np.diff(m.keys) > 0).all()
    assert np.array_equal(m.keys, keys) and np.array_equal(m.counts, counts)


def row(m, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and counts of row i."""
    at = m.i == i
    return m.j[at], m.counts[at]


# Reference implementations of the tracking graph and the artifact writers:
# one Python object per node, edge and matrix entry, kept as the judges of
# the column-array code in extrack.trackgraph and extrack.correspond.


def matrix_to_doc(m, t: int) -> dict:
    """The JSON document of a matrix file, built from Python lists: the
    oracle of ``correspond.save_matrix``."""
    return {
        "t": int(t),
        "kind": m.kind,
        "direction": m.direction,
        "strategy": m.strategy,
        "rows": int(m.rows),
        "cols": int(m.cols),
        "denominators": m.row_denominators.tolist(),
        "entries": [list(e) for e in zip(m.i.tolist(), m.j.tolist(), m.counts.tolist())],
    }


def oracle_matrix_json(m, t: int) -> str:
    """A matrix file's text through the standard library encoder."""
    return json.dumps(matrix_to_doc(m, t), sort_keys=True, indent=2) + "\n"


def load_matrix(path):
    """The matrix and step of a matrix file."""
    return doc_to_matrix(json.loads(Path(path).read_text(encoding="utf-8")))


def unassigned_mass(m) -> np.ndarray:
    """Per-row share of the denominator that no stored entry accounts for,
    e.g. mass pointing outside the other step's features."""
    return (m.row_denominators - m.row_sums()) / m.row_denominators


def oracle_extremum_layers(labelings):
    return [
        [GraphNode(t, e.id, "extremum", e.vertex, e.value, lab.domain.position(e.vertex))
         for e in lab.extrema]
        for t, lab in enumerate(labelings)
    ]


def _oracle_edge_strength(rule, pf, pb):
    present = [p for p in (pf, pb) if p is not None]
    if rule == "max":
        return max(present)
    if rule == "min":
        return min(present)
    return sum(present) / len(present)


def oracle_propagate_tracks(layers, edges):
    """Track ids layer by layer along strongest edges, per node object."""
    incoming: dict = {}
    for e in edges:
        incoming.setdefault(e.t + 1, {}).setdefault(e.j, []).append(e)

    next_track = 0
    track_of: dict = {}
    out = []
    for t, layer in enumerate(layers):
        heir_of: dict = {}
        best_pred: dict = {}
        for node in sorted(layer, key=lambda n: n.id):
            cands = incoming.get(t, {}).get(node.id, [])
            if not cands:
                continue
            top = max(e.strength for e in cands)
            winners = [e.i for e in cands if e.strength == top]
            if len(winners) != 1:
                continue  # ambiguous merge: fresh track
            i = winners[0]
            best_pred[node.id] = (top, i)
            cur = heir_of.get(i)
            if cur is None or (top, -node.id) > (cur[0], -cur[1]):
                heir_of[i] = (top, node.id)
        for node in sorted(layer, key=lambda n: n.id):
            pred = best_pred.get(node.id)
            if pred is not None and heir_of[pred[1]][1] == node.id:
                track = track_of[(t - 1, pred[1])]
            else:
                track = next_track
                next_track += 1
            track_of[(t, node.id)] = track
            out.append(GraphNode(node.t, node.id, node.kind, node.vertex, node.value,
                                 node.pos, track))
    return tuple(out)


def oracle_assemble(layers, cm_forward, cm_backward, policy, strategy=None):
    """Edges from set joins and one ``prob`` lookup per direction and edge."""
    edges = []
    for t in range(len(layers) - 1):
        fwd, bwd = cm_forward[t], cm_backward[t]
        pairs = support(fwd)
        back_pairs = {(i, j) for j, i in support(bwd)}
        keep = pairs & back_pairs if policy.bidirectional else pairs | back_pairs
        for i, j in sorted(keep):
            pf = prob(fwd, i, j) or None
            pb = prob(bwd, j, i) or None
            edges.append(GraphEdge(t, i, j, pf, pb, _oracle_edge_strength(policy.strength, pf, pb)))
    nodes = oracle_propagate_tracks([node_views(layer) for layer in layers], edges)
    meta = {
        "strategy": strategy,
        "policy": {"bidirectional": policy.bidirectional, "strength": policy.strength},
        "thresholds": {},
    }
    return graph_of(nodes, edges, meta)


def oracle_threshold_filter(g, p_min, require="any"):
    def keep(e):
        present = [p for p in (e.p_forward, e.p_backward) if p is not None]
        if require == "both" and len(present) < 2:
            return False
        hits = [p > p_min for p in present]
        return all(hits) if require == "both" else any(hits)

    edges = tuple(e for e in g.edges if keep(e))
    nodes = oracle_propagate_tracks([nodes_at(g, t) for t in range(g.n_layers)], list(edges))
    meta = {**g.meta, "thresholds": {**g.meta.get("thresholds", {})}}
    meta["thresholds"]["probability"] = {"p_min": p_min, "require": require}
    return graph_of(nodes, edges, meta)


def oracle_semantic_filter(g, domain, predicate):
    def admits(n):
        p = predicate
        if p.value_min is not None and n.value < p.value_min:
            return False
        if p.value_max is not None and n.value > p.value_max:
            return False
        if p.box_min is not None and any(x < b for x, b in zip(n.pos, p.box_min)):
            return False
        if p.box_max is not None and any(x > b for x, b in zip(n.pos, p.box_max)):
            return False
        return True

    kept_nodes = tuple(n for n in g.nodes if admits(n))
    alive = {(n.t, n.id) for n in kept_nodes}
    pos_of = {(n.t, n.id): n.pos for n in g.nodes}

    def keep(e):
        if (e.t, e.i) not in alive or (e.t + 1, e.j) not in alive:
            return False
        if predicate.max_jump is not None:
            jump = minimum_image_distance(domain, pos_of[(e.t, e.i)], pos_of[(e.t + 1, e.j)])
            if jump > predicate.max_jump:
                return False
        return True

    edges = tuple(e for e in g.edges if keep(e))
    layers = [[n for n in kept_nodes if n.t == t] for t in range(g.n_layers)]
    nodes = oracle_propagate_tracks(layers, list(edges))
    meta = {**g.meta, "thresholds": {**g.meta.get("thresholds", {})}}
    meta["thresholds"]["semantic"] = {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in (
            ("value_min", predicate.value_min),
            ("value_max", predicate.value_max),
            ("box_min", predicate.box_min),
            ("box_max", predicate.box_max),
            ("max_jump", predicate.max_jump),
        )
        if v is not None
    }
    return graph_of(nodes, edges, meta)


def oracle_export_json(g) -> str:
    nodes = [
        {
            "t": n.t, "id": n.id, "kind": n.kind, "vertex": n.vertex,
            "value": n.value, "pos": list(n.pos), "track": n.track,
        }
        for n in sorted(g.nodes, key=lambda n: (n.t, n.id))
    ]
    edges = []
    for e in sorted(g.edges, key=lambda e: (e.t, e.i, e.j)):
        doc = {"t": e.t, "i": e.i, "j": e.j, "strength": e.strength}
        if e.p_forward is not None:
            doc["pf"] = e.p_forward
        if e.p_backward is not None:
            doc["pb"] = e.p_backward
        edges.append(doc)
    return json.dumps({"meta": g.meta, "nodes": nodes, "edges": edges},
                      sort_keys=True, indent=2) + "\n"


def oracle_export_dot(g) -> str:
    def strength_bin(s):
        """The (lo, hi] bin of (0,.25] (.25,.5] (.5,.75] (.75,1] that holds
        s; a strength of 0, which only a hand-built graph has, goes first."""
        edges = (-math.inf, 0.25, 0.5, 0.75, 1.0)
        bins = [b for b, (lo, hi) in enumerate(zip(edges, edges[1:])) if lo < s <= hi]
        assert len(bins) == 1, f"strength {s} lies in no bin"
        return bins[0]

    lines = [
        "// tracking graph: layers = time steps, columns left to right",
        "// edge width bins by strength: (0,0.25] (0.25,0.5] (0.5,0.75] (0.75,1]",
        "// node fill keyed by track id",
        "digraph tracking {",
        "  rankdir=LR;",
        "  node [shape=circle, style=filled];",
    ]
    for t in range(g.n_layers):
        layer = sorted(nodes_at(g, t), key=lambda n: n.id)
        lines.append(f"  subgraph layer_{t} {{")
        lines.append("    rank=same;")
        for n in layer:
            color = _TRACK_COLORS[n.track % len(_TRACK_COLORS)]
            label = f"t{n.t} #{n.id}\\n{n.value:.4g}"
            lines.append(
                f'    n{n.t}_{n.id} [label="{label}", fillcolor="{color}", tooltip="track {n.track}"];'
            )
        lines.append("  }")
    for e in sorted(g.edges, key=lambda e: (e.t, e.i, e.j)):
        width = _BIN_WIDTHS[strength_bin(e.strength)]
        lines.append(
            f"  n{e.t}_{e.i} -> n{e.t + 1}_{e.j} "
            f'[penwidth={width}, label="{e.strength:.3f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_compare_report(strategies, per_strategy) -> tuple[str, str]:
    """The texts of compare.json and compare.txt from one dict per strategy
    keyed (direction, step, i, j), one dict per binary pair and
    ``json.dumps``. ``per_strategy`` maps each strategy to its (matrix,
    step) list and its report entry, as ``cli._write_report`` receives them;
    only the entry's ``graph_edges`` and ``tracks`` are read."""
    probs = {}
    for strategy, (mats, _) in per_strategy.items():
        probs[strategy] = {}
        for m, s in mats:
            for i, j, p in zip(m.i.tolist(), m.j.tolist(), m.probs.tolist()):
                probs[strategy][(m.direction, s, i, j)] = p
    binary = probs.get("binary")
    report = {"strategies": {}, "binary_pairs": []}
    for strategy in strategies:
        _, given = per_strategy[strategy]
        entry = {
            "correspondence_entries": len(probs[strategy]),
            "graph_edges": given["graph_edges"],
            "tracks": given["tracks"],
        }
        if binary is not None:
            kept = binary.keys() & probs[strategy].keys()
            entry["binary_retention_pct"] = round(100.0 * len(kept) / len(binary), 3) \
                if binary else 100.0
            entry["mean_prob_on_binary_pairs"] = round(
                float(np.mean([probs[strategy][k] for k in sorted(kept)])), 6
            ) if kept else None
        report["strategies"][strategy] = entry
    if binary is not None:
        for key in sorted(binary):
            direction, t, i, j = key
            report["binary_pairs"].append({
                "direction": direction, "t": t, "i": i, "j": j,
                "probs": {s: round(probs[s].get(key, 0.0), 6) for s in strategies},
            })
    lines = [f"{'strategy':24} {'entries':>8} {'edges':>6} {'tracks':>7} {'retention':>10} {'mean-p':>8}"]
    for strategy in strategies:
        e = report["strategies"][strategy]
        ret = e.get("binary_retention_pct")
        mp = e.get("mean_prob_on_binary_pairs")
        lines.append(
            f"{strategy:24} {e['correspondence_entries']:>8} {e['graph_edges']:>6} "
            f"{e['tracks']:>7} {'' if ret is None else f'{ret:9.1f}%':>10} "
            f"{'' if mp is None else f'{mp:8.4f}':>8}"
        )
    return json.dumps(report, sort_keys=True, indent=2) + "\n", "\n".join(lines) + "\n"

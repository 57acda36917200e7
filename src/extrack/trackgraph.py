"""Time-layered tracking graph: assembly, filtering, and export.

Nodes are the extrema (or features) of each time step; edges connect
consecutive steps wherever the correspondence matrices allow it under the
connectivity policy. Track ids flow along the strongest edges: a node
whose strongest predecessor is unique, and which is in turn that
predecessor's strongest successor, continues the predecessor's track;
every other node starts a fresh track. All tie-breaks go to the lower id,
so identical inputs always produce identical graphs.

The graph is held as column arrays (``NodeColumns``, ``EdgeColumns``);
assembly, track propagation, the filters and both writers work on those
columns. An edge is the pair of node rows of its two ends (``src``,
``dst``), and nothing else names them: ``assemble`` reads the rows off the
layer offsets, the filters carry them along, and ``doc_to_graph`` finds
them with one search per end. The (t, i, j) of the documents, the DOT
output and the ``GraphEdge`` views is derived from the rows in one place,
``TrackingGraph.edge_ends``. A node's track id is not stored with the
node: it belongs to the graph, ``TrackingGraph.tracks``, derived from the
edges when first read unless a document gave it, so a graph that only
feeds the next filter never propagates tracks. A graph document is read
a chunk of records at a time (``read_document``); one that fails a check
is read again as a whole tree, which gives every reader error.
Every entry point takes columns; ``GraphNode``/``GraphEdge`` objects are
read-only output views, built only when a caller reads
``TrackingGraph.nodes`` or ``.edges``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Literal, Sequence

import numpy as np

from .correspond import OverlapMatrix, _find, _ints, _json_list, _reals, _records, _rows
from .field import GridDomain, minimum_image_distance, open_output
from .morse import ManifoldLabeling, _chunks, _id_dtype, _resolve_roots

Strength = Literal["max", "avg", "min"]
# what a node stands for; ``NodeColumns.kind`` holds each node's index here
NODE_KINDS = ("extremum", "feature")

# DOT styling: probability bins (0,.25], (.25,.5], (.5,.75], (.75,1]
_BIN_EDGES = (0.25, 0.5, 0.75)
_BIN_WIDTHS = (1.0, 2.0, 3.5, 5.0)
_TRACK_COLORS = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
    "#aa3377", "#bbbbbb", "#222255", "#225555", "#555522",
)


@dataclass(frozen=True)
class GraphNode:
    t: int
    id: int
    kind: Literal["extremum", "feature"]
    vertex: int
    value: float
    pos: tuple[float, ...]
    track: int = -1


@dataclass(frozen=True)
class GraphEdge:
    t: int  # connects layer t to layer t+1
    i: int
    j: int
    p_forward: float | None
    p_backward: float | None
    strength: float


@dataclass(frozen=True)
class ConnectivityPolicy:
    bidirectional: bool = True
    strength: Strength = "max"

    def __post_init__(self):
        if self.strength not in ("max", "avg", "min"):
            raise ValueError(f"unknown strength rule {self.strength!r}")


def _pos_array(pos, n: int) -> np.ndarray:
    a = np.asarray(pos, np.float64)
    if a.ndim == 2:
        return a
    return a.reshape(n, -1) if n else np.empty((0, 0))


@dataclass(frozen=True, eq=False)
class NodeColumns:
    """Nodes as parallel arrays, sorted by (t, id); ``pos`` has shape (n, rank)
    and ``kind`` holds uint8 indices into ``NODE_KINDS``."""

    t: np.ndarray
    id: np.ndarray
    kind: np.ndarray
    vertex: np.ndarray
    value: np.ndarray
    pos: np.ndarray

    @classmethod
    def for_step(cls, t: int, kind: str, vertex, value, pos) -> "NodeColumns":
        """One time step's nodes with ids 0..n-1."""
        n = len(vertex)
        return cls(np.full(n, t, np.int64), np.arange(n, dtype=np.int64),
                   np.full(n, NODE_KINDS.index(kind), np.uint8),
                   np.asarray(vertex, np.int64), np.asarray(value, np.float64),
                   _pos_array(pos, n))

    @classmethod
    def concat(cls, parts: Sequence["NodeColumns"]) -> "NodeColumns":
        parts = [p for p in parts if len(p)]  # an empty part has no rank
        if not parts:
            return cls.for_step(0, "extremum", [], [], [])
        return cls(*(np.concatenate([getattr(p, f) for p in parts])
                     for f in ("t", "id", "kind", "vertex", "value", "pos")))

    def take(self, keep: np.ndarray) -> "NodeColumns":
        return NodeColumns(self.t[keep], self.id[keep], self.kind[keep], self.vertex[keep],
                           self.value[keep], self.pos[keep])

    def __len__(self) -> int:
        return self.t.size

    def rows(self, t: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Row of each (t, id) pair, -1 where no such node exists, in
        ``_id_dtype(len(self))``, the type of every edge's node rows."""
        # a node's key packs two ranks below len(self) + 1: the first row of
        # its step and the position of its id among the sorted ids, so it is
        # exact for any int64 values and ascends, as rows are (t, id)-sorted.
        # An absent id ranks len(self) (-1 % base), which no node has, and
        # an absent step (-1) makes the key negative
        known = np.sort(self.id)
        base = known.size + 1
        key = np.searchsorted(self.t, self.t) * base + np.searchsorted(known, self.id)
        rows = _find(key, _find(self.t, t) * base + _find(known, ids) % base)
        return rows.astype(_id_dtype(len(self)), copy=False)


@dataclass(frozen=True, eq=False)
class EdgeColumns:
    """Edges as parallel arrays, sorted by (src, dst).

    Edge k joins node row ``src[k]`` of the graph's ``NodeColumns`` to node
    row ``dst[k]`` one step later; as nodes are (t, id)-sorted, this is
    (t, i, j) order. ``pf``/``pb`` are NaN where that direction has no
    matrix entry. Rows have ``_id_dtype`` of the node count.
    """

    src: np.ndarray
    dst: np.ndarray
    pf: np.ndarray
    pb: np.ndarray
    strength: np.ndarray

    @classmethod
    def concat(cls, parts: Sequence["EdgeColumns"]) -> "EdgeColumns":
        if not parts:
            rows, probs = np.empty(0, _id_dtype(0)), np.empty(0)
            return cls(rows, rows, probs, probs, probs)
        if len(parts) == 1:  # as it is: a copy would double the edges' memory
            return parts[0]
        return cls(*(np.concatenate([getattr(p, f) for p in parts])
                     for f in ("src", "dst", "pf", "pb", "strength")))

    def take(self, keep: np.ndarray) -> "EdgeColumns":
        return EdgeColumns(self.src[keep], self.dst[keep], self.pf[keep], self.pb[keep],
                           self.strength[keep])

    def __len__(self) -> int:
        return self.src.size


class TrackingGraph:
    """Nodes, edges and metadata of one tracking graph, as columns, and
    the track id of each node row: ``tracks`` as given, or else derived
    from the edges when first read."""

    def __init__(self, nodes: NodeColumns, edges: EdgeColumns, meta: dict | None = None,
                 tracks: np.ndarray | None = None):
        self.node_columns, self.edge_columns = n, e = nodes, edges
        self.meta = {} if meta is None else meta
        if tracks is not None:
            assert tracks.shape == (len(n),)
            self.tracks = tracks  # takes the place of the derived value
        for c in _chunks(len(e)):  # edges may only span one step, between known nodes
            src, dst = e.src[c], e.dst[c]
            assert ((src >= 0) & (src < len(n)) & (dst >= 0) & (dst < len(n))).all()
            assert (n.t[dst] == n.t[src] + 1).all()
            assert ((e.strength[c] >= 0.0) & (e.strength[c] <= 1.0)).all()
            assert (~np.isnan(e.pf[c]) | ~np.isnan(e.pb[c])).all()

    @cached_property
    def tracks(self) -> np.ndarray:
        return _propagate_tracks(self.node_columns, self.edge_columns)

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, i, j) of every edge: it joins node (t, i) to node (t + 1, j)."""
        n, e = self.node_columns, self.edge_columns
        return n.t[e.src], n.id[e.src], n.id[e.dst]

    @cached_property
    def nodes(self) -> tuple[GraphNode, ...]:
        n = self.node_columns
        pos = [tuple(p) for p in n.pos.tolist()]
        kinds = map(NODE_KINDS.__getitem__, n.kind.tolist())
        return tuple(map(GraphNode, n.t.tolist(), n.id.tolist(), kinds,
                         n.vertex.tolist(), n.value.tolist(), pos, self.tracks.tolist()))

    @cached_property
    def edges(self) -> tuple[GraphEdge, ...]:
        e = self.edge_columns

        def opt(a):
            return [None if p != p else p for p in a.tolist()]

        return tuple(map(GraphEdge, *(a.tolist() for a in self.edge_ends()),
                         opt(e.pf), opt(e.pb), e.strength.tolist()))

    @property
    def n_layers(self) -> int:
        return 1 + int(self.node_columns.t.max(initial=-1))


def extremum_layers(labelings: Sequence[ManifoldLabeling]) -> list[NodeColumns]:
    """Node columns for each step's extrema."""
    return [NodeColumns.for_step(t, "extremum", lab.extrema.vertex, lab.extrema.value,
                                 lab.domain.positions(lab.extrema.vertex))
            for t, lab in enumerate(labelings)]


def _propagate_tracks(nodes: NodeColumns, edges: EdgeColumns) -> np.ndarray:
    """Track id per node row, assigned along strongest edges."""
    n = len(nodes)
    src, dst, s = edges.src, edges.dst, edges.strength

    # each node's strongest incoming edge; an exact tie means no predecessor
    top = np.full(n, -np.inf)
    np.maximum.at(top, dst, s)
    at_top = s == top[dst]
    pred = np.full(n, -1, np.int64)
    pred[dst[at_top]] = src[at_top]
    pred[np.bincount(dst[at_top], minlength=n) != 1] = -1

    # each predecessor's heir: the strongest claimant, ties to the lower id,
    # which is the lower row, as all claimants share one layer
    claim = np.flatnonzero(pred >= 0)
    best = np.full(n, -np.inf)
    np.maximum.at(best, pred[claim], top[claim])
    claim = claim[top[claim] == best[pred[claim]]]
    heir = np.full(n, n, np.int64)
    np.minimum.at(heir, pred[claim], claim)

    # heirs point at their predecessor; the rest start fresh tracks,
    # numbered in (t, id) order, which is row order
    ptr = np.arange(n)
    has_heir = np.flatnonzero(heir < n)
    ptr[heir[has_heir]] = has_heir
    root = _resolve_roots(ptr)
    fresh_id = np.cumsum(ptr == np.arange(n)) - 1
    return fresh_id[root]


def _pair_edges(first_t: np.integer, first_next: np.integer, fwd: OverlapMatrix,
                bwd: OverlapMatrix, policy: ConnectivityPolicy) -> EdgeColumns:
    """Edges between two consecutive layers, whose first node rows are
    ``first_t`` and ``first_next``, from one forward/backward matrix pair."""
    if policy.bidirectional:
        i, j = fwd.unkey(fwd.keys)
        pb = bwd.probs_at(bwd.key(j, i))  # each forward entry's transpose
        both = ~np.isnan(pb)  # probabilities are positive: NaN marks absence
        i, j, pf, pb = i[both], j[both], fwd._probs(both), pb[both]
    else:
        keys = np.union1d(fwd.keys, fwd.key(bwd.j, bwd.i))
        i, j = fwd.unkey(keys)
        pf, pb = fwd.probs_at(keys), bwd.probs_at(bwd.key(j, i))
    if policy.strength == "max":
        strength = np.fmax(pf, pb)
    elif policy.strength == "min":
        strength = np.fmin(pf, pb)
    else:
        # the mean of the present probabilities; a sum of two rounds once
        # and halving is exact, as in sum([pf, pb]) / 2
        both = ~np.isnan(pf) & ~np.isnan(pb)
        strength = np.where(both, (pf + pb) / 2, np.fmax(pf, pb))
    # matrix keys ascend row-major, so the rows come out (src, dst)-sorted;
    # node rows take the type of first_t, whatever type the matrix keys have
    return EdgeColumns(first_t + i.astype(first_t.dtype, copy=False),
                       first_next + j.astype(first_t.dtype, copy=False),
                       pf, pb, strength)


def assemble(
    layers: Sequence[NodeColumns],
    cm_forward: Sequence[OverlapMatrix],
    cm_backward: Sequence[OverlapMatrix],
    policy: ConnectivityPolicy,
    strategy: str | None = None,
) -> TrackingGraph:
    """Connect consecutive layers per the policy; tracks follow the edges.

    ``cm_forward[t]`` maps layer t to t+1; ``cm_backward[t]`` maps layer
    t+1 back to t. A bidirectional policy requires both entries for an
    edge; otherwise either direction suffices. Matrix index k is node k
    of its layer, so each layer's ids must be 0..n-1.
    """
    if len(cm_forward) != len(layers) - 1 or len(cm_backward) != len(layers) - 1:
        raise ValueError("need exactly one matrix pair per consecutive layer pair")
    for t, x in enumerate(layers):
        if not np.array_equal(x.id, np.arange(len(x))):
            raise ValueError(f"layer {t} has node ids other than 0..{len(x) - 1}")
    first = np.cumsum([0] + [len(x) for x in layers])
    first = first.astype(_id_dtype(first[-1]))  # node rows, in the type of their ids
    parts = []
    for t in range(len(layers) - 1):
        fwd, bwd = cm_forward[t], cm_backward[t]
        n_t, n_n = len(layers[t]), len(layers[t + 1])
        if (fwd.rows, fwd.cols) != (n_t, n_n) or (bwd.rows, bwd.cols) != (n_n, n_t):
            raise ValueError(f"matrix shape mismatch at step {t}")
        parts.append(_pair_edges(first[t], first[t + 1], fwd, bwd, policy))
    meta = {
        "strategy": strategy,
        "policy": {"bidirectional": policy.bidirectional, "strength": policy.strength},
        "thresholds": {},
    }
    return TrackingGraph(NodeColumns.concat(layers), EdgeColumns.concat(parts), meta)


def _refiltered(g: TrackingGraph, keep_nodes: np.ndarray | None, keep_edges: np.ndarray,
                key: str, threshold: dict) -> TrackingGraph:
    nodes, edges = g.node_columns, g.edge_columns.take(keep_edges)  # tracks are derived anew
    if keep_nodes is not None:
        nodes = nodes.take(keep_nodes)
        row = np.cumsum(keep_nodes, dtype=_id_dtype(len(nodes))) - 1  # a kept node's row
        edges = replace(edges, src=row[edges.src], dst=row[edges.dst])
    meta = {**g.meta, "thresholds": {**g.meta.get("thresholds", {})}}
    meta["thresholds"][key] = threshold
    return TrackingGraph(nodes, edges, meta)


def check_p_min(p_min: float) -> None:
    """Refuse a probability threshold outside [0, 1], NaN included."""
    if not 0.0 <= p_min <= 1.0:
        raise ValueError(f"p_min must be in [0, 1], got {p_min}")


def threshold_filter(g: TrackingGraph, p_min: float, require: Literal["any", "both"] = "any") -> TrackingGraph:
    """Keep edges whose probabilities strictly exceed p_min, then redo tracks.

    ``require="any"`` passes an edge if one present direction clears the
    bar; ``"both"`` insists on two directions, both above it.
    """
    check_p_min(p_min)
    if require not in ("any", "both"):
        raise ValueError(f"unknown requirement {require!r}")
    e = g.edge_columns
    # NaN (absent direction) compares False, so it never clears the bar
    hit_f, hit_b = e.pf > p_min, e.pb > p_min
    keep = hit_f & hit_b if require == "both" else hit_f | hit_b
    return _refiltered(g, None, keep, "probability", {"p_min": p_min, "require": require})


@dataclass(frozen=True)
class SemanticPredicate:
    value_min: float | None = None
    value_max: float | None = None
    box_min: tuple[float, ...] | None = None
    box_max: tuple[float, ...] | None = None
    max_jump: float | None = None

    def __post_init__(self):
        for name in ("value_min", "value_max", "max_jump", "box_min", "box_max"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite, got {v}")
        if self.max_jump is not None and self.max_jump < 0:
            raise ValueError(f"max_jump must not be negative, got {self.max_jump}")
        if self.value_min is not None and self.value_max is not None:
            if self.value_min > self.value_max:
                raise ValueError("inverted value range")
        if self.box_min is not None and self.box_max is not None:
            if len(self.box_min) != len(self.box_max):
                raise ValueError("box_min and box_max have different ranks")
            if any(a > b for a, b in zip(self.box_min, self.box_max)):
                raise ValueError("inverted spatial box")

    def settings(self) -> dict:
        """The bounds that are set, a box as a list: the semantic filter's
        threshold record, and the CLI's echo of them."""
        return {f.name: list(v) if isinstance(v, tuple) else v
                for f in fields(self) if (v := getattr(self, f.name)) is not None}

    def check_rank(self, rank: int) -> None:
        """Refuse a box corner whose coordinate count is not the grid's rank."""
        for name in ("box_min", "box_max"):
            box = getattr(self, name)
            if box is not None and len(box) != rank:
                raise ValueError(f"{name} has rank {len(box)}, but the grid has rank {rank}")

    def admits(self, value: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Mask of the nodes (values, positions) inside the value window and
        box; positions have one axis per box coordinate."""
        ok = np.ones(value.size, dtype=bool)
        if self.value_min is not None:
            ok &= ~(value < self.value_min)
        if self.value_max is not None:
            ok &= ~(value > self.value_max)
        # an empty graph's positions may have no axes
        if self.box_min is not None and pos.size:
            ok &= ~(pos < np.asarray(self.box_min, np.float64)).any(axis=1)
        if self.box_max is not None and pos.size:
            ok &= ~(pos > np.asarray(self.box_max, np.float64)).any(axis=1)
        return ok


def semantic_filter(g: TrackingGraph, domain: GridDomain, predicate: SemanticPredicate) -> TrackingGraph:
    """Drop nodes outside the value/box constraints and edges that jump
    farther than allowed (minimum-image distance on periodic axes). A box
    whose rank is not the domain's is a ``ValueError``."""
    predicate.check_rank(domain.rank)
    n, e = g.node_columns, g.edge_columns
    alive = predicate.admits(n.value, n.pos)
    keep = alive[e.src] & alive[e.dst]
    if predicate.max_jump is not None:
        keep &= ~(minimum_image_distance(domain, n.pos[e.src], n.pos[e.dst]) > predicate.max_jump)
    return _refiltered(g, alive, keep, "semantic", predicate.settings())


def _document_chunks(g: TrackingGraph, format: str):
    if format == "json":
        return _json_chunks(g)
    if format == "dot":
        return _dot_chunks(g)
    raise ValueError(f"unknown export format {format!r}")


def export(g: TrackingGraph, format: Literal["json", "dot"]) -> str:
    """The graph document as text; ``save_graph`` writes the same bytes."""
    # decoding chunk by chunk, rather than decoding one joined bytes object,
    # never holds the document's bytes and its text at once
    return "".join([c.decode("ascii") for c in _document_chunks(g, format)])


def save_graph(g: TrackingGraph, format: Literal["json", "dot"], path) -> None:
    """Write ``export(g, format)`` to path block by block, as ASCII with
    ``\\n`` line ends, without holding the document whole."""
    chunks = _document_chunks(g, format)
    with open_output(path) as fh:
        fh.writelines(chunks)


def _json_float(x: float) -> str:
    """A float as ``json.dumps`` spells it."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_floats(a: np.ndarray) -> tuple:
    """A float column spelled as ``json.dumps`` spells floats."""
    return a, float.__repr__ if np.isfinite(a).all() else _json_float


def _optional(name: str):
    """Spells an edge probability's line, or nothing where it is absent (NaN)."""
    return lambda p: "" if p != p else f'      "{name}": {_json_float(p)},\n'


def _json_chunks(g: TrackingGraph):
    """The graph document as ``json.dumps(doc, sort_keys=True, indent=2)``
    lays it out, written straight from the columns."""
    n, e = g.node_columns, g.edge_columns
    t, i, j = g.edge_ends()
    edge_tmpl = '{\n      "i": %d,\n      "j": %d,\n%s%s      "strength": %s,\n      "t": %d\n    }'
    yield b'{\n  "edges": '
    yield from _json_list(edge_tmpl, [
        i, j, (e.pb, _optional("pb")), (e.pf, _optional("pf")), _json_floats(e.strength), t,
    ], len(e))
    del t, i, j
    meta = json.dumps(g.meta, sort_keys=True, indent=2).replace("\n", "\n  ")
    yield f',\n  "meta": {meta},\n  "nodes": '.encode()
    rank = n.pos.shape[1]
    pos = "[]" if rank == 0 else "[\n" + ",\n".join(["        %s"] * rank) + "\n      ]"
    node_tmpl = ('{\n      "id": %d,\n      "kind": %s,\n      "pos": ' + pos
                 + ',\n      "t": %d,\n      "track": %d,\n      "value": %s,'
                 '\n      "vertex": %d\n    }')
    yield from _json_list(node_tmpl, [
        n.id, (n.kind, _KIND_JSON.__getitem__), *(_json_floats(n.pos[:, a]) for a in range(rank)),
        n.t, g.tracks, _json_floats(n.value), n.vertex,
    ], len(n))
    yield b"\n}\n"


_KIND_JSON = tuple(map(json.dumps, NODE_KINDS))
_NODE_KEYS = ("t", "id", "kind", "vertex", "value", "pos", "track")
_EDGE_KEYS = ("t", "i", "j", "strength")
# each list of a graph document: the noun its messages use, the keys every
# record needs, the columns read from it and the value of an absent key
_LISTS = {
    "nodes": ("node", _NODE_KEYS, _NODE_KEYS, None),
    "edges": ("edge", _EDGE_KEYS, ("t", "i", "j", "pf", "pb", "strength"), float("nan")),
}


class _Columns(list):
    """A graph document's list as the checked columns that the walk read."""


def _columns(name: str, records: list) -> list[np.ndarray]:
    """The checked columns of the ``name`` list's records, each of which
    holds every key it needs, or the ``_Columns`` the walk read."""
    if isinstance(records, _Columns):
        return records
    what, keys, columns, default = _LISTS[name]
    return [_column(list(map(itemgetter(key), records)) if key in keys
                    else [x.get(key, default) for x in records], what, key)
            for key in columns]


def _column(c: list, name: str, key: str) -> np.ndarray:
    """The values ``c`` of ``key``, one per record, checked: an integer key
    as one int64 per record, a node kind as one of ``NODE_KINDS``, read as
    its index there, a position as one list of float64 per record and any
    other number as one float64 per record."""
    if key == "kind":
        bad = [k for k in c if k not in NODE_KINDS]
        if bad:
            raise ValueError(f"node kind {bad[0]!r} is neither 'extremum' nor 'feature'")
        return np.fromiter(map(NODE_KINDS.index, c), np.uint8, len(c))
    integer = key in ("t", "id", "vertex", "track", "i", "j")
    a = (_positions if key == "pos" else _ints if integer else _reals)(c, f"{name} {key!r}")
    shape = "one list of numbers" if key == "pos" else "one integer" if integer else "one number"
    if c and a.ndim != 1 + (key == "pos"):
        raise ValueError(f"each {name} {key!r} must be {shape}")
    return a


def _positions(c: list, what: str) -> np.ndarray:
    """``_reals(c, what)`` of positions, read as one flat list where each is
    a list of numbers of one length: numpy finds the shape of a nested list
    item by item, several times slower."""
    try:
        sizes = set(map(len, c))
        flat = _reals(list(chain.from_iterable(c)), what)
        if len(sizes) == 1 and flat.ndim == 1:
            return flat.reshape(len(c), sizes.pop())
    except (TypeError, ValueError):
        pass  # the nested read raises the error of the nested list
    return _reals(c, what)


_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match
# the separator after a list item, with the whitespace around it
_NEXT_ITEM = re.compile(r"[ \t\n\r]*([,\]])[ \t\n\r]*").match
_CHUNK = 2048  # records decoded before they become columns


def _token(text: str, i: int) -> tuple[str, int]:
    """The character after the whitespace at ``i`` ("" at the end) and the
    index past it."""
    i = _SPACE(text, i).end()
    return text[i:i + 1], i + 1


def _decode_list(name: str, text: str, i: int) -> tuple[_Columns, int]:
    """The ``name`` list that starts at ``i`` as ``_Columns``, and the index
    past it. The list is decoded ``_CHUNK`` records at a time, and each chunk
    becomes columns before the next is decoded. ``ValueError`` at the first
    thing this does not read: a value that is not a list, a chunk whose
    checks fail, or chunks whose positions do not concatenate."""
    if text[i:i + 1] != "[":
        raise ValueError("not a list")
    parts, chunk = [], []
    decode, add = _DECODER.raw_decode, chunk.append
    j = _SPACE(text, i + 1).end()
    if text[j:j + 1] == "]":
        return _Columns(_columns(name, [])), j + 1
    while True:
        record, j = decode(text, j)
        add(record)
        sep = _NEXT_ITEM(text, j)
        if sep is None:
            raise ValueError("no comma")
        j, last = sep.end(), sep[1] == "]"
        if last or len(chunk) == _CHUNK:
            parts.append(_columns(name, _records(chunk, name, _LISTS[name][1], "a graph document")))
            chunk.clear()
            if last:
                return _Columns([np.concatenate(c) for c in zip(*parts)]), j


def _walk(text: str) -> dict | None:
    """The top-level object of ``text`` with its lists read, decoded one
    value at a time, or None where the walk stops: at a top level that is
    not an object, at malformed JSON or at anything else ``raw_decode``
    refuses, nesting too deep included."""
    doc = {}
    try:
        c, i = _token(text, 0)
        if c != "{":
            return None
        c, i = _token(text, i)
        while c != "}":
            if c != '"':
                return None
            key, i = json.decoder.scanstring(text, i)
            c, i = _token(text, i)
            if c != ":":
                return None
            i = _SPACE(text, i).end()
            if key in _LISTS:
                doc[key], i = _decode_list(key, text, i)
            else:
                doc[key], i = _DECODER.raw_decode(text, i)
            c, i = _token(text, i)
            if c == ",":
                c, i = _token(text, i)
                if c == "}":  # a trailing comma
                    return None
            elif c != "}":
                return None
    except (ValueError, RecursionError):  # the nesting limit counts this walk's frames too
        return None
    return doc if _SPACE(text, i).end() == len(text) else None


def read_document(text: str):
    """The JSON document ``text`` as ``json.loads`` reads it, except that
    a top-level object's ``nodes`` and ``edges`` lists come as checked
    columns for ``doc_to_graph``. The object is decoded one top-level value
    at a time, and each list a chunk of records at a time, so a graph's
    records never exist all at once. Text that this walk does not read, a
    record that fails a check included, is read again whole by
    ``json.loads``, which raises its own error or returns the tree."""
    doc = _walk(text)
    return json.loads(text) if doc is None else doc


def import_graph(text: str) -> TrackingGraph:
    """Inverse of the JSON export; stored track ids are kept as-is. The
    text is read one top-level value at a time (``read_document``)."""
    return doc_to_graph(read_document(text))


def doc_to_graph(doc) -> TrackingGraph:
    """The graph of a parsed graph document; stored track ids are kept as-is.

    The document comes from outside, so every check raises ``ValueError``
    (also under ``python -O``): required keys, one integer in each integer
    key, one number in the others and one list of numbers in ``pos``, a
    known node kind, each node (t, id)
    listed once with t >= 0, each edge (t, i, j) listed once between nodes
    that exist in layers t and t+1, and probabilities and strengths in
    (0, 1]. The document is a ``json.loads`` tree or a ``read_document``
    one, whose lists come as columns that passed their checks: no list
    error comes from the walk.
    """
    doc = doc if isinstance(doc, dict) else {}
    nd, ed = doc.get("nodes"), doc.get("edges")
    for name, records in (("nodes", nd), ("edges", ed)):
        if not isinstance(records, _Columns):
            _records(records, name, _LISTS[name][1], "a graph document")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("graph meta must be an object")
    t, id, kind, vertex, value, pos, track = _columns("nodes", nd)
    order = np.lexsort((id, t))
    nodes = NodeColumns(t[order], id[order], kind[order], vertex[order], value[order],
                        _pos_array(pos, t.size)[order])
    tracks = track[order]
    del id, kind, vertex, value, pos, track
    # rows are (t, id)-sorted: a negative step comes first, a repeat next to its twin
    if len(nodes) and nodes.t[0] < 0:
        raise ValueError(f"node t{nodes.t[0]} #{nodes.id[0]} has a negative step")
    twice = np.flatnonzero((np.diff(nodes.t) == 0) & (np.diff(nodes.id) == 0))
    if twice.size:
        k = twice[0]
        raise ValueError(f"node t{nodes.t[k]} #{nodes.id[k]} is listed twice")
    t, i, j, pf, pb, strength = _columns("edges", ed)
    src, dst = nodes.rows(t, i), nodes.rows(t + 1, j)
    absent = np.flatnonzero((src < 0) | (dst < 0))
    if absent.size:
        k = absent[np.lexsort((j[absent], i[absent], t[absent]))[0]]
        raise ValueError(f"edge t{t[k]} {i[k]} -> {j[k]} names a node that does not exist")
    del t, i, j
    # (src, dst) order is (t, i, j) order: a repeat lies next to its twin
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    twice = np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))
    if twice.size:
        a, b = src[twice[0]], dst[twice[0]]
        raise ValueError(f"edge t{nodes.t[a]} {nodes.id[a]} -> {nodes.id[b]} is listed twice")
    e = EdgeColumns(src, dst, pf[order], pb[order], strength[order])
    if not ((e.strength > 0.0) & (e.strength <= 1.0)).all():  # NaN fails too
        raise ValueError("edge strengths must lie in (0, 1]")
    for name, p in (("pf", e.pf), ("pb", e.pb)):
        if ((p <= 0.0) | (p > 1.0)).any():  # NaN, an absent direction, passes
            raise ValueError(f"edge {name} values must lie in (0, 1]")
    if (np.isnan(e.pf) & np.isnan(e.pb)).any():
        raise ValueError("an edge needs pf or pb")
    return TrackingGraph(nodes, e, meta, tracks)


def _dot_chunks(g: TrackingGraph):
    yield (
        "// tracking graph: layers = time steps, columns left to right\n"
        "// edge width bins by strength: (0,0.25] (0.25,0.5] (0.5,0.75] (0.75,1]\n"
        "// node fill keyed by track id\n"
        "digraph tracking {\n"
        "  rankdir=LR;\n"
        "  node [shape=circle, style=filled];\n"
    ).encode()
    n, e = g.node_columns, g.edge_columns
    node_tmpl = '    n%d_%d [label="t%d #%d\\n%s", fillcolor="%s", tooltip="track %d"];\n'
    node_cols = [n.t, n.id, n.t, n.id, (n.value, "%.4g".__mod__),
                 (g.tracks % len(_TRACK_COLORS), _TRACK_COLORS.__getitem__), g.tracks]
    bounds = np.searchsorted(n.t, np.arange(g.n_layers + 1)).tolist()
    for t in range(g.n_layers):
        yield f"  subgraph layer_{t} {{\n    rank=same;\n".encode()
        yield from _rows(node_tmpl, "", node_cols, bounds[t], bounds[t + 1])
        yield b"  }\n"
    t, i, j = g.edge_ends()
    yield from _rows('  n%d_%d -> n%d_%d [penwidth=%s, label="%s"];\n', "", [
        t, i, t + 1, j,
        (np.searchsorted(_BIN_EDGES, e.strength), lambda b: str(_BIN_WIDTHS[b])),
        (e.strength, "%.3f".__mod__),
    ], 0, len(e))
    yield b"}\n"

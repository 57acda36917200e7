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

A step is read in its stored type (``field.step_values``): a float32 step
is sorted and compared as float32, with no float64 copy, and persistence
and the value range are taken in float64, so it labels as its float64
cast does.

Memory: on white noise, labeling and a simplification hold at most about
3.1 times the float64 field's bytes on top of the field, for a float32
step as well (tracemalloc). ``asc`` is dropped after descent, so the
forest's saddle vertices are read back from ``rank``; the sweep works in
sub-slabs of at most ``_slab_bound(V)`` vertices; Borůvka compacts the
edges it owns in place; and every other pass over a V- or edge-sized
array runs in ``_chunks``. Beyond the labels, the ranks and the first
edges, a phase holds one slab's boundary edges, one merge of first edges,
or a chunk's temporaries.

A labeling holds its extrema as columns (``ExtremumColumns``): vertex,
value and persistence arrays whose row i is extremum i. Basin sizes are
counted from the labels when first read.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Literal

import numpy as np

from .field import GridDomain, first_non_finite, offset_slices, step_values

ExtremumKind = Literal["minimum", "maximum"]


def _id_dtype(n: int):
    """The integer type of ids 0..n-1: int32 while n fits, else int64."""
    return np.int32 if n < 2**31 else np.int64


# The fewest items a chunked pass takes at once. Only tests lower it, so
# that small inputs run every chunked pass over many chunks.
_CHUNK_MIN = 1 << 13


def _chunk_size(n: int) -> int:
    """Items per chunk of a pass over n: max(_CHUNK_MIN, n / 8), so a
    chunked pass over a V- or edge-sized array keeps its temporaries to an
    eighth of it. More chunks would cost time when two steps label on two
    threads: each chunk takes the interpreter lock again."""
    return max(_CHUNK_MIN, -(-n // 8))


def _chunks(n: int):
    """Slices covering range(n) in order, ``_chunk_size(n)`` items each."""
    size = _chunk_size(n)
    return (slice(i, min(i + size, n)) for i in range(0, n, size))


def _total_order(w: np.ndarray, descending: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``(asc, rank)`` of the strict order on w: by value, ascending or
    ``descending``, ties to the lower vertex id either way.

    ``asc`` lists the vertex ids in that order, equal to
    ``np.argsort(w, kind="stable")`` (``np.argsort(-w, kind="stable")``
    when descending), and ``rank`` is its inverse; both have
    ``_id_dtype(w.size)``. The default (unstable, SIMD) argsort does the
    work, read backwards when descending, and only the runs of equal
    values are re-sorted by id (``_sort_runs``); the ties are found in
    chunks, so no sorted copy of w is made.
    """
    n = w.size
    dt = _id_dtype(n)
    asc = np.argsort(w).astype(dt)
    if descending:
        asc = asc[::-1].copy()
    tie = np.empty(max(n - 1, 0), dtype=bool)  # position p + 1 equals position p
    for c in _chunks(n - 1):
        np.equal(w[asc[c.start + 1:c.stop + 1]], w[asc[c]], out=tie[c])
    if tie.any():
        _sort_runs(asc, tie)
    del tie
    rank = np.empty(n, dtype=dt)
    for c in _chunks(n):
        rank[asc[c]] = np.arange(c.start, c.stop, dtype=dt)
    return asc, rank


def _sort_runs(asc: np.ndarray, tie: np.ndarray) -> None:
    """Sort each run of tied positions of asc by vertex id, in place.

    ``tie[p]`` says that positions p and p + 1 hold equal values. A chunk
    of positions that ends inside a run is extended to that run's end, so
    each chunk holds whole runs and sorts them at once under a
    ``run * n + id`` key.
    """
    n, size = asc.size, _chunk_size(asc.size)
    p = 0
    while p < n:
        q = min(p + size, n)
        while q < n and tie[q - 1]:  # q is inside a run: move it to the run's end
            window = tie[q - 1:q - 1 + size]
            k = int(np.argmin(window))  # the first False, if any
            q += window.size if window[k] else k
        inside = tie[p:q - 1]
        if inside.any():
            key = np.zeros(q - p, np.int64)
            # run numbers, summed in place (a cumsum of bools makes an int64 copy)
            np.logical_not(inside, out=key[1:], casting="unsafe")
            np.cumsum(key, out=key)
            key *= n
            key += asc[p:q]
            key.sort()
            key %= n
            asc[p:q] = key
        p = q


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
    vertex v; ``sizes[i]``, counted on first read, is the number of
    vertices labeled i. The private arrays record, per extremum, the merge
    saddle and the extremum it merges into (-1 for the global extremum),
    which lets ``simplify`` relabel without re-running the sweep. Minima
    have ascending manifolds and maxima descending ones; ``extrema.kind``
    says which.
    """

    domain: GridDomain
    label: np.ndarray
    extrema: ExtremumColumns
    _saddles: np.ndarray = field(repr=False, default=None)
    _partners: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        assert self.label.size == self.domain.vertex_count
        # every label names an extremum, and each extremum's vertex bears its own
        assert 0 <= self.label.min() and self.label.max() < len(self.extrema)
        assert (self.label[self.extrema.vertex] == np.arange(len(self.extrema))).all()
        self.label.flags.writeable = False

    @cached_property
    def sizes(self) -> np.ndarray:
        sizes = _sizes(self.label, len(self.extrema))
        sizes.flags.writeable = False
        return sizes

    @property
    def n_extrema(self) -> int:
        return len(self.extrema)


def _descent_pointers(asc: np.ndarray, rank: np.ndarray, domain: GridDomain) -> np.ndarray:
    """One steepest-descent step per vertex under the (value, id) order.

    Takes the order as ``_total_order`` returns it. Returns ptr where
    ptr[v] is the lexicographically smallest neighbor if that neighbor
    precedes v, else v itself (v is a minimum). Every offset piece lowers a
    running minimum of the rank plane in both directions, so no (V, K)
    table is built; the ranks then become vertex ids in place.
    """
    r = rank.reshape(domain.dims)
    best = r.copy()
    for _, src, dst in offset_slices(domain):
        for here, there in ((src, dst), (dst, src)):
            b = best[here]
            np.minimum(b, r[there], out=b)
    ptr = best.reshape(-1)
    for c in _chunks(ptr.size):
        ptr[c] = asc[ptr[c]]
    return ptr


def _sizes(label: np.ndarray, n: int) -> np.ndarray:
    """``np.bincount(label, minlength=n)``, counted in chunks: bincount
    copies int32 labels to intp first."""
    sizes = np.zeros(n, np.int64)
    for c in _chunks(label.size):
        sizes += np.bincount(label[c], minlength=n)
    return sizes


def _resolve_roots(ptr: np.ndarray) -> np.ndarray:
    """Point every node of the pointer forest ptr at its root, in place.

    Pointer doubling, one chunk at a time: a pass sets ptr[v] =
    ptr[ptr[v]], and reading pointers that earlier chunks of the same pass
    already advanced only shortens the chains. A pass that moves nothing
    leaves each pointer at a root. Returns ptr.
    """
    while True:
        moved = False
        for c in _chunks(ptr.size):
            p = ptr[c]
            nxt = ptr[p]
            moved = moved or not np.array_equal(nxt, p)
            p[...] = nxt
        if not moved:
            return ptr


def _basins(ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(label, ex_vertices)`` from the descent pointers, in ptr's buffer.

    The extrema are the vertices that point at themselves, numbered
    densely in vertex order; ``label[v]`` is the number of the extremum
    v's descent ends at. The roots first hold their own number, so each
    chunk reads its labels through them, without a V-sized id map.
    """
    ex_vertices = np.concatenate([
        np.flatnonzero(ptr[c] == np.arange(c.start, c.stop, dtype=ptr.dtype)) + c.start
        for c in _chunks(ptr.size)])
    _resolve_roots(ptr)
    ptr[ex_vertices] = np.arange(ex_vertices.size, dtype=ptr.dtype)
    for c in _chunks(ptr.size):
        lab = ptr[ptr[c]]
        i, j = np.searchsorted(ex_vertices, (c.start, c.stop))
        lab[ex_vertices[i:j] - c.start] = np.arange(i, j, dtype=ptr.dtype)
        ptr[c] = lab
    return ptr, ex_vertices


# Bit width of the packed edge codes, so that every code is a non-negative
# int64. Only tests lower it, to force the split over pair-code ranges.
_CODE_BITS = 63

# The sweep merges a running array's pending firsts into it once they hold
# this share of its size. Tests move it, to merge after every slab or only
# at the end.
_MERGE_AT = 1.0


def _slab_bound(v: int) -> int:
    """The most vertices an offset piece of a v-vertex grid sweeps at once.

    Larger pieces split into sub-slabs along axis 0. The floor keeps the
    pieces of grids up to 256² whole, where splitting only adds calls.
    """
    return max(1 << 16, v // 4)


def _boundary_pieces(domain: GridDomain):
    """The pieces of ``offset_slices`` with their sweep tie classes, as
    sub-slabs of at most ``_slab_bound(V)`` vertices.

    Returns ``(pieces, n_cls)``; each piece is ``(src, dst, up, cls)``.
    Vertex ids in ``dst`` exceed those in ``src`` by one constant c, and
    ``up`` says c > 0. Edges that share a saddle s sweep in the order of
    their first directed slot ``(first, slot)``: first is the edge's lower
    vertex id, so s itself or s - |c|, and slot is k if c > 0, else the
    opposite slot k + K/2. So their order is that of the tie classes
    ``(first - s, slot)``; the domain's classes, sorted, are numbered
    0..n_cls-1. ``cls[1]`` is the class of the piece's edges whose saddle
    is the lower vertex id, ``(0, slot)``, and ``cls[0]`` that of the
    others, ``(-|c|, slot)``, always the smaller of the two. A piece above
    the bound splits into runs of axis-0 rows, each with the piece's c and
    classes.
    """
    half = 2**domain.rank - 1
    pieces = []
    for k, src, dst in offset_slices(domain):
        c = int(np.ravel_multi_index([b.start or 0 for b in dst], domain.dims)
                - np.ravel_multi_index([b.start or 0 for b in src], domain.dims))
        slot = k if c > 0 else k + half
        pieces.append((src, dst, c > 0, ((-abs(c), slot), (0, slot))))
    number = {t: i for i, t in enumerate(sorted({t for *_, ts in pieces for t in ts}))}
    bound = _slab_bound(domain.vertex_count)
    slabs = []
    for src, dst, up, ts in pieces:
        cls = np.array([number[t] for t in ts], np.uint8)
        rows_src, rows_dst = (range(domain.dims[0])[s[0]] for s in (src, dst))
        size = math.prod(len(range(n)[s]) for n, s in zip(domain.dims, src))
        step = max(1, bound * len(rows_src) // size)
        for i in range(0, len(rows_src), step):
            rs, rd = rows_src[i:i + step], rows_dst[i:i + step]
            slabs.append(((slice(rs.start, rs.stop),) + src[1:],
                          (slice(rd.start, rd.stop),) + dst[1:], up, cls))
    return slabs, len(number)


def _firsts(code: np.ndarray, kb: int) -> np.ndarray:
    """The first code of each run of equal ``code >> kb`` in sorted code."""
    first = np.empty(code.size, dtype=bool)
    first[:1] = True
    for c in _chunks(code.size - 1):
        nxt = slice(c.start + 1, c.stop + 1)
        np.not_equal(code[nxt] >> kb, code[c] >> kb, out=first[nxt])
    return code[first]


def _saddle_vertices(rank: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The vertex of each of the ascending ``ranks``, read back from rank
    in chunks."""
    new = np.empty(ranks.size, dtype=bool)
    new[:1] = True
    np.not_equal(ranks[1:], ranks[:-1], out=new[1:])
    want, inv = ranks[new], np.cumsum(new) - 1
    hit = np.zeros(rank.size, dtype=bool)
    hit[want] = True
    vertex = np.empty(want.size, dtype=np.int64)
    for c in _chunks(rank.size):
        r = rank[c]
        v = np.flatnonzero(hit[r])
        vertex[np.searchsorted(want, r[v])] = v + c.start
    return vertex[inv]


def _merge_sweep(values: np.ndarray, rank: np.ndarray, domain: GridDomain, label: np.ndarray,
                 ex_vertices: np.ndarray, descending: bool = False):
    """0-dimensional persistence of the minima of values (of the maxima
    when ``descending``) by basin merging.

    ``rank`` is the order from ``_total_order(values, descending)``. Only
    edges between different basins can merge sublevel components (each
    basin's sublevel slice stays connected through its descent paths), so
    a union-find over basins processing boundary edges in ascending saddle
    order reproduces the vertex sweep.

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

    Each offset piece, in sub-slabs of at most ``_slab_bound(V)``
    vertices, packs its boundary edges into one int64 code each,
    ``(pair << vb | rank(s)) << 1 | lower``: pair = lo * n_ex + hi for the
    basin labels lo < hi, vb = bits(V - 1), and ``lower`` set where the
    saddle is the edge's lower vertex id (the piece's own 1-bit class, in
    class order). One in-place value sort groups each basin pair with its
    first edge in front. The firsts, as ``(pair << vb | rank(s)) << cb |
    class``, wait beside running sorted arrays and merge into them once
    they reach ``_MERGE_AT`` times an array's size, so a merge sorts at
    most twice the firsts it takes in; there a pair keeps its lowest code,
    the first edge in sweep order. No boundary edge is argsorted.

    Where a code would not fit in 63 bits, the same loop runs over ranges
    of pair codes (lo-major, so ranges of the lower label), each packed
    relative to its start: ``2**(62 - vb)`` pairs per piece sort and
    ``2**(63 - vb - cb)`` per running array, at least 2**26 each for any
    V < 2**31. The per-piece bit keeps the sorts to one range up to about
    200³ white noise; only the running arrays split there.

    Memory, beyond the ranks, the labels and the running arrays (8 bytes
    per first edge, about V / 2 of them on white noise): a slab holds about
    21 bytes per boundary edge, and a merge its array, the pending firsts
    and their concatenation. The forest takes the first edges' basin
    labels (4 bytes each, twice) beside the keys the codes become in place;
    every other pass runs in ``_chunks``.

    The first edges go to ``_spanning_forest``, weighted by their sweep
    keys; the elder rule then visits the forest's n_ex - 1 edges in sweep
    order, and their saddle vertices are read back from ``rank``.

    Returns (persistence, saddles, partners) per extremum; the global
    extremum gets +inf persistence, saddle and partner -1.
    """
    n_ex = ex_vertices.size
    if n_ex == 1:
        return np.full(1, np.inf), np.full(1, -1, np.int64), np.full(1, -1, np.int64)

    pieces, n_cls = _boundary_pieces(domain)
    vb = (values.size - 1).bit_length()  # bits of a rank
    cb = (n_cls - 1).bit_length()  # bits of a tie class, at least 1
    n_pairs = (n_ex - 1) * n_ex  # pair codes lo * n_ex + hi, lo < hi < n_ex
    sort_span = 1 << max(0, _CODE_BITS - 1 - vb)  # pair codes per piece sort
    run_span = 1 << max(0, _CODE_BITS - cb - vb)  # pair codes per running array
    runs = [np.empty(0, np.int64)] * -(-n_pairs // run_span)
    pending = [[] for _ in runs]

    def merge(fill):
        # each running array with pending firsts of at least ``fill`` times its size
        for j, waiting in enumerate(pending):
            if waiting and sum(p.size for p in waiting) >= fill * runs[j].size:
                both = np.concatenate([runs[j]] + waiting)
                runs[j] = None
                waiting.clear()
                both.sort()
                runs[j] = _firsts(both, vb + cb)

    lab, r = label.reshape(domain.dims), rank.reshape(domain.dims)
    for src, dst, up, cls in pieces:
        at = np.flatnonzero(lab[src] != lab[dst])
        s, t = np.take(r[src], at), np.take(r[dst], at)
        lower = s > t if up else t > s
        np.maximum(s, t, out=s)  # the saddle's rank
        del t
        la, lb = np.take(lab[src], at), np.take(lab[dst], at)
        del at
        pair = np.minimum(la, lb, dtype=np.int64)
        pair *= n_ex
        pair += np.maximum(la, lb, out=la)
        del la, lb
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
            if code is pair:
                pair = s = lower = None
            code.sort()
            code = _firsts(code, vb + 1)
            # each running array's share, the tie class in place of the lower bit
            starts = np.arange(0, min(sort_span, n_pairs - p0), run_span, dtype=np.int64)
            shares = np.split(code, np.searchsorted(code, starts[1:] << vb + 1))
            for j, (start, share) in enumerate(zip(starts, shares), p0 // run_span):
                if share.size:
                    new = share >> 1
                    new -= start << vb
                    new <<= cb
                    new |= cls[share & 1]
                    pending[j].append(new)
            code = shares = share = new = None
        pair = s = lower = None
        merge(_MERGE_AT)
    merge(0)

    # the first edges: basin labels, and sweep keys, in place of the codes,
    # as forest weights
    n = sum(run.size for run in runs)
    a, b = np.empty(n, label.dtype), np.empty(n, label.dtype)
    end = 0
    for j, run in enumerate(runs):
        for c in _chunks(run.size):
            pair = run[c] >> vb + cb
            pair += j * run_span
            a[end + c.start:end + c.stop], b[end + c.start:end + c.stop] = np.divmod(pair, n_ex)
            run[c] &= (1 << vb + cb) - 1
        end += run.size
    key = runs[0] if len(runs) == 1 else np.concatenate(runs)
    runs.clear()
    run = pair = None
    a, b, key = _spanning_forest(a, b, n_ex, key)
    sad = _saddle_vertices(rank, key >> cb)
    del key

    # every forest edge joins two components, in sweep order; by the elder
    # rule the younger component representative dies there. The union-find
    # runs on ages (extremum ids renumbered eldest first, so the elder of
    # two is the smaller), in machine-int arrays rather than lists of
    # Python ints, and reads the edges a chunk at a time.
    by_age = np.argsort(rank[ex_vertices])
    age = np.empty(n_ex, np.int64)
    age[by_age] = np.arange(n_ex)
    a, b = age[a], age[b]
    del age
    uf = array("q", np.arange(n_ex, dtype=np.int64).tobytes())
    dead, elders = array("q"), array("q")
    for c in _chunks(a.size):
        for ra, rb in zip(a[c].tolist(), b[c].tolist()):
            while uf[ra] != ra:  # find, halving the path
                uf[ra] = ra = uf[uf[ra]]
            while uf[rb] != rb:
                uf[rb] = rb = uf[uf[rb]]
            if ra < rb:  # ra becomes the younger
                ra, rb = rb, ra
            uf[ra] = rb
            dead.append(ra)
            elders.append(rb)
    del uf, a, b
    dead = by_age[np.frombuffer(dead, np.int64)]
    pers = np.full(n_ex, np.inf)
    saddles = np.full(n_ex, -1, dtype=np.int64)
    partners = np.full(n_ex, -1, dtype=np.int64)
    partners[dead] = by_age[np.frombuffer(elders, np.int64)]
    saddles[dead] = sad
    # float64 gathers, so a float32 field gives its float64 cast's persistence
    at_ex = values[ex_vertices[dead]].astype(np.float64)
    at_sad = values[sad].astype(np.float64)
    pers[dead] = at_ex - at_sad if descending else at_sad - at_ex
    return pers, saddles, partners


def _spanning_forest(a: np.ndarray, b: np.ndarray, n: int, weight: np.ndarray):
    """The minimum spanning forest's edges as ``(a, b, weight)``, by
    ascending weight.

    Edge k joins nodes a[k] and b[k] of 0..n-1 and weighs ``weight[k]``.
    Weights are unique, so the forest is exactly the edge set Kruskal's
    algorithm merges along, in the order it merges them. Borůvka rounds:
    each component picks its lightest edge to another component (the edge
    whose weight is the component's minimum, so no edge list is sorted),
    components hook along their picks (two components that pick each other
    share one edge, and the lower id stays root), and pointer doubling
    relabels; each round at least halves the components that still have an
    outgoing edge.

    Takes ownership of the three arrays: each round moves the edges that
    still leave their component to the front, in place, and reads the
    components of their ends through an n-sized table, one chunk at a
    time, so no round copies an edge array.
    """
    comp = None  # each node's component, the identity until the first hooks

    def ends(c):  # the components of the ends of edges c
        return (a[c], b[c]) if comp is None else (comp[a[c]], comp[b[c]])

    top = np.iinfo(np.int64).max
    picked = []
    m = a.size
    while True:
        lightest = np.full(n, top)
        end = 0
        for c in _chunks(m):
            ca, cb = ends(c)
            out = np.flatnonzero(ca != cb)
            k = out.size
            if k < c.stop - c.start:
                ca, cb = ca.take(out), cb.take(out)
                moved = a[c].take(out), b[c].take(out), weight[c].take(out)
                c = slice(end, end + k)
                a[c], b[c], weight[c] = moved
            elif end < c.start:
                a[end:end + k], b[end:end + k], weight[end:end + k] = a[c], b[c], weight[c]
                c = slice(end, end + k)
            end += k
            w = weight[c]
            np.minimum.at(lightest, ca, w)
            np.minimum.at(lightest, cb, w)
        m = end
        if not m:
            break
        parent = np.arange(n, dtype=np.result_type(a, b))
        for c in _chunks(m):
            (ca, cb), w = ends(c), weight[c]
            by_a, by_b = w == lightest[ca], w == lightest[cb]
            pick = np.flatnonzero(by_a | by_b)
            for here, there, by in ((ca, cb, by_a), (cb, ca, by_b)):
                at = np.flatnonzero(by)
                parent[here.take(at)] = there.take(at)
            picked.append((a[c].take(pick), b[c].take(pick), w.take(pick)))
        del lightest
        ids = np.arange(n, dtype=parent.dtype)
        mutual = (parent[parent] == ids) & (ids < parent)
        parent[mutual] = ids[mutual]
        del ids, mutual
        _resolve_roots(parent)
        comp = parent if comp is None else parent[comp]
        del parent
    if not picked:
        return a[:0], b[:0], weight[:0]
    fa, fb, fw = map(np.concatenate, zip(*picked))
    del picked
    order = np.argsort(fw)
    return fa[order], fb[order], fw[order]


def label_manifolds(step, domain: GridDomain, kind: ExtremumKind) -> ManifoldLabeling:
    """Assign every vertex to an extremum by discrete steepest descent.

    Minima produce ascending manifolds, maxima descending ones (the same
    path on the descending (value, id) order, ties still to the lower id).
    Each vertex moves to its first neighbor in that order while one
    precedes it; the terminal vertices are the extrema, numbered densely in
    vertex order. Values must be finite; float32 ones are read as stored.
    """
    if kind not in ("minimum", "maximum"):
        raise ValueError(f"kind must be 'minimum' or 'maximum', got {kind!r}")
    values = step_values(step).reshape(-1)
    if values.size != domain.vertex_count:
        raise ValueError("step length does not match the domain")
    bad = first_non_finite(values)
    if bad is not None:
        raise ValueError(f"step contains a non-finite value at vertex {bad}")
    descending = kind == "maximum"

    asc, rank = _total_order(values, descending)
    ptr = _descent_pointers(asc, rank, domain)
    del asc
    label, ex_vertices = _basins(ptr)  # in ptr's buffer

    pers, saddles, partners = _merge_sweep(values, rank, domain, label, ex_vertices, descending)
    extrema = ExtremumColumns(kind, ex_vertices, values[ex_vertices], pers)
    return ManifoldLabeling(domain, label, extrema, saddles, partners)


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
    explicit ``value_range``, e.g. a series-global one, which must be
    finite and non-negative). Each cancelled extremum's basin is relabeled
    to the surviving extremum its component merged into, following merge
    partners transitively. The global extremum (+inf persistence) always
    survives.
    """
    if not 0.0 <= threshold_pct <= 100.0:
        raise ValueError(f"threshold_pct must be in [0, 100], got {threshold_pct}")
    if value_range is not None and not 0.0 <= value_range < math.inf:
        raise ValueError(f"value_range must be a finite non-negative number, got {value_range}")
    values = step_values(step).reshape(-1)
    if values.size != labeling.domain.vertex_count:
        raise ValueError("step length does not match the labeling's domain")
    ex = labeling.extrema
    if (values[ex.vertex] != ex.value).any():
        raise ValueError("labeling was not produced from this step")
    if value_range is None:
        value_range = float(values.max()) - float(values.min())
    threshold = threshold_pct / 100.0 * value_range

    cancel = ex.persistence < threshold
    if not cancel.any():
        return labeling

    # cancelled extrema point at their merge partner, survivors at
    # themselves; partners are elder, so the pointers form a forest
    root = _resolve_roots(np.where(cancel, labeling._partners, np.arange(labeling.n_extrema)))
    survivors = np.flatnonzero(~cancel)
    remap = np.full(labeling.n_extrema, -1, dtype=labeling.label.dtype)
    remap[survivors] = np.arange(survivors.size)
    remap = remap[root]
    del root

    label = remap[labeling.label]
    extrema = ex.take(survivors)
    saddles = labeling._saddles[survivors]
    partners = labeling._partners[survivors]
    merged = partners >= 0
    partners[merged] = remap[partners[merged]]
    return ManifoldLabeling(labeling.domain, label, extrema, saddles, partners)

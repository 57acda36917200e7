import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from extrack import correspond, morse, trackgraph
from extrack.cli import main
from extrack.correspond import OverlapMatrix, _keys_and_counts
from extrack.field import GridDomain
from extrack.morse import label_manifolds, simplify
from extrack.trackgraph import (
    ConnectivityPolicy,
    EdgeColumns,
    GraphEdge,
    GraphNode,
    NodeColumns,
    SemanticPredicate,
    TrackingGraph,
    assemble,
    export,
    extremum_layers,
    import_graph,
    save_graph,
    semantic_filter,
    threshold_filter,
)
from helpers import (
    edge_set,
    edges_of,
    graph_of,
    layer_of,
    node_views,
    nodes_at,
    oracle_assemble,
    oracle_export_dot,
    oracle_export_json,
    oracle_column,
    oracle_extremum_layers,
    oracle_import_graph,
    oracle_propagate_tracks,
    oracle_semantic_filter,
    oracle_threshold_filter,
    run_python,
)


def cm(dense, direction, denom=1000):
    """Correspondence matrix from a dense probability array."""
    dense = np.asarray(dense, dtype=float)
    ii, jj = np.nonzero(dense)
    cc = np.rint(dense[ii, jj] * denom).astype(np.int64)
    return OverlapMatrix(
        dense.shape[0], dense.shape[1], direction, "manifold-overlap",
        *_keys_and_counts(*dense.shape, ii, jj, cc), np.full(dense.shape[0], denom, np.int64),
        "correspondence",
    )


def mk_layers(sizes):
    return [
        layer_of(GraphNode(t, i, "extremum", i, float(i), (float(i), 0.0)) for i in range(n))
        for t, n in enumerate(sizes)
    ]


def track_of(g, t, i):
    (node,) = [n for n in g.nodes if (n.t, n.id) == (t, i)]
    return node.track


class TestAssembly:
    def test_identity_chain_keeps_tracks(self):
        eye = np.eye(2)
        g = assemble(mk_layers([2, 2, 2]),
                     [cm(eye, "forward")] * 2, [cm(eye, "backward")] * 2,
                     ConnectivityPolicy())
        assert g.n_layers == 3
        assert len(g.edges) == 4
        assert all(e.strength == 1.0 for e in g.edges)
        for i in range(2):
            assert len({track_of(g, t, i) for t in range(3)}) == 1
        assert {n.track for n in g.nodes} == {0, 1}

    def test_bidirectional_needs_both_directions(self):
        fwd = cm([[1.0, 0.0], [0.0, 1.0]], "forward")
        bwd = cm([[0.6, 0.4], [0.0, 0.0]], "backward")  # rows are t+1 nodes
        strict = assemble(mk_layers([2, 2]), [fwd], [bwd], ConnectivityPolicy(bidirectional=True))
        assert edge_set(strict) == {(0, 0, 0)}
        loose = assemble(mk_layers([2, 2]), [fwd], [bwd], ConnectivityPolicy(bidirectional=False))
        assert edge_set(loose) == {(0, 0, 0), (0, 1, 0), (0, 1, 1)}
        by_pair = {(e.i, e.j): e for e in loose.edges}
        assert by_pair[(1, 1)].p_backward is None  # forward-only pair
        assert by_pair[(1, 0)].p_forward is None  # backward-only pair

    @pytest.mark.parametrize("rule,expect", [("max", 0.8), ("avg", 0.6), ("min", 0.4)])
    def test_strength_rules(self, rule, expect):
        fwd = cm([[0.8]], "forward")
        bwd = cm([[0.4]], "backward")
        g = assemble(mk_layers([1, 1]), [fwd], [bwd], ConnectivityPolicy(strength=rule))
        assert g.edges[0].strength == pytest.approx(expect)

    @pytest.mark.parametrize("rule", ["max", "avg", "min"])
    def test_one_sided_strength_is_the_lone_probability(self, rule):
        fwd = cm([[0.8, 0.2]], "forward")
        bwd = cm([[1.0], [0.0]], "backward")
        g = assemble(mk_layers([1, 2]), [fwd], [bwd],
                     ConnectivityPolicy(bidirectional=False, strength=rule))
        (lone,) = [e for e in g.edges if e.j == 1]
        assert lone.p_backward is None and lone.strength == pytest.approx(0.2)

    def test_matrix_count_must_match_layers(self):
        with pytest.raises(ValueError, match="matrix pair"):
            assemble(mk_layers([1, 1, 1]), [cm([[1.0]], "forward")],
                     [cm([[1.0]], "backward")], ConnectivityPolicy())

    def test_matrix_shape_must_match_layers(self):
        with pytest.raises(ValueError, match="shape"):
            assemble(mk_layers([2, 2]), [cm([[1.0]], "forward")],
                     [cm([[1.0]], "backward")], ConnectivityPolicy())

    def test_meta_records_strategy_and_policy(self):
        g = assemble(mk_layers([1, 1]), [cm([[1.0]], "forward")],
                     [cm([[1.0]], "backward")],
                     ConnectivityPolicy(bidirectional=False, strength="avg"),
                     strategy="manifold-overlap")
        assert g.meta["strategy"] == "manifold-overlap"
        assert g.meta["policy"] == {"bidirectional": False, "strength": "avg"}
        assert g.meta["thresholds"] == {}

    def test_unknown_strength_rule_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityPolicy(strength="median")

    @pytest.mark.parametrize("bidirectional", [True, False], ids=["bidirectional", "any"])
    @pytest.mark.parametrize("strategy", ["manifold-overlap", "sampling-euclidean"])
    def test_assembly_stores_nothing_on_the_matrices(self, noise_pair, strategy,
                                                     bidirectional):
        # a probability is derived where it is read: once assembly returns,
        # all it leaves allocated is the graph's columns, not a float64 per
        # stored entry on each matrix it read
        labs = noise_pair
        if strategy == "manifold-overlap":
            fwd, bwd = correspond.manifold_overlap(*labs)
        else:
            fwd = correspond.sampling_overlap(labs[0], labs[1], "euclidean", 2.0, "forward")
            bwd = correspond.sampling_overlap(labs[1], labs[0], "euclidean", 2.0, "backward")
        layers = extremum_layers(labs)
        policy = ConnectivityPolicy(bidirectional)
        # a first call may import modules; one on other matrices keeps these as built
        assemble(mk_layers([1, 1]), [cm([[1.0]], "forward")], [cm([[1.0]], "backward")], policy)
        tracemalloc.start()
        try:
            g = assemble(layers, [fwd], [bwd], policy)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        columns = [*dataclasses.astuple(g.node_columns), *dataclasses.astuple(g.edge_columns)]
        entries = fwd.keys.size + bwd.keys.size
        assert len(g.edge_columns) and entries > 10_000
        assert held - sum(a.nbytes for a in columns) < entries, (held, entries)

    @pytest.mark.parametrize("keys", [np.int32, np.int64])
    def test_edge_rows_are_in_the_node_id_type(self, noise_pair, keys):
        # an edge's two ends are node rows, so they take the type of node
        # ids, whatever type the matrix keys have: from assembly, from both
        # filters (the semantic one renumbers the rows) and from an import
        fwd, bwd = (dataclasses.replace(m, keys=m.keys.astype(keys))
                    for m in correspond.manifold_overlap(*noise_pair))
        g = assemble(extremum_layers(noise_pair), [fwd], [bwd], ConnectivityPolicy(False))
        values = np.sort(g.node_columns.value)
        graphs = {
            "assemble": g,
            "threshold": threshold_filter(g, 0.2),
            "semantic": semantic_filter(g, noise_pair[0].domain,
                                        SemanticPredicate(value_max=values[values.size // 2])),
            "import": import_graph(export(g, "json")),
        }
        assert len(graphs["semantic"].node_columns) < len(g.node_columns)
        for name, h in graphs.items():
            e = h.edge_columns
            assert len(e), name
            dt = morse._id_dtype(len(h.node_columns))
            assert e.src.dtype == e.dst.dtype == dt == np.int32, name


@pytest.fixture(scope="module")
def noise_pair():
    """Two 256^2 white-noise steps, the first axis periodic, labeled and
    simplified at 1 % persistence."""
    rng = np.random.default_rng(36)
    domain = GridDomain((256, 256), periodic=(True, False))
    return [simplify(label_manifolds(v, domain, "minimum"), v, 1.0)
            for v in rng.random((2, domain.vertex_count))]


class TestTrackPropagation:
    def assemble_edges(self, sizes, fwd_dense_list):
        """Any-direction graph from forward matrices alone."""
        layers = mk_layers(sizes)
        fwds = [cm(d, "forward") for d in fwd_dense_list]
        bwds = [cm(np.zeros((d.shape[1] if hasattr(d, 'shape') else len(d[0]),
                             len(d))), "backward")
                for d in (np.asarray(x) for x in fwd_dense_list)]
        return assemble(layers, fwds, bwds, ConnectivityPolicy(bidirectional=False))

    def test_split_stronger_branch_inherits(self):
        g = self.assemble_edges([1, 2], [[[0.7, 0.3]]])
        assert track_of(g, 1, 0) == track_of(g, 0, 0)
        assert track_of(g, 1, 1) != track_of(g, 0, 0)

    def test_split_tie_goes_to_lower_id(self):
        g = self.assemble_edges([1, 2], [[[0.5, 0.5]]])
        assert track_of(g, 1, 0) == track_of(g, 0, 0)
        assert track_of(g, 1, 1) != track_of(g, 0, 0)

    def test_ambiguous_merge_starts_fresh(self):
        g = self.assemble_edges([2, 1], [[[0.5], [0.5]]])
        tracks = {track_of(g, 0, 0), track_of(g, 0, 1)}
        assert track_of(g, 1, 0) not in tracks

    def test_merge_follows_stronger_predecessor(self):
        g = self.assemble_edges([2, 1], [[[0.9], [0.1]]])
        assert track_of(g, 1, 0) == track_of(g, 0, 0)

    def test_strongest_pred_must_reciprocate(self):
        # node j0's only predecessor also has a stronger successor j1,
        # so j0 cannot continue that track
        g = self.assemble_edges([1, 2], [[[0.6, 0.9]]])
        assert track_of(g, 1, 1) == track_of(g, 0, 0)
        assert track_of(g, 1, 0) != track_of(g, 0, 0)

    def test_parallel_chains_do_not_cross(self):
        dense = [[0.9, 0.8], [0.0, 0.95]]
        g = self.assemble_edges([2, 2], [dense])
        assert track_of(g, 1, 0) == track_of(g, 0, 0)
        assert track_of(g, 1, 1) == track_of(g, 0, 1)

    def test_fresh_ids_count_up_in_layer_order(self):
        g = self.assemble_edges([2, 2], [np.zeros((2, 2))])
        order = [n.track for n in sorted(g.nodes, key=lambda n: (n.t, n.id))]
        assert order == [0, 1, 2, 3]


class TestThresholdFilter:
    def graph(self):
        fwd = cm([[0.8, 0.2], [0.0, 1.0]], "forward")
        bwd = cm([[1.0, 0.0], [0.25, 0.75]], "backward")
        return assemble(mk_layers([2, 2]), [fwd], [bwd], ConnectivityPolicy())

    def test_strictly_greater_than(self):
        g = self.graph()
        # pair (0,1): pf 0.2, pb 0.25; any-direction bar at exactly 0.25 kills it
        assert (0, 0, 1) in edge_set(g)
        out = threshold_filter(g, 0.25, "any")
        assert edge_set(out) == {(0, 0, 0), (0, 1, 1)}

    def test_any_versus_both(self):
        g = self.graph()
        keep_any = edge_set(threshold_filter(g, 0.2, "any"))
        keep_both = edge_set(threshold_filter(g, 0.2, "both"))
        assert (0, 0, 1) in keep_any  # pb 0.25 clears the bar alone
        assert (0, 0, 1) not in keep_both  # pf 0.2 does not strictly clear it

    def test_both_requires_two_directions(self):
        fwd = cm([[1.0]], "forward")
        bwd = cm(np.zeros((1, 1)), "backward")
        g = assemble(mk_layers([1, 1]), [fwd], [bwd], ConnectivityPolicy(bidirectional=False))
        assert edge_set(threshold_filter(g, 0.0, "any")) == {(0, 0, 0)}
        assert edge_set(threshold_filter(g, 0.0, "both")) == set()

    def test_zero_bar_keeps_everything(self):
        g = self.graph()
        assert edge_set(threshold_filter(g, 0.0, "any")) == edge_set(g)

    def test_unit_bar_drops_everything_and_recomputes_tracks(self):
        g = self.graph()
        out = threshold_filter(g, 1.0, "any")
        assert edge_set(out) == set()
        assert sorted(n.track for n in out.nodes) == [0, 1, 2, 3]

    def test_filter_is_idempotent(self):
        g = self.graph()
        once = threshold_filter(g, 0.25, "any")
        twice = threshold_filter(once, 0.25, "any")
        assert export(once, "json") == export(twice, "json")

    def test_meta_shows_latest_threshold_only(self):
        g = threshold_filter(threshold_filter(self.graph(), 0.1, "any"), 0.3, "both")
        assert g.meta["thresholds"]["probability"] == {"p_min": 0.3, "require": "both"}

    def test_invalid_arguments(self):
        g = self.graph()
        with pytest.raises(ValueError):
            threshold_filter(g, -0.1)
        with pytest.raises(ValueError):
            threshold_filter(g, 0.5, "either")


class TestSemanticFilter:
    def graph(self):
        layers = [
            layer_of([GraphNode(0, 0, "extremum", 0, -5.0, (0.0, 0.0)),
                      GraphNode(0, 1, "extremum", 5, -1.0, (1.0, 1.0))]),
            layer_of([GraphNode(1, 0, "extremum", 0, -4.0, (0.0, 0.0)),
                      GraphNode(1, 1, "extremum", 10, -0.5, (2.0, 2.0))]),
        ]
        fwd = cm([[0.9, 0.1], [0.2, 0.8]], "forward")
        bwd = cm([[0.9, 0.2], [0.1, 0.8]], "backward")
        return assemble(layers, [fwd], [bwd], ConnectivityPolicy())

    def test_empty_predicate_changes_nothing(self):
        g = self.graph()
        out = semantic_filter(g, GridDomain((4, 4)), SemanticPredicate())
        assert edge_set(out) == edge_set(g)
        assert {(n.t, n.id) for n in out.nodes} == {(n.t, n.id) for n in g.nodes}
        assert out.meta["thresholds"]["semantic"] == {}

    def test_value_window_drops_nodes_and_their_edges(self):
        g = self.graph()
        out = semantic_filter(g, GridDomain((4, 4)), SemanticPredicate(value_max=-2.0))
        assert {(n.t, n.id) for n in out.nodes} == {(0, 0), (1, 0)}
        assert edge_set(out) == {(0, 0, 0)}

    def test_box_filter_uses_world_positions(self):
        g = self.graph()
        pred = SemanticPredicate(box_min=(0.0, 0.0), box_max=(1.5, 1.5))
        out = semantic_filter(g, GridDomain((4, 4)), pred)
        assert {(n.t, n.id) for n in out.nodes} == {(0, 0), (0, 1), (1, 0)}

    def test_zero_jump_keeps_only_stationary_edges(self):
        g = self.graph()
        out = semantic_filter(g, GridDomain((4, 4)), SemanticPredicate(max_jump=0.0))
        assert edge_set(out) == {(0, 0, 0)}

    def test_jump_measures_minimum_image(self):
        dom = GridDomain((2, 10), periodic=(False, True))
        layers = [
            layer_of([GraphNode(0, 0, "extremum", 0, 0.0, (0.0, 0.0))]),
            layer_of([GraphNode(1, 0, "extremum", 9, 0.0, (0.0, 9.0))]),
        ]
        g = assemble(layers, [cm([[1.0]], "forward")], [cm([[1.0]], "backward")],
                     ConnectivityPolicy())
        # wrap distance is 1, straight-line would be 9
        assert edge_set(semantic_filter(g, dom, SemanticPredicate(max_jump=1.0))) == {(0, 0, 0)}
        no_wrap = GridDomain((2, 10))
        assert edge_set(semantic_filter(g, no_wrap, SemanticPredicate(max_jump=1.0))) == set()

    @pytest.mark.parametrize("box", [dict(box_min=(0.0, 0.0, 5.0)), dict(box_max=(6.0,)),
                                     dict(box_min=(0.0,), box_max=(6.0,))])
    def test_box_of_another_rank_rejected(self, box):
        # a box used to be cut to the axes it shares with the positions, so
        # one of rank 3 kept every node of a 2D graph
        name, corner = next(iter(box.items()))
        empty = TrackingGraph(NodeColumns.concat([]), EdgeColumns.concat([]))
        for g in (self.graph(), empty):
            with pytest.raises(ValueError,
                               match=f"^{name} has rank {len(corner)}, but the grid has rank 2$"):
                semantic_filter(g, GridDomain((4, 4)), SemanticPredicate(**box))

    def test_box_on_an_empty_graph(self):
        empty = TrackingGraph(NodeColumns.concat([]), EdgeColumns.concat([]))
        assert empty.node_columns.pos.shape == (0, 0)  # no axes
        pred = SemanticPredicate(box_min=(0.0, 0.0), box_max=(1.5, 1.5))
        out = semantic_filter(empty, GridDomain((4, 4)), pred)
        assert len(out.node_columns) == len(out.edge_columns) == 0

    def test_inverted_ranges_rejected(self):
        with pytest.raises(ValueError, match="value"):
            SemanticPredicate(value_min=1.0, value_max=0.0)
        with pytest.raises(ValueError, match="box"):
            SemanticPredicate(box_min=(0.0, 2.0), box_max=(1.0, 1.0))
        with pytest.raises(ValueError, match="box_min and box_max have different ranks"):
            SemanticPredicate(box_min=(0.0, 0.0), box_max=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("kwargs,message", [
        (dict(value_min=math.nan), "value_min must be finite"),
        (dict(value_max=math.inf), "value_max must be finite"),
        (dict(value_min=-math.inf, value_max=0.0), "value_min must be finite"),
        (dict(box_min=(0.0, math.nan)), "box_min must be finite"),
        (dict(box_max=(math.inf, 1.0)), "box_max must be finite"),
        (dict(max_jump=math.nan), "max_jump must be finite"),
        (dict(max_jump=math.inf), "max_jump must be finite"),
        (dict(max_jump=-1.0), "max_jump must not be negative"),
        (dict(value_min=math.nan, max_jump=-1.0), "value_min must be finite"),
    ])
    def test_non_finite_bounds_and_negative_jump_rejected(self, kwargs, message):
        # library callers get the checks the CLI's PipelineConfig makes
        with pytest.raises(ValueError, match=message):
            SemanticPredicate(**kwargs)

    def test_node_only_filters_commute_with_threshold(self):
        g = self.graph()
        dom = GridDomain((4, 4))
        pred = SemanticPredicate(value_max=-0.9)
        a = semantic_filter(threshold_filter(g, 0.15, "any"), dom, pred)
        b = threshold_filter(semantic_filter(g, dom, pred), 0.15, "any")
        assert export(a, "json") == export(b, "json")


class TestExport:
    def graph(self):
        fwd = cm([[0.9, 0.1], [0.0, 0.6]], "forward")
        bwd = cm([[1.0, 0.0], [0.2, 0.8]], "backward")
        return assemble(mk_layers([2, 2]), [fwd], [bwd], ConnectivityPolicy(),
                        strategy="manifold-overlap")

    def test_json_round_trip_is_byte_identical(self):
        g = self.graph()
        text = export(g, "json")
        again = export(import_graph(text), "json")
        assert again == text

    def test_a_kind_is_one_byte_that_reads_as_its_name(self):
        n = NodeColumns.concat([
            NodeColumns.for_step(0, "extremum", [3], [1.0], [[0.0, 1.0]]),
            NodeColumns.for_step(1, "feature", [4, 5], [2.0, 3.0], [[1.0, 1.0], [2.0, 2.0]]),
        ])
        assert n.kind.dtype == np.uint8 and n.kind.tolist() == [0, 1, 1]
        g = TrackingGraph(n, EdgeColumns.concat([]))
        names = ["extremum", "feature", "feature"]
        assert [v.kind for v in g.nodes] == names
        text = export(g, "json")
        assert [x["kind"] for x in json.loads(text)["nodes"]] == names
        back = import_graph(text).node_columns.kind
        assert back.dtype == np.uint8 and back.tolist() == [0, 1, 1]

    def test_import_preserves_stored_tracks(self):
        g = self.graph()
        doc = json.loads(export(g, "json"))
        doc["nodes"][0]["track"] = 41
        back = import_graph(json.dumps(doc))
        assert track_of(back, doc["nodes"][0]["t"], doc["nodes"][0]["id"]) == 41

    def test_one_sided_probabilities_are_omitted(self):
        fwd = cm([[1.0]], "forward")
        bwd = cm(np.zeros((1, 1)), "backward")
        g = assemble(mk_layers([1, 1]), [fwd], [bwd], ConnectivityPolicy(bidirectional=False))
        doc = json.loads(export(g, "json"))
        assert "pf" in doc["edges"][0] and "pb" not in doc["edges"][0]

    def test_dot_output_shape(self):
        text = export(self.graph(), "dot")
        assert text.startswith("// tracking graph")
        assert "rankdir=LR;" in text
        assert "subgraph layer_0" in text and "subgraph layer_1" in text
        assert "n0_0 -> n1_0" in text
        for line in text.splitlines():
            if "->" in line:
                assert "penwidth=" in line
                assert line.rstrip().endswith('"];') and 'label="' in line

    def test_dot_penwidth_bins(self):
        text = export(self.graph(), "dot")
        widths = {line.split("penwidth=")[1].split(",")[0]
                  for line in text.splitlines() if "->" in line}
        assert widths <= {"1.0", "2.0", "3.5", "5.0"}
        # strengths 0.9/1.0 -> widest bin, 0.6/0.8 present too
        assert "5.0" in widths

    def test_strength_bins(self):
        # bins are (lo, hi]: a strength on a bin edge takes the lower width
        strengths = (0.1, 0.25, 0.26, 0.5, 0.6, 0.75, 0.76, 1.0)
        nodes = [GraphNode(0, 0, "extremum", 0, 0.0, (0.0,))]
        nodes += [GraphNode(1, j, "extremum", j, 0.0, (0.0,)) for j in range(len(strengths))]
        edges = [GraphEdge(0, 0, j, s, None, s) for j, s in enumerate(strengths)]
        widths = [line.split("penwidth=")[1].split(",")[0]
                  for line in export(graph_of(nodes, edges), "dot").splitlines() if "->" in line]
        assert widths == ["1.0", "1.0", "2.0", "2.0", "3.5", "3.5", "5.0", "5.0"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export(self.graph(), "gexf")

    def test_empty_graph_documents(self):
        g = graph_of((), ())
        assert g.n_layers == 0
        assert export(import_graph(export(g, "json")), "json") == export(g, "json")
        dot = export(g, "dot")
        assert dot.rstrip().endswith("}")


# node values and positions the small random graphs never reach
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e-300, -1.5e300, 0.0, 0.1, 2.5]
BIG_VERTICES = [0, 2**32 - 1, 2**32, 2**40 + 7, 2**63 - 1]


def special_graph(rank: int, kind: str, with_edges: bool = True) -> TrackingGraph:
    """Layers of 5, 4, 0 and 3 nodes with special values, huge vertex ids
    and negative tracks; one-sided and two-sided edges from layer 0 to 1."""
    nodes = []
    for t, size in enumerate((5, 4, 0, 3)):
        for i in range(size):
            k = 3 * t + i
            pos = tuple(SPECIAL_FLOATS[(k + a) % len(SPECIAL_FLOATS)] for a in range(rank))
            nodes.append(GraphNode(t, i, kind, BIG_VERTICES[k % len(BIG_VERTICES)],
                                   SPECIAL_FLOATS[k % len(SPECIAL_FLOATS)], pos, k % 4 - 1))
    edges = [
        GraphEdge(0, 0, 0, 0.5, None, 0.5),
        GraphEdge(0, 0, 3, None, 0.25, 0.25),
        GraphEdge(0, 1, 1, 1.0, 1.0, 1.0),
        GraphEdge(0, 2, 1, 1 / 3, 2 / 3, 2 / 3),
        GraphEdge(0, 3, 2, 1e-300, None, 1e-300),
        GraphEdge(0, 4, 0, None, 0.75, 0.0),
        GraphEdge(0, 4, 2, 0.7500001, 0.26, 0.7500001),
    ] if with_edges else []
    return graph_of(nodes, edges, {"strategy": "test", "thresholds": {}})


def assert_writers_match(g, tmp_path):
    want = {"json": oracle_export_json(g), "dot": oracle_export_dot(g)}
    for fmt, text in want.items():
        assert export(g, fmt) == text, fmt
        path = tmp_path / f"graph.{fmt}"
        save_graph(g, fmt, path)
        assert path.read_bytes() == text.encode("ascii"), fmt


class TestWriters:
    """Both graph writers against the per-object oracles on inputs the
    random graphs never reach, with blocks of 3 rows and of the default size."""

    @pytest.fixture(params=[3, None], ids=["block3", "default-block"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(correspond, "_BLOCK", request.param)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["extremum", "feature"])
    def test_special_values(self, block, rank, kind, tmp_path):
        assert_writers_match(special_graph(rank, kind), tmp_path)

    def test_graph_without_edges(self, block, tmp_path):
        assert_writers_match(special_graph(2, "extremum", with_edges=False), tmp_path)

    def test_empty_graph(self, block, tmp_path):
        assert_writers_match(graph_of((), ()), tmp_path)

    def test_more_rows_than_one_block(self, tmp_path):
        n = correspond._BLOCK + 5
        layers = [NodeColumns.for_step(t, "extremum", np.arange(n) * 977, np.arange(n) / 7,
                                       np.arange(2 * n).reshape(n, 2) / 3) for t in (0, 1)]
        i = np.arange(n)
        nodes = NodeColumns.concat(layers)
        edges = edges_of(nodes, np.zeros(n), i, (i * 5) % n, np.where(i % 3, i / n, np.nan),
                         np.where(i % 3 == 1, np.nan, 0.5), np.maximum(i / n, 0.5))
        g = TrackingGraph(nodes, edges)
        assert_writers_match(g, tmp_path)

    def test_writers_stream(self, tmp_path):
        # a graph of several blocks: writing it must never hold as much
        # memory as the document it writes
        n = 4 * correspond._BLOCK
        rng = np.random.default_rng(94)
        layers = [NodeColumns.for_step(t, "extremum", rng.integers(0, 2**40, n),
                                       rng.standard_normal(n), rng.random((n, 2)) * 100)
                  for t in (0, 1)]
        i = np.arange(n)
        p = rng.integers(1, 8, n) / 8
        nodes = NodeColumns.concat(layers)
        g = TrackingGraph(nodes, edges_of(nodes, np.zeros(n), i, rng.permutation(n), p, p, p))
        for fmt in ("json", "dot"):
            path = tmp_path / f"graph.{fmt}"
            tracemalloc.start()
            try:
                save_graph(g, fmt, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < path.stat().st_size, (fmt, peak, path.stat().st_size)
        assert (tmp_path / "graph.json").read_bytes() == export(g, "json").encode("ascii")


class TestGraphInvariants:
    def test_edges_must_reference_known_nodes(self):
        node = GraphNode(0, 0, "extremum", 0, 0.0, (0.0, 0.0))
        with pytest.raises(AssertionError):
            graph_of((node,), (GraphEdge(0, 0, 1, 1.0, None, 1.0),))

    def test_edges_need_at_least_one_probability(self):
        nodes = (GraphNode(0, 0, "extremum", 0, 0.0, (0.0,)),
                 GraphNode(1, 0, "extremum", 0, 0.0, (0.0,)))
        with pytest.raises(AssertionError):
            graph_of(nodes, (GraphEdge(0, 0, 0, None, None, 0.5),))

    @pytest.mark.parametrize("bad", ["src", "dst", "step", "strength", "probabilities"])
    def test_a_bad_edge_in_the_last_block_is_caught(self, bad, monkeypatch):
        # the checks run over blocks of edges, so the last edge counts too
        monkeypatch.setattr(morse, "_CHUNK_MIN", 4)
        nodes = NodeColumns.concat(mk_layers([3, 3, 3]))
        m = 50
        src, dst = np.arange(m) % 3, 3 + np.arange(m) % 3
        pf, pb, strength = np.full(m, 0.5), np.full(m, np.nan), np.full(m, 0.5)
        TrackingGraph(nodes, EdgeColumns(src, dst, pf, pb, strength))
        src[-1], dst[-1], strength[-1], pf[-1] = {
            "src": (-1, 3, 0.5, 0.5), "dst": (0, 9, 0.5, 0.5), "step": (0, 6, 0.5, 0.5),
            "strength": (0, 3, 1.5, 0.5), "probabilities": (0, 3, 0.5, np.nan)}[bad]
        with pytest.raises(AssertionError):
            TrackingGraph(nodes, EdgeColumns(src, dst, pf, pb, strength))

    def test_the_checks_hold_one_block_of_edges(self):
        # 2**20 edges between two steps of 1000 nodes: checking every edge at
        # once gathered both ends' steps as int64, 17 bytes per edge
        rng = np.random.default_rng(71)
        m = 1 << 20
        p = rng.random(m)
        edges = EdgeColumns(rng.integers(0, 1000, m), rng.integers(1000, 2000, m), p, p, p)
        nodes = NodeColumns.concat(mk_layers([1000, 1000]))
        tracemalloc.start()
        try:
            TrackingGraph(nodes, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * m

    def test_a_lone_part_is_not_copied(self):
        e = EdgeColumns(np.arange(3), np.arange(3, 6), np.full(3, 0.5), np.full(3, np.nan),
                        np.full(3, 0.5))
        assert np.shares_memory(EdgeColumns.concat([e]).src, e.src)

    def test_extremum_layers_carry_positions(self):
        from extrack.morse import label_manifolds
        from helpers import random_series

        series = random_series(np.random.default_rng(40), (5, 6), 2)
        labs = [label_manifolds(s, series.domain, "minimum") for s in series.steps]
        layers = extremum_layers(labs)
        assert [n.t for layer in layers for n in node_views(layer)] == \
            [t for t, layer in enumerate(layers) for _ in range(len(layer))]
        for t, layer in enumerate(layers):
            for n in node_views(layer):
                assert n.pos == series.domain.position(n.vertex)
                assert labs[t].label[n.vertex] == n.id


def graph_doc(**edge):
    """A two-layer graph document with one edge, updated by ``edge``."""
    node = {"t": 0, "id": 0, "kind": "extremum", "vertex": 0, "value": 0.0,
            "pos": [0.0, 0.0], "track": 0}
    doc = {"meta": {}, "nodes": [node, {**node, "t": 1}],
           "edges": [{"t": 0, "i": 0, "j": 0, "pf": 0.5, "pb": 1.0, "strength": 1.0}]}
    doc["edges"][0].update(edge)
    doc["edges"][0] = {k: v for k, v in doc["edges"][0].items() if v is not None}
    return doc


MALFORMED_GRAPHS = {
    "bare node": ({"meta": {}, "nodes": [{"t": 0, "track": 0}],
                   "edges": [{"t": 0, "i": 5, "j": 9, "strength": 7.0}]},
                  r"nodes\[0\] lacks id, kind, vertex, value, pos"),
    "node not an object": ({**graph_doc(), "nodes": [3]}, r"nodes\[0\] lacks t, id"),
    "nodes not a list": ({**graph_doc(), "nodes": {}}, "needs a 'nodes' list"),
    "edge without strength": (graph_doc(strength=None), r"edges\[0\] lacks strength"),
    "meta not an object": ({**graph_doc(), "meta": []}, "meta must be an object"),
    "absent source": (graph_doc(i=5), "names a node that does not exist"),
    "absent target": (graph_doc(j=9), "names a node that does not exist"),
    "past the last layer": (graph_doc(t=1), "names a node that does not exist"),
    "strength above 1": (graph_doc(strength=7.0), r"strengths must lie in \(0, 1\]"),
    "strength 0": (graph_doc(strength=0.0), r"strengths must lie in \(0, 1\]"),
    "pf above 1": (graph_doc(pf=1.5), r"pf values must lie in \(0, 1\]"),
    "pb 0": (graph_doc(pb=0.0), r"pb values must lie in \(0, 1\]"),
    "no probability": (graph_doc(pf=None, pb=None), "needs pf or pb"),
    "node listed twice": ({**graph_doc(), "nodes": graph_doc()["nodes"] * 2},
                          "node t0 #0 is listed twice"),
    "negative step": ({**graph_doc(), "nodes": [{**graph_doc()["nodes"][0], "t": -2}],
                       "edges": []}, "node t-2 #0 has a negative step"),
    "edge listed twice": ({**graph_doc(), "edges": graph_doc()["edges"]
                           + graph_doc(strength=0.9, pf=None)["edges"]},
                          "edge t0 0 -> 0 is listed twice"),
    # each names the first offending edge in (t, i, j) order, whatever the listed order
    "absent nodes listed out of order": ({**graph_doc(), "edges": graph_doc(i=7)["edges"]
                                          + graph_doc(i=3)["edges"]},
                                         "edge t0 3 -> 0 names a node that does not exist"),
    "repeats listed out of order": ({**graph_doc(), "nodes": graph_doc()["nodes"]
                                     + [{**graph_doc()["nodes"][0], "id": 1}],
                                     "edges": [*graph_doc(i=1)["edges"], *graph_doc()["edges"]] * 2},
                                    "edge t0 0 -> 0 is listed twice"),
    # non-integral numbers are refused, not truncated
    "fractional node step": ({**graph_doc(), "nodes": [{**graph_doc()["nodes"][0], "t": 0.7},
                                                       graph_doc()["nodes"][1]]},
                             "node 't' must be integers"),
    "fractional node id": ({**graph_doc(), "nodes": [{**graph_doc()["nodes"][0], "id": 1.9},
                                                     graph_doc()["nodes"][1]]},
                           "node 'id' must be integers"),
    "fractional vertex": ({**graph_doc(), "nodes": [{**graph_doc()["nodes"][0], "vertex": 2.5},
                                                    graph_doc()["nodes"][1]]},
                          "node 'vertex' must be integers"),
    "boolean track": ({**graph_doc(), "nodes": [{**n, "track": True} for n in graph_doc()["nodes"]]},
                      "node 'track' must be integers"),
    "integral float edge target": (graph_doc(j=0.0), "edge 'j' must be integers"),
    "string edge step": (graph_doc(t="0"), "edge 't' must be integers"),
    # numpy reads a bool among integers as 0 or 1, and a numeric string as its number
    "boolean among node ids": ({**graph_doc(), "nodes": [{**graph_doc()["nodes"][0], "id": True},
                                                         graph_doc()["nodes"][1]]},
                               "node 'id' must be integers, got a boolean"),
    "unknown node kind": ({**graph_doc(), "nodes": [{**n, "kind": "banana"}
                                                    for n in graph_doc()["nodes"]]},
                          "node kind 'banana' is neither 'extremum' nor 'feature'"),
    "string value": ({**graph_doc(), "nodes": [{**graph_doc()["nodes"][0], "value": "1.5"},
                                               graph_doc()["nodes"][1]]},
                     "node 'value' must be numbers"),
    "string position": ({**graph_doc(), "nodes": [{**graph_doc()["nodes"][0], "pos": ["2.0", "0"]},
                                                  graph_doc()["nodes"][1]]},
                        "node 'pos' must be numbers"),
    "boolean among positions": ({**graph_doc(), "nodes": [{**graph_doc()["nodes"][0],
                                                           "pos": [1.0, True]},
                                                          graph_doc()["nodes"][1]]},
                                "node 'pos' must be numbers, got a boolean"),
    "boolean strength": (graph_doc(strength=True), "edge 'strength' must be numbers"),
    "string pf": (graph_doc(pf="0.5"), "edge 'pf' must be numbers"),
    # each value nested as written: a reshape would hide the wrong nesting
    "scalar position": ({**graph_doc(), "nodes": [{**n, "pos": 3} for n in graph_doc()["nodes"]]},
                        "each node 'pos' must be one list of numbers"),
    "nested position": ({**graph_doc(), "nodes": [{**n, "pos": [[1]]}
                                                  for n in graph_doc()["nodes"]]},
                        "each node 'pos' must be one list of numbers"),
    "listed node step": ({**graph_doc(), "nodes": [{**n, "t": [n["t"]]}
                                                   for n in graph_doc()["nodes"]]},
                         "each node 't' must be one integer"),
    "listed value": ({**graph_doc(), "nodes": [{**n, "value": [0.0]} for n in graph_doc()["nodes"]]},
                     "each node 'value' must be one number"),
    "listed edge target": (graph_doc(j=[0]), "each edge 'j' must be one integer"),
    "listed strength": (graph_doc(strength=[1.0]), "each edge 'strength' must be one number"),
}


class TestImportValidation:
    def test_well_formed_document_loads(self):
        for edge in ({}, {"pf": None}, {"pb": None}):
            g = import_graph(json.dumps(graph_doc(**edge)))
            assert edge_set(g) == {(0, 0, 0)}

    def test_node_ids_far_apart_load(self):
        # (t, id) keys packed as t * span + id would wrap here
        node = graph_doc()["nodes"][0]
        doc = {"meta": {}, "nodes": [{**node, "t": t, "id": i}
                                     for t, i in ((0, 0), (0, 2**62), (3, 0), (4, 0))],
               "edges": [{"t": 3, "i": 0, "j": 0, "pf": 1.0, "strength": 1.0}]}
        g = import_graph(json.dumps(doc))
        assert edge_set(g) == {(3, 0, 0)} and g.n_layers == 5

    def test_stored_tracks_are_kept(self, monkeypatch):
        # a document's track ids are its own, even where the edges disagree
        doc = graph_doc()
        doc["nodes"].append({**doc["nodes"][1], "id": 1})
        for node, track in zip(doc["nodes"], (5, 5, 9)):
            node["track"] = track
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        propagate = trackgraph._propagate_tracks
        monkeypatch.setattr(trackgraph, "_propagate_tracks",
                            lambda *a: pytest.fail("stored tracks were derived anew"))
        g = import_graph(text)
        assert g.tracks.tolist() == [5, 5, 9]
        assert [n.track for n in g.nodes] == [5, 5, 9]
        assert export(g, "json") == text
        assert 'tooltip="track 9"' in export(g, "dot")
        assert propagate(g.node_columns, g.edge_columns).tolist() == [0, 0, 1]

    def test_node_rows_are_exact_for_any_int64_ids(self):
        rng = np.random.default_rng(95)
        big = np.iinfo(np.int64)
        for _ in range(20):
            n = int(rng.integers(0, 12))
            t = rng.integers(0, 4, n)
            ids = rng.choice(np.array([big.min, -2**62, -1, 0, 1, 2**62, big.max - 1, big.max]), n)
            keep = np.unique(np.stack([t, ids], axis=1), axis=0)
            nodes = layer_of(GraphNode(a, b, "extremum", 0, 0.0, (0.0,)) for a, b in keep.tolist())
            where = {(a, b): k for k, (a, b) in enumerate(zip(nodes.t.tolist(), nodes.id.tolist()))}
            qt = rng.integers(-1, 5, 30)
            qi = rng.choice(np.array([big.min, -2**62, -1, 0, 1, 2**62, big.max - 1, big.max]), 30)
            want = [where.get(q, -1) for q in zip(qt.tolist(), qi.tolist())]
            assert nodes.rows(qt, qi).tolist() == want

    @pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
    def test_malformed_document_raises_value_error(self, name):
        doc, message = MALFORMED_GRAPHS[name]
        with pytest.raises(ValueError, match=message):
            import_graph(json.dumps(doc))

    def test_checks_survive_python_O(self, tmp_path):
        # the checks must not be asserts, which -O strips
        script = tmp_path / "check.py"
        script.write_text(
            "import json, sys\n"
            "from extrack.trackgraph import import_graph\n"
            "docs = json.loads(open(sys.argv[1]).read())\n"
            "for name, doc in docs.items():\n"
            "    try:\n"
            "        import_graph(json.dumps(doc))\n"
            "    except ValueError:\n"
            "        continue\n"
            "    print('loaded:', name)\n"
        )
        docs = tmp_path / "docs.json"
        docs.write_text(json.dumps({name: doc for name, (doc, _) in MALFORMED_GRAPHS.items()}))
        r = run_python(str(script), str(docs), optimize=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == ""


def outcome(call):
    """What ``call()`` returns, or the exception it raises."""
    try:
        return call()
    except Exception as e:
        return e


def assert_same_read(new, old):
    """Two readers' outcomes agree: the same exception type and message, or
    the same columns, dtypes included, tracks, meta and export."""
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (new, old)
        return
    assert not isinstance(new, Exception), new
    for a, b in ((new.node_columns, old.node_columns), (new.edge_columns, old.edge_columns)):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            np.testing.assert_array_equal(x, y, err_msg=f.name)
    np.testing.assert_array_equal(new.tracks, old.tracks)
    assert new.meta == old.meta
    assert export(new, "json") == export(old, "json")


@pytest.fixture(params=[1, 2, 5, None], ids=["chunk1", "chunk2", "chunk5", "default-chunk"])
def chunk(request, monkeypatch):
    """Records decoded per chunk of a list: every size splits the small
    documents differently."""
    if request.param is not None:
        monkeypatch.setattr(trackgraph, "_CHUNK", request.param)


def several_layers() -> TrackingGraph:
    rng = np.random.default_rng(97)
    dom = GridDomain((6, 7))
    layers = random_layers(rng, dom, [4, 7, 0, 5, 6])
    fwd = [random_cm(rng, len(a), len(b), "forward") for a, b in zip(layers, layers[1:])]
    bwd = [random_cm(rng, len(b), len(a), "backward") for a, b in zip(layers, layers[1:])]
    return assemble(layers, fwd, bwd, ConnectivityPolicy(bidirectional=False), strategy="s")


def reserialized(text: str, how: str) -> str:
    """An exported document written out again another way."""
    doc = json.loads(text)
    if how == "as exported":
        return text
    if how == "shuffled keys":
        keys = list(doc)
        np.random.default_rng(len(text)).shuffle(keys)
        return json.dumps({k: doc[k] for k in keys})
    if how == "compact":
        return json.dumps(doc, separators=(",", ":"))
    if how == "tabs and CRLF":
        return " \n\t" + json.dumps(doc, indent="\t").replace("\n", "\r\n") + "\r\n"
    if how == "repeated keys":
        # the earlier of two values is dropped, even one that would be refused
        head = '{"nodes": [{"t": -1}], "edges": 3, "meta": [],'
        tail = json.dumps(doc["meta"])
        return head + text.strip()[1:-1] + ', "meta": ' + tail + "}"
    if how == "extra top-level keys":
        return json.dumps({"aa": "edges", **doc, "zz": {"nodes": [{"t": 0.5}]}, "x": [1, 2]})
    if how == "extra record keys":
        for x in doc["nodes"] + doc["edges"]:
            x["note"] = [1, {"t": "x"}]
        return json.dumps(doc)
    if how == "escaped key":
        return text.replace('"nodes":', '"\\u006eodes":', 1)
    if how == "no meta":
        del doc["meta"]
        return json.dumps(doc)
    if how == "empty lists":
        return json.dumps({**doc, "nodes": [], "edges": []})
    raise AssertionError(how)


REWRITES = ["as exported", "shuffled keys", "compact", "tabs and CRLF", "repeated keys",
            "extra top-level keys", "extra record keys", "escaped key", "no meta", "empty lists"]

# documents the chunks of a list read apart: each needs the whole list's
# error, or the whole list's columns
_NODE = graph_doc()["nodes"][0]
CHUNKED_DOCS = {
    "positions of two lengths": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": k, "pos": [0.0] * (1 + (k > 2))} for k in range(6)]},
    "key missing in a later chunk": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": k} if k < 5 else {"t": 0} for k in range(6)]},
    "fraction before a missing key": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": k, "t": 0.5 if k == 0 else 0} if k < 5 else {"t": 0} for k in range(6)]},
    "fraction before a boolean": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": k, "t": 0.5 if k == 0 else True if k == 5 else 0} for k in range(6)]},
    "step before a kind": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": k, "kind": "banana" if k == 0 else "extremum", "t": "0" if k == 5 else 0}
        for k in range(6)]},
    "kinds of two widths": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": k, "kind": "feature" if k < 3 else "extremum"} for k in range(6)]},
    "integers then floats": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": k, "value": k if k < 3 else k / 3, "pos": [k, 2**64 if k == 4 else k]}
        for k in range(6)]},
    "integer past int64 in a later chunk": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": 2**63 if k == 5 else k} for k in range(6)]},
    "positions nested in a later chunk": {"meta": {}, "edges": [], "nodes": [
        {**_NODE, "id": k, "pos": [[0.0]] if k == 5 else [0.0]} for k in range(6)]},
    "records not objects": {"meta": {}, "edges": [], "nodes": [1, 2, 3]},
}

MALFORMED_JSON = {
    "number as a key": '{"nodes": [], 1: [], "edges": []}',
    "trailing comma": '{"nodes": [], "edges": [],}',
    "trailing comma in a list": '{"nodes": [], "edges": [{"t": 0, "i": 0, "j": 0, '
                                '"strength": 1.0},]}',
    "missing colon": '{"nodes" [], "edges": []}',
    "missing comma between records": '{"nodes": [{"t": 0} {"t": 1}], "edges": []}',
    "extra data": '{"nodes": [], "edges": []} []',
    "record error, then a syntax error": '{"nodes": [{"t": 0}], "edges": [], "meta": {} x}',
    "syntax error in a later record": json.dumps(graph_doc()).replace('"track": 0}]',
                                                                      '"track": 0,}]'),
    "cut off": json.dumps(graph_doc())[:-40],
    "empty text": "",
    "byte order mark": "\ufeff" + json.dumps(graph_doc()),
    "digits past the limit": '{"nodes": [], "edges": [], "x": ' + "1" * 5000 + "}",
    "digits past the limit in a record": '{"nodes": [{"t": ' + "1" * 5000 + "}], "
                                         '"edges": []}',
}


class TestReader:
    """``import_graph`` reads the document a chunk of records at a time; it
    must find what the tree reader finds, or raise what it raises."""

    @pytest.mark.parametrize("how", REWRITES)
    @pytest.mark.parametrize("graph", ["special", "several layers"])
    def test_reads_what_the_tree_reader_reads(self, chunk, graph, how):
        if graph == "special":
            g = special_graph(2, "feature")
            e = g.edge_columns
            g = TrackingGraph(g.node_columns, e.take(e.strength > 0), g.meta, g.tracks)
        else:
            g = several_layers()
        text = reserialized(export(g, "json"), how)
        old = outcome(lambda: oracle_import_graph(text))
        assert not isinstance(old, Exception), old
        assert_same_read(outcome(lambda: import_graph(text)), old)
        assert_same_read(outcome(lambda: trackgraph.doc_to_graph(json.loads(text))), old)

    @pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
    def test_malformed_graphs_raise_what_the_tree_reader_raises(self, chunk, name):
        text = json.dumps(MALFORMED_GRAPHS[name][0])
        old = outcome(lambda: oracle_import_graph(text))
        assert isinstance(old, ValueError)
        assert_same_read(outcome(lambda: import_graph(text)), old)
        assert_same_read(outcome(lambda: trackgraph.doc_to_graph(json.loads(text))), old)

    @pytest.mark.parametrize("name", sorted(CHUNKED_DOCS))
    def test_chunks_read_as_the_whole_list(self, chunk, name):
        for text in (json.dumps(CHUNKED_DOCS[name]), json.dumps(CHUNKED_DOCS[name], indent=1)):
            old = outcome(lambda: oracle_import_graph(text))
            assert_same_read(outcome(lambda: import_graph(text)), old)

    @pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
    def test_malformed_json_raises_what_json_loads_raises(self, chunk, name):
        text = MALFORMED_JSON[name]
        old = outcome(lambda: json.loads(text))
        assert isinstance(old, ValueError)
        assert_same_read(outcome(lambda: oracle_import_graph(text)), old)
        assert_same_read(outcome(lambda: import_graph(text)), old)

    @pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS) + sorted(MALFORMED_JSON))
    def test_inspect_reports_what_the_tree_reader_raises(self, tmp_path, capsys, name):
        if name in MALFORMED_GRAPHS:
            text = json.dumps(MALFORMED_GRAPHS[name][0])
            want = f"malformed graph document: {outcome(lambda: oracle_import_graph(text))!r}"
        else:
            text = MALFORMED_JSON[name]
            want = f"unreadable JSON: {outcome(lambda: json.loads(text))}"
        p = tmp_path / "g.json"
        p.write_text(text, encoding="utf-8")
        assert main(["inspect", str(p)]) == 3
        assert capsys.readouterr().err == f"error: {p}: {want}\n"

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"nodes"', "3"])
    def test_a_top_level_other_than_an_object(self, text):
        old = outcome(lambda: oracle_import_graph(text))
        assert str(old) == "a graph document needs a 'nodes' list"
        assert_same_read(outcome(lambda: import_graph(text)), old)

    @pytest.mark.parametrize("pos", [
        [[1, 2.5], [3, 4]], [[2**63, 1], [0, 0]], [[2**70, 0.5], [1, 1]], [[], []], [[1]],
        [[1], [2, 3]], [[1, True], [0, 0]], [[1, "2"]], [3, 4], [[[1]], [[2]]], [{"a": 1}],
        ["ab", "cd"], [[1, 2], "ab"], [[10**400, 1]], [None], [[None, 1]],
    ])
    def test_positions_read_flat_as_nested(self, pos):
        records = [{"pos": p} for p in pos]
        old = outcome(lambda: oracle_column(records, "node", "pos"))
        new = outcome(lambda: trackgraph._column(pos, "node", "pos"))
        if isinstance(old, Exception):
            assert type(new) is type(old) and str(new) == str(old)
        else:
            assert new.dtype == old.dtype and new.shape == old.shape
            np.testing.assert_array_equal(new, old)

    def test_import_peaks_below_its_text(self):
        # a graph of 10k nodes: the tree reader holds about 3x the text,
        # this one a chunk of records and the columns
        n = 5000
        rng = np.random.default_rng(98)
        layers = [NodeColumns.for_step(t, "extremum", rng.integers(0, 2**40, n),
                                       rng.standard_normal(n), rng.random((n, 2)) * 100)
                  for t in (0, 1)]
        nodes = NodeColumns.concat(layers)
        i, p = np.arange(n), rng.integers(1, 8, n) / 8
        text = export(TrackingGraph(nodes, edges_of(nodes, np.zeros(n), i, rng.permutation(n),
                                                    p, p, p)), "json")
        peaks = []
        for read in (import_graph, oracle_import_graph):
            tracemalloc.start()
            try:
                read(text)
                peaks.append(tracemalloc.get_traced_memory()[1] / len(text))
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.6 < peaks[1], peaks


class TestStreamedRead:
    """A valid document is read by the walk alone; one that fails a check
    is read again whole, once."""

    @pytest.mark.parametrize("how", ["as exported", "compact", "shuffled keys", "tabs and CRLF"])
    def test_valid_documents_never_reach_json_loads(self, chunk, monkeypatch, how):
        text = reserialized(export(several_layers(), "json"), how)
        want = oracle_import_graph(text)

        def refused(*args, **kwargs):
            raise AssertionError("json.loads read the document")

        with monkeypatch.context() as m:
            m.setattr(trackgraph.json, "loads", refused)
            got = outcome(lambda: import_graph(text))
        assert_same_read(got, want)

    def test_a_failed_chunk_reads_the_text_again_once(self, chunk, monkeypatch):
        doc = json.loads(export(several_layers(), "json"))
        doc["nodes"][-1]["vertex"] = 2.5  # the last record fails its chunk's check
        text = json.dumps(doc)
        want = outcome(lambda: oracle_import_graph(text))
        assert str(want) == "node 'vertex' must be integers, got float64 values"
        read, loads = [], json.loads

        def counted(s, *args, **kwargs):
            read.append(s)
            return loads(s, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(trackgraph.json, "loads", counted)
            got = outcome(lambda: import_graph(text))
        assert_same_read(got, want)
        assert read == [text]


def random_cm(rng, rows, cols, direction, density=0.5):
    """Sparse probabilities count/denominator with small per-row
    denominators, so equal strengths (ties) are common."""
    denom = rng.choice([2, 3, 4, 7], size=rows)
    counts = rng.integers(1, denom[:, None] + 1, size=(rows, cols))
    dense = np.where(rng.random((rows, cols)) < density, counts, 0)
    ii, jj = np.nonzero(dense)
    return OverlapMatrix(rows, cols, direction, "manifold-overlap",
                         *_keys_and_counts(rows, cols, ii, jj, dense[ii, jj]),
                         denom.astype(np.int64),
                         "correspondence")


def random_layers(rng, domain, sizes):
    layers = []
    for t, n in enumerate(sizes):
        vertices = rng.integers(0, domain.vertex_count, size=n).tolist()
        values = (rng.integers(-21, 21, size=n) / 7).tolist()
        layers.append(layer_of(GraphNode(t, i, "extremum", v, x, domain.position(v))
                               for i, (v, x) in enumerate(zip(vertices, values))))
    return layers


def assert_same_graph(new, old):
    assert [dataclasses.astuple(n) for n in new.nodes] == [dataclasses.astuple(n) for n in old.nodes]
    assert [dataclasses.astuple(e) for e in new.edges] == [dataclasses.astuple(e) for e in old.edges]
    assert new.meta == old.meta
    assert export(new, "json") == oracle_export_json(old)
    assert export(new, "dot") == oracle_export_dot(old)


POLICIES = [ConnectivityPolicy(b, s) for b in (True, False) for s in ("max", "avg", "min")]


class TestAgainstOracles:
    """Column-array assembly, tracks, filters and writers against the
    per-object reference implementations in tests/helpers.py."""

    def check_pipeline(self, layers, cm_f, cm_b, domain, predicates):
        for policy in POLICIES:
            new = assemble(layers, cm_f, cm_b, policy, strategy="manifold-overlap")
            old = oracle_assemble(layers, cm_f, cm_b, policy, strategy="manifold-overlap")
            assert_same_graph(new, old)
            for p_min in (0.0, 0.25, 0.5, 1.0):
                for require in ("any", "both"):
                    assert_same_graph(threshold_filter(new, p_min, require),
                                      oracle_threshold_filter(old, p_min, require))
            kept = threshold_filter(new, 0.25, "any")
            kept_old = oracle_threshold_filter(old, 0.25, "any")
            for pred in predicates:
                assert_same_graph(semantic_filter(kept, domain, pred),
                                  oracle_semantic_filter(kept_old, domain, pred))

    def test_random_sparse_matrices_with_ties(self):
        rng = np.random.default_rng(90)
        domain = GridDomain((7, 6), spacing=(1.0, 0.5), periodic=(True, False))
        predicates = [
            SemanticPredicate(max_jump=1.0),
            SemanticPredicate(max_jump=2.5, value_min=-2.0),
            SemanticPredicate(value_max=0.0, box_min=(1.0, 0.0), box_max=(5.0, 2.0)),
            SemanticPredicate(max_jump=0.0),
        ]
        for _ in range(25):
            sizes = rng.integers(1, 8, size=rng.integers(2, 5)).tolist()
            layers = random_layers(rng, domain, sizes)
            cm_f = [random_cm(rng, a, b, "forward") for a, b in zip(sizes, sizes[1:])]
            cm_b = [random_cm(rng, b, a, "backward") for a, b in zip(sizes, sizes[1:])]
            self.check_pipeline(layers, cm_f, cm_b, domain, predicates)

    def test_one_sided_and_disjoint_supports(self):
        # empty matrices, one direction only, disjoint supports and keys
        # that interleave, so the backward-only keys land before, between
        # and after the forward ones
        rng = np.random.default_rng(93)
        domain = GridDomain((4, 5))
        layers = random_layers(rng, domain, [3, 4])
        # (i, j) of layers t and t+1; the backward matrix is built transposed
        f = np.array([[0, 0.5, 0, 0.5], [0, 0, 0, 0], [1.0, 0, 0, 0]])
        b = np.array([[0.5, 0, 0.5, 0], [0, 1.0, 0, 0], [0.5, 0, 0, 0.5]])
        zero = np.zeros((3, 4))
        for fd, bd in ((f, b), (f, zero), (zero, b), (zero, zero), (f, f), (b, f),
                       (f, np.maximum(f, b))):
            cm_f, cm_b = [cm(fd, "forward", 2)], [cm(bd.T, "backward", 2)]
            for policy in POLICIES:
                assert_same_graph(assemble(layers, cm_f, cm_b, policy),
                                  oracle_assemble(layers, cm_f, cm_b, policy))

    def test_empty_feature_layer(self):
        # a step whose feature file lists no feature: its matrices have no
        # rows or no columns
        rng = np.random.default_rng(94)
        domain = GridDomain((4, 5))
        for sizes in ([3, 0, 2], [0, 4], [2, 0], [0, 0]):
            layers = [layer_of(dataclasses.replace(n, kind="feature") for n in node_views(layer))
                      for layer in random_layers(rng, domain, sizes)]
            cm_f = [random_cm(rng, a, b, "forward") for a, b in zip(sizes, sizes[1:])]
            cm_b = [random_cm(rng, b, a, "backward") for a, b in zip(sizes, sizes[1:])]
            for policy in POLICIES:
                assert_same_graph(assemble(layers, cm_f, cm_b, policy),
                                  oracle_assemble(layers, cm_f, cm_b, policy))

    @pytest.mark.parametrize("dims,periodic,kind", [
        ((20, 18), (False, True), "minimum"),
        ((9, 8, 7), (True, False, False), "maximum"),
    ])
    def test_noisy_labelings(self, dims, periodic, kind):
        from extrack.correspond import manifold_overlap, normalize, sampling_overlap
        from extrack.morse import label_manifolds, simplify

        rng = np.random.default_rng(91)
        domain = GridDomain(dims, periodic=periodic)
        # few distinct values: plateaus and tied probabilities everywhere
        steps = [rng.integers(0, 5, domain.vertex_count).astype(float) for _ in range(3)]
        labs = [simplify(label_manifolds(s, domain, kind), s, 10.0) for s in steps]
        layers = extremum_layers(labs)
        assert [node_views(layer) for layer in layers] == oracle_extremum_layers(labs)

        predicates = [SemanticPredicate(max_jump=2.0), SemanticPredicate(max_jump=4.0, value_min=2.0)]
        pairs = [manifold_overlap(a, b) for a, b in zip(labs, labs[1:])]
        self.check_pipeline(layers, [normalize(f) for f, _ in pairs],
                            [normalize(b) for _, b in pairs], domain, predicates)
        cm_f = [normalize(sampling_overlap(a, b, "euclidean", 1.5, "forward"))
                for a, b in zip(labs, labs[1:])]
        cm_b = [normalize(sampling_overlap(b, a, "euclidean", 1.5, "backward"))
                for a, b in zip(labs, labs[1:])]
        self.check_pipeline(layers, cm_f, cm_b, domain, predicates)

    def test_import_round_trip_matches_oracle_bytes(self):
        rng = np.random.default_rng(92)
        domain = GridDomain((5, 5))
        layers = random_layers(rng, domain, [4, 5, 3])
        cm_f = [random_cm(rng, 4, 5, "forward"), random_cm(rng, 5, 3, "forward")]
        cm_b = [random_cm(rng, 5, 4, "backward"), random_cm(rng, 3, 5, "backward")]
        g = oracle_assemble(layers, cm_f, cm_b, ConnectivityPolicy(bidirectional=False))
        text = oracle_export_json(g)
        back = import_graph(text)
        assert_same_graph(back, g)
        assert export(back, "json") == text


def column_layer(rng, domain, t, n, kind):
    vertices = rng.integers(0, domain.vertex_count, size=n)
    return NodeColumns.for_step(t, kind, vertices, rng.integers(-6, 6, size=n) / 3,
                                domain.positions(vertices))


def tied_cm(rng, rows, cols, direction, live_rows, live_cols):
    """Probabilities in quarters (many exact ties), nonzero only where both
    indices name a node."""
    dense = rng.integers(0, 5, size=(rows, cols)) * (rng.random((rows, cols)) < 0.6) / 4
    dense[~np.isin(np.arange(rows), live_rows)] = 0
    dense[:, ~np.isin(np.arange(cols), live_cols)] = 0
    return cm(dense, direction, 4)


def assert_oracle_tracks(g):
    """The graph's tracks are those the per-object oracle derives from its
    own edges, its edge ends found by (t, id) lead back to its node rows,
    and its edges are listed once each, in (src, dst) order."""
    layers = [nodes_at(g, t) for t in range(g.n_layers)]
    expect = oracle_propagate_tracks(layers, list(g.edges))
    assert [n.track for n in g.nodes] == [n.track for n in expect]
    n, e = g.node_columns, g.edge_columns
    t, i, j = g.edge_ends()
    np.testing.assert_array_equal(n.rows(t, i), e.src)
    np.testing.assert_array_equal(n.rows(t + 1, j), e.dst)
    assert (np.diff(e.src * len(n) + e.dst) > 0).all()


class TestCarriedRows:
    """Node rows carried from assembly through both filters, and tracks
    derived once, for the graph that is read."""

    @pytest.mark.parametrize("layout", ["columns"])
    def test_tracks_through_both_filters_match_the_oracle(self, layout):
        rng = np.random.default_rng(94)
        domain = GridDomain((6, 7), spacing=(1.0, 0.5), periodic=(False, True))
        predicates = [
            SemanticPredicate(value_min=-1.0),
            SemanticPredicate(value_max=0.5, max_jump=2.0),
            SemanticPredicate(box_min=(1.0, 0.5), box_max=(4.0, 2.5)),
            SemanticPredicate(value_min=-1.5, box_max=(5.0, 2.0), max_jump=1.5),
        ]
        for _ in range(12):
            sizes = rng.integers(1, 9, size=rng.integers(2, 6)).tolist()
            layers = []
            for t, n in enumerate(sizes):
                kind = ("extremum", "feature")[rng.integers(2)]
                layers.append(column_layer(rng, domain, t, n, kind))
            ids = [layer.id for layer in layers]
            cm_f = [tied_cm(rng, a, b, "forward", ids[t], ids[t + 1])
                    for t, (a, b) in enumerate(zip(sizes, sizes[1:]))]
            cm_b = [tied_cm(rng, b, a, "backward", ids[t + 1], ids[t])
                    for t, (a, b) in enumerate(zip(sizes, sizes[1:]))]
            for policy in POLICIES:
                g = assemble(layers, cm_f, cm_b, policy)
                h = threshold_filter(g, 0.25, "any")
                for pred in predicates:
                    k = semantic_filter(h, domain, pred)
                    assert_oracle_tracks(k)
                assert_oracle_tracks(h)
                assert_oracle_tracks(g)

    def test_layer_ids_other_than_0_to_n_minus_1_raise(self):
        # matrix index k is node k of its layer: there is no row search
        rng = np.random.default_rng(95)
        dense = column_layer(rng, GridDomain((6, 7)), 0, 3, "extremum")
        sparse = [layer_of(GraphNode(1, i, "extremum", 0, 0.0, (0.0, 0.0)) for i in ids)
                  for ids in ([0, 2, 5], [1, 2, 3], [0, 1, 1])]
        unsorted = dataclasses.replace(dense, t=np.ones(3, np.int64), id=np.array([1, 0, 2]))
        for layer in [*sparse, unsorted]:
            with pytest.raises(ValueError, match=r"layer 1 has node ids other than 0\.\.2"):
                assemble([dense, layer], [cm(np.eye(3), "forward")],
                         [cm(np.eye(3), "backward")], ConnectivityPolicy())

    def test_value_window_and_box_drop_nodes(self):
        # the remap of carried rows is exercised only when nodes go
        rng = np.random.default_rng(97)
        domain = GridDomain((6, 7))
        layers = [column_layer(rng, domain, t, 8, "extremum") for t in range(3)]
        ids = [layer.id for layer in layers]
        cm_f = [tied_cm(rng, 8, 8, "forward", ids[t], ids[t + 1]) for t in range(2)]
        cm_b = [tied_cm(rng, 8, 8, "backward", ids[t + 1], ids[t]) for t in range(2)]
        g = assemble(layers, cm_f, cm_b, ConnectivityPolicy(bidirectional=False))
        for pred in (SemanticPredicate(value_min=0.0), SemanticPredicate(box_max=(3.0, 3.0))):
            out = semantic_filter(g, domain, pred)
            assert 0 < len(out.node_columns) < len(g.node_columns)
            assert_oracle_tracks(out)

    def test_filtered_away_graph_never_propagates(self, monkeypatch):
        calls = []
        propagate = trackgraph._propagate_tracks
        monkeypatch.setattr(trackgraph, "_propagate_tracks",
                            lambda *a: calls.append(1) or propagate(*a))
        g = assemble(mk_layers([2, 2, 2]), [cm(np.eye(2), "forward")] * 2,
                     [cm(np.eye(2), "backward")] * 2, ConnectivityPolicy())
        h = semantic_filter(threshold_filter(g, 0.5), GridDomain((4, 4)),
                            SemanticPredicate(max_jump=1.0))
        assert calls == []
        assert {n.track for n in h.nodes} == {0, 1}
        nodes_at(h, 1)
        export(h, "json")
        assert calls == [1]

    def test_carried_row_to_an_absent_node_raises(self):
        nodes = NodeColumns.concat([NodeColumns.for_step(t, "extremum", [0, 1], [0.0, 1.0],
                                                         [[0.0, 0.0], [1.0, 0.0]])
                                    for t in range(2)])
        def edge(src, dst):
            return EdgeColumns(np.array([src]), np.array([dst]), np.ones(1), np.full(1, np.nan),
                               np.ones(1))

        TrackingGraph(nodes, edge(0, 3))
        # out of range, negative, and both ends in one layer (rows 2 and 3 are step 1)
        for src, dst in ((0, 4), (-1, 3), (2, 3)):
            with pytest.raises(AssertionError):
                TrackingGraph(nodes, edge(src, dst))
        with pytest.raises(AssertionError):  # node (1, 2) does not exist: row -1
            TrackingGraph(nodes, edges_of(nodes, [0], [0], [2], [1.0], [np.nan], [1.0]))


def test_library_takes_columns_only():
    # objects are output views: no entry point accepts one, and no
    # accessor exists only to serve tests
    import inspect
    import re
    from pathlib import Path

    import extrack
    from extrack import cli, features, field, morse, synth

    for path in Path(extrack.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "def from_objects" not in text and "class TotalOrder" not in text, path.name
    assert not hasattr(extrack, "TotalOrder") and not hasattr(morse, "TotalOrder")
    for owner, names in ((OverlapMatrix, ("row", "_at", "entry", "prob", "items", "support",
                                          "unassigned_mass")),
                         (TrackingGraph, ("layer", "edge_set", "_with_derived_tracks")),
                         (NodeColumns, ("track", "with_tracks", "build", "__iter__")),
                         (features.FeatureSet, ("covered",)),
                         (features.singleton_features(0, 2), ("index_sets", "labels", "feature_ids")),
                         (features, ("save_features", "_members")),
                         (field, ("euclidean_ball", "vertex_neighbors")),
                         (correspond, ("sampling_neighborhood", "matrix_to_doc", "load_matrix")),
                         (extrack, ("euclidean_ball", "vertex_neighbors", "sampling_neighborhood")),
                         (EdgeColumns.concat([]), ("t", "i", "j", "build", "with_rows")),
                         (trackgraph, ("_edge_rows",)),
                         (morse, ("ManifoldKind", "_MANIFOLD_OF")),
                         (morse.ManifoldLabeling, ("extremum_kind", "kind")),
                         (field.ScalarFieldSeries, ("timestamps",)),
                         (field, ("_positions",))):
        assert not [n for n in names if hasattr(owner, n)], owner
    # a labeling's basin sizes are derived from its labels, not stored
    assert [f.name for f in dataclasses.fields(morse.ManifoldLabeling)] == [
        "domain", "label", "extrema", "_saddles", "_partners"]
    # a node's track belongs to the graph (TrackingGraph.tracks), not to the node
    assert [f.name for f in dataclasses.fields(NodeColumns)] == ["t", "id", "kind", "vertex",
                                                                  "value", "pos"]
    # an edge is its two node rows, held once; (t, i, j) is derived
    assert [f.name for f in dataclasses.fields(EdgeColumns)] == ["src", "dst", "pf", "pb",
                                                                  "strength"]
    assert "domain" not in inspect.signature(correspond.sampling_overlap).parameters
    with pytest.raises(TypeError):
        field.GridDomain((2, 2)).positions()
    objects = re.compile(r"\b(GraphNode|GraphEdge|Extremum)\b")
    for mod in (cli, correspond, features, field, morse, synth, trackgraph):
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                fns = [obj]
            elif inspect.isclass(obj):
                fns = [f for f in vars(obj).values() if inspect.isfunction(f)]
            else:
                continue
            for f in fns:
                for p in inspect.signature(f).parameters.values():
                    assert not objects.search(str(p.annotation)), (f.__qualname__, p.name)

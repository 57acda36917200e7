"""Probabilistic tracking of scalar-field extrema via manifold overlap."""

__version__ = "0.1.0"

from .field import (
    GridDomain,
    ScalarFieldSeries,
    SeriesFormatError,
    euclidean_ball,
    load_series,
    save_series,
    vertex_neighbors,
)
from .morse import (
    Extremum,
    ManifoldLabeling,
    label_manifolds,
    persistence_pairs,
    simplify,
)
from .correspond import (
    OverlapMatrix,
    binary_correspondence,
    manifold_overlap,
    normalize,
    sampling_neighborhood,
    sampling_overlap,
)
from .features import (
    FeatureSet,
    feature_correspondence,
    feature_denominators,
    feature_overlap,
)
from .trackgraph import (
    ConnectivityPolicy,
    GraphEdge,
    GraphNode,
    SemanticPredicate,
    TrackingGraph,
    assemble,
    export,
    extremum_layers,
    import_graph,
    semantic_filter,
    threshold_filter,
)
from .synth import (
    GaussianBlob,
    GaussianScript,
    generate,
    oracle_merge_tree,
    oracle_overlap,
    random_script,
    ridge_script,
)

__all__ = [
    "GridDomain",
    "ScalarFieldSeries",
    "SeriesFormatError",
    "euclidean_ball",
    "load_series",
    "save_series",
    "vertex_neighbors",
    "Extremum",
    "ManifoldLabeling",
    "label_manifolds",
    "persistence_pairs",
    "simplify",
    "OverlapMatrix",
    "binary_correspondence",
    "manifold_overlap",
    "normalize",
    "sampling_neighborhood",
    "sampling_overlap",
    "FeatureSet",
    "feature_correspondence",
    "feature_denominators",
    "feature_overlap",
    "ConnectivityPolicy",
    "GraphEdge",
    "GraphNode",
    "SemanticPredicate",
    "TrackingGraph",
    "assemble",
    "export",
    "extremum_layers",
    "import_graph",
    "semantic_filter",
    "threshold_filter",
    "GaussianBlob",
    "GaussianScript",
    "generate",
    "oracle_merge_tree",
    "oracle_overlap",
    "random_script",
    "ridge_script",
]

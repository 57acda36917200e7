"""Feature-level correspondence: lift extremum matrices to clusters.

A feature is a set of extremum ids at one time step (for instance the
several pressure minima of one storm system). Because manifolds are
disjoint, the overlap of two features is just the block sum of the
extremum-level overlap matrix, and the feature denominator is recoverable
from row sums (manifold strategy) or from the summed neighborhood sizes
(sampling, taken literally without deduplicating overlapping balls).

Feature sets come from a JSON side file; they may cover only part of the
extrema, in which case correspondence rows sum to less than 1 and the
shortfall is reported as unassigned mass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .correspond import OverlapMatrix, _csr, _ints, _row_of
from .morse import ManifoldLabeling


@dataclass(frozen=True)
class FeatureSet:
    """Disjoint extremum-index sets for one time step."""

    t: int
    index_sets: tuple[tuple[int, ...], ...]
    labels: tuple[str | None, ...] | None = None
    feature_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.index_sets)
        ids, owner, sizes = _members(self.index_sets)
        ids = ids[np.lexsort((ids, owner))]  # each set sorted, sets in order
        flat, ends = ids.tolist(), np.cumsum(sizes).tolist()
        sets = tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))
        object.__setattr__(self, "index_sets", sets)
        # an id clashes in every set after the first one that lists it; the
        # first set that is empty or clashes decides the error
        keys, first = np.unique(ids, return_index=True)
        clash = owner[first][np.searchsorted(keys, ids)] < owner
        bad_set = owner[clash].min() if clash.any() else n
        if (sizes[:bad_set] == 0).any():
            raise ValueError("empty feature index set")
        if bad_set < n:
            dup = np.unique(ids[clash & (owner == bad_set)])
            raise ValueError(f"extremum ids {dup.tolist()} appear in two features")
        if self.labels is not None:
            if len(self.labels) != len(sets):
                raise ValueError("labels must match the number of features")
            if all(x is None for x in self.labels):
                object.__setattr__(self, "labels", None)
        ids = self.feature_ids or tuple(range(len(sets)))
        if len(set(ids)) != len(sets):
            raise ValueError("feature ids must be unique")
        object.__setattr__(self, "feature_ids", tuple(map(int, ids)))

    @property
    def n_features(self) -> int:
        return len(self.index_sets)

    def membership(self, n_extrema: int) -> np.ndarray:
        """Extremum id -> feature position, -1 where uncovered."""
        ids, owner, _ = _members(self.index_sets)
        bad = ids[(ids < 0) | (ids >= n_extrema)]
        if bad.size:
            raise ValueError(f"extremum id {bad[0]} out of range (step has {n_extrema})")
        out = np.full(n_extrema, -1, dtype=np.int64)
        out[ids] = owner
        return out


def _members(index_sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The listed ids in set order, each id's set position, the set sizes."""
    sizes = np.fromiter(map(len, index_sets), dtype=np.int64, count=len(index_sets))
    ids = np.fromiter(chain.from_iterable(index_sets), dtype=np.int64, count=int(sizes.sum()))
    return ids, np.repeat(np.arange(sizes.size), sizes), sizes


def singleton_features(t: int, n_extrema: int) -> FeatureSet:
    """One feature per extremum; the identity lift."""
    return FeatureSet(t, tuple((i,) for i in range(n_extrema)))


def feature_overlap(
    features_t: FeatureSet, features_other: FeatureSet, o: OverlapMatrix
) -> OverlapMatrix:
    """Block-sum the extremum overlap into feature overlap.

    Entries whose extremum belongs to no feature on either side are
    dropped; their mass shows up later as unassigned.
    """
    k = features_t.membership(o.rows)[_row_of(o)]
    l = features_other.membership(o.cols)[o.indices]
    keep = (k >= 0) & (l >= 0)
    rows, cols = features_t.n_features, features_other.n_features
    fo = OverlapMatrix(
        rows, cols, o.direction, o.strategy, *_csr(rows, cols, k[keep], l[keep], o.counts[keep]),
        feature_denominators(features_t, o),
    )
    # partial partitions may leave mass outside the listed features
    assert (fo.row_sums() <= fo.row_denominators).all()
    return fo


def feature_denominators(features_t: FeatureSet, o_forward_all: OverlapMatrix) -> np.ndarray:
    """Normalization mass per feature.

    Manifold strategy: the union size of the member manifolds, recovered
    by summing each member's full overlap row (disjointness makes this
    exact). Sampling strategies: the summed neighborhood sizes, with no
    deduplication of overlapping balls.
    """
    o = o_forward_all
    per_row = o.row_sums() if o.strategy == "manifold-overlap" else o.row_denominators
    mem = features_t.membership(o.rows)
    out = np.zeros(features_t.n_features, dtype=np.int64)
    np.add.at(out, mem[mem >= 0], per_row[mem >= 0])
    assert (out > 0).all(), "a feature with an extremum cannot have zero mass"
    return out


def feature_correspondence(fo: OverlapMatrix, denominators=None) -> OverlapMatrix:
    """Divide feature overlap rows by the feature denominators."""
    denom = fo.row_denominators if denominators is None else np.asarray(denominators, np.int64)
    return replace(fo, row_denominators=denom, kind="correspondence")


def representative_extremum(features: FeatureSet, labeling: ManifoldLabeling) -> np.ndarray:
    """The id of the member extremum shown for each feature node, in
    feature order: deepest minimum or highest maximum, ties to the lower id."""
    ids, owner, sizes = _members(features.index_sets)
    depth = labeling.extrema.value[ids]
    if labeling.extremum_kind == "maximum":
        depth = -depth
    # sets are non-empty, so each group's first row starts at its set's offset
    return ids[np.lexsort((ids, depth, owner))][np.cumsum(sizes) - sizes]


def load_features(path) -> list[FeatureSet]:
    """Read feature sets from JSON: one object or a list of objects of the
    form {t, features: [{id, label?, extrema: [...]}, ...]}. A step, a
    feature id or an extremum id that is not an integer raises
    ``ValueError``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        doc = [doc]
    out = []
    for entry in doc:
        ids = _ints([f["id"] for f in entry["features"]], "feature 'id'")
        order = np.argsort(ids, kind="stable")
        feats = [entry["features"][k] for k in order]
        sets = tuple(f["extrema"] for f in feats)
        _ints(list(chain.from_iterable(sets)), "feature 'extrema'")
        out.append(FeatureSet(int(_ints(entry["t"], "'t'")), sets,
                              tuple(f.get("label") for f in feats), tuple(ids[order].tolist())))
    out.sort(key=lambda fs: fs.t)
    return out


def save_features(sets, path) -> None:
    doc = [
        {
            "t": fs.t,
            "features": [
                {
                    "id": fs.feature_ids[k],
                    **({"label": fs.labels[k]} if fs.labels and fs.labels[k] else {}),
                    "extrema": list(fs.index_sets[k]),
                }
                for k in range(fs.n_features)
            ],
        }
        for fs in sets
    ]
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")

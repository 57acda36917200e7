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
from pathlib import Path

import numpy as np

from .correspond import OverlapMatrix, _csr, _row_of
from .morse import Extremum, ManifoldLabeling


@dataclass(frozen=True)
class FeatureSet:
    """Disjoint extremum-index sets for one time step."""

    t: int
    index_sets: tuple[tuple[int, ...], ...]
    labels: tuple[str | None, ...] | None = None
    feature_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        sets = tuple(tuple(sorted(int(i) for i in s)) for s in self.index_sets)
        object.__setattr__(self, "index_sets", sets)
        seen: set[int] = set()
        for s in sets:
            if not s:
                raise ValueError("empty feature index set")
            if seen & set(s):
                raise ValueError(f"extremum ids {sorted(seen & set(s))} appear in two features")
            seen |= set(s)
        if self.labels is not None:
            if len(self.labels) != len(sets):
                raise ValueError("labels must match the number of features")
            if all(x is None for x in self.labels):
                object.__setattr__(self, "labels", None)
        ids = self.feature_ids or tuple(range(len(sets)))
        if len(set(ids)) != len(sets):
            raise ValueError("feature ids must be unique")
        object.__setattr__(self, "feature_ids", tuple(int(i) for i in ids))

    @property
    def n_features(self) -> int:
        return len(self.index_sets)

    def covered(self) -> set[int]:
        return {i for s in self.index_sets for i in s}

    def membership(self, n_extrema: int) -> np.ndarray:
        """Extremum id -> feature position, -1 where uncovered."""
        ids = np.array([i for s in self.index_sets for i in s], dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= n_extrema)]
        if bad.size:
            raise ValueError(f"extremum id {bad[0]} out of range (step has {n_extrema})")
        out = np.full(n_extrema, -1, dtype=np.int64)
        out[ids] = np.repeat(np.arange(self.n_features), [len(s) for s in self.index_sets])
        return out


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


def representative_extremum(index_set, labeling: ManifoldLabeling) -> Extremum:
    """The member extremum shown for a feature node: deepest minimum or
    highest maximum, ties to the lower id."""
    ids = np.asarray(index_set, dtype=np.int64)
    depth = labeling.extrema.value[ids]
    if labeling.extremum_kind == "maximum":
        depth = -depth
    return labeling.extrema[int(ids[np.lexsort((ids, depth))[0]])]


def load_features(path) -> list[FeatureSet]:
    """Read feature sets from JSON: one object or a list of objects of the
    form {t, features: [{id, label?, extrema: [...]}, ...]}."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        doc = [doc]
    out = []
    for entry in doc:
        feats = sorted(entry["features"], key=lambda f: int(f["id"]))
        out.append(
            FeatureSet(
                int(entry["t"]),
                tuple(tuple(int(i) for i in f["extrema"]) for f in feats),
                tuple(f.get("label") for f in feats),
                tuple(int(f["id"]) for f in feats),
            )
        )
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

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correspond import CorrespondenceMatrix, OverlapMatrix, _csr_from_entries, _row_of
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
        out = np.full(n_extrema, -1, dtype=np.int64)
        for k, s in enumerate(self.index_sets):
            for i in s:
                if not 0 <= i < n_extrema:
                    raise ValueError(f"extremum id {i} out of range (step has {n_extrema})")
                out[i] = k
        return out


class FeatureOverlapMatrix(OverlapMatrix):
    def _validate_row_sums(self, row_sums: np.ndarray) -> None:
        # partial partitions may leave mass outside the listed features
        assert (row_sums <= self.row_denominators).all()


class FeatureCorrespondenceMatrix(CorrespondenceMatrix):
    def unassigned_mass(self) -> np.ndarray:
        """Per-row probability mass pointing outside the other step's features."""
        out = np.ones(self.rows)
        for i in range(self.rows):
            out[i] -= self.probs[self.indptr[i]:self.indptr[i + 1]].sum()
        return np.maximum(out, 0.0)


def singleton_features(t: int, n_extrema: int) -> FeatureSet:
    """One feature per extremum; the identity lift."""
    return FeatureSet(t, tuple((i,) for i in range(n_extrema)))


def feature_overlap(
    features_t: FeatureSet, features_other: FeatureSet, o: OverlapMatrix
) -> FeatureOverlapMatrix:
    """Block-sum the extremum overlap into feature overlap.

    Entries whose extremum belongs to no feature on either side are
    dropped; their mass shows up later as unassigned.
    """
    mem_t = features_t.membership(o.rows)
    mem_o = features_other.membership(o.cols)
    row_of = _row_of(o)
    acc: dict[tuple[int, int], int] = {}
    for i, j, c in zip(row_of, o.indices, o.counts):
        k, l = int(mem_t[i]), int(mem_o[j])
        if k < 0 or l < 0:
            continue
        acc[(k, l)] = acc.get((k, l), 0) + int(c)
    ii = [k for k, _ in acc]
    jj = [l for _, l in acc]
    cc = [acc[key] for key in acc]
    indptr, indices, counts = _csr_from_entries(features_t.n_features, ii, jj, cc)
    denom = feature_denominators(features_t, o)
    return FeatureOverlapMatrix(
        features_t.n_features, features_other.n_features, o.direction, o.strategy,
        indptr, indices, counts, denom,
    )


def feature_denominators(features_t: FeatureSet, o_forward_all: OverlapMatrix) -> np.ndarray:
    """Normalization mass per feature.

    Manifold strategy: the union size of the member manifolds, recovered
    by summing each member's full overlap row (disjointness makes this
    exact). Sampling strategies: the summed neighborhood sizes, with no
    deduplication of overlapping balls.
    """
    o = o_forward_all
    if o.strategy == "manifold-overlap":
        csum = np.concatenate(([0], np.cumsum(o.counts)))
        per_row = csum[o.indptr[1:]] - csum[o.indptr[:-1]]
    else:
        per_row = o.row_denominators
    out = np.empty(features_t.n_features, dtype=np.int64)
    for k, s in enumerate(features_t.index_sets):
        out[k] = sum(int(per_row[i]) for i in s)
    assert (out > 0).all(), "a feature with an extremum cannot have zero mass"
    return out


def feature_correspondence(
    fo: FeatureOverlapMatrix, denominators=None
) -> FeatureCorrespondenceMatrix:
    """Divide feature overlap rows by the feature denominators."""
    denom = fo.row_denominators if denominators is None else np.asarray(denominators, np.int64)
    probs = fo.counts / denom[_row_of(fo)]
    return FeatureCorrespondenceMatrix(
        fo.rows, fo.cols, fo.direction, fo.strategy,
        fo.indptr, fo.indices, fo.counts, denom, probs,
    )


def representative_extremum(index_set, labeling: ManifoldLabeling) -> Extremum:
    """The member extremum shown for a feature node: deepest minimum or
    highest maximum, ties to the lower id."""
    sign = 1.0 if labeling.extremum_kind == "minimum" else -1.0
    return min((labeling.extrema[i] for i in index_set), key=lambda e: (sign * e.value, e.id))


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

"""Feature-level correspondence: lift extremum matrices to clusters.

A feature is a set of extremum ids at one time step (for instance the
several pressure minima of one storm system). Because manifolds are
disjoint, the overlap of two features is just the block sum of the
extremum-level overlap matrix, and the feature denominator is the sum of
its members' row denominators: manifold sizes, neighborhood sizes (taken
literally, without deduplicating overlapping balls), or 1 under binary.

Feature sets come from a JSON side file; they may cover only part of the
extrema, in which case a row's counts sum to less than its denominator and
its correspondence row to less than 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .correspond import OverlapMatrix, _int, _ints, _keys_and_counts, normalize
from .morse import ManifoldLabeling


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """Disjoint extremum-id sets for one time step, as columns: ``members``
    holds each feature's ids one feature after another, ascending within a
    feature, and ``sizes`` the id count per feature. ``owner``, each
    member's feature position, is derived once here."""

    t: int
    members: np.ndarray
    sizes: np.ndarray
    owner: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = np.asarray(self.members, dtype=np.int64)
        sizes = np.asarray(self.sizes, dtype=np.int64)
        if ids.ndim != 1 or sizes.ndim != 1 or sizes.sum() != ids.size:
            raise ValueError("feature members must be one flat id list that sizes split")
        n = sizes.size
        owner = np.repeat(np.arange(n), sizes)
        ids = ids[np.lexsort((ids, owner))]  # each set sorted, sets in order
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
        for name, a in (("members", ids), ("sizes", sizes), ("owner", owner)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_features(self) -> int:
        return self.sizes.size

    def membership(self, n_extrema: int) -> np.ndarray:
        """Extremum id -> feature position, -1 where uncovered."""
        bad = self.members[(self.members < 0) | (self.members >= n_extrema)]
        if bad.size:
            raise ValueError(f"extremum id {bad[0]} out of range (step has {n_extrema})")
        out = np.full(n_extrema, -1, dtype=np.int64)
        out[self.members] = self.owner
        return out


def singleton_features(t: int, n_extrema: int) -> FeatureSet:
    """One feature per extremum; the identity lift."""
    return FeatureSet(t, np.arange(n_extrema), np.ones(n_extrema, dtype=np.int64))


def feature_overlap(
    features_t: FeatureSet, features_other: FeatureSet, o: OverlapMatrix
) -> OverlapMatrix:
    """Block-sum the extremum overlap into feature overlap.

    Entries whose extremum belongs to no feature on either side are
    dropped; their mass shows up later as unassigned.
    """
    k = features_t.membership(o.rows)[o.i]
    l = features_other.membership(o.cols)[o.j]
    keep = (k >= 0) & (l >= 0)
    k = k[keep]  # one column at a time: at most three columns are held at once
    l = l[keep]
    rows, cols = features_t.n_features, features_other.n_features
    keys, counts = _keys_and_counts(rows, cols, k, l, o.counts[keep])
    fo = OverlapMatrix(rows, cols, o.direction, o.strategy, keys, counts,
                       feature_denominators(features_t, o))
    # partial partitions may leave mass outside the listed features
    assert (fo.row_sums() <= fo.row_denominators).all()
    return fo


def feature_denominators(features_t: FeatureSet, o_forward_all: OverlapMatrix) -> np.ndarray:
    """Normalization mass per feature: its members' summed row
    denominators. Manifolds are disjoint, so under manifold overlap that is
    their union size; under sampling, overlapping balls count twice."""
    o = o_forward_all
    mem = features_t.membership(o.rows)
    out = np.zeros(features_t.n_features, dtype=np.int64)
    np.add.at(out, mem[mem >= 0], o.row_denominators[mem >= 0])
    assert (out > 0).all(), "a feature with an extremum cannot have zero mass"
    return out


# a feature overlap's rows read over their feature denominators
feature_correspondence = normalize


def representative_extremum(features: FeatureSet, labeling: ManifoldLabeling) -> np.ndarray:
    """The id of the member extremum shown for each feature node, in
    feature order: deepest minimum or highest maximum, ties to the lower id."""
    ids, owner, sizes = features.members, features.owner, features.sizes
    depth = labeling.extrema.value[ids]
    if labeling.extrema.kind == "maximum":
        depth = -depth
    # sets are non-empty, so each group's first row starts at its set's offset
    return ids[np.lexsort((ids, depth, owner))][np.cumsum(sizes) - sizes]


def load_features(path) -> list[FeatureSet]:
    """Read feature sets from JSON: one object or a list of objects of the
    form {t, features: [{id, label?, extrema: [...]}, ...]}, features in
    stable ``id`` order; a label is accepted and not read. A step, a
    feature id or an extremum id that is not an integer, or a feature id
    listed twice in a step, raises ``ValueError``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        doc = [doc]
    out = []
    for entry in doc:
        ids = _ints([f["id"] for f in entry["features"]], "feature 'id'")
        order = np.argsort(ids, kind="stable")
        sets = [entry["features"][k]["extrema"] for k in order]
        members = _ints(list(chain.from_iterable(sets)), "feature 'extrema'")
        out.append(FeatureSet(_int(entry["t"], "'t'"), members, list(map(len, sets))))
        # checked last, so the set's own errors come first
        if (np.diff(ids[order]) == 0).any():
            raise ValueError("feature ids must be unique")
    out.sort(key=lambda fs: fs.t)
    return out

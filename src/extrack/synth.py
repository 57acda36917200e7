"""Synthetic field generators with known extrema, plus brute-force oracles.

The generators build time series as sums of moving Gaussian wells or peaks,
so the intended extremum count and track layout are known by construction.
The oracles reimplement persistence pairing and overlap counting in the
slowest, most literal way possible; the real implementations are tested
against them, never against themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .field import GridDomain, ScalarFieldSeries
from .morse import ExtremumKind, ManifoldLabeling


@dataclass(frozen=True)
class GaussianBlob:
    """One well (amplitude < 0) or peak (> 0) moving along a center path."""

    path: tuple[tuple[float, ...], ...]
    amplitude: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        object.__setattr__(self, "path", tuple(tuple(float(x) for x in p) for p in self.path))
        bad = [x for p in self.path for x in p if not math.isfinite(x)]
        if bad:
            raise ValueError(f"path coordinates must be finite, got {bad[0]}")


@dataclass(frozen=True)
class GaussianScript:
    domain: GridDomain
    n_steps: int
    base: float
    blobs: tuple[GaussianBlob, ...]

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("a script needs at least one step")
        if not math.isfinite(self.base):
            raise ValueError(f"base must be finite, got {self.base}")
        for b in self.blobs:
            if len(b.path) != self.n_steps:
                raise ValueError(
                    f"blob path has {len(b.path)} entries, script has {self.n_steps} steps"
                )
        object.__setattr__(self, "blobs", tuple(self.blobs))


def generate(script: GaussianScript) -> ScalarFieldSeries:
    """Evaluate base + sum of Gaussians at every vertex and step.

    A blob's squared distance is summed over the axes in axis order from
    one short array per axis, broadcast over the grid, so no (V, rank)
    position table is built and a step needs two arrays of V values.
    """
    domain = script.domain
    axes = [np.arange(n) * s for n, s in zip(domain.dims, domain.spacing)]
    steps = []
    for t in range(script.n_steps):
        f = np.full(domain.vertex_count, float(script.base))
        for blob in script.blobs:
            d2 = 0.0
            for a, (x, c) in enumerate(zip(axes, blob.path[t])):
                delta = np.abs(x - c)
                if domain.periodic[a]:
                    period = domain.dims[a] * domain.spacing[a]
                    delta %= period
                    delta = np.minimum(delta, period - delta)
                d2 = d2 + (delta**2).reshape([-1 if b == a else 1 for b in range(domain.rank)])
            d2 = d2.reshape(-1)
            np.negative(d2, out=d2)
            d2 /= 2.0 * blob.sigma**2
            np.exp(d2, out=d2)
            d2 *= blob.amplitude
            f += d2
        steps.append(f)
    return ScalarFieldSeries(domain, tuple(steps))


def save_script(script: GaussianScript, path) -> None:
    doc = {
        "dims": list(script.domain.dims),
        "spacing": list(script.domain.spacing),
        "periodic": list(script.domain.periodic),
        "n_steps": script.n_steps,
        "base": script.base,
        "blobs": [
            {"amplitude": b.amplitude, "sigma": b.sigma, "path": [list(p) for p in b.path]}
            for b in script.blobs
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_script(path) -> GaussianScript:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    domain = GridDomain(doc["dims"], doc.get("spacing"), doc.get("periodic"))
    blobs = tuple(
        GaussianBlob(tuple(tuple(p) for p in b["path"]), float(b["amplitude"]), float(b["sigma"]))
        for b in doc.get("blobs", [])
    )
    return GaussianScript(domain, int(doc["n_steps"]), float(doc.get("base", 0.0)), blobs)


def random_script(
    rng: np.random.Generator,
    dims=(32, 32),
    n_steps: int = 5,
    n_blobs: int = 5,
    periodic=None,
    sign: float = -1.0,
    max_drift: float = 1.5,
) -> GaussianScript:
    """Wells (sign<0) or peaks (sign>0) on independent random walks."""
    domain = GridDomain(dims, periodic=periodic)
    extent = np.array([(n - 1) * s for n, s in zip(domain.dims, domain.spacing)])
    blobs = []
    for _ in range(n_blobs):
        c = rng.uniform(0.1, 0.9, size=domain.rank) * extent
        path = [c.copy()]
        for _ in range(n_steps - 1):
            c = np.clip(c + rng.uniform(-max_drift, max_drift, size=domain.rank), 0, extent)
            path.append(c.copy())
        blobs.append(
            GaussianBlob(
                tuple(tuple(p) for p in path),
                amplitude=sign * float(rng.uniform(2.0, 10.0)),
                sigma=float(rng.uniform(1.5, 4.0)),
            )
        )
    return GaussianScript(domain, n_steps, 0.0, tuple(blobs))


def ridge_script() -> GaussianScript:
    """Two-basin scenario: a shallow well B crosses into deep well A's basin.

    At t0 the basins of A and B split at a ridge between their centers. By
    t1, B has moved close enough to A that B's minimum vertex lies on A's
    side of the old ridge, while B's basin still overlaps its old one.
    Tracking by basin membership of the bare minimum therefore hands B1 to
    A0, which is exactly the failure mode the probabilistic strategies are
    meant to fix.
    """
    domain = GridDomain((40, 40))
    a = GaussianBlob(((20.0, 12.0), (20.0, 12.0)), amplitude=-10.0, sigma=5.0)
    b = GaussianBlob(((20.0, 28.0), (20.0, 23.5)), amplitude=-4.0, sigma=3.0)
    return GaussianScript(domain, 2, 0.0, (a, b))


def _oracle_neighbors(domain: GridDomain, v: int) -> list[int]:
    # deliberately re-derived from the offset stencil, not shared code
    coords = list(np.unravel_index(v, domain.dims))
    ups = [o for o in product((0, 1), repeat=domain.rank) if any(o)]
    out = set()
    for off in ups + [tuple(-x for x in o) for o in ups]:
        c = []
        ok = True
        for a in range(domain.rank):
            x = coords[a] + off[a]
            if domain.periodic[a]:
                x %= domain.dims[a]
            elif not 0 <= x < domain.dims[a]:
                ok = False
                break
            c.append(x)
        if ok:
            u = int(np.ravel_multi_index(tuple(c), domain.dims))
            if u != v:
                out.add(u)
    return sorted(out)


def oracle_merge_tree(step, domain: GridDomain, kind: ExtremumKind):
    """Persistence pairs by the literal vertex sweep, one vertex at a time.

    Returns (extremum vertex, saddle vertex or None, persistence) sorted by
    extremum vertex; the last surviving component's extremum reports +inf.
    """
    values = np.asarray(step, dtype=np.float64).reshape(-1)
    w = [-float(x) for x in values] if kind == "maximum" else [float(x) for x in values]
    n = len(w)
    order = sorted(range(n), key=lambda v: (w[v], v))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    elder_of = {}  # component root -> its oldest extremum vertex
    pairs = {}
    births = []
    processed = set()
    for v in order:
        roots = []
        for u in _oracle_neighbors(domain, v):
            if u in processed:
                r = find(u)
                if r not in roots:
                    roots.append(r)
        if not roots:
            births.append(v)
            elder_of[v] = v
        else:
            roots.sort(key=lambda r: (w[elder_of[r]], elder_of[r]))
            keep = roots[0]
            parent[v] = keep
            for r in roots[1:]:
                young = elder_of[r]
                pairs[young] = (v, w[v] - w[young])
                parent[r] = keep
        processed.add(v)
    out = []
    for m in sorted(births):
        if m in pairs:
            s, p = pairs[m]
            out.append((m, s, p))
        else:
            out.append((m, None, math.inf))
    return out


def oracle_overlap(labeling_a: ManifoldLabeling, labeling_b: ManifoldLabeling) -> np.ndarray:
    """Dense joint-label counts by a plain loop over all vertices."""
    counts = np.zeros((labeling_a.n_extrema, labeling_b.n_extrema), dtype=np.int64)
    for v in range(labeling_a.domain.vertex_count):
        counts[labeling_a.label[v], labeling_b.label[v]] += 1
    return counts

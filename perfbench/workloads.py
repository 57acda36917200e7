"""The benchmark's workloads: how each input is generated and how it is run.

Every input is a noisy Gaussian-blob series: ``extrack.synth.random_script``
with 12 blobs, plus ``0.3 * standard_normal`` per step drawn from the same
generator. The noise is what scales the *extremum* count (thousands per
step) rather than just the vertex count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

N_BLOBS = 12
NOISE = 0.3
SERIES = "series.xtrk"
FEATURES = "features.json"


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    n_steps: int
    flags: tuple[str, ...]
    kind: str = "minimum"      # the extremum kind, passed as --kind
    periodic: tuple[bool, ...] | None = None
    # (tile edge in vertices, every how many tiles one is left uncovered)
    feature_tiles: tuple[int, int] | None = None
    # layers whose spans a run of this workload must record
    layers: tuple[str, ...] = field(default=("field", "morse", "correspond", "trackgraph"))

    def argv(self) -> list[str]:
        """``extrack`` arguments; paths are relative to the input directory
        and identical on every repetition, because graph.json echoes them."""
        argv = ["run", "--input", SERIES, "--kind", self.kind, *self.flags]
        if self.feature_tiles is not None:
            argv += ["--features", FEATURES]
        return argv

    def scaled(self, dims: tuple[int, ...], n_steps: int) -> "Workload":
        """The same workload at another size (used by the self-test)."""
        return replace(self, dims=dims, n_steps=n_steps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("noise2d-manifold", (256, 256), 4, ()),
        Workload(
            "noise2d-sampling-features", (128, 128), 10,
            ("--strategy", "sampling-euclidean", "--d", "3"),
            feature_tiles=(16, 4),
            layers=("field", "morse", "correspond", "features", "trackgraph"),
        ),
        Workload(
            "noise3d-maxima",
            # two steps: one per worker thread, so the threads always overlap
            # fully and peak RSS does not depend on how their steps interleave
            (64, 64, 64), 2,
            ("--persistence-pct", "5", "--value-min", "1", "--max-jump", "6", "--jobs", "2"),
            kind="maximum", periodic=(True, False, False),
        ),
    )
}


def noisy_series(w: Workload, seed: int):
    """The workload's series, fully determined by the seed."""
    from extrack import synth
    from extrack.field import ScalarFieldSeries

    rng = np.random.default_rng(seed)
    script = synth.random_script(rng, w.dims, w.n_steps, n_blobs=N_BLOBS,
                                 periodic=w.periodic, sign=1.0 if w.kind == "maximum" else -1.0)
    clean = synth.generate(script)
    steps = tuple(s + NOISE * rng.standard_normal(s.size) for s in clean.steps)
    return ScalarFieldSeries(clean.domain, steps)


def tile_features(w: Workload, series) -> list[dict]:
    """Group each step's kept minima by square tile; every n-th tile is left
    uncovered so the lift sees partial coverage.

    Extremum ids are the program's own (dense, vertex order after
    simplification at the default threshold), so this runs the labeling.
    """
    from extrack.morse import label_manifolds, simplify

    tile, skip = w.feature_tiles
    tiles_per_row = -(-series.domain.dims[1] // tile)
    doc = []
    for t, step in enumerate(series.steps):
        lab = simplify(label_manifolds(step, series.domain, w.kind), step, 0.5)
        groups: dict[int, list[int]] = {}
        for e in lab.extrema:
            r, c = series.domain.coords_of(e.vertex)[:2]
            k = (r // tile) * tiles_per_row + c // tile
            if k % skip != skip - 1:
                groups.setdefault(k, []).append(e.id)
        doc.append({"t": t, "features": [{"id": k, "extrema": ids}
                                         for k, ids in sorted(groups.items())]})
    return doc


def write_inputs(w: Workload, seed: int, directory: Path) -> None:
    """Generate and write every input file of the workload into directory."""
    from extrack.field import save_series

    series = noisy_series(w, seed)
    save_series(series, directory / SERIES)
    if w.feature_tiles is not None:
        (directory / FEATURES).write_text(json.dumps(tile_features(w, series)) + "\n",
                                          encoding="utf-8")

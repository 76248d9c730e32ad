"""In-process check of the paper's cost model (reported, never gated).

Three claims, each measured on fixed inputs in a few seconds:

* ``costmodel.tile_ratio`` — served cost per comparison is flat in tile
  size: ns per comparison of 64x64 grid queries over 8x8 ones, k=64.
* ``costmodel.k_slope_ns`` / ``costmodel.k_r2`` — cost per comparison is
  linear in k: least-squares slope (ns per sketch entry) and R^2 over
  k = 16 ... 256 at a fixed 16x16 tile.
* ``costmodel.l2_over_median`` — Section 4.4: for p=2 the l2 estimator
  beats median selection; time of one over the other on the same
  ``(n, k)`` difference matrix.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.estimators import estimate_distance_batch
from repro.serve import SketchEngine

_QUERIES = 2000
_REPEATS = 7


def _per_comparison_ns(engine, batch) -> float:
    engine.query(batch)  # builds the map outside the timing
    samples = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        engine.query(batch)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e9 / len(batch)


def _grid_batch(rng, table_shape, tile: int) -> list[tuple]:
    rows = rng.integers(0, table_shape[0] - tile + 1, size=(_QUERIES, 2))
    cols = rng.integers(0, table_shape[1] - tile + 1, size=(_QUERIES, 2))
    return [
        ("t", (int(r[0]), int(c[0]), tile, tile), (int(r[1]), int(c[1]), tile, tile))
        for r, c in zip(rows, cols)
    ]


def cost_model(seed: int = 0) -> dict[str, float]:
    """The three cost-model measurements as layer metrics."""
    rng = np.random.default_rng([seed, 99])
    data = rng.gamma(2.0, 50.0, size=(128, 128))

    engine = SketchEngine(p=1.0, k=64, seed=13)
    engine.register_array("t", data)
    small = _per_comparison_ns(engine, _grid_batch(rng, data.shape, 8))
    large = _per_comparison_ns(engine, _grid_batch(rng, data.shape, 64))

    ks = np.array([16, 32, 64, 128, 256], dtype=float)
    batch = _grid_batch(rng, data.shape, 16)
    costs = []
    for k in ks:
        engine = SketchEngine(p=1.0, k=int(k), seed=13)
        engine.register_array("t", data)
        costs.append(_per_comparison_ns(engine, batch))
    slope, intercept = np.polyfit(ks, costs, 1)
    fitted = slope * ks + intercept
    residual = float(np.sum((np.asarray(costs) - fitted) ** 2))
    spread = float(np.sum((np.asarray(costs) - np.mean(costs)) ** 2))

    diffs = rng.standard_normal((20000, 64))
    timings = {}
    for method in ("l2", "median"):
        samples = []
        for _ in range(_REPEATS):
            start = time.perf_counter()
            estimate_distance_batch(diffs, 2.0, method)
            samples.append(time.perf_counter() - start)
        timings[method] = statistics.median(samples)
    return {
        "costmodel.tile_ratio": large / small,
        "costmodel.k_slope_ns": float(slope),
        "costmodel.k_r2": 1.0 - residual / spread if spread else 1.0,
        "costmodel.l2_over_median": timings["l2"] / timings["median"],
    }

"""Seeded inputs for the served-traffic benchmark.

Everything a workload sends is generated here from ``--seed`` and
nothing else: table contents, query batches, arrival schedules, Zipf
draws and delta batches.  The server under test receives only these
inputs (tables as ``.npy`` files, queries and updates over the wire), so
a change to the program cannot silently change the workload.

Sketch parameters are fixed for every workload: p=1, k=64, sketch seed
13, the server's default smallest dyadic exponent (8x8 tiles).
"""

from __future__ import annotations

import numpy as np

P = 1.0
K = 64
SKETCH_SEED = 13
MIN_EXPONENT = 3


# The serving shapes: 14 maps on a 128x256 table (~85 MB resident).
# Grid shapes are powers of two (one stream-0 map each), compound ones
# are ragged (four streams of one dyadic size), disjoint ones are
# multiples of 8 answered by exact dyadic composition.  A finite set
# means a warm-up batch with one query of every shape builds every map
# the timed phase can touch.
GRID = ((8, 8), (16, 16), (8, 32), (32, 32), (16, 64))
COMPOUND = ((12, 12), (24, 40))
DISJOINT = ((24, 24),)
MIX = (0.6, 0.3, 0.1)  # shares of grid, compound and disjoint queries
_KINDS = ((GRID, "auto"), (COMPOUND, "auto"), (DISJOINT, "disjoint"))

# The churn vocabulary: 12 dyadic sizes and 6 ragged sizes per table.
CHURN_GRID = tuple((h, w) for h in (8, 16, 32) for w in (8, 16, 32, 64))
CHURN_RAGGED = ((12, 12), (12, 24), (24, 12), (24, 24), (12, 48), (24, 48))


def make_table(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """A float64 table of non-negative cell values (call-volume-like)."""
    return rng.gamma(2.0, 50.0, size=shape)


def _query(rng, table, table_shape, size, strategy) -> tuple:
    height, width = size
    rows = rng.integers(0, table_shape[0] - height + 1, size=2)
    cols = rng.integers(0, table_shape[1] - width + 1, size=2)
    return (
        table,
        (int(rows[0]), int(cols[0]), height, width),
        (int(rows[1]), int(cols[1]), height, width),
        strategy,
    )


def mixed_batch(
    rng: np.random.Generator, tables: dict[str, tuple[int, int]], n: int
) -> list[tuple]:
    """``n`` queries mixing grid, compound and disjoint shapes.

    Queries spread round-robin over ``tables`` (name -> shape), so a
    two-table batch splits evenly between two shards.
    """
    names = list(tables)
    batch = []
    for index, kind in enumerate(rng.choice(len(_KINDS), size=n, p=MIX)):
        shapes, strategy = _KINDS[kind]
        size = shapes[int(rng.integers(len(shapes)))]
        name = names[index % len(names)]
        batch.append(_query(rng, name, tables[name], size, strategy))
    return batch


def warm_batch(
    rng: np.random.Generator, tables: dict[str, tuple[int, int]]
) -> list[tuple]:
    """One query of every serving shape on every table."""
    return [
        _query(rng, name, table_shape, size, strategy)
        for name, table_shape in tables.items()
        for shapes, strategy in _KINDS
        for size in shapes
    ]


def poisson_schedule(
    rng: np.random.Generator, rate: float, seconds: float
) -> np.ndarray:
    """Arrival offsets of a Poisson process conditioned on its count.

    Exactly ``round(rate * seconds)`` arrivals at independent uniform
    times — a Poisson process given its count — so the gaps are
    exponential but the number of requests (in particular of the rare
    updates) does not vary from seed to seed.
    """
    count = max(1, round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=count))


def update_cells(
    rng: np.random.Generator, table_shape: tuple[int, int], cells: int
) -> list[tuple[int, int, float]]:
    """``cells`` random ``(row, col, delta)`` triples on distinct cells."""
    flat = rng.choice(table_shape[0] * table_shape[1], size=cells, replace=False)
    deltas = rng.normal(0.0, 10.0, size=cells)
    return [
        (int(i // table_shape[1]), int(i % table_shape[1]), float(d))
        for i, d in zip(flat, deltas)
    ]


def map_bytes(table_shape, row_exp: int, col_exp: int, k: int = K) -> int:
    """Bytes of one float32 sketch map of a ``2^row_exp x 2^col_exp`` window."""
    rows = table_shape[0] - (1 << row_exp) + 1
    cols = table_shape[1] - (1 << col_exp) + 1
    return 4 * k * rows * cols


def churn_keys(tables: list[str]) -> list[tuple[str, tuple[int, int]]]:
    """The ``(table, size)`` keys of the churn workload, hottest first.

    The rank order is fixed (the seed only drives the order of requests),
    so runs with different seeds see the same popularity structure.  Hot
    and cold keys both mix dyadic sizes (one map) with ragged ones (four).
    """
    sizes = CHURN_GRID[:6] + CHURN_RAGGED[:3] + CHURN_GRID[6:] + CHURN_RAGGED[3:]
    return [(table, size) for size in sizes for table in tables]


def churn_working_set(table_shape, tables: list[str]) -> int:
    """Bytes of every map the churn keys can touch, over all tables."""
    maps = set()
    for size in CHURN_GRID:
        maps.add((size[0].bit_length() - 1, size[1].bit_length() - 1, 0))
    for size in CHURN_RAGGED:
        row_exp, col_exp = size[0].bit_length() - 1, size[1].bit_length() - 1
        maps.update((row_exp, col_exp, stream) for stream in range(4))
    per_table = sum(map_bytes(table_shape, r, c) for r, c, _ in maps)
    return per_table * len(tables)


def zipf_sequence(
    rng: np.random.Generator, n_keys: int, n: int, s: float = 1.0
) -> np.ndarray:
    """``n`` key ranks with Zipf(s) frequencies, stratified per block.

    Each block is just long enough for the rarest key to appear once and
    holds every key its Zipf share of times (largest remainder); only
    the order within a block is random.  Every seed then sees the same
    key frequencies, so the cache hit ratio — and with it every latency
    quantile — varies far less between seeds than with independent draws.
    """
    weights = 1.0 / np.arange(1, n_keys + 1) ** s
    weights /= weights.sum()
    block = int(np.ceil(1.0 / weights[-1]))
    counts = np.floor(weights * block).astype(int)
    remainder = weights * block - counts
    counts[np.argsort(-remainder)[: block - counts.sum()]] += 1
    pattern = np.repeat(np.arange(n_keys), counts)
    blocks = [rng.permutation(pattern) for _ in range(-(-n // block))]
    return np.concatenate(blocks)[:n]


def churn_batch(rng, table: str, table_shape, size, n: int) -> list[tuple]:
    """``n`` queries of one ``(table, size)`` key."""
    return [_query(rng, table, table_shape, size, "auto") for _ in range(n)]

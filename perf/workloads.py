"""The five served-traffic workloads.

Each workload writes its seeded tables into its work directory, names
the server command that fronts them, warms the server up (part of
set-up), drives the timed load, and checks the served answers against an
in-process :class:`repro.serve.SketchEngine` built after the server has
stopped.  Why each workload exists is in its docstring (and in
``perf/README.md``).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

import harness
import inputs
from harness import Request
from repro.serve import Client, SketchEngine

SERVER_FLAGS = [
    "--p", "1", "--k", str(inputs.K), "--seed", str(inputs.SKETCH_SEED),
    "--port", "0",
]
BATCH = 50


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def reference_engine(tables: dict[str, np.ndarray]) -> SketchEngine:
    """An in-process engine configured exactly like the served one."""
    engine = SketchEngine(
        p=inputs.P, k=inputs.K, seed=inputs.SKETCH_SEED,
        min_exponent=inputs.MIN_EXPONENT,
    )
    for name, data in tables.items():
        engine.register_array(name, data)
    return engine


def compare_exact(tables, requests: list[Request]) -> dict:
    """Served answers of the kept requests vs. the in-process engine, bitwise."""
    engine = reference_engine(tables)
    checked = 0
    for request in requests:
        if request.answer is None:
            continue
        expected = engine.query(request.body)
        if len(request.answer) != len(expected):
            detail = f"{len(request.answer)} answers to {len(expected)} queries"
            return {"ok": False, "detail": detail, "answers_checked": checked}
        for query, got, want in zip(request.body, request.answer, expected):
            if (np.float64(got.distance).tobytes() != np.float64(want.distance).tobytes()
                    or got.strategy != want.strategy):
                detail = f"served distance {got} != in-process {want} for query {query!r}"
                return {"ok": False, "detail": detail, "answers_checked": checked}
            checked += 1
    if not checked:
        return {"ok": False, "detail": "no served answers were sampled", "answers_checked": 0}
    return {"ok": True, "detail": "", "answers_checked": checked}


class Workload:
    """One traffic mix against one server topology."""

    name = ""
    # True when the warm-up builds every map the timed phase touches.
    warm_maps = True
    table_names: tuple[str, ...] = ("t0",)
    table_shape = (128, 256)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, 0)
        self.tables = {
            name: inputs.make_table(rng, self.table_shape) for name in self.table_names
        }
        self.paths = {}
        for name, data in self.tables.items():
            self.paths[name] = workdir / f"{name}.npy"
            np.save(self.paths[name], data)
        self.shapes = {name: self.table_shape for name in self.table_names}

    def argv(self) -> list[str]:
        specs = [arg for name, path in self.paths.items()
                 for arg in ("--table", f"{name}={path}")]
        return ["serve", *specs, *SERVER_FLAGS]

    def warm(self, address) -> None:
        """Untimed warm-up: build every map, warm the code paths."""
        rng = _rng(self.seed, 1)
        with Client(*address, protocol="binary", timeout=120.0) as client:
            client.query(inputs.warm_batch(rng, self.shapes))
            for _ in range(10):
                client.query(inputs.mixed_batch(rng, self.shapes, BATCH))

    def drive(self, address, seconds: float) -> harness.LoadResult:
        raise NotImplementedError

    def probe(self, address) -> object:
        """Anything read from the live server after the timed phase."""
        return None

    def verify(self, result: harness.LoadResult, probe) -> dict:
        """Correctness checks; ``ok`` False fails the run."""
        return compare_exact(self.tables, result.requests)


class PointSmall(Workload):
    """Interactive shape: open loop, Poisson 300 req/s x 50 mixed queries
    on 2 pipelined connections.  Per-request fixed costs dominate:
    transport, admission, handler wakeups, per-group planning."""

    name = "point-small"
    rate = 300.0

    def drive(self, address, seconds):
        rng = _rng(self.seed, 2)
        offsets = inputs.poisson_schedule(rng, self.rate, seconds)
        keep = _rng(self.seed, 3).random(len(offsets)) < 0.05
        requests = [
            Request("query", inputs.mixed_batch(rng, self.shapes, BATCH), keep=bool(k))
            for k in keep
        ]
        lanes = [index % 2 for index in range(len(requests))]
        return harness.open_loop(address, requests, offsets, lanes)


class BulkScan(Workload):
    """Bulk-scoring shape: closed loop, one binary client, 3600 mixed
    queries per request.  Per-query Python work dominates: encode,
    decode, query objects, plan, gather, estimate."""

    name = "bulk-scan"
    queries = 3600

    def drive(self, address, seconds):
        rng = _rng(self.seed, 2)
        ring = [inputs.mixed_batch(rng, self.shapes, self.queries) for _ in range(8)]
        sample = _rng(self.seed, 3)
        return harness.closed_loop(
            address, lambda i: Request("query", ring[i % len(ring)]), seconds,
            lambda i: i == 0 or sample.random() < 0.02,
        )


class CacheChurn(Workload):
    """The paper's on-demand mode: closed loop over one connection, each
    request 50 queries of one (table, size) key, keys drawn Zipf(1) over
    4 tables x 18 sizes whose maps are 4x the ``--max-bytes`` budget.
    Map resolution and FFT builds dominate; the wire is negligible."""

    name = "cache-churn"
    warm_maps = False
    table_names = ("day0", "day1", "day2", "day3")
    table_shape = (64, 128)
    warm_requests = 200

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.keys = inputs.churn_keys(list(self.table_names))
        self.budget = inputs.churn_working_set(
            self.table_shape, list(self.table_names)
        ) // 4
        self._rng = None
        self._order = None

    def argv(self):
        return super().argv() + ["--max-bytes", str(self.budget)]

    def _request(self, index: int) -> Request:
        table, size = self.keys[int(self._order[index])]
        return Request(
            "query", inputs.churn_batch(self._rng, table, self.table_shape, size, BATCH)
        )

    def warm(self, address):
        # One connection and one key sequence: the LRU sees the same
        # access order on every run of a seed.
        self._rng = _rng(self.seed, 2)
        self._order = inputs.zipf_sequence(self._rng, len(self.keys), 200_000)
        with Client(*address, protocol="binary", timeout=120.0) as client:
            for index in range(self.warm_requests):
                client.query(self._request(index).body)

    def drive(self, address, seconds):
        sample = _rng(self.seed, 3)
        return harness.closed_loop(
            address, lambda i: self._request(self.warm_requests + i), seconds,
            lambda i: i == 0 or sample.random() < 0.05,
        )


class IngestMixed(Workload):
    """Writes beside reads on the same maps: open loop, Poisson 100 query
    req/s x 50 mixed queries plus 4 updates/s x 32 random cells under
    ``--update-mode patch``.  Patching copies every resident map while
    the engine write lock blocks queries."""

    name = "ingest-mixed"
    query_rate = 100.0
    update_rate = 4.0
    update_cells = 32
    probe_queries = 400
    drift_limit = 1e-4

    def argv(self):
        return super().argv() + ["--update-mode", "patch"]

    def drive(self, address, seconds):
        rng = _rng(self.seed, 2)
        arrivals = [
            (offset, "query") for offset in
            inputs.poisson_schedule(rng, self.query_rate, seconds)
        ] + [
            (offset, "update") for offset in
            inputs.poisson_schedule(rng, self.update_rate, seconds)
        ]
        arrivals.sort()
        requests, updates = [], 0
        for _, op in arrivals:
            if op == "query":
                body = inputs.mixed_batch(rng, self.shapes, BATCH)
            else:
                cells = inputs.update_cells(rng, self.table_shape, self.update_cells)
                body = {
                    "table": "t0",
                    "batch_id": f"{self.seed:08x}-{updates:06x}",
                    "deltas": [list(cell) for cell in cells],
                }
                updates += 1
            requests.append(Request(op, body))
        # A reader client and a writer client: queries on one
        # connection, updates on the other.
        offsets = [offset for offset, _ in arrivals]
        lanes = [int(op == "update") for _, op in arrivals]
        return harness.open_loop(address, requests, offsets, lanes)

    def probe(self, address):
        batch = inputs.mixed_batch(_rng(self.seed, 4), self.shapes, self.probe_queries)
        with Client(*address, protocol="binary", timeout=120.0) as client:
            return batch, client.query(batch)

    def verify(self, result, probe):
        final = self.tables["t0"].copy()
        for request in result.requests:
            if request.op != "update":
                continue
            if not (request.ok and request.answer.get("applied")):
                return {"ok": False, "detail": f"update not applied: {request.error}"}
            rows, cols, deltas = zip(*request.body["deltas"])
            final[list(rows), list(cols)] += deltas
        batch, served = probe
        engine = reference_engine({"t0": final})
        expected = np.array([r.distance for r in engine.query(batch)])
        got = np.array([r.distance for r in served])
        drift = float(np.max(np.abs(got - expected) / np.abs(expected)))
        ok = drift <= self.drift_limit
        return {
            "ok": ok,
            "detail": "" if ok else f"patch drift {drift:.3g} > {self.drift_limit}",
            "answers_checked": len(batch),
            "patch_drift_rel": drift,
        }


class ShardedFanout(Workload):
    """The only workload through the router: closed loop, one client to
    ``shard-serve --workers 2`` with tables t0/t1 pinned to s0/s1 and
    every 50-query request split over both, so each crosses the
    scatter/gather and a second wire hop."""

    name = "sharded-fanout"
    table_names = ("t0", "t1")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        env = harness.server_env()
        builds = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "pool", str(path),
                 "--out", str(path.with_suffix(".npz")),
                 "--p", "1", "--k", str(inputs.K), "--seed", str(inputs.SKETCH_SEED),
                 "--streams", "1", "--max-exponent", str(inputs.MIN_EXPONENT)],
                env=env, cwd=workdir, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            for path in self.paths.values()
        ]
        errors = [build.communicate()[1] for build in builds]
        if any(build.returncode for build in builds):
            raise harness.HarnessError(
                "repro pool failed: " + b"".join(errors).decode(errors="replace")
            )

    def argv(self):
        specs = [arg for name, path in self.paths.items()
                 for arg in ("--table", f"{name}={path.with_suffix('.npz')}")]
        return ["shard-serve", *specs, "--workers", "2",
                "--pin", "t0=s0", "--pin", "t1=s1", *SERVER_FLAGS]

    def drive(self, address, seconds):
        rng = _rng(self.seed, 2)
        ring = [inputs.mixed_batch(rng, self.shapes, BATCH) for _ in range(64)]
        sample = _rng(self.seed, 3)
        return harness.closed_loop(
            address, lambda i: Request("query", ring[i % len(ring)]), seconds,
            lambda i: i == 0 or sample.random() < 0.05,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PointSmall, BulkScan, CacheChurn, IngestMixed, ShardedFanout)
}

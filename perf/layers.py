"""Per-layer metrics from a traced run's spans and ``stats`` deltas.

Layer metrics are means per timed request: query-path layers divide by
the timed query requests, ingest layers by the timed update requests.
A layer's *self* time is its span's duration minus the spans nested
directly inside it on the same thread.  Only spans that start inside
the timed window count, so warm-up builds never leak into a layer.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = {
    "client.encode_ms": "ms",
    "client.decode_ms": "ms",
    "client.retries": "count",
    "wire.decode_ms": "ms",
    "wire.encode_ms": "ms",
    "server.admit_wait_ms": "ms",
    "server.shed": "count",
    "server.residual_ms": "ms",
    "engine.query_ms": "ms",
    "engine.read_lock_wait_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.gather_ms": "ms",
    "planner.queries_per_group": "count",
    "estimators.estimate_ms": "ms",
    "pool.map_hit_ratio": "ratio",
    "pool.evictions": "count",
    "pipeline.build_ms": "ms",
    "pipeline.builds": "count",
    "ingest.validate_ms": "ms",
    "ingest.apply_ms": "ms",
    "ingest.write_lock_wait_ms": "ms",
    "ingest.update_p50_ms": "ms",
    "ingest.update_p90_ms": "ms",
    "ingest.patch_drift_rel": "ratio",
    "pool.apply_deltas_ms": "ms",
    "pool.maps_patched_per_update": "count",
    "router.query_ms": "ms",
    "router.shard_call_ms": "ms",
    "router.fanout_ms": "ms",
    "router.threads_per_batch": "count",
    "generator.lateness_p99_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
    "costmodel.tile_ratio": "ratio",
    "costmodel.k_slope_ns": "ns",
    "costmodel.k_r2": "ratio",
    "costmodel.l2_over_median": "ratio",
}

# Root spans that are not server time of their own: router.shard_call
# runs on scatter threads inside router.query, router.fanout (a thread
# start) outside it starts connection handlers.
_NOT_FIRST_HOP = ("router.shard_call", "router.fanout")


class Spans:
    """The spans of one process, filtered to a time window."""

    def __init__(self, records, start: float, end: float):
        self.all = {r[0]: r for r in records}
        self.window = [r for r in records if start <= r[3] <= end]

    def named(self, name: str) -> list[tuple]:
        return [r for r in self.window if r[2] == name]

    def total(self, name: str) -> float:
        return sum(r[4] - r[3] for r in self.named(name))

    def self_time(self, name: str) -> float:
        """Total time of ``name`` spans minus their direct children."""
        ids = {r[0] for r in self.named(name)}
        children = sum(r[4] - r[3] for r in self.window if r[1] in ids)
        return self.total(name) - children

    def under(self, name: str, parent: str) -> list[tuple]:
        """``name`` spans whose direct parent is a ``parent`` span."""
        return [
            r for r in self.named(name)
            if r[1] in self.all and self.all[r[1]][2] == parent
        ]

    def root_time(self) -> float:
        """Time in root spans (no parent on their thread)."""
        return sum(
            r[4] - r[3] for r in self.window
            if r[1] == 0 and r[2] not in _NOT_FIRST_HOP
        )


def load_server_spans(directory: Path) -> tuple[list[dict], list[str]]:
    """Every ``spans-<pid>.json`` a traced server tree wrote."""
    dumps, missing = [], set()
    for path in sorted(directory.glob("spans-*.json")):
        dump = json.loads(path.read_text())
        dumps.append(dump)
        missing.update(dump["missing"])
    return dumps, sorted(missing)


def seam_table(processes: list[Spans]) -> dict[str, dict]:
    """Per seam: calls, total seconds and per-call p50 (ms)."""
    durations: dict[str, list[float]] = {}
    for spans in processes:
        for record in spans.window:
            durations.setdefault(record[2], []).append(record[4] - record[3])
    return {
        name: {
            "calls": len(values),
            "total_s": sum(values),
            "p50_ms": statistics.median(values) * 1e3,
        }
        for name, values in sorted(durations.items())
    }


def engine_snapshots(snapshot: dict) -> list[dict]:
    """The engine-level snapshots in a server's (or router's) ``stats``."""
    shards = snapshot.get("shards")
    return list(shards.values()) if shards else [snapshot]


def stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Pool and planner counter deltas over the timed phase."""
    totals = {"hits": 0, "builds": 0, "evictions": 0, "queries": 0, "groups": 0}
    for sign, snapshot in ((-1, before), (1, after)):
        for engine in engine_snapshots(snapshot):
            for table in engine.get("tables", {}).values():
                totals["hits"] += sign * table.get("map_hits", 0)
                totals["builds"] += sign * table.get("maps_built", 0)
                totals["evictions"] += sign * table.get("maps_evicted", 0)
            totals["queries"] += sign * engine.get("queries", 0)
            totals["groups"] += sign * engine.get("planner", {}).get("groups", 0)
    return totals


def layer_metrics(
    *,
    server: list[Spans],
    first_hop: Spans,
    client: Spans,
    queries: int,
    updates: int,
    latency_total: float,
    retries: int,
    delta: dict[str, float],
    update_replies: list[dict],
) -> dict[str, float]:
    """The span- and counter-derived layer metrics of one traced run.

    ``first_hop`` is the process the client talks to; in a sharded run
    it is the router, elsewhere its ``router.*`` spans are simply absent.
    """
    per_query = 1e3 / max(queries, 1)
    per_update = 1e3 / max(updates, 1)
    requests = max(queries + updates, 1)

    def total(name: str) -> float:
        return sum(spans.total(name) for spans in server)

    def count(name: str) -> int:
        return sum(len(spans.named(name)) for spans in server)

    encode, decode = client.total("client.encode"), client.total("client.decode")
    fanout = first_hop.under("router.fanout", "router.query")
    lookups = delta["hits"] + delta["builds"]
    return {
        "client.encode_ms": encode * per_query,
        "client.decode_ms": decode * per_query,
        "client.retries": retries / requests,
        "wire.decode_ms": total("wire.decode") * per_query,
        "wire.encode_ms": total("wire.encode") * per_query,
        "server.admit_wait_ms": total("server.admit") * 1e3 / requests,
        "server.shed": sum(
            1 for spans in server for r in spans.named("server.admit") if r[5]
        ) / requests,
        "server.residual_ms": (
            latency_total - first_hop.root_time() - encode - decode
        ) * 1e3 / requests,
        "engine.query_ms": total("engine.query") * per_query,
        "engine.read_lock_wait_ms": total("engine.read_lock_wait") * per_query,
        "planner.plan_ms": total("planner.plan") * per_query,
        "planner.gather_ms": sum(
            spans.self_time("planner.execute") for spans in server
        ) * per_query,
        "planner.queries_per_group": delta["queries"] / max(delta["groups"], 1),
        "estimators.estimate_ms": total("estimators.estimate") * per_query,
        "pool.map_hit_ratio": delta["hits"] / lookups if lookups else 1.0,
        "pool.evictions": delta["evictions"] / max(queries, 1),
        "pipeline.build_ms": total("pipeline.build") * per_query,
        "pipeline.builds": count("pipeline.build") / max(queries, 1),
        "ingest.validate_ms": total("ingest.validate") * per_update,
        "ingest.apply_ms": sum(
            spans.self_time("ingest.apply") for spans in server
        ) * per_update,
        "ingest.write_lock_wait_ms": total("ingest.write_lock_wait") * per_update,
        "pool.apply_deltas_ms": total("pool.apply_deltas") * per_update,
        "pool.maps_patched_per_update": (
            statistics.fmean(r.get("maps_patched", 0) for r in update_replies)
            if update_replies else 0.0
        ),
        "router.query_ms": first_hop.total("router.query") * per_query,
        "router.shard_call_ms": first_hop.total("router.shard_call") * per_query,
        "router.fanout_ms": sum(r[4] - r[3] for r in fanout) * per_query,
        "router.threads_per_batch": len(fanout) / max(queries, 1),
    }

#!/usr/bin/env python3
"""Served-traffic benchmark: real ``repro serve`` / ``shard-serve`` processes.

Usage (from the root of a checkout)::

    python3 perf/run.py --workload point-small --seed 1 --seconds 15 --trace 0
    python3 perf/run.py --seed 1 --out run.json       # every workload

Each run makes its inputs from ``--seed``, sets the server up three
times (launch until the untimed warm-up ends; the median is
``setup_s``), drives the third for ``--seconds``, stops it (SIGINT,
then SIGKILL), and checks the served answers against an in-process
engine.  Every metric is printed as ``workload metric value unit
n=samples``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same topology once untraced and once with the span hook in
``perf/hook`` on the servers' ``PYTHONPATH``, and reports the per-layer
metrics (plus the in-process cost-model check).  A failed correctness
or validity check exits 1; a checkout without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# The benchmark's own modules that import ``repro`` (harness, layers,
# workloads, costcheck, perf_trace) are imported inside functions, after
# _bootstrap() has put the checkout's src/ (and perf/hook) on sys.path.

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
WORK = PERF / ".work"
HOOK = PERF / "hook"

SETUPS = 3
SEGMENTS = 5
LATENESS_LIMIT_MS = 5.0
P99_MIN_SAMPLES = 1000

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_qps": "1/s",
    "server_rss_mb": "MiB",
}


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Phase:
    """One timed phase against one running server."""

    def __init__(self, workload, server, seconds: float):
        import harness

        address = server.address
        self.before = harness.stats(address)
        cpu_start = server.cpu_seconds()
        self.result = workload.drive(address, seconds)
        self.cpu = server.cpu_seconds() - cpu_start
        self.after = harness.stats(address)
        self.rss_end_mib = server.peak_rss_mib()
        self.probe = workload.probe(address)
        requests = self.result.requests
        self.queries = [r for r in requests if r.op == "query"]
        self.updates = [r for r in requests if r.op == "update"]
        self.attempted = len(requests)
        self.failed = sum(not r.ok for r in requests)
        self.latencies_ms = [r.latency * 1e3 for r in self.queries if r.ok]
        self.update_ms = [r.latency * 1e3 for r in self.updates if r.ok]
        self.answered = sum(len(r.body) for r in self.queries if r.ok)
        self.elapsed = self.result.end - self.result.start
        lateness = self.result.extras.get("lateness", [])
        self.lateness_p99_ms = _percentile(lateness, 99) * 1e3

    def end_to_end(self, setup_times, setup_rss) -> dict[str, tuple[float, int]]:
        """``{metric: (value, samples)}`` for every end-to-end metric.

        Latency quantiles and throughput are medians over the timed
        phase's segments, so a few seconds of contention from outside
        the benchmark move them less than a whole-run figure.
        ``server_rss_mb`` is the peak resident set at the end of set-up,
        median over the run's server instances like ``setup_s``: growth
        after that swings with the allocator's state (see the
        ``server_rss_end_mb`` diagnostic).
        """
        segments: list[list] = [[] for _ in range(SEGMENTS)]
        for request in self.queries:
            if request.ok:
                at = (request.due - self.result.start) / self.elapsed
                segments[min(SEGMENTS - 1, max(0, int(at * SEGMENTS)))].append(request)
        per_segment = {"p50": [], "p90": [], "qps": []}
        for done in filter(None, segments):
            latencies = [r.latency * 1e3 for r in done]
            per_segment["p50"].append(_percentile(latencies, 50))
            per_segment["p90"].append(_percentile(latencies, 90))
            per_segment["qps"].append(
                sum(len(r.body) for r in done) * SEGMENTS / self.elapsed
            )
        n = len(self.latencies_ms)
        return {
            "setup_s": (_median(setup_times), len(setup_times)),
            "query_p50_ms": (_median(per_segment["p50"]), n),
            "query_p90_ms": (_median(per_segment["p90"]), n),
            "query_qps": (_median(per_segment["qps"]), n),
            "server_rss_mb": (_median(setup_rss), len(setup_rss)),
        }

    def diagnostics(self) -> dict[str, tuple[float, int, str]]:
        """Reported but never gated: too few samples or too noisy to gate."""
        out = {
            "ops_failed_frac": (self.failed / max(self.attempted, 1), self.attempted, "ratio"),
            "server_cpu_us_per_query": (
                self.cpu * 1e6 / self.answered if self.answered else 0.0,
                len(self.latencies_ms), "us",
            ),
            "server_rss_end_mb": (self.rss_end_mib, 1, "MiB"),
        }
        n = len(self.latencies_ms)
        if n >= P99_MIN_SAMPLES:
            out["query_p99_ms"] = (_percentile(self.latencies_ms, 99), n, "ms")
        if self.update_ms:
            out["update_p50_ms"] = (_percentile(self.update_ms, 50), len(self.update_ms), "ms")
            out["update_p90_ms"] = (_percentile(self.update_ms, 90), len(self.update_ms), "ms")
        if "lateness" in self.result.extras:
            out["generator_lateness_p99_ms"] = (self.lateness_p99_ms, self.attempted, "ms")
        return out

    def validity(self, workload) -> list[str]:
        """Reasons this phase's numbers cannot be trusted (empty if none)."""
        import layers

        problems = []
        if self.lateness_p99_ms > LATENESS_LIMIT_MS:
            problems.append(
                f"open-loop generator ran late: p99 {self.lateness_p99_ms:.2f} ms "
                f"> {LATENESS_LIMIT_MS} ms"
            )
        builds = layers.stats_delta(self.before, self.after)["builds"]
        if workload.warm_maps and builds:
            problems.append(f"{builds} map build(s) in the timed phase after warm-up")
        if not self.latencies_ms:
            problems.append("no query completed in the timed phase")
        return problems


def _launch(workload, traced_dir: Path | None = None):
    """Start the workload's server and warm it up.

    Returns ``(server, set-up seconds, peak RSS in MiB after set-up)``.
    """
    import harness

    extra_path, extra_env = (), None
    if traced_dir is not None:
        extra_path, extra_env = (str(HOOK),), {"PERF_TRACE_DIR": str(traced_dir)}
    start = time.perf_counter()
    server = harness.ServerProcess(
        workload.argv(), workload.workdir, extra_path, extra_env
    )
    try:
        workload.warm(server.address)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, server.peak_rss_mib()


def _measure(workload, seconds: float, setups: int):
    """Set up ``setups`` times and time the last server.

    Returns ``(phase, setup_times, setup_rss)``, one set-up time and one
    post-set-up peak RSS per server instance.
    """
    setup_times, setup_rss = [], []
    for attempt in range(setups):
        server, took, rss = _launch(workload)
        setup_times.append(took)
        setup_rss.append(rss)
        if attempt < setups - 1:
            server.stop()
    try:
        phase = Phase(workload, server, seconds)
    finally:
        server.stop()
    return phase, setup_times, setup_rss


def _check(workload, phase) -> dict:
    checks = workload.verify(phase.result, phase.probe)
    problems = phase.validity(workload)
    if not checks["ok"]:
        problems.insert(0, checks["detail"])
    checks["problems"] = problems
    checks["ok"] = not problems
    return checks


def _traced_layers(workload, seed, seconds, base) -> tuple[dict, object, dict]:
    """The traced phase and its layer metrics; ``base`` is the untraced phase."""
    import costcheck
    import layers
    import perf_trace

    span_dir = workload.workdir / "spans"
    span_dir.mkdir(exist_ok=True)
    del perf_trace.SPANS[:], perf_trace.MISSING[:]
    server, _, _ = _launch(workload, span_dir)
    try:
        perf_trace.install(perf_trace.CLIENT_SEAMS)
        try:
            phase = Phase(workload, server, seconds)
        finally:
            perf_trace.uninstall()
    finally:
        server.stop()
    window = (phase.result.start, phase.result.end)
    dumps, missing = layers.load_server_spans(span_dir)
    missing = sorted(set(missing) | set(perf_trace.MISSING))
    server_spans = {d["pid"]: layers.Spans(d["spans"], *window) for d in dumps}
    first_hop = server_spans.get(server.proc.pid, layers.Spans([], *window))
    client = layers.Spans(list(perf_trace.SPANS), *window)
    metrics = layers.layer_metrics(
        server=list(server_spans.values()),
        first_hop=first_hop,
        client=client,
        queries=len(phase.queries),
        updates=len(phase.updates),
        latency_total=sum(r.latency for r in phase.result.requests if r.ok),
        retries=phase.result.extras.get("retries", 0),
        delta=layers.stats_delta(phase.before, phase.after),
        update_replies=[r.answer for r in phase.updates if r.ok],
    )
    untraced_p50 = _percentile(base.latencies_ms, 50)
    metrics["obs.trace_overhead_frac"] = (
        _percentile(phase.latencies_ms, 50) / untraced_p50 - 1.0 if untraced_p50 else 0.0
    )
    metrics["ingest.update_p50_ms"] = _percentile(base.update_ms, 50)
    metrics["ingest.update_p90_ms"] = _percentile(base.update_ms, 90)
    metrics["generator.lateness_p99_ms"] = base.lateness_p99_ms
    metrics.update(costcheck.cost_model(seed))
    seams = layers.seam_table(list(server_spans.values()) + [client])
    for name, row in seams.items():
        print(f"{workload.name} seam {name} calls={row['calls']} "
              f"total_s={row['total_s']:.6f} p50_ms={row['p50_ms']:.4f}", flush=True)
    for name in missing:
        print(f"{workload.name} seam {name} missing", flush=True)
    return metrics, phase, {"seams": seams, "missing": missing}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload, one seed: metrics, checks and counts as a dict."""
    import layers
    import workloads

    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](seed, workdir)
    report: dict = {"workload": name, "seed": seed, "seconds": seconds}
    ok = False
    try:
        base, setup_times, setup_rss = _measure(
            workload, seconds, 1 if trace else SETUPS
        )
        phases = [base]
        checks = [_check(workload, base)]
        if trace:
            metrics, traced, extra = _traced_layers(workload, seed, seconds, base)
            phases.append(traced)
            checks.append(_check(workload, traced))
            metrics["ingest.patch_drift_rel"] = checks[0].get("patch_drift_rel", 0.0)
            values = {m: (metrics[m], len(traced.queries), unit)
                      for m, unit in layers.LAYER_METRICS.items()}
            report.update(extra)
        else:
            values = {m: (*v, END_TO_END[m])
                      for m, v in base.end_to_end(setup_times, setup_rss).items()}
        report["diagnostics"] = {m: list(v) for m, v in base.diagnostics().items()}
        ok = all(c["ok"] for c in checks)
        report.update(
            metrics={m: {"value": v, "unit": u, "n": n} for m, (v, n, u) in values.items()},
            checks=checks,
            correct=ok,
            attempted=sum(p.attempted for p in phases),
            failed=sum(p.failed for p in phases),
            setup_times=setup_times,
            setup_rss=setup_rss,
        )
        lines = [f"{name} {metric} {value:.6g} {unit} n={n}"
                 for metric, (value, n, unit) in values.items()]
        lines += [f"{name} {metric} {value:.6g} {unit} n={n} (diagnostic)"
                  for metric, (value, n, unit) in base.diagnostics().items()]
        lines += [f"{name} CHECK FAILED: {problem}"
                  for check in checks for problem in check["problems"]]
        print("\n".join(lines), flush=True)
    finally:
        if ok:
            shutil.rmtree(workdir, ignore_errors=True)
    return report


def _bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perf: no program sources at {src}; run from a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    for path in (str(HOOK), str(PERF), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", default=None, help="also write the full report here")
    args = parser.parse_args(argv)
    _bootstrap()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)} or 'all'")
    reports = [
        run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": {r["workload"]: r for r in reports}},
            indent=2, sort_keys=True,
        ))
    single = len(reports) == 1
    summary = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (m if single else f"{r['workload']}/{m}"): {"value": v["value"], "unit": v["unit"]}
            for r in reports for m, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

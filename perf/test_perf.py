"""Smoke tests of the served-traffic benchmark (about a minute).

Run from the checkout root with ``python -m pytest perf -q``; the
repository's own suite collects only ``tests/``.  Every workload runs
for one second, so these check the benchmark's contract, not the
program's speed.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF))

import run  # noqa: E402

run._bootstrap()

import compare  # noqa: E402
import harness  # noqa: E402
from repro.serve import wire  # noqa: E402
from repro.serve.planner import QueryResult  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seed", "1", "--seconds", "1"]


def _run(capsys, *args) -> tuple[int, list[str], dict]:
    code = run.main([*args, *SMOKE])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture
def addresses(monkeypatch):
    """Every address a server of the run bound."""
    seen = []
    launch = harness.ServerProcess.__init__

    def spy(self, *args, **kwargs):
        launch(self, *args, **kwargs)
        seen.append(self.address)

    monkeypatch.setattr(harness.ServerProcess, "__init__", spy)
    return seen


def _assert_torn_down(addresses) -> None:
    assert addresses
    for address in addresses:
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()
    work = str(run.WORK)
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cwd = os.readlink(f"/proc/{pid}/cwd")
        except OSError:
            continue
        assert not cwd.startswith(work), f"process {pid} left behind in {cwd}"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(capsys, addresses, trace, section):
    code, lines, summary = _run(capsys, "--trace", str(trace))
    assert code == 0 and summary["correct"], "\n".join(lines)
    assert summary["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    for workload in BENCHMARK["workloads"]:
        prefix = workload["name"] + "/"
        emitted = {
            name[len(prefix):]: entry["unit"]
            for name, entry in summary["metrics"].items() if name.startswith(prefix)
        }
        assert emitted == declared, workload["name"]
    _assert_torn_down(addresses)


def test_an_injected_wrong_answer_fails_the_run(capsys, addresses, monkeypatch):
    decode = wire.decode_query_result

    def corrupt(payload):
        result = decode(payload)
        first = result["results"][0]
        result["results"][0] = QueryResult(first.distance * (1 + 1e-12), first.strategy)
        return result

    monkeypatch.setattr(wire, "decode_query_result", corrupt)
    code, lines, summary = _run(capsys, "--workload", "bulk-scan", "--trace", "0")
    shutil.rmtree(run.WORK / f"bulk-scan-1-{os.getpid()}", ignore_errors=True)
    assert code == 1 and not summary["correct"]
    assert any("CHECK FAILED: served distance" in line for line in lines)
    _assert_torn_down(addresses)


def test_without_program_sources_the_run_fails_without_a_result():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(PERF, bare / "perf",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", "point-small",
             *SMOKE, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_verdicts_follow_the_bounds():
    runs = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert compare.verdict(runs, [v * 0.8 for v in runs], True, 0.25)[0] == "better"
    assert compare.verdict(runs, [v * 1.05 for v in runs], True, 0.25)[0] == "within bound"
    assert compare.verdict(runs, [v * 1.5 for v in runs], True, 0.25)[0] == "worse"
    assert compare.verdict(runs, [v * 1.5 for v in runs], False, 0.25)[0] == "better"
    noisy = [5.0, 15.0, 10.0, 20.0, 2.0]
    assert compare.verdict(noisy, noisy[::-1], True, 0.25)[0] == "unresolved"
    assert compare.verdict(runs, [v * 1.5 for v in runs], True, None)[0] == "-"

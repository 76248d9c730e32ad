"""Server processes and load generators for the served-traffic benchmark.

:class:`ServerProcess` launches ``python -m repro serve`` or
``shard-serve`` from the checkout's ``src/`` as a process-group leader,
waits for the address line it prints, reads CPU time and peak RSS of the
whole process tree from ``/proc``, and tears the tree down (SIGINT, then
SIGKILL for anything left in the group).

Load comes from this one process: :func:`open_loop` drives a Poisson
schedule from a single asyncio thread over pipelined binary connections,
timing every request from the moment the schedule said to send it;
:func:`closed_loop` drives :class:`repro.serve.Client` one request at a
time.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import Client, wire

ROOT = Path(__file__).resolve().parent.parent
_ADDRESS = re.compile(rb" on ([0-9.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class HarnessError(RuntimeError):
    """The server could not be started or driven; the run is invalid."""


# ---------------------------------------------------------------------------
# Server processes
# ---------------------------------------------------------------------------


def _process_table() -> dict[int, tuple[int, int]]:
    """``{pid: (ppid, cpu_ticks)}`` for every live process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state; ppid, utime and stime follow at fixed offsets.
        table[int(entry)] = (int(fields[1]), int(fields[11]) + int(fields[12]))
    return table


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def server_env(extra_path: tuple[str, ...] = ()) -> dict:
    """Environment for a program process: the checkout's ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *extra_path])
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One server (and, for ``shard-serve``, its workers) under test.

    Parameters
    ----------
    argv:
        Arguments after ``python -m repro``.
    workdir:
        Where the server runs and its stdout/stderr logs go.
    extra_path:
        Directories appended to ``PYTHONPATH`` (the trace hook).
    extra_env:
        Additional environment variables.
    """

    def __init__(self, argv: list[str], workdir: Path,
                 extra_path: tuple[str, ...] = (), extra_env: dict | None = None,
                 start_timeout: float = 60.0):
        env = server_env(extra_path)
        env.update(extra_env or {})
        stamp = f"{time.monotonic_ns()}"
        self.log_out = workdir / f"server-{stamp}.out"
        self.log_err = workdir / f"server-{stamp}.err"
        with open(self.log_out, "wb") as out, open(self.log_err, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv],
                cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, start_new_session=True,
            )
        try:
            self.address = self._wait_address(start_timeout)
        except BaseException:
            self.stop()
            raise

    def _wait_address(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _ADDRESS.search(self.log_out.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                raise HarnessError(
                    f"server exited with {self.proc.returncode} before serving:\n"
                    + self.log_err.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.002)
        raise HarnessError(f"server printed no address within {timeout}s")

    def tree(self) -> list[int]:
        """The server's pid and every live descendant's."""
        table = _process_table()
        pids, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            if pid in table:
                pids.append(pid)
                frontier.extend(p for p, (ppid, _) in table.items() if ppid == pid)
        return pids

    def cpu_seconds(self) -> float:
        """CPU time (user + system) consumed so far by the process tree."""
        table = _process_table()
        return sum(table[pid][1] for pid in self.tree() if pid in table) / _CLOCK_TICKS

    def peak_rss_mib(self) -> float:
        """Peak resident set (VmHWM) summed over the process tree, MiB."""
        return sum(_peak_rss_kib(pid) for pid in self.tree()) / 1024.0

    def stop(self, timeout: float = 20.0) -> None:
        """SIGINT (graceful drain), then SIGKILL the whole group; wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        # Whatever is left in the group (a wedged server, orphaned shard
        # workers) is killed; the group is gone once killpg finds no one.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                break
            self.proc.poll()
            time.sleep(0.02)
        self.proc.wait()


# ---------------------------------------------------------------------------
# Load generators
# ---------------------------------------------------------------------------


@dataclass
class Request:
    """One timed request: what was sent, when, and what came back.

    Times are ``time.monotonic()`` seconds.  For open-loop requests
    ``due`` is when the schedule said to send; for closed-loop ones it
    is when the request was sent.  ``answer`` holds the served results
    of a kept query, or the reply dict of an update.
    """

    op: str
    body: object
    due: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""
    answer: object = None
    keep: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class LoadResult:
    requests: list[Request]
    start: float
    end: float
    extras: dict = field(default_factory=dict)


def _encode(request: Request, request_id: int) -> bytes:
    if request.op == "query":
        return wire.encode_frame(
            wire.KIND_QUERY_REQUEST, request_id,
            wire.encode_query_request({"queries": request.body}),
        )
    return wire.encode_frame(
        wire.KIND_JSON_REQUEST, request_id,
        json.dumps(dict(request.body, op="update")).encode("utf-8"),
    )


def _settle(request: Request, kind: int, payload) -> None:
    if kind == wire.KIND_QUERY_RESULT:
        results = wire.decode_query_result(payload)["results"]
        request.ok = True
        if request.keep:
            request.answer = results
    elif kind == wire.KIND_JSON_RESULT:
        request.ok = True
        request.answer = json.loads(bytes(payload))
    else:
        request.error = json.loads(bytes(payload)).get("type", "error")


async def _dial(host: str, port: int):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(bytes([wire.MAGIC, wire.VERSION]))
    verdict = await reader.readexactly(1)
    if verdict[0] != wire.ACK:
        raise HarnessError(f"server declined binary protocol: {verdict!r}")
    return reader, writer


async def _read_responses(reader, inflight: dict[int, Request]) -> None:
    loop = asyncio.get_running_loop()
    while True:
        try:
            header = await reader.readexactly(wire.HEADER.size)
            kind, length, request_id = wire.parse_header(header, wire.MAX_FRAME_BYTES)
            payload = memoryview(await reader.readexactly(length))
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        request = inflight.pop(request_id, None)
        if request is not None:
            _settle(request, kind, payload)
            request.done = loop.time()


async def _open_loop(address, requests, offsets, lanes, drain_timeout):
    loop = asyncio.get_running_loop()
    conns = [await _dial(*address) for _ in range(max(lanes) + 1)]
    inflight: dict[int, Request] = {}
    readers = [asyncio.create_task(_read_responses(r, inflight)) for r, _ in conns]
    lateness = []
    start = loop.time() + 0.05
    for index, (request, offset, lane) in enumerate(zip(requests, offsets, lanes)):
        request.due = start + offset
        delay = request.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        request_id = index + 1
        frame = _encode(request, request_id)
        inflight[request_id] = request
        lateness.append(loop.time() - request.due)
        conns[lane][1].write(frame)
    deadline = loop.time() + drain_timeout
    while inflight and loop.time() < deadline:
        await asyncio.sleep(0.005)
    end = max([r.done for r in requests if r.done] or [loop.time()])
    for request in inflight.values():
        request.error = "timeout"
    for _, writer in conns:
        writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in conns:
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return LoadResult(requests, start, end, {"lateness": lateness})


def open_loop(address, requests: list[Request], offsets, lanes,
              drain_timeout: float = 60.0) -> LoadResult:
    """Send ``requests`` at ``offsets`` (seconds) whatever the replies do.

    Request ``i`` goes down pipelined binary connection ``lanes[i]``
    (one connection per distinct lane).  Each request's latency runs
    from its scheduled send time, so a stall that delays later sends is
    charged to them; ``extras["lateness"]`` records how late each send
    actually was.
    """
    return asyncio.run(
        _open_loop(address, requests, offsets, lanes, drain_timeout)
    )


def closed_loop(address, next_request, seconds: float, sample) -> LoadResult:
    """Send one request at a time through :class:`repro.serve.Client`.

    ``next_request(i)`` returns the ``i``-th :class:`Request` (queries
    only); the loop runs until ``seconds`` have elapsed.  ``sample(i)``
    decides whether request ``i``'s answers are kept for checking.
    """
    requests = []
    with Client(*address, protocol="binary", timeout=60.0) as client:
        retries_before = client.resilience["retries_total"]
        start = time.monotonic()
        stop = start + seconds
        while time.monotonic() < stop:
            request = next_request(len(requests))
            request.keep = sample(len(requests))
            request.due = time.monotonic()
            try:
                results = client.query(request.body)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                request.done = time.monotonic()
                request.error = type(exc).__name__
            else:
                request.done = time.monotonic()
                request.ok = True
                if request.keep:
                    request.answer = results
            requests.append(request)
        retries = client.resilience["retries_total"] - retries_before
    end = requests[-1].done if requests else start
    return LoadResult(requests, start, end, {"retries": retries})


def stats(address) -> dict:
    """One ``stats`` snapshot over a short-lived control connection."""
    with Client(*address, protocol="binary", timeout=60.0) as client:
        return client.stats()

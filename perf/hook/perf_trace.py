"""Out-of-program span recorder for the benchmark's traced runs.

The benchmark times layers from outside: it replaces a few functions of
the program (its *seams*) with wrappers that record one span per call —
name, start, end, the enclosing span on the same thread, and the
exception type if the call raised.  Spans stay in memory and each
process writes its own ``spans-<pid>.json`` into ``PERF_TRACE_DIR`` when
it exits.

Server processes load this through ``sitecustomize.py`` (on
``PYTHONPATH`` only for traced servers, so spawned shard workers inherit
it); the load generator installs :data:`CLIENT_SEAMS` in-process.  A
seam the program no longer has is listed under ``missing`` and never
fails the run.  Times are ``time.monotonic()``, one clock for every
process on the host.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import threading
import time

# (module, class or None, attribute, span name, how to wrap)
SERVER_SEAMS = (
    ("repro.serve.wire", None, "decode_query_request", "wire.decode", "call"),
    ("repro.serve.wire", None, "encode_query_result", "wire.encode", "call"),
    ("repro.serve.server", "AdmissionController", "admit", "server.admit", "call"),
    ("repro.serve.engine", "SketchEngine", "query", "engine.query", "call"),
    ("repro.ingest.rwlock", "RWLock", "read_locked", "engine.read_lock_wait", "entry"),
    ("repro.ingest.rwlock", "RWLock", "write_locked", "ingest.write_lock_wait", "entry"),
    ("repro.serve.planner", "QueryPlanner", "plan", "planner.plan", "call"),
    ("repro.serve.planner", "QueryPlanner", "execute", "planner.execute", "call"),
    ("repro.serve.planner", None, "estimate_distance_batch", "estimators.estimate", "call"),
    ("repro.core.pool", None, "sketch_all_positions", "pipeline.build", "call"),
    ("repro.ingest.deltas", "DeltaBatch", "from_wire", "ingest.validate", "classmethod"),
    ("repro.ingest.log", "IngestLog", "apply", "ingest.apply", "call"),
    ("repro.core.pool", "SketchPool", "apply_deltas", "pool.apply_deltas", "call"),
    ("repro.shard.router", "ShardRouter", "query", "router.query", "call"),
    ("repro.serve.client", "Client", "query", "router.shard_call", "call"),
    ("threading", "Thread", "start", "router.fanout", "call"),
)

CLIENT_SEAMS = (
    ("repro.serve.wire", None, "encode_query_request", "client.encode", "call"),
    ("repro.serve.wire", None, "decode_query_result", "client.decode", "call"),
)

# (span id, parent span id or 0, name, start, end, error type or "")
SPANS: list[tuple] = []
MISSING: list[str] = []
_installed: list[tuple] = []
_ids = itertools.count(1)
_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _timed(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        span_id = next(_ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        error = ""
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.monotonic()
            stack.pop()
            SPANS.append((span_id, parent, name, start, end, error))

    return wrapper


class _TimedEntry:
    """A context manager whose ``__enter__`` (the wait to acquire) is a span."""

    __slots__ = ("_name", "_inner")

    def __init__(self, name: str, inner):
        self._name = name
        self._inner = inner

    def __enter__(self):
        return _timed(self._name, self._inner.__enter__)()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def _timed_entry(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedEntry(name, fn(*args, **kwargs))

    return wrapper


def install(seams) -> None:
    """Wrap every seam that exists; record the ones that do not."""
    for module_name, owner_name, attr, name, how in seams:
        try:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            MISSING.append(name)
            continue
        if how == "classmethod":
            replacement = classmethod(_timed(name, original.__func__))
        elif how == "entry":
            replacement = _timed_entry(name, original)
        else:
            replacement = _timed(name, original)
        setattr(owner, attr, replacement)
        _installed.append((owner, attr, original))


def uninstall() -> None:
    """Restore every wrapped seam (the in-process generator's cleanup)."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


def dump(directory: str) -> None:
    """Write this process's spans to ``directory/spans-<pid>.json``."""
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    payload = {
        "pid": os.getpid(),
        "ppid": os.getppid(),
        "missing": list(MISSING),
        "spans": list(SPANS),
    }
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def install_server_hook() -> None:
    """Entry point of ``sitecustomize``: wrap server seams, dump at exit."""
    directory = os.environ.get("PERF_TRACE_DIR")
    if not directory:
        return
    install(SERVER_SEAMS)
    atexit.register(dump, directory)

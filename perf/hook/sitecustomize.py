"""Loaded at interpreter start-up by traced server processes only.

The benchmark puts this directory on ``PYTHONPATH`` of the servers it
traces, so ``python -m repro serve`` and every shard worker it spawns
record spans at the program's seams (see ``perf_trace.py``).
"""

import perf_trace

perf_trace.install_server_hook()

"""Serial or process-parallel execution of independent solver tasks.

The evaluation workload — every benchmark under every Table-4
configuration, every fuzzed system under every configuration — is a set
of independent deterministic solves.  Sharding it needs only results in
submission order: reports merged in that order are byte-identical to
serial ones modulo wall-clock fields, because Work counts do not depend
on the process that computed them.

Entry points: ``python -m repro.bench --jobs N`` and ``python -m
repro.resilience fuzz --jobs N``; both call the workers in
:mod:`repro.parallel.tasks` through :func:`map_tasks`, serially or not.
See ``docs/PARALLEL.md``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator


def map_tasks(worker: Callable[[Any], Any], payloads: Iterable[Any],
              jobs: int = 1) -> Iterator[Any]:
    """Yield ``worker(payload)`` for every payload, in submission order.

    ``jobs == 1`` is the builtin ``map`` in this process; otherwise a
    ``spawn`` process pool of ``jobs`` workers (``jobs <= 0``: one per
    core) runs them.  A worker exception propagates with its own type;
    a worker process that dies raises ``BrokenProcessPool``.
    """
    if jobs == 1:
        yield from map(worker, payloads)
        return
    with ProcessPoolExecutor(
        max_workers=None if jobs <= 0 else jobs,
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        yield from pool.map(worker, payloads)


__all__ = ["map_tasks"]

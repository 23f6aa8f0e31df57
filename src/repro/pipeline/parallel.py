"""Deterministic parallel fan-out for suite and ablation runs.

:func:`parallel_map` runs one task per item on a process pool and
returns results in item order, so ``jobs=N`` output is indistinguishable
from serial output. The task callable and its items must be picklable,
and each worker returns its result together with its observability
child.

Each worker records into its own fresh
:class:`~repro.observability.Observability`; children are absorbed into
the parent **in item order, as soon as that item (and every earlier
item) finishes** — so traces and metrics stay whole and deterministic
while no more than the in-flight window of children is held in memory.
Each absorbed record is tagged with its worker's label.

``jobs=1`` short-circuits to a plain loop over the parent context,
byte-identical to the historical serial code path.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.observability import Observability, resolve

T = TypeVar("T")
R = TypeVar("R")


def validate_jobs(jobs: int) -> int:
    """Reject a non-positive worker count with a clear error."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (1 = serial), got {jobs}")
    return jobs


def jobs_argument(value: str) -> int:
    """Argparse ``type=`` for ``--jobs``: a positive worker count."""
    import argparse

    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (1 = serial), got {jobs}"
        )
    return jobs


def _process_task(fn, item, want_obs: bool):
    """Run one task in a worker process, capturing its observability.

    Module-level so it pickles; the child context rides back to the
    parent in the return value (tracers and metrics are plain data).
    """
    child = Observability.create() if want_obs else None
    result = fn(item, resolve(child))
    return result, child


def parallel_map(
    fn: Callable[[T, Observability], R],
    items: Sequence[T],
    jobs: int = 1,
    obs: Observability | None = None,
    worker_label: str = "worker",
) -> list[R]:
    """Map ``fn(item, obs)`` over ``items``, preserving item order.

    With ``jobs > 1``, ``fn`` and every item (and result) must be
    picklable — use module-level functions or :func:`functools.partial`
    over module-level functions. The pool never has more workers than
    there are items.
    """
    validate_jobs(jobs)
    parent = resolve(obs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item, parent) for item in items]
    results: list[R] = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = [
            pool.submit(_process_task, fn, item, parent.enabled)
            for item in items
        ]
        for index, future in enumerate(futures):
            result, child = future.result()
            results.append(result)
            if child is not None:
                parent.absorb(child, worker=f"{worker_label}-{index}")
            futures[index] = None  # release the child promptly
    return results

"""The process-wide thread pool, derived random streams and the two ways work uses the pool.

* ``_map_pooled`` and its stream-seeded form ``map_streams`` call a function
  on a list of items, with the caller taking items alongside the pool's
  threads.
* ``_map_ahead`` makes a sequence of calls on one pool thread a fixed number
  of calls ahead of the caller, so draws from a shared generator come in
  order and overlap the caller's work: the sampler's blocks draw each step's
  noise one step ahead, the forward-path walker of the Monte Carlo
  functionals its points' normals one or two points ahead.

Work running on the pool, or in a caller while it takes its share of a map,
is marked inline: a map or draw-ahead made from it runs in that thread, so
nested work never oversubscribes the cores or waits on the pool it runs in.
This module imports no other module of the package.
"""

from __future__ import annotations

import collections
import os
import threading

import numpy as np

_POOL = None
_POOL_LOCK = threading.Lock()
# .inline is true in the pool's threads, and in a caller while it runs its own share
_THREAD = threading.local()

# os.cpu_count() reads sysfs (about 7 us); every cloud query asks
_CPUS = os.cpu_count() or 1

# the fewest values a call made ahead of its use draws: below it, waking the
# pool thread costs more than the draw
_DRAW_AHEAD_MIN = 2**12


def spawn_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Derive an independent generator for one worker or chunk.

    Stream-splitting contract used across the package: stream ``i`` of master
    seed ``s`` is ``default_rng(SeedSequence(s, spawn_key=(i,)))``.  Values
    drawn from distinct streams are independent and reproducible regardless
    of how many workers consume them.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(stream,)))


def _pool_size() -> int:
    return _CPUS


def _mark_inline():
    _THREAD.inline = True


def _pool():
    """The process-wide pool of ``os.cpu_count()`` threads, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            import concurrent.futures  # only pooled runs pay for the import

            _POOL = concurrent.futures.ThreadPoolExecutor(_pool_size(), initializer=_mark_inline)
    return _POOL


def _map_pooled(call, items, workers: int) -> list:
    """``[call(item) for item in items]`` with at most ``workers`` items at once.

    Up to ``workers - 1`` threads of the shared pool and the caller each take
    the next item as they finish one.  A map made from inside pooled work
    runs inline.  Once a call raises, no new item is taken; the calls in
    flight finish and the exception reaches the caller.  A helper that has
    not started when the caller runs out of items is cancelled, but stays
    queued until a pool thread takes it, holding ``call`` and the results
    but no item.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1 or getattr(_THREAD, "inline", False):
        return [call(item) for item in items]
    results = [None] * len(items)
    pending = iter(enumerate(items))
    lock = threading.Lock()

    def drain():
        nonlocal pending
        while True:
            with lock:
                job = next(pending, None)
                if job is None:
                    pending = iter(())  # a spent enumerate still holds its last item
                    return
            try:
                results[job[0]] = call(job[1])
            except BaseException:
                with lock:
                    pending = iter(())
                raise

    helpers = [_pool().submit(drain) for _ in range(min(workers - 1, len(items)))]
    _THREAD.inline = True
    try:
        drain()
    finally:
        _THREAD.inline = False
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    return results


def _map_ahead(fn, items, depth: int):
    """Yield ``fn(item)`` in order, made by one pool thread up to ``depth`` calls ahead of the caller.

    The thread makes the calls one at a time, back to back and in item order,
    so ``fn`` may draw from a shared generator; call i + depth may start once
    the caller has taken result i.  After a call raises, or the caller closes
    the generator, every call already allowed to start finishes, no later one
    starts, and only then does the generator return: what ``fn`` has done by
    then depends on where the caller stopped, not on timing.  At depth 0, and
    inside pooled work, each call runs inline when its result is taken.  No
    reference to a handed-out result is kept, so the caller frees it at will.
    """
    items = list(items)
    if depth < 1 or getattr(_THREAD, "inline", False):
        yield from map(fn, items)
        return
    cond = threading.Condition()
    done = collections.deque()  # results made and not yet taken, in order
    allowed, closed, failed = depth, False, None

    def produce():
        nonlocal failed
        for i, item in enumerate(items):
            with cond:
                while i >= allowed:
                    if closed:
                        return
                    cond.wait()
            try:
                result = fn(item)
            except BaseException as exc:
                with cond:
                    failed = exc
                    cond.notify()
                return
            with cond:
                done.append(result)
                cond.notify()
            del result  # the caller may free it once taken, even while this thread waits

    producer = _pool().submit(produce)
    try:
        for _ in items:
            with cond:
                while not done and failed is None:
                    cond.wait()
                if not done:
                    raise failed
                allowed += 1
                cond.notify()
            yield done.popleft()
    finally:
        with cond:
            closed = True
            cond.notify()
        producer.result()  # waits for the calls already allowed
        done.clear()


def map_streams(fn, items, seed: int, workers: int = 1, first: int = 0) -> list:
    """``[fn(item, spawn_rng(seed, first + i)) for i, item in enumerate(items)]``.

    With ``workers > 1`` at most that many items run at once on the shared
    thread pool; each draws only from its own derived stream, so the result
    does not depend on the worker count.
    """
    return _map_pooled(lambda job: fn(job[1], spawn_rng(seed, job[0])), enumerate(items, start=first), workers)

"""The shared pool (``revdiff._pool``): its maps, its draw-ahead, and that it is the one concurrency module."""

import ast
import pathlib
import threading
import time

import pytest

from revdiff import _pool

SRC = pathlib.Path(_pool.__file__).parent


def _imports(path):
    """(module, names) of each import in ``path``: ``from .a import x`` is (".a", ["x"]), ``import a.b`` is ("a.b", [])."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield ("." * node.level + (node.module or ""), [alias.name for alias in node.names])


def test_pool_is_the_only_module_that_imports_threads_and_measures_hands_out_no_pool_name():
    tree = ast.parse((SRC / "_pool.py").read_text())
    pool_names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    pool_names |= {target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets}
    assert {"_pool", "_THREAD", "_map_pooled", "_map_ahead", "map_streams", "_DRAW_AHEAD_MIN"} <= pool_names
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        imports = list(_imports(path))
        threads = [m for m, names in imports if m.split(".")[0] in ("threading", "concurrent") or "futures" in names]
        assert not threads or path.name == "_pool.py", f"{path.name} imports {threads}"
        from_measures = {name for m, names in imports if m in (".measures", "revdiff.measures") for name in names}
        assert not from_measures & pool_names, f"{path.name} imports {from_measures & pool_names} from measures"
    # _pool imports no other module of the package, so no import cycle runs through it
    assert [m for m, _ in _imports(SRC / "_pool.py") if m == "" or m.startswith(("revdiff", "."))] == []


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_map_pooled_takes_no_item_after_a_call_raises(where):
    # The raise may come from the caller's share or a pool thread's.  A thread
    # busy at that moment finishes its call; no thread starts a new one after
    # the failing thread stops the map, so only a scheduling race can start
    # one per thread.  The parent drained all 200 items first.
    started, failed = [], threading.Event()
    on_caller = where == "caller"

    def call(i):
        started.append(failed.is_set())
        time.sleep(2e-3)
        if i >= 5 and not failed.is_set() and (threading.current_thread() is threading.main_thread()) == on_caller:
            failed.set()
            raise RuntimeError("planted")
        return i

    with pytest.raises(RuntimeError, match="planted"):
        _pool._map_pooled(call, range(200), 3)
    assert failed.is_set()
    assert sum(started) <= 2 * 3
    assert len(started) < 60


def test_map_pooled_shares_items_between_the_pool_and_the_caller_and_keeps_their_order():
    # The caller's first call waits until a pool thread has made one, so both
    # make some; the results come back in item order.  With one worker the
    # caller makes every call.
    threads, pooled = [], threading.Event()

    def call(i):
        threads.append(threading.get_ident())
        if threading.current_thread() is threading.main_thread():
            assert pooled.wait(timeout=30)
        else:
            pooled.set()
        return i * i

    assert _pool._map_pooled(call, range(50), 2) == [i * i for i in range(50)]
    assert threading.get_ident() in threads and len(set(threads)) == 2
    threads.clear()
    assert _pool._map_pooled(call, range(5), 1) == [i * i for i in range(5)]
    assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("depth", [1, 2])
def test_map_ahead_runs_up_to_depth_calls_ahead_on_one_pool_thread(depth):
    # Once the caller has taken result i, calls through i + depth have
    # started and call i + depth + 1 has not; the calls never overlap.
    started = [threading.Event() for _ in range(6 + depth + 1)]
    lock, running, overlapped, threads = threading.Lock(), [], [], []

    def fn(i):
        with lock:
            overlapped.append(bool(running))
            running.append(i)
        threads.append(threading.get_ident())
        started[i].set()
        time.sleep(0.002)
        with lock:
            running.remove(i)
        return i * i

    def started_through(last):
        assert started[last].wait(timeout=30)
        time.sleep(0.01)  # time enough for a call past the allowed ones to start
        assert not started[last + 1].is_set()

    got = []
    gen = _pool._map_ahead(fn, range(6), depth)
    for i, value in enumerate(gen):
        got.append(value)
        if i + depth < 6:
            started_through(i + depth)
    assert got == [i * i for i in range(6)]
    assert not any(overlapped)
    assert len(set(threads)) == 1 and threading.get_ident() not in threads


def test_map_ahead_runs_inline_at_depth_0_and_inside_pooled_work():
    # Inline, call i is made in the taking thread when result i is taken.
    def events(depth):
        seen = []
        for i in _pool._map_ahead(lambda i: seen.append(("call", i, threading.get_ident())) or i, range(4), depth):
            seen.append(("take", i, threading.get_ident()))
        return seen == [(what, i, threading.get_ident()) for i in range(4) for what in ("call", "take")]

    assert events(0)
    assert _pool.map_streams(lambda _, rng: events(2), [0, 1], seed=0, workers=2) == [True, True]


@pytest.mark.parametrize("depth", [1, 2])
def test_map_ahead_finishes_exactly_the_allowed_calls_after_a_close_or_a_failed_call(depth):
    # Slow calls, so a close or a failure finds the allowed calls not yet
    # made; every run must end with the same calls made, whatever the timing.
    for _ in range(20):
        calls, finished = [], []

        def fn(i):
            calls.append(i)
            time.sleep(0.003)
            if i == 4:
                raise RuntimeError("planted")
            finished.append(i)
            return i

        gen = _pool._map_ahead(fn, range(10), depth)
        assert [next(gen), next(gen)] == [0, 1]
        gen.close()  # results 0 and 1 taken: calls through 1 + depth are allowed
        assert finished == list(range(2 + depth))
        time.sleep(0.01)
        assert calls == list(range(2 + depth))

        calls, finished = [], []
        with pytest.raises(RuntimeError, match="planted"):
            list(_pool._map_ahead(fn, range(10), depth))
        time.sleep(0.01)
        assert calls == [0, 1, 2, 3, 4] and finished == [0, 1, 2, 3]

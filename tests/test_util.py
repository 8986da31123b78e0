"""util.fork_map and util.fork_workers: order, worker processes, BLAS
pinning, worker failures and the inline fallbacks."""
import os
import threading

from concurrent.futures.process import BrokenProcessPool

import pytest

from canm import util
from canm.errors import UsageError


def square_and_pid(i):
    return i * i, os.getpid()


def forked_map(fn, items, work=0):
    items = list(items)
    return util.fork_map(fn, items, util.fork_workers(len(items), work))


@pytest.mark.parametrize("cpus", [2, 4])  # 4: more workers than a 2-core host has cores
def test_results_in_item_order_from_forked_workers(cpus, forking, monkeypatch):
    monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
    out = forked_map(square_and_pid, range(41))
    assert [v for v, _ in out] == [i * i for i in range(41)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and len(pids) <= cpus


def test_closures_reach_workers_without_pickling(forking):
    lock = threading.Lock()  # unpicklable
    assert forked_map(lambda i: (i, lock.locked()), [3, 1]) == [(3, False), (1, False)]


def test_workers_set_blas_to_one_thread(forking, monkeypatch):
    calls = []
    monkeypatch.setattr(util, "_blas_thread_setters", lambda: (calls.append,))
    assert forked_map(lambda i: list(calls), range(2)) == [[1], [1]]
    assert calls == []


def test_exception_in_worker_keeps_its_class(forking):
    def fail(i):
        if i == 3:
            raise UsageError(f"item {i}")
        return i

    with pytest.raises(UsageError, match="item 3"):
        forked_map(fail, range(6))


def test_worker_that_dies_raises(forking):
    def die(i):
        if i == 2:
            os._exit(3)
        return i

    with pytest.raises(BrokenProcessPool):
        forked_map(die, range(4))


def inline_pids(items=range(4), work=util.FORK_MIN_WORK):
    return {pid for _, pid in forked_map(square_and_pid, items, work)}


def test_enough_work_forks(forking, monkeypatch):
    monkeypatch.setattr(util, "FORK_MIN_WORK", 1000)
    assert os.getpid() not in inline_pids(work=1000)


def test_too_little_work_runs_inline(forking, monkeypatch):
    monkeypatch.setattr(util, "FORK_MIN_WORK", 1000)
    assert inline_pids(work=999) == {os.getpid()}


def test_one_cpu_runs_inline(forking, monkeypatch):
    monkeypatch.setattr(util, "usable_cpus", lambda: 1)
    assert inline_pids() == {os.getpid()}


def test_one_item_runs_inline(forking):
    assert inline_pids([5]) == {os.getpid()}


def test_no_blas_setter_runs_inline(forking, monkeypatch):
    monkeypatch.setattr(util, "_blas_thread_setters", lambda: ())
    assert inline_pids() == {os.getpid()}


def test_live_thread_runs_inline(forking):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert inline_pids() == {os.getpid()}
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_nested_call_runs_inline_in_the_worker(forking):
    out = forked_map(lambda i: (os.getpid(), inline_pids()), range(2))
    assert all(inner == {pid} for pid, inner in out)


def test_no_fork_start_method_runs_inline(forking, monkeypatch):
    monkeypatch.setattr(util.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert inline_pids() == {os.getpid()}

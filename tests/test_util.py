"""util.fork_map: order, worker processes, BLAS pinning, the worker
allocator setting, worker failures and the inline fallbacks."""
import os
import platform
import resource
import sys
import threading
import types

from concurrent.futures.process import BrokenProcessPool

import pytest

from canm import estimation, scm, util
from canm.discovery import core_intervention_plan
from canm.errors import UsageError
from canm.graph import Dag
from canm.independence import data_ci_test

# the real setter lookup, before the forking fixture stands in for it
BLAS_THREAD_SETTERS = util._blas_thread_setters


def square_and_pid(i):
    return i * i, os.getpid()


def forked_map(fn, items, work=0):
    return util.fork_map(fn, items, work)


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


def test_workers_pin_an_openblas_mapped_after_an_earlier_fork(forking, monkeypatch):
    # SciPy maps its own OpenBLAS when the first Pearson test loads
    # scipy.special, which may come after this process first forked
    mapped, pinned = ["numpy.libs/libscipy_openblas64_.so"], []
    monkeypatch.setattr(util, "_blas_thread_setters", BLAS_THREAD_SETTERS)
    monkeypatch.setattr(util, "_openblas_paths", lambda: tuple(mapped))
    monkeypatch.setattr(util, "_blas_setter",
                        lambda path: lambda threads: pinned.append((path, threads)))
    assert forked_map(lambda i: list(pinned), range(2)) == [[(mapped[0], 1)]] * 2
    mapped.append("scipy.libs/libscipy_openblas.so")
    assert forked_map(lambda i: list(pinned), range(2)) == [[(path, 1) for path in mapped]] * 2
    assert pinned == []


def test_workers_inherit_the_pearson_kernel(forking):
    data_ci_test("pearson")
    assert forked_map(lambda i: "scipy.special" in sys.modules, range(2)) == [True, True]


def fake_libc(monkeypatch, returns=1):
    """A C library whose mallopt records its calls and returns ``returns``."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return returns

    monkeypatch.setattr(util, "_libc", lambda: types.SimpleNamespace(mallopt=mallopt))
    return calls


def test_workers_set_malloc_thresholds_and_the_caller_does_not(forking, monkeypatch):
    calls = fake_libc(monkeypatch)
    expected = [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert forked_map(lambda i: list(calls), range(2)) == [expected, expected]
    assert calls == []


def test_refused_malloc_setting_stops_the_rest(monkeypatch):
    calls = fake_libc(monkeypatch, returns=0)
    assert util._keep_freed_pages(util._mallopt()) is False
    assert calls == [util._WORKER_MALLOC[0]]


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc behaviour")


@glibc_only
def test_glibc_accepts_the_worker_malloc_settings(forking):
    assert forked_map(lambda i: util._keep_freed_pages(util._mallopt()), range(2)) == [True, True]


def ace_model():
    """A 4-treatment model and a query that marginalizes three of them."""
    anm = scm.random_anm(Dag(4, {(0, 1), (1, 2), (0, 3)}), seed=5)
    datasets = [scm.sample(anm, s, "std_normal", 500, k)
                for k, s in enumerate(core_intervention_plan(anm.graph))]
    return estimation.fit_model(anm.graph, datasets), estimation.AceQuery(4, {0: 1.0})


def ace_faults(model, q, seed):
    """Minor page faults of one 50,000-row ace call after a warm-up call."""
    estimation.ace(model, q, 50_000, seed)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimation.ace(model, q, 50_000, seed + 1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@glibc_only
def test_worker_ace_reuses_freed_pages(forking):
    # glibc's defaults fault about 800 fresh pages into every such call
    model, q = ace_model()
    faults = forked_map(lambda seed: ace_faults(model, q, seed), [1, 2])
    assert all(f < 100 for f in faults), faults


def test_workers_without_mallopt_give_the_same_results(forking, monkeypatch):
    monkeypatch.setattr(util, "_libc", lambda: types.SimpleNamespace())
    assert util._mallopt() is None
    model, q = ace_model()
    inline = [estimation.ace(model, q, 20_000, seed) for seed in (1, 2, 3)]
    out = forked_map(lambda seed: (estimation.ace(model, q, 20_000, seed), os.getpid()), [1, 2, 3])
    assert [est for est, _ in out] == inline
    assert os.getpid() not in {pid for _, pid in out}


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

import ctypes
import os
import sys
import threading
import time

import numpy as np
import pytest

from whaledet import parallel
from whaledet.evaluate import run_monte_carlo
from whaledet.parallel import (
    available_memory,
    cgroup_cpu_limit,
    default_jobs,
    map_chunks,
    release_free_heap,
    threads_within_memory,
    usable_cpus,
)

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool map_chunks starts."""
    sizes = []

    class RecordingPool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    return sizes


def set_jobs(monkeypatch, jobs):
    monkeypatch.setattr(parallel, "default_jobs", lambda: jobs)


def test_jobs_far_above_items_make_one_chunk_per_item(monkeypatch, pools):
    threads = set()

    def work(indices):
        threads.add(threading.get_ident())
        return list(indices)

    set_jobs(monkeypatch, 10**9)
    chunks = map_chunks(work, 3)
    assert pools == [3]  # one thread per item, not one per job
    assert sorted(i for chunk in chunks for i in chunk) == [0, 1, 2]
    assert len(chunks) == 3 and len(threads) <= 3


def test_one_chunk_runs_in_the_calling_thread(monkeypatch, pools):
    set_jobs(monkeypatch, 1)
    assert map_chunks(lambda r: (threading.get_ident(), list(r)), 4) == \
        [(threading.get_ident(), [0, 1, 2, 3])]
    assert pools == []


def test_failing_chunk_stops_the_others_and_its_error_surfaces(monkeypatch):
    done = []

    def work(indices):
        seen = []
        for i in indices:
            if i == 20:
                raise ValueError("fold 20 failed")
            time.sleep(0.005)
            seen.append(i)
        done.append(len(seen))
        if len(seen) < 380:  # cut short: the error this provokes is masked
            raise RuntimeError("chunk cut short")
        return seen

    set_jobs(monkeypatch, 2)
    with pytest.raises(ValueError, match="fold 20 failed"):
        map_chunks(work, 400)
    # the other thread took at most one more index after the failure
    assert len(done) == 1 and done[0] <= 21


def test_a_slow_thread_takes_fewer_items(monkeypatch):
    # with a fixed split each thread would take 20 of the 40 items
    taken = {}
    lock = threading.Lock()

    def work(indices):
        with lock:  # the first thread to start is the slow one
            slow = not taken
            mine = taken.setdefault(threading.get_ident(), [])
        for i in indices:
            mine.append(i)
            time.sleep(0.05 if slow else 0.001)

    set_jobs(monkeypatch, 2)
    map_chunks(work, 40)
    counts = sorted(len(items) for items in taken.values())
    assert sum(counts) == 40 and counts[0] < 10


def test_every_index_goes_to_exactly_one_thread_under_contention(
        monkeypatch):
    # more threads than CPUs, switching after every few bytecodes: a lost
    # update of the shared counter would repeat or drop an index
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        set_jobs(monkeypatch, 16)
        start = time.monotonic()
        chunks = map_chunks(list, 20000)
        assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(20000))


def test_cgroup_cpu_limit(tmp_path):
    assert cgroup_cpu_limit(tmp_path) is None
    (tmp_path / "cpu").mkdir()
    (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("-1\n")
    (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
    assert cgroup_cpu_limit(tmp_path) is None
    (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("200000\n")
    assert cgroup_cpu_limit(tmp_path) == 2
    (tmp_path / "cpu.max").write_text("max 100000\n")  # v2 wins over v1
    assert cgroup_cpu_limit(tmp_path) is None
    (tmp_path / "cpu.max").write_text("150000 100000\n")
    assert cgroup_cpu_limit(tmp_path) == 2


def test_usable_cpus_keep_to_the_cgroup_quota(monkeypatch):
    monkeypatch.setattr(parallel, "cgroup_cpu_limit", lambda: 1)
    assert usable_cpus() == 1
    monkeypatch.setattr(parallel, "cgroup_cpu_limit", lambda: None)
    assert usable_cpus() >= 1


def test_default_jobs_share_the_cpus_with_blas_threads(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    assert default_jobs() == 1  # BLAS already starts one thread per CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert default_jobs() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert default_jobs() == 8
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "lots")  # not a number
    assert default_jobs() == 2
    monkeypatch.setenv("MKL_NUM_THREADS", "16")
    assert default_jobs() == 1


def test_available_memory(tmp_path):
    meminfo = tmp_path / "meminfo"
    assert available_memory(tmp_path, meminfo) == float("inf")
    meminfo.write_text("MemTotal: 8000 kB\nMemAvailable: 4000 kB\n")
    assert available_memory(tmp_path, meminfo) == 4000 * 1024
    (tmp_path / "memory").mkdir()
    (tmp_path / "memory" / "memory.limit_in_bytes").write_text("3000000\n")
    (tmp_path / "memory" / "memory.usage_in_bytes").write_text("1000000\n")
    assert available_memory(tmp_path, meminfo) == 2000000
    (tmp_path / "memory.max").write_text("max\n")  # v2, no limit
    (tmp_path / "memory.current").write_text("1000000\n")
    assert available_memory(tmp_path, meminfo) == 2000000
    (tmp_path / "memory.max").write_text("1500000\n")
    assert available_memory(tmp_path, meminfo) == 500000


def test_threads_within_memory(monkeypatch):
    monkeypatch.setattr(parallel, "available_memory", lambda: 1000)
    assert threads_within_memory(64, 100) == 5
    assert threads_within_memory(3, 100) == 3
    assert threads_within_memory(64, 10**6) == 1
    monkeypatch.setattr(parallel, "available_memory", lambda: float("inf"))
    assert threads_within_memory(64, 10**6) == 64


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or not hasattr(ctypes.CDLL(None), "malloc_trim"),
                    reason="needs /proc/self/statm and glibc's malloc_trim")
def test_release_free_heap_hands_freed_heap_back():
    # 64 KB blocks come from the heap; freeing seven of every eight leaves
    # 448 KB holes between live blocks, which glibc keeps resident
    blocks = [np.ones(8192) for _ in range(640)]  # 40 MB
    kept = blocks[::8]
    del blocks
    before = _resident_bytes()
    release_free_heap()
    assert before - _resident_bytes() > 20 << 20  # of the 35 MB freed
    assert all(b[0] == 1.0 for b in kept)


def test_monte_carlo_threads_keep_within_memory(monkeypatch, pools):
    rng = np.random.default_rng(0)
    labels = np.array([0, 1] * 30)
    X = rng.standard_normal((60, 200))
    # a Gram-path fold (30 <= 200 + 1) holds its 30-row buffer, which the
    # 20 test rows reuse, and svm.train's three 30 x 30 matrices; no
    # augmented 30 x 201 copy
    thread_bytes = 8 * (30 * 200 + 3 * 30 * 30)

    def run(memory):
        monkeypatch.setattr(parallel, "available_memory", lambda: memory)
        return run_monte_carlo(X, labels, n_iter=4, n_train=30, n_test=20,
                               seed=3).counts

    set_jobs(monkeypatch, 4)
    serial = run(3 * thread_bytes)  # room for one thread
    assert pools == []
    # room for two threads, and for one at a budget that kept a separate
    # test buffer, 8 * (30 + 20) * 200 bytes of buffers a thread
    assert np.array_equal(run(4 * thread_bytes), serial)
    assert pools == [2]
    assert np.array_equal(run(100 * thread_bytes), serial)
    assert pools == [2, 4]

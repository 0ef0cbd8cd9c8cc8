import threading
import time

import numpy as np
import pytest

from whaledet import parallel
from whaledet.evaluate import run_monte_carlo
from whaledet.parallel import (
    available_memory,
    cgroup_cpu_limit,
    chunk_ranges,
    default_jobs,
    map_chunks,
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


def test_chunk_ranges_cover_items_in_order():
    assert chunk_ranges(5, 2) == [range(0, 3), range(3, 5)]
    assert chunk_ranges(5, 3) == [range(0, 2), range(2, 4), range(4, 5)]
    assert chunk_ranges(5, 8) == [range(i, i + 1) for i in range(5)]
    assert chunk_ranges(0, 4) == [range(0, 0)]
    with pytest.raises(ValueError):
        chunk_ranges(3, 0)


def set_jobs(monkeypatch, jobs):
    monkeypatch.setattr(parallel, "default_jobs", lambda: jobs)


def test_jobs_far_above_items_make_one_chunk_per_item(monkeypatch, pools):
    threads = set()

    def work(indices):
        threads.add(threading.get_ident())
        return list(indices)

    set_jobs(monkeypatch, 10**9)
    assert map_chunks(work, 3) == [[0], [1], [2]]
    assert pools == [3]
    assert len(threads) <= 3


def test_one_chunk_runs_in_the_calling_thread(monkeypatch):
    set_jobs(monkeypatch, 1)
    assert map_chunks(lambda r: threading.get_ident(), 4) == \
        [threading.get_ident()]


def test_failing_chunk_stops_the_others_and_its_error_surfaces(monkeypatch):
    done = []

    def work(indices):
        seen = []
        for i in indices:
            if i == 200:  # the first item of the second chunk
                raise ValueError("fold 200 failed")
            time.sleep(0.005)
            seen.append(i)
        done.append(len(seen))
        if len(seen) < 200:  # cut short: the error this provokes is masked
            raise RuntimeError("chunk cut short")
        return seen

    set_jobs(monkeypatch, 2)
    with pytest.raises(ValueError, match="fold 200 failed"):
        map_chunks(work, 400)
    assert len(done) == 1 and done[0] < 200


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


def test_monte_carlo_threads_keep_within_memory(monkeypatch, pools):
    rng = np.random.default_rng(0)
    labels = np.array([0, 1] * 30)
    X = rng.standard_normal((60, 200))
    # a Gram-path fold (30 <= 200 + 1) holds its 30- and 20-row buffers and
    # svm.train's three 30 x 30 matrices; no augmented 30 x 201 copy
    thread_bytes = 8 * ((30 + 20) * 200 + 3 * 30 * 30)

    def run(memory):
        monkeypatch.setattr(parallel, "available_memory", lambda: memory)
        return run_monte_carlo(X, labels, n_iter=4, n_train=30, n_test=20,
                               seed=3).counts

    set_jobs(monkeypatch, 4)
    serial = run(3 * thread_bytes)  # room for one thread
    assert pools == []
    # room for two threads, and for one at a budget that also counted an
    # augmented copy, 8 * (2 * 30 + 20) * 200 bytes a thread
    assert np.array_equal(run(4 * thread_bytes), serial)
    assert pools == [2]
    assert np.array_equal(run(100 * thread_bytes), serial)
    assert pools == [2, 4]

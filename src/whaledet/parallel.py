"""Contiguous chunks of independent work on a thread pool.

numpy releases the interpreter lock inside its array kernels, so
synthesized units and noise clips, featurization windows and Monte-Carlo
folds run concurrently on threads.  Each chunk is one contiguous index
range and its results come back in index order, so the output does not
depend on the number of threads.  That number is decided here alone,
from the usable CPUs, the threads each BLAS call may start and the free
memory; restricting the process's CPU affinity (for example with taskset)
lowers it.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

CGROUP = Path("/sys/fs/cgroup")


def _read_words(path: Path) -> list[str]:
    try:
        return path.read_text().split()
    except OSError:
        return []


def cgroup_cpu_limit(root: Path = CGROUP) -> int | None:
    """The CPU quota of the process's cgroup, rounded up to whole CPUs, or
    None when no quota is set (cgroup v2 `cpu.max`, else v1
    `cpu.cfs_quota_us` over `cpu.cfs_period_us`)."""
    words = _read_words(root / "cpu.max") or (
        _read_words(root / "cpu" / "cpu.cfs_quota_us")
        + _read_words(root / "cpu" / "cpu.cfs_period_us"))
    try:
        quota, period = int(words[0]), int(words[1])
    except (IndexError, ValueError):  # "max" or nothing readable
        return None
    if quota <= 0 or period <= 0:  # -1: no v1 quota
        return None
    return math.ceil(quota / period)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    reports one, else the machine's CPU count, lowered to the cgroup's CPU
    quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        cpus = os.cpu_count() or 1
    return min(cpus, cgroup_cpu_limit() or cpus)


def blas_threads() -> int:
    """The threads one BLAS call may start: the first of
    OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and OMP_NUM_THREADS that holds a
    number, else one per usable CPU, as OpenBLAS and MKL default to."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            return max(1, int(os.environ[var]))
        except (KeyError, ValueError):
            continue
    return usable_cpus()


def default_jobs() -> int:
    """Worker threads that, with the BLAS threads each may start, do not
    oversubscribe the usable CPUs: all of them when BLAS runs on one
    thread, one when BLAS already takes every CPU."""
    return max(1, usable_cpus() // blas_threads())


def available_memory(root: Path = CGROUP,
                     meminfo: Path = Path("/proc/meminfo")) -> float:
    """Bytes the process can still allocate: the smaller of the kernel's
    MemAvailable and the cgroup's memory limit less its usage (v2, else
    v1); inf when neither is known."""
    room = math.inf
    with_kb = _read_words(meminfo)
    if "MemAvailable:" in with_kb:
        room = int(with_kb[with_kb.index("MemAvailable:") + 1]) * 1024
    for limit, usage in (("memory.max", "memory.current"),
                         ("memory/memory.limit_in_bytes",
                          "memory/memory.usage_in_bytes")):
        words = _read_words(root / limit) + _read_words(root / usage)
        try:
            room = min(room, int(words[0]) - int(words[1]))
        except (IndexError, ValueError):  # "max", or not this cgroup version
            continue
        break
    return max(room, 0)


def threads_within_memory(jobs: int, bytes_per_thread: int) -> int:
    """jobs, lowered so that the threads' own buffers fit in half the
    memory still available; one thread always runs."""
    room = available_memory() / 2
    if room == math.inf or bytes_per_thread <= 0:
        return jobs
    return min(jobs, max(1, int(room // bytes_per_thread)))


def chunk_ranges(n_items: int, jobs: int) -> list[range]:
    """min(jobs, n_items) contiguous ranges covering range(n_items), sized
    as evenly as possible (one range when n_items is 0)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    k = max(1, min(jobs, n_items))
    size, extra = divmod(n_items, k)  # the first `extra` ranges get one more
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def map_chunks(fn, n_items: int, bytes_per_thread: int = 0) -> list:
    """[fn(iter(r)) for r in chunk_ranges(n_items, jobs)], one thread per
    range, where jobs is default_jobs() lowered by threads_within_memory
    for threads that each hold bytes_per_thread of their own buffers.

    fn receives an iterator over its range's indices.  Once one chunk
    raises, or the caller is interrupted, the other chunks' iterators end
    at their next index, so the error surfaces after at most one more item
    per thread; the first error raised is the one re-raised.  A single
    range runs in the calling thread.
    """
    chunks = chunk_ranges(
        n_items, threads_within_memory(default_jobs(), bytes_per_thread))
    if len(chunks) == 1:
        return [fn(iter(chunks[0]))]
    stop = threading.Event()
    errors = []
    first = threading.Lock()

    def indices(r: range):
        for i in r:
            if stop.is_set():
                return
            yield i

    def run(r: range):
        try:
            return fn(indices(r))
        except BaseException as exc:
            with first:
                if not stop.is_set():  # a later error may come of the stop
                    errors.append(exc)
                    stop.set()
            raise

    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(run, r) for r in chunks]
        try:
            wait(futures)
        except BaseException:  # interrupted while waiting
            stop.set()
            raise
    if errors:
        raise errors[0]
    return [f.result() for f in futures]

"""Independent items of work shared out to a thread pool.

numpy releases the interpreter lock inside its array kernels, so
synthesized units and noise clips, featurization windows and Monte-Carlo
folds run concurrently on threads.  Each thread takes the next index from
one shared counter, so a thread slowed by a costly item or by the host
takes fewer items, and every caller writes item i's result to slot i, so
the output does not depend on the number of threads.  That number is
decided here alone, from the usable CPUs, the threads each BLAS call may
start and the free memory; restricting the process's CPU affinity (for
example with taskset) lowers it.
"""

from __future__ import annotations

import ctypes
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


def release_free_heap() -> None:
    """Hand the freed heap memory that glibc keeps resident back to the OS
    (malloc_trim); nothing under a C library without it."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def threads_within_memory(jobs: int, bytes_per_thread: int) -> int:
    """jobs, lowered so that the threads' own buffers fit in half the
    memory still available; one thread always runs."""
    room = available_memory() / 2
    if room == math.inf or bytes_per_thread <= 0:
        return jobs
    return min(jobs, max(1, int(room // bytes_per_thread)))


def map_chunks(fn, n_items: int, bytes_per_thread: int = 0) -> list:
    """fn(indices) on each of min(jobs, n_items) threads, where jobs is
    default_jobs() lowered by threads_within_memory for threads that each
    hold bytes_per_thread of their own buffers; the list of their results.

    Every thread's iterator yields the next index of range(n_items) not
    yet taken, so each index goes to exactly one thread, in no fixed
    split.  Once one thread raises, or the caller is interrupted, the
    others' iterators end, so the error surfaces after at most one more
    item per thread; the first error raised is the one re-raised.  With a
    single thread, fn runs in the calling thread on iter(range(n_items)).
    """
    jobs = min(threads_within_memory(default_jobs(), bytes_per_thread),
               n_items)
    if jobs <= 1:
        return [fn(iter(range(n_items)))]
    stop = threading.Event()
    errors = []
    lock = threading.Lock()
    taken = iter(range(n_items))  # shared; next() on it runs under lock

    def indices():
        while not stop.is_set():
            with lock:
                i = next(taken, None)
            if i is None:
                return
            yield i

    def run():
        try:
            return fn(indices())
        except BaseException as exc:
            with lock:
                if not stop.is_set():  # a later error may come of the stop
                    errors.append(exc)
                    stop.set()
            raise

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run) for _ in range(jobs)]
        try:
            wait(futures)
        except BaseException:  # interrupted while waiting
            stop.set()
            raise
    if errors:
        raise errors[0]
    return [f.result() for f in futures]

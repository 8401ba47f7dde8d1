"""Worker threads for the dense engine's independent chunks.

Each dense stage does the same work on many independent pieces of the state:
the pulse passes on row slabs and row blocks (``ensemble.apply_pulse``), the
diagonal conjugation, the two purge filters and the readout's purity check on
bands of consecutive rows.  ``run_split`` deals a stage's chunks out in
contiguous runs, one run per worker, and returns when every run is done.
numpy releases the interpreter lock inside its matmul and ufunc loops, so the
runs overlap, and each run makes the same BLAS and ufunc calls on the same
data as one serial loop over the chunks would: the result is byte-identical
for any worker count.

``worker_count`` sets the count: the CPUs this process may run on
(``taskset -c 0`` gives one), capped by the chunk count and by the buffer
budget; the pulse splits only under a one-thread BLAS
(``blas_single_threaded``).  So a stage splits from the size where it
first has two chunks within the budget: n = 9 for the stages that work in
bands of 2^16 elements, n = 10 for the pulse, whose buffers are 1/8 of the
state at n = 9.  A split run was faster from n = 9 up on 2 CPUs
(BENCH_dense_threads.json, per-n table).  One worker runs its one run
inline in the caller, so that is the only path a small register takes; so
does a caller that finds the workers busy with another caller's stage.

The workers are daemon threads, started on the first stage that splits.
Each binds itself to one CPU of the process's affinity mask, worker ``i`` to
the ``i``-th: left to the kernel, a 2-vCPU VM woke both workers of a stage on
one CPU, one after the other, and a split n = 10 run gained nothing
(BENCH_dense_threads.json).  Between stages a worker blocks on a lock and
holds no reference to the last stage's data.  A forked child drops the
parent's workers and starts its own when it first splits.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

# Elements in numpy's ufunc buffer while a worker runs, against numpy's 8192
# (128 kB of complex): each worker thread has its own malloc arena, which
# keeps the largest temporary the thread ever allocated, and the buffer of
# the conjugation's broadcast multiply was the largest, 0.2 MB for two
# workers (dense-n10 peak_rss_mb).  A smaller buffer changes no result.
WORKER_BUFSIZE = 1024

# The workers' buffers together take at most this share of the state's
# 16 N^2 bytes; the pulse's buffers are 1/16 of the state each from n = 10
# up, so a pulse takes at most 3 workers there.
BUFFER_SHARE = 0.2


def band_rows(dim: int) -> int:
    """Rows per band of the stages that work on bands of consecutive rows of
    an N = ``dim`` state: a power of 2 dividing N, with about 2^16 elements
    (1 MB of complex) a band."""
    return min(dim, max(1, (1 << 16) // dim))


def blas_single_threaded() -> bool:
    """Whether the BLAS was told to run one thread: OpenBLAS, which numpy's
    wheels ship, reads ``OPENBLAS_NUM_THREADS``, or failing that
    ``OMP_NUM_THREADS``, when numpy loads.  Workers that call a
    multi-threaded BLAS at once contend with its threads: a split n = 11
    pulse took 160 ms against 44 ms on one worker, so the pulse splits only
    under a one-thread BLAS."""
    return (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")) == "1"


def _affinity() -> list:
    """The CPUs this process may run on, sorted; empty where the platform
    keeps no affinity mask."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def _cpu_count() -> int:
    """How many CPUs this process may run on."""
    return len(_affinity()) or os.cpu_count() or 1


def worker_count(dim: int, chunks: int, buffer_bytes: int = 0) -> int:
    """Workers for a stage of ``chunks`` independent chunks of an N = ``dim``
    state, each worker with its own buffer of ``buffer_bytes``: the CPUs this
    process may run on, at most one per chunk and at most as many as keep
    all buffers within ``BUFFER_SHARE`` of the state, and at least one."""
    if chunks > 1 and buffer_bytes:
        chunks = min(chunks, int(BUFFER_SHARE * 16 * dim * dim) // buffer_bytes)
    return min(chunks, _cpu_count()) if chunks > 1 else 1


class _Worker:
    """One daemon thread that runs one job at a time, bound to ``cpu`` when
    that is not None.  ``go`` and ``done`` are locks used as binary
    semaphores: the caller sets ``job`` and releases ``go``, then acquires
    ``done`` to wait for the job to end."""

    def __init__(self, index: int, cpu):
        self.go = threading.Lock()
        self.done = threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.job = None
        self.error = None
        self.cpu = cpu
        threading.Thread(target=self._loop, name=f"spinparity-worker-{index}", daemon=True).start()

    def _loop(self):
        if self.cpu is not None:
            try:
                os.sched_setaffinity(threading.get_native_id(), {self.cpu})
            except OSError:  # the CPU went away: run unbound
                pass
        while True:
            self.go.acquire()
            job, self.job = self.job, None
            try:
                job[0].run(_run_with_small_buffer, *job[1:])
            except BaseException as exc:  # handed to the caller, which raises it
                self.error = exc
            # drop the job, and the state its closure reaches, before blocking
            del job
            self.done.release()


def _run_with_small_buffer(job, *args):
    """``job(*args)`` with ``WORKER_BUFSIZE`` as numpy's ufunc buffer size,
    set in the run's own context (numpy >= 2) or thread (older numpy)."""
    np.setbufsize(WORKER_BUFSIZE)
    job(*args)


_lock = threading.Lock()  # held by the one caller whose stage the workers run
_workers: list = []


def _reset_after_fork():
    """The child of a fork has none of the parent's threads: forget them."""
    global _lock, _workers
    _lock = threading.Lock()
    _workers = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def run_split(job, workers: int, chunks: int) -> None:
    """Call ``job(i, lo, hi)`` for ``i`` in ``range(workers)``, where the
    ``[lo, hi)`` cover ``range(chunks)`` in contiguous runs, one per worker,
    and return when all are done.  ``i`` picks the worker's own buffer.  One
    worker, workers busy with another caller's stage, or a process that can
    start no thread, runs ``job(0, 0, chunks)`` inline.  Each run sees the caller's context
    variables, among them numpy's error state from numpy 2 on.  An exception
    raised in a run is raised here, after every run has ended."""
    if workers == 1 or not _lock.acquire(blocking=False):
        job(0, 0, chunks)
        return
    try:
        cpus = _affinity()
        while len(_workers) < workers:
            i = len(_workers)
            try:
                _workers.append(_Worker(i, cpus[i % len(cpus)] if cpus else None))
            except RuntimeError:  # no more threads to be had: use those there are
                break
        team = _workers[:workers]
        if not team:
            job(0, 0, chunks)
            return
        workers = len(team)
        context = contextvars.copy_context()
        try:
            for i, w in enumerate(team):
                w.job = (context.copy(), job, i, chunks * i // workers, chunks * (i + 1) // workers)
                w.go.release()
            del job, context
            for w in team:
                w.done.acquire()
        except BaseException:
            # interrupted (KeyboardInterrupt) with runs in flight: drop the
            # jobs not yet taken, leave the runs to end on their own and
            # start fresh workers for the next stage
            for w in team:
                w.job = None
            _workers.clear()
            raise
        errors = [w.error for w in team if w.error is not None]
        for w in team:
            w.error = None
    finally:
        _lock.release()
    if errors:
        raise errors[0]

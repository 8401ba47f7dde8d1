"""Worker threads for the dense engine's independent chunks.

Each dense stage does the same work on many independent pieces of the state:
the pulse passes on row slabs and on column chunks of row blocks
(``ensemble.apply_pulse``), the diagonal conjugation, the two purge filters
and the readout's purity check on bands of consecutive rows, ``band_rows``
high at any worker count.  ``run_split`` deals a stage's chunks out in
contiguous runs, one per worker, and returns when every run is done.  numpy
releases the interpreter lock inside its matmul and ufunc loops, so the runs
overlap.  Each chunk's result depends on that chunk's data alone, even where
the calls made for it depend on the data (the readout's exact-zero screen,
``ensemble._off_diagonal_max``): the result is byte-identical for any worker
count.

``worker_count`` sets the count: the CPUs this process may run on
(``taskset -c 0`` gives one), capped by the chunk count and by the buffer
budget; the pulse splits only under a one-thread BLAS
(``blas_single_threaded``).  So every stage splits from n = 9, where it
first has two chunks within the budget: the banded stages work in bands of
2^16 elements, and a pulse buffer is 1/16 of the state (1/4 at n = 8).  A
split run was faster from n = 9 up on 2 CPUs (BENCH_dense_threads.json,
per-n table), and so was a split n = 9 pulse (BENCH_pulse_memory.json).
One worker runs its one run inline in the caller: a small register's path.

The workers are daemon threads, started on the first stage that splits,
each with its own job queue: run ``i`` of every split goes to worker ``i``,
which binds itself to the ``i``-th CPU of the process's affinity mask.  Left
to the kernel, a 2-vCPU VM woke both workers of a stage on one CPU, one
after the other, and a split n = 10 run gained nothing
(BENCH_dense_threads.json).  Between runs a worker blocks on its queue and
holds no reference to the last run's data.  Callers that split at once
queue their runs behind each other's, and an interrupted caller's runs end
on their own, ahead of the next split's.  A forked child drops the parent's
workers and starts its own when it first splits.
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
# 16 N^2 bytes; a pulse worker's buffer is 1/16 of the state at n = 9, so a
# pulse takes at most 3 workers there, and 1/64 at n = 10 (12 workers).
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


def _work(jobs, cpu) -> None:
    """A worker's loop: bound to ``cpu`` when that is not None, run each
    ``(context, job, args, done)`` from ``jobs`` as ``job(*args)`` in
    ``context`` and put None, or the exception it raised, on ``done``."""
    if cpu is not None:
        try:
            os.sched_setaffinity(threading.get_native_id(), {cpu})
        except OSError:  # the CPU went away: run unbound
            pass
    while True:
        context, job, args, done = jobs.get()
        try:
            context.run(_run_with_small_buffer, job, *args)
            error = None
        except BaseException as exc:  # handed to the caller, which raises it
            error = exc
        # drop the run, and the state its closure reaches, before reporting,
        # and the report, whose traceback may reach it too, after
        del context, job, args
        done.put(error)
        del done, error


def _run_with_small_buffer(job, *args):
    """``job(*args)`` with ``WORKER_BUFSIZE`` as numpy's ufunc buffer size,
    set in the run's own context (numpy >= 2) or thread (older numpy)."""
    np.setbufsize(WORKER_BUFSIZE)
    job(*args)


_lock = threading.Lock()  # held while workers start
_queues: list = []  # worker i's job queue


def _reset_after_fork():
    """The child of a fork has none of the parent's threads: forget them."""
    global _lock, _queues
    _lock = threading.Lock()
    _queues = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _start(workers: int) -> None:
    """Start workers until there are ``workers``, or no more threads can
    start."""
    # queue is imported here, not with the module: a process that never
    # splits, as the solver's, keeps 0.25 MB of peak RSS (solve-n10)
    from queue import SimpleQueue

    with _lock:
        cpus = _affinity()
        while len(_queues) < workers:
            i, jobs = len(_queues), SimpleQueue()
            cpu = cpus[i % len(cpus)] if cpus else None
            try:
                threading.Thread(target=_work, args=(jobs, cpu), name=f"spinparity-worker-{i}", daemon=True).start()
            except RuntimeError:  # no more threads to be had: use those there are
                return
            _queues.append(jobs)


def run_split(job, workers: int, chunks: int) -> None:
    """Call ``job(i, lo, hi)`` for ``i`` in ``range(workers)``, where the
    ``[lo, hi)`` cover ``range(chunks)`` in contiguous runs, one per worker,
    and return when all are done.  ``i`` picks the worker's own buffer.  One
    worker, or a process that can start no thread, runs ``job(0, 0, chunks)``
    inline.  Each run sees the caller's context variables, among them
    numpy's error state from numpy 2 on.  An exception raised in a run is
    raised here, after every run has ended.  A run must not split again: it
    would wait on its own worker's queue."""
    if workers > 1 and len(_queues) < workers:
        _start(workers)
    queues = _queues[:workers]
    if workers == 1 or not queues:
        job(0, 0, chunks)
        return
    from queue import SimpleQueue  # see _start

    workers = len(queues)
    context = contextvars.copy_context()
    done = SimpleQueue()
    for i, jobs in enumerate(queues):
        jobs.put((context.copy(), job, (i, chunks * i // workers, chunks * (i + 1) // workers), done))
    errors = [error for error in (done.get() for _ in queues) if error is not None]
    if errors:
        raise errors[0]

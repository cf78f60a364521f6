"""A second process on a second CPU: ``Worker``, and its two uses.

``Worker`` is the one way lbmlab starts a process: it forks, pins the worker
and this process to CPUs of their own, and on every way out reaps the worker
and restores this process's CPU mask.  ``fork_worker`` starts one where this
process may run on two CPUs.

* ``Team``: two processes stepping one ``scheme.run`` call on shared
  buffers.  ``scheme.run`` imports this module only where two processes can
  pay (``scheme.TEAM_NODES`` and ``scheme.TEAM_UPDATES``) and asks
  ``team_for`` whether they can run.  Both processes call ``scheme._sweep``
  and ``scheme._stream_rows``, on their halves of the nodes (``halves``) and
  of the populations, so every value is computed as on one process.
* The writer of ``lbmlab run``: ``cli.cmd_run`` imports this module only on a
  grid of at least ``cli.WRITER_NODES`` nodes, and a worker writes the moment
  fields while this process writes the checkpoint.
"""

from __future__ import annotations

import _signal
import gc
import math
import mmap
import os

import numpy as np

from .errors import LbmError
from .scheme import (
    CACHE_LINE,
    _chunks,
    _collide_scratch,
    _populations_first,
    _stream_rows,
    _sweep,
)

# Spin reads of the other process's counter before each os.sched_yield.
SPINS = 1000

# Slots of ``Team``'s int64 control page: the phase this process posted, on
# one cache line; the phase the worker finished and the last phase its blocks
# failed in, on the next.  Posting STOP ends the worker.
POSTED, DONE, FAILED = 0, CACHE_LINE // 8, CACHE_LINE // 8 + 1
STOP = 1 << 62


def halves(nodes: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The (start, stop) blocks each process sweeps of ``nodes`` nodes: the
    ``_chunks`` of the first ``nodes // 2`` and of the rest, offset by it, so
    the two halves differ by at most one node.  With at least 4 nodes, no
    block is narrower than two (see ``_chunks``)."""
    half = nodes // 2
    return _chunks(half), tuple((start + half, stop + half)
                                for start, stop in _chunks(nodes - half))


def _cpus():
    """This process's CPU mask, or None where it may not fork a worker onto a
    second CPU: without ``os.fork`` or ``os.sched_getaffinity``, or with one
    CPU in the mask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    return cpus if len(cpus) >= 2 else None


def fork_worker(body):
    """A ``Worker`` running ``body()``, or None to do the work on one
    process: where ``_cpus`` finds no second CPU, or when the fork fails."""
    cpus = _cpus()
    if cpus is None:
        return None
    try:
        return Worker(body, cpus)
    except OSError:
        return None


def team_for(state, vs, mm, model, params):
    """A ``Team`` for ``run``'s call, or None to step on one process: off
    x86-64 (the barrier needs its store order), where ``_cpus`` finds no
    second CPU, or when the mapping or the fork fails."""
    cpus = _cpus()
    if cpus is None or os.uname().machine != "x86_64":
        return None
    try:
        return Team(state, vs, mm, model, params, cpus)
    except OSError:
        return None


class Worker:
    """A forked process running ``body()`` on the second CPU of ``cpus``,
    while this process runs on the first.

    Without pinning, a fresh process often ran both on one CPU and gained
    nothing.  The worker disables the garbage collector, so that no finalizer
    of the garbage copied at the fork runs twice, and ignores SIGINT: an
    interrupt is this process's to handle, and it stops the worker.  It ends
    in ``os._exit``, with status 0 if ``body`` returned and 1 if it raised,
    and so runs no exit handler and flushes no buffer of this process.
    ``reap`` waits for it and restores this process's mask ``cpus``.  As a
    context manager, the worker is reaped when the block ends, and killed
    first if the block raises.
    """

    def __init__(self, body, cpus):
        first, second = sorted(cpus)[:2]
        self.cpus = cpus
        self.status = None
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                # _signal, the module under signal, is loaded at start-up;
                # importing signal here took 3 ms of copied pages
                gc.disable()
                _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
                pin(second)
                body()
                status = 0
            finally:
                os._exit(status)
        pin(first)

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        self.reap(kill=kind is not None)

    def poll(self):
        """The worker's wait status if it has exited, reaping it; else None."""
        if self.status is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.status = status
        return self.status

    def reap(self, kill: bool = False) -> int:
        """Wait for the worker, after killing it if ``kill``, restore this
        process's CPU mask, and return the worker's wait status.  If the wait
        raises, an interrupt included, the worker is killed and reaped first,
        so that it outlives no failed command."""
        try:
            if self.status is None:
                if kill:
                    os.kill(self.pid, _signal.SIGKILL)
                try:
                    self.status = os.waitpid(self.pid, 0)[1]
                except ChildProcessError:
                    raise                    # reaped elsewhere: the pid is not ours
                except BaseException:
                    os.kill(self.pid, _signal.SIGKILL)
                    self.status = os.waitpid(self.pid, 0)[1]
                    raise
        finally:
            os.sched_setaffinity(0, self.cpus)
        return self.status


class Team:
    """This process and one forked worker, stepping one ``run`` call.

    ``collided``, ``streamed`` and an int64 control page are one anonymous
    shared mapping, each starting on a page; all else the worker reads, the
    input included, is its copy of this process's memory at the fork.  Each
    kernel call is a phase: ``go`` posts its number, both processes do their
    half (``blocks``, from ``halves``, or ``rows``), and ``join`` waits until
    the worker posts the number back.  The worker then waits for the next
    post, so the two counters are a barrier.  It rests on x86-64's total
    store order: the buffer stores made before a counter is posted are
    visible to whoever reads that counter.  A waiter spins SPINS reads, then
    yields between reads and checks the other side: the worker exits if its
    parent changes, and this process raises ``LbmError`` if the worker has
    died.  The worker is a ``Worker``.  If the worker's blocks raise, it posts
    the phase as failed, and ``collide`` sweeps them again here to raise the
    same error; this process's block scratch holds the widest block of either
    half.
    """

    def __init__(self, state, vs, mm, model, params, cpus):
        nj, grid = state.f.shape[-1], state.grid_shape
        nodes = math.prod(grid)
        span = -(-nj * nodes * 8 // mmap.PAGESIZE) * mmap.PAGESIZE
        self._shared, self._span = mmap.mmap(-1, 2 * span + mmap.PAGESIZE), span
        self.collided, self.streamed = (
            np.frombuffer(self._shared, np.float64, nj * nodes, k * span)
            .reshape(nj, nodes) for k in (0, 1))
        self._control = memoryview(self._shared)[2 * span:].cast("q")
        self.blocks = halves(nodes)
        self.rows = range((nj + 1) // 2), range((nj + 1) // 2, nj)
        self.phase = 0
        self._parent = os.getpid()
        self._worker = Worker(
            lambda: self._serve(_populations_first(state.f).reshape(nj, nodes), vs,
                                mm, model, params, state.steps, grid), cpus)

    def go(self) -> None:
        """Post the next phase: the source of its kernel is ready."""
        self.phase += 1
        self._control[POSTED] = self.phase

    def join(self) -> bool:
        """Wait until the worker has done the posted phase; True if its
        blocks failed in it."""
        self._wait_past(DONE, self.phase - 1, self._worker_alive)
        return self._control[FAILED] == self.phase

    def close(self) -> None:
        """Stop and reap the worker, restore this process's CPU mask, and free
        the pages of ``collided``: ``run``'s result is a view of ``streamed``,
        which keeps the whole mapping alive."""
        self._control[POSTED] = STOP
        self._worker.reap()
        self._shared.madvise(mmap.MADV_REMOVE, 0, self._span)

    def _wait_past(self, slot: int, value: int, alive) -> int:
        control = self._control
        spins = 0
        while control[slot] <= value:
            spins += 1
            if spins > SPINS:
                os.sched_yield()
                alive()
        return control[slot]

    def _worker_alive(self) -> None:
        status = self._worker.poll()
        if status is not None:
            raise LbmError(f"the stepping worker exited (wait status {status}) "
                           f"in phase {self.phase} of run")

    def _parent_alive(self) -> None:
        if os.getppid() != self._parent:
            raise LbmError("the process that forked this stepping worker is gone")

    def _serve(self, src, vs, mm, model, params, steps, grid) -> None:
        """The worker: per step, sweep its blocks of ``src`` (the input, then
        ``streamed``) and stream its rows, each after its post, until STOP."""
        control, blocks, rows = self._control, self.blocks[1], self.rows[1]
        shape = (len(self.collided), *grid)
        scratch = _collide_scratch(len(self.collided), blocks)
        while self._next():
            try:
                _sweep(src, self.collided, scratch, blocks, mm, model, params, steps,
                       grid)
            except Exception:
                control[FAILED] = self.phase
            control[DONE] = self.phase
            if not self._next():
                return
            _stream_rows(vs, self.streamed.reshape(shape), self.collided.reshape(shape),
                         rows)
            control[DONE] = self.phase
            src, steps = self.streamed, steps + 1

    def _next(self) -> bool:
        """The worker: wait for the next post; False if it is STOP."""
        self.phase = self._wait_past(POSTED, self.phase, self._parent_alive)
        return self.phase != STOP


def pin(cpu: int) -> None:
    """Run the calling process on ``cpu`` only, where allowed: for speed only."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass

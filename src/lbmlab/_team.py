"""Two processes stepping one ``scheme.run`` call on shared buffers.

``scheme.run`` imports this module only for a grid of at least two blocks
and at least two steps, where two processes can pay, and asks ``team_for``
whether they can run.  Both processes call ``scheme._sweep`` and
``scheme._stream_rows``, on their halves of the blocks and of the
populations, so every value is computed as on one process.
"""

from __future__ import annotations

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


def team_for(state, vs, mm, model, params):
    """A ``Team`` for ``run``'s call, or None to step on one process: without
    ``os.fork`` or ``os.sched_getaffinity``, off x86-64 (the barrier needs its
    store order), with one CPU in this process's mask, or when the mapping or
    the fork fails."""
    if not hasattr(os, "fork") or os.uname().machine != "x86_64":
        return None
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2:
        return None
    try:
        return Team(state, vs, mm, model, params, cpus)
    except OSError:
        return None


class Team:
    """This process and one forked worker, stepping one ``run`` call.

    ``collided``, ``streamed`` and an int64 control page are one anonymous
    shared mapping, each starting on a page; all else the worker reads, the
    input included, is its copy of this process's memory at the fork.  Each
    kernel call is a phase: ``go`` posts its number, both processes do their
    half (``blocks`` or ``rows``), and ``join`` waits until the worker posts
    the number back.  The worker then waits for the next post, so the two
    counters are a barrier.  It rests on x86-64's total store order: the
    buffer stores made before a counter is posted are visible to whoever
    reads that counter.  A waiter spins SPINS reads, then yields between
    reads and checks the other side: the worker exits if its parent changes,
    and this process raises ``LbmError`` if the worker has died.  Without
    pinning, a fresh process often ran both on one CPU and gained nothing.
    If the worker's blocks raise, it posts the phase as failed, and
    ``collide`` sweeps them again here to raise the same error.
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
        blocks = _chunks(nodes)
        self.blocks = blocks[:len(blocks) // 2], blocks[len(blocks) // 2:]
        self.rows = range((nj + 1) // 2), range((nj + 1) // 2, nj)
        self.phase = 0
        self._cpus = cpus
        first, second = sorted(cpus)[:2]
        self._parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                import gc
                import signal

                # no finalizer of the garbage copied at the fork runs twice, and
                # an interrupt is the caller's to handle, which stops this worker
                gc.disable()
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                pin(second)
                self._serve(_populations_first(state.f).reshape(nj, nodes), vs, mm,
                            model, params, state.steps, grid)
                status = 0
            finally:
                os._exit(status)
        pin(first)

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
        try:
            if self.pid is not None:
                self._control[POSTED] = STOP
                os.waitpid(self.pid, 0)
                self.pid = None
        finally:
            os.sched_setaffinity(0, self._cpus)
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
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid:
            self.pid = None
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
        scratch = _collide_scratch(*self.collided.shape)
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

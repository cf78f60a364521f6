"""A second process on a second CPU: when, where and how lbmlab forks one.

Every rule of lbmlab's second process lives here.  ``scheme.run`` asks
``team_for`` for a ``Team``, two processes stepping one call on shared
buffers: both call ``scheme._sweep`` and ``scheme._stream_rows`` on their
halves of the nodes (``halves``) and of the populations, so every value is
computed as on one process.  ``lbmlab run`` writes its two files through
``write_both``.  Each forks only where its thresholds (``TEAM_NODES``,
``TEAM_UPDATES``, ``WRITER_NODES``) say that a worker pays, and only through
one gate, ``_forked``.  ``places`` keeps this process on the CPU it runs on
and puts the worker on the next CPU of the mask; each is pinned there,
because unpinned, a fresh process often ran both on one CPU and gained
nothing.  ``Worker.reap`` restores this process's mask on every way out.

Only the calling thread is pinned, so OpenBLAS's helper threads are not, and
they stalled the worker's CPU; ``import lbmlab`` asks for one BLAS thread
unless the user set a count (see ``lbmlab/__init__.py``).  The thresholds
below were measured, and the benchmark runs, with one BLAS thread.
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

# Fewest nodes ``run`` steps on two processes.  Per step of run(N - 1) on an
# N x 8 D2Q9 grid on a 2-vCPU Xeon, fork and reap included, two processes
# took 0.94-1.54 times one process's median time at 1,024 nodes, 0.79-0.82 at
# 2,048 and 0.71-0.73 at 4,096, in three rounds of 15-21 interleaved calls
# (one process: 122-193, 250-265 and 352-415 us per step).  Those calls were
# short; over 2^19 node updates (4.7M population updates, past TEAM_UPDATES),
# in rounds of 9 alternating calls with single-threaded BLAS, two processes
# took 0.94, 1.09 and 1.11 times one process's time at 256 nodes, 0.88-0.99
# at 512, 0.84-0.87 at 1,024 and 0.82-0.88 at 1,536.  So a floor is needed;
# it could sit as low as 512 nodes, and stays at 2,048, where the short calls
# above gained too.
TEAM_NODES = 2048

# Fewest population updates, steps times nodes times populations (J + 1), of
# a ``run`` call on two processes: below it the fork and reap cost more than
# the second CPU saves.  A step's work grows with J + 1, so the same node
# updates pay on D2Q9 and not on D1Q3: at 2^18 node updates, two processes
# took 1.54 times one process's time on D1Q3 16,384 nodes, and 1.01-1.22 on
# D2Q9 128 x 128 and 256 x 256.  At the fewest steps past 2^22 population
# updates, in 9-11 alternating calls per grid on the Xeon above with
# single-threaded BLAS, they took:
#
#   D2Q9  256 x 8, 228 steps  0.84-0.86 (1.04 in one round of four)
#         512 x 8, 114        0.79        128 x 128, 29   0.81
#         181 x 181, 15       0.77-0.93   256 x 256, 8    0.86
#   D1Q3  16,384 nodes, 86    0.74        65,536, 22      0.73
#         262,144, 6          0.83
#
# One step never forks: on 700 x 700 D2Q9, 4.4M population updates, two
# processes took 1.31 times one process's time for one step, 0.98 for two.
TEAM_UPDATES = 2 ** 22

# Fewest nodes of a grid whose moment fields ``lbmlab run`` writes in a worker
# process while it writes the checkpoint (see ``write_both``).  The
# forked write's median time over the serial one's, in 15 alternating calls
# per grid on a 2-vCPU Xeon, fork and reap included: D2Q9 1.05-1.17 at 4,096
# nodes, 0.87 at 6,084, 0.75-0.83 at 8,281, 0.65-0.68 at 16,384 and 0.61 at
# 65,536; D1Q3, whose rows are shorter, 1.08-1.09 at 8,192, 1.13 at 12,288,
# 0.93-0.95 at 16,384, 0.80 at 24,576 and 0.55 at 65,536.
WRITER_NODES = 16384

# Spin reads of the other process's counter before each os.sched_yield.
SPINS = 1000

# Slots of ``Team``'s int64 control page: the last phase this process
# passed, on one cache line; the last phase the worker passed and the phase
# its blocks failed in, on the next.
PARENT, WORKER, FAILED = 0, CACHE_LINE // 8, CACHE_LINE // 8 + 1


def halves(nodes: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The (start, stop) blocks each process sweeps of ``nodes`` nodes: the
    ``_chunks`` of the first ``nodes // 2`` and of the rest, offset by it, so
    the two halves differ by at most one node.  With at least 4 nodes, no
    block is narrower than two (see ``_chunks``)."""
    half = nodes // 2
    return _chunks(half), tuple((start + half, stop + half)
                                for start, stop in _chunks(nodes - half))


def team_for(state, n_steps, vs, mm, model, params):
    """A ``Team`` for ``scheme.run``'s call of ``n_steps`` steps from
    ``state``, or None to step on this process alone: for one step, fewer
    than ``TEAM_NODES`` nodes or ``TEAM_UPDATES`` population updates, off
    x86-64 (the barrier needs its store order), or where ``_forked`` finds
    no second CPU or the mapping or the fork fails."""
    nodes = math.prod(state.grid_shape)
    if (n_steps < 2 or nodes < TEAM_NODES
            or n_steps * state.f.shape[-1] * nodes < TEAM_UPDATES
            or os.uname().machine != "x86_64"):
        return None
    return _forked(lambda cpus: Team(state, n_steps, vs, mm, model, params, cpus))


def write_both(nodes: int, here, there) -> None:
    """Call ``here()`` on this process and ``there()`` in a worker at the same
    time, for files of a grid of ``nodes`` nodes; one after the other here
    below ``WRITER_NODES`` nodes or where ``_forked`` allows no worker.  If
    the worker fails, ``there()`` runs here and raises what it raises; if
    ``here()`` raises, an interrupt included, the worker is killed and
    reaped."""
    worker = (_forked(lambda cpus: Worker(there, cpus))
              if nodes >= WRITER_NODES else None)
    if worker is None:
        here()
        there()
        return
    with worker:
        here()
    if worker.status != 0:
        there()


def _forked(start):
    """``start(cpus)``, which forks a worker onto a second CPU of this
    process's mask ``cpus``; None where there is no second CPU (no
    ``os.fork``, no ``os.sched_getaffinity`` or one CPU in the mask) or when
    ``start`` raises ``OSError``."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return None
    try:
        return start(cpus)
    except OSError:
        return None


def places(cpus) -> tuple[int, int]:
    """The CPUs of the mask ``cpus`` for this process and its worker: the one
    this process runs on (the lowest where that is unknown or outside the
    mask), and the next in the mask after it, wrapping around."""
    order = sorted(cpus)
    here = _current_cpu()
    first = here if here in cpus else order[0]
    return first, order[(order.index(first) + 1) % len(order)]


def _current_cpu():
    """The CPU the calling thread runs on, field 39 of its /proc stat, or
    None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            # fields from the third on follow the ")" that ends the command name
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class Worker:
    """A forked process running ``body()``; it and this process are each
    pinned to a CPU of the mask ``cpus`` (``places``).

    The worker disables the garbage collector, so that no finalizer of the
    garbage copied at the fork runs twice, and ignores SIGINT: an
    interrupt is this process's to handle, and it stops the worker.  It ends
    in ``os._exit``, with status 0 if ``body`` returned and 1 if it raised,
    and so runs no exit handler and flushes no buffer of this process.
    ``reap`` waits for it and restores this process's mask ``cpus``.  As a
    context manager, the worker is reaped when the block ends, and killed
    first if the block raises.
    """

    def __init__(self, body, cpus):
        first, second = places(cpus)
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
    """This process and one forked worker, stepping one ``run`` call of
    ``n_steps`` steps.

    ``collided``, ``streamed`` and an int64 control page are one anonymous
    shared mapping, each starting on a page; all else the worker reads, the
    input included, is its copy of this process's memory at the fork.  Each
    kernel call, collide or stream, is a phase: both processes do their half
    (``blocks``, from ``halves``, or ``rows``), post the phase and wait for
    the other's post (``_post``), one barrier.  The worker steps the call's
    ``n_steps`` steps and ends after its last post.

    One barrier per phase is enough: phase k + 1 writes the buffer that phase
    k read, and neither process starts k + 1 before both have posted k.
    Outside the kernels, ``run`` reads ``streamed`` only after the last phase,
    to check its densities, when the worker writes nothing more.  The barrier
    rests on x86-64's total store order: the buffer stores made before a post
    are visible to whoever reads that post.  A waiter spins SPINS reads, then
    yields between reads and checks the other side: the worker exits if its
    parent changes, and this process raises ``LbmError`` if the worker has
    exited short of the phase.  The worker is a ``Worker``.  Each process
    checks the densities of its own blocks as it sweeps them.  If the worker's
    blocks raise, a non-positive or non-finite density among them, it posts
    the phase as failed and ends, writing nothing more, and ``collide`` sweeps
    them again here to raise the same error at the same node as one process,
    so this process's block scratch ``scratch`` holds the widest block of
    either half.
    """

    def __init__(self, state, n_steps, vs, mm, model, params, cpus):
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
                                mm, model, params, state.steps, grid, n_steps), cpus)
        self.scratch = _collide_scratch(model, self.blocks[0] + self.blocks[1])

    def sync(self) -> bool:
        """Pass the barrier that ends this phase; True if the worker's blocks
        failed in it."""
        self._post(PARENT, WORKER, self._worker_alive)
        return self._control[FAILED] == self.phase

    def close(self) -> None:
        """Kill and reap the worker, which has done its steps or waits in a
        call that failed, restore this process's CPU mask, and free the pages
        of ``collided``: ``run``'s result is a view of ``streamed``, which
        keeps the whole mapping alive."""
        self._worker.reap(kill=True)
        self._shared.madvise(mmap.MADV_REMOVE, 0, self._span)

    def _post(self, mine: int, theirs: int, alive) -> None:
        """Post the next phase in slot ``mine``; wait until ``theirs`` has it."""
        control = self._control
        self.phase += 1
        control[mine] = self.phase
        spins = 0
        while control[theirs] < self.phase:
            spins += 1
            if spins > SPINS:
                os.sched_yield()
                alive()

    def _worker_alive(self) -> None:
        # the worker may post its last phase and exit between the read of its
        # slot and the poll, so its slot is read again after the poll
        status = self._worker.poll()
        if status is not None and self._control[WORKER] < self.phase:
            raise LbmError(f"the stepping worker exited (wait status {status}) "
                           f"in phase {self.phase} of run")

    def _parent_alive(self) -> None:
        if os.getppid() != self._parent:
            raise LbmError("the process that forked this stepping worker is gone")

    def _serve(self, src, vs, mm, model, params, steps, grid, n_steps) -> None:
        """The worker: per step, sweep its blocks of ``src`` (the input, then
        ``streamed``), post, stream its rows and post, ``n_steps`` times."""
        control, blocks, rows = self._control, self.blocks[1], self.rows[1]
        shape = (len(self.collided), *grid)
        scratch = _collide_scratch(model, blocks)
        for _ in range(n_steps):
            try:
                _sweep(src, self.collided, scratch, blocks, mm, model, params, steps,
                       grid)
            except Exception:
                control[FAILED] = self.phase + 1
            self._post(WORKER, PARENT, self._parent_alive)
            if control[FAILED] == self.phase:
                return          # the parent sweeps them again from this source
            _stream_rows(vs, self.streamed.reshape(shape), self.collided.reshape(shape),
                         rows)
            self._post(WORKER, PARENT, self._parent_alive)
            src, steps = self.streamed, steps + 1


def pin(cpu: int) -> None:
    """Run the calling process on ``cpu`` only, where allowed: for speed only."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass

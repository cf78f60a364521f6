"""Time stepping: moment-space relaxation followed by exact streaming.

One step is stream(collide(state)).  Collision is node-local: moments are
formed with M, the non-conserved ones are relaxed toward equilibrium with
per-moment ratios s_k, and populations are rebuilt with the precomputed
M^-1.  Streaming moves each population one link on the periodic grid
(f_j(x) <- f_j(x - e_j)) by copying at most 2^d contiguous blocks per
population, never by interpolation, so transport is exact: the CFL number is
1 in every direction by construction (v_j dt = e_j dx).

Both kernels compute on population-major storage, one row of nodes per
population (Wittmann et al., Comput. Math. Appl. 65 (2013)), so ``run``
steps without copying between layouts and returns the state that the last
``stream`` wrote; see ``SchemeState``.  ``initialize_equilibrium`` builds the
initial state in the same storage, one block of ``_chunks`` at a time, so
the first ``collide`` reads it as it reads every later state.  ``run``
allocates one (J+1, nodes) buffer per call, which the first ``collide``
writes from the input and every later kernel updates in place, and the
scratch of ``collide``'s blocks of at most ``CHUNK_NODES`` nodes, which
``stream`` borrows for one row.  Every buffer the kernels allocate starts
on a cache line (``_aligned_empty``).  ``step`` is ``run`` for one step.

``run`` builds the kernels' views of these buffers and checks the
components once per call (``_Plan``), so a step pays only for arithmetic,
copies and checks; a kernel called alone builds its own plan.

``run`` checks one criterion on every state it steps from and on the state
it returns: every node's density, the sum m_0 of its populations, is finite
and > 0.  ``_Plan.sweep`` applies it to the density row that each block
already forms, before it relaxes the block, so a state that breaks is named
at the step whose ``collide`` first reads it ("non-positive density at node
(4, 0) entering step 7"); any non-finite population makes its node's
density non-finite, so NaN and inf are caught there too.  ``run`` applies
it to the state it returns ("after 6 steps"), zero steps included.  Both go
through ``_check_densities``, which names the first failing node in
row-major order.

A ``run`` call may step on two processes (``_team`` says when and where).
Its results and its errors are the same either way, it leaves no child
process behind, and it never changes this process's CPU mask.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .csvio import format_value, write_table
from .equilibrium import (
    EquilibriumModel,
    _check_density,
    _check_set,
    _fill_populations,
    _population_views,
    _populations,
    _scratch_rows,
)
from .errors import (
    ComponentMismatch,
    InvalidRelaxation,
    LbmError,
    ShapeError,
    SimulationDiverged,
    read_utf8,
)
from .lattice import MomentMatrix, VelocitySet

# Bytes in a cache line; the kernels' buffers start on one (``_aligned_empty``).
CACHE_LINE = 64

# Most nodes ``collide`` works on at a time.  Its scratch for a D2Q9 block of
# 8,192 nodes is 27 rows of 64 KiB, 1.8 MB, so a block's moments, equilibrium
# and M f_eq stay in a 2 MiB L2 from the first matmul to the back-transform.
# On a 2-vCPU Xeon with 2 MiB of L2 per core and every buffer on a cache line,
# a 256x256 D2Q9 step took a median 5.1 ms in blocks of 8,192 nodes, 6.1 ms in
# blocks of 4,096, 7.0 ms in blocks of 16,384, 6.6 ms in blocks of 2,048
# (interpreter overhead per block) and 8.3 ms in one block of 65,536.
CHUNK_NODES = 8192


@dataclass(frozen=True)
class SchemeParams:
    """Space step, time step and relaxation ratios s_k for k = d+1..J."""

    dx: float
    dt: float
    s: np.ndarray

    def __post_init__(self):
        if not (self.dx > 0 and self.dt > 0):
            raise InvalidRelaxation(f"dx and dt must be positive, got {self.dx}, {self.dt}")
        s = np.atleast_1d(np.asarray(self.s, dtype=float)).copy()
        if not np.all((s > 0.0) & (s <= 2.0)):
            raise InvalidRelaxation(
                f"relaxation ratios {s.tolist()} violate the stability bound 0 < s <= 2"
            )
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @property
    def lam(self) -> float:
        return self.dx / self.dt

    @property
    def tau(self) -> np.ndarray:
        """Relaxation times tau_k = dt / s_k."""
        return self.dt / self.s


@dataclass
class SchemeState:
    """Populations on a periodic grid plus an integer step counter.

    ``f`` has shape (*grid_shape, J+1) in every state; its memory order is
    not part of the contract, and every kernel accepts either order.
    ``initialize_equilibrium``, ``collide``, ``stream``, ``step`` and ``run``
    return a view of population-major storage of shape (J+1, nodes), so a run
    of them makes no copy between layouts.  Time is tracked as an integer
    count so long runs accumulate no floating-point drift in t.
    """

    f: np.ndarray
    steps: int = 0

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.f.shape[:-1]


def initialize_equilibrium(model: EquilibriumModel, vs: VelocitySet, W) -> SchemeState:
    """State with f = G(W(x)) at every node and the step counter at zero.

    W has shape (*grid, d+1) and is never written.  G is evaluated by the
    kernel of ``equilibrium_distribution``, with the same values to the last
    bit, one block of ``_chunks`` at a time: each block goes straight into
    its columns of population-major (J+1, nodes) storage through one block
    scratch, both from ``_aligned_empty``.  ``f`` is a (*grid, J+1) view of
    that storage, the layout that ``collide`` and ``stream`` return.
    """
    _check_set(model, vs)
    W = np.asarray(W, dtype=float)
    _check_density(W)
    grid = W.shape[:-1]
    nj, nodes = vs.J + 1, math.prod(grid)
    conserved = np.moveaxis(W, -1, 0).reshape(W.shape[-1], nodes)
    storage = _aligned_empty(nj * nodes).reshape(nj, nodes)
    blocks = _chunks(nodes)
    width = max(stop - start for start, stop in blocks)
    scratch = _aligned_empty(_scratch_rows(model) * width)
    for start, stop in blocks:
        _populations(model, conserved[:, start:stop], storage[:, start:stop], scratch)
    return SchemeState(f=_populations_last(storage.reshape(nj, *grid)), steps=0)


def moments_of(state, mm: MomentMatrix) -> np.ndarray:
    """Per-node moment vectors m = M f, shape (*grid, J+1)."""
    f = state.f if isinstance(state, SchemeState) else np.asarray(state, dtype=float)
    if f.shape[-1] != mm.M.shape[0]:
        raise ShapeError(
            f"expected {mm.M.shape[0]} populations per node, got {f.shape[-1]}"
        )
    return f @ mm.M.T


def relax_update(m, m_eq, s):
    # The update of relaxation_ode_euler_step(), which collide() evaluates in
    # place in the same order: both sides of the explicit-Euler identity must
    # evaluate the exact same expression so the results agree to the last bit.
    return m - s * (m - m_eq)


def relaxation_ode_euler_step(m, m_eq, tau, dt):
    """Explicit Euler step of d/dt (m - m_eq) = -(m - m_eq)/tau.

    Equals the collision update of a single moment bit-for-bit whenever the
    ratio s = dt/tau handed to collide was formed by this same division.
    """
    return relax_update(m, m_eq, dt / tau)


def _check_scales(mm: MomentMatrix, model: EquilibriumModel, params: SchemeParams,
                  nj: int):
    if not np.array_equal(model.velocities, mm.velocities):
        raise ComponentMismatch("equilibrium model and moment matrix use different velocities")
    if abs(params.lam - mm.lam) > 1e-12 * mm.lam:
        raise ComponentMismatch(
            f"params imply lam={params.lam!r} but the moment matrix was built with lam={mm.lam!r}"
        )
    if params.s.shape[0] != mm.J - mm.d:
        raise ShapeError(f"expected {mm.J - mm.d} relaxation ratios, got {params.s.shape[0]}")
    if nj != mm.M.shape[0]:
        raise ShapeError(f"expected {mm.M.shape[0]} populations per node, got {nj}")


def _check_densities(rho: np.ndarray, when: str, steps: int, grid,
                     offset: int = 0) -> None:
    """Raise SimulationDiverged naming the first node of the density row
    ``rho`` whose density is not finite and > 0.

    ``rho`` covers the nodes offset, offset + 1, ... of ``grid`` in row-major
    order.  The message says "non-finite density" or "non-positive density"
    and ends in ``when.format(steps)``, formatted only when raising.
    """
    # two reductions, both false on NaN; the mask is formed only on failure
    if rho.min() > 0.0 and rho.max() < math.inf:
        return
    first = int(np.argmin((rho > 0.0) & (rho < math.inf)))
    problem = "non-positive" if math.isfinite(rho[first]) else "non-finite"
    node = tuple(int(i) for i in np.unravel_index(offset + first, grid))
    raise SimulationDiverged(f"{problem} density at node {node} {when.format(steps)}")


def _populations_first(f: np.ndarray) -> np.ndarray:
    """(J+1, *grid) view of populations f of shape (*grid, J+1)."""
    return f.transpose(f.ndim - 1, *range(f.ndim - 1))


def _populations_last(storage: np.ndarray) -> np.ndarray:
    """(*grid, J+1) view of storage of shape (J+1, *grid)."""
    return storage.transpose(*range(1, storage.ndim), 0)


@functools.lru_cache(maxsize=32)
def _chunks(nodes: int, width: int = CHUNK_NODES) -> tuple[tuple[int, int], ...]:
    """(start, stop) of the blocks ``collide`` sweeps: as few as keep each
    within ``width`` nodes, their widths differing by at most one node.
    ``analysis.conservation_defect`` sweeps blocks of its own ``width``.

    Even widths keep every block of a multi-block grid wider than one node.
    A fixed width would leave 8,193 nodes a one-node last block, and numpy
    multiplies by one column as a matrix-vector product, which rounds
    differently from the matrix product of every wider block.
    """
    count = max(1, -(-nodes // width))
    bounds = [k * nodes // count for k in range(count + 1)]
    return tuple(zip(bounds, bounds[1:]))


def _aligned_empty(size: int) -> np.ndarray:
    """Uninitialized flat float64 array of ``size`` values whose first value
    starts on a CACHE_LINE-byte boundary.

    malloc aligns large blocks to 16 bytes only; a buffer that starts mid-line
    splits every vector load and store of a bandwidth-bound ``collide`` or
    ``stream`` pass across two lines, which made a D2Q9 step on 256x256 or
    512x8 nodes up to a third slower.
    """
    pad = CACHE_LINE // 8
    raw = np.empty(size + pad)
    start = -raw.ctypes.data % CACHE_LINE // 8
    return raw[start:start + size]


def _collide_scratch(model: EquilibriumModel, blocks) -> np.ndarray:
    """Flat scratch for ``collide`` sweeping the (start, stop) ``blocks`` of
    the J+1 = nj populations of ``model``, sized for the widest, and for
    ``stream``: at least one row of the nodes up to the last block's stop.

    For a block of w nodes it holds 2 nj + max(nj, r) rows of w, where r is
    ``_scratch_rows(model)``: the moments m and the equilibrium f_eq, each a
    contiguous (nj, w) array, then rows that serve ``_populations`` as its
    scratch and, once f_eq is formed, hold M f_eq.  That is 27 rows on D2Q9
    (r = 6) and 9 on D1Q3 (r = 3).
    """
    nj = model.J + 1
    width = max(stop - start for start, stop in blocks)
    rows = 2 * nj + max(nj, _scratch_rows(model))
    return _aligned_empty(max(rows * width, blocks[-1][1]))


class _Plan:
    """One process's views of the (*grid, J+1) input ``f``, the (J+1, nodes)
    ``storage`` and a ``_collide_scratch`` for one ``run`` call's kernels:
    the components checked once and, per block, its columns, its m, f_eq and
    M f_eq and their ``_population_views``; per moving row, its ``_moves``.
    Both kernels return ``result``; a ``collide`` given it reads the
    storage, else the input.  ``team`` steps the other blocks and rows."""

    def __init__(self, f, storage, scratch, blocks, rows, vs=None, mm=None,
                 model=None, params=None, team=None):
        nj, grid = f.shape[-1], f.shape[:-1]
        storage = storage.reshape(nj, -1)
        self.storage, self.scratch, self.grid, self.team = storage, scratch, grid, team
        self.result = _populations_last(storage.reshape(nj, *grid))
        self.blocks = []
        if blocks:
            _check_scales(mm, model, params, nj)
            nc = mm.d + 1
            self.M, self.M_inv = mm.M, mm.M_inv
            self.s = params.s[:, None]
            source = _populations_first(f).reshape(nj, -1)
        for start, stop in blocks:
            size = nj * (stop - start)
            m = scratch[:size].reshape(nj, -1)
            f_eq = scratch[size:2 * size].reshape(nj, -1)
            m_eq = scratch[2 * size:3 * size].reshape(nj, -1)
            out = storage[:, start:stop]
            self.blocks.append((
                start, (source[:, start:stop], out), m, m[0],
                _population_views(model, m[:nc], f_eq, scratch[2 * size:]), f_eq,
                m_eq, m_eq[nc:], m[nc:], out))
        self.moves = _moves(vs, storage.reshape(nj, *grid), rows,
                            scratch[:math.prod(grid)].reshape(grid)) if rows else []

    def sweep(self, later: bool, steps: int, blocks=None) -> None:
        """Collide ``blocks`` (all of the plan's by default) after ``steps``
        steps from the storage if ``later``, else from the input, checking
        each block's densities as it reads them; ``collide``'s body."""
        M, M_inv, s, grid = self.M, self.M_inv, self.s, self.grid
        for start, sources, m, rho, equilibrium, f_eq, m_eq, relaxed, moments, out in (
                self.blocks if blocks is None else blocks):
            np.matmul(M, sources[later], out=m)
            _check_densities(rho, "entering step {}", steps + 1, grid, start)
            # All of M, not M[nc:]: with one relaxed row numpy would take a
            # matrix-vector product, whose sums may round differently from f @ M.T's.
            _fill_populations(equilibrium)
            np.matmul(M, f_eq, out=m_eq)
            # relax_update's m - s (m - m_eq), evaluated in place on the relaxed rows
            np.subtract(moments, relaxed, out=relaxed)
            relaxed *= s
            moments -= relaxed
            np.matmul(M_inv, m, out=out)

    def stream_rows(self) -> None:
        """Stream the plan's rows in place; ``stream``'s body."""
        for to, from_ in self.moves:
            to[...] = from_


def collide(state: SchemeState, mm: MomentMatrix, model: EquilibriumModel,
            params: SchemeParams, out=None, scratch=None, *, plan=None) -> SchemeState:
    """Node-local relaxation in moment space; conserved moments are copied.

    m*_k = m_k for k <= d, m*_k = m_k - s_k (m_k - m_eq,k) otherwise, then
    f* = M^-1 m*.  No neighbor access.  Computed population-major, one block
    of ``_chunks`` at a time, with every intermediate of a block in views of
    ``scratch`` (from ``_collide_scratch``) and the back-transform written
    straight into the block's columns of ``out``, a C-contiguous (J+1, nodes)
    array: the input's own storage, updated in place because each block is
    read before its columns are written, or storage apart from it; either is
    allocated, on a cache line, when not given.  The result's ``f`` is a
    (*grid, J+1) view of ``out`` (see ``SchemeState``).  ``plan`` is
    ``run``'s private ``_Plan``; without one, the call builds its own.
    """
    if plan is None:
        f = state.f
        nodes = math.prod(f.shape[:-1])
        if out is None:
            out = _aligned_empty(f.size)
        if scratch is None:
            scratch = _collide_scratch(model, _chunks(nodes))
        plan = _Plan(f, out, scratch, _chunks(nodes), (), None, mm, model, params)
    plan.sweep(state.f is plan.result, state.steps)
    if plan.team is not None:
        failed = plan.team.sync()
        if failed:
            # the worker's blocks from the one that failed raise here as on one process
            _Plan(state.f, plan.storage, plan.scratch, failed, (), None, mm, model,
                  params).sweep(False, state.steps)
    return SchemeState(f=plan.result, steps=state.steps)


def _shifted_blocks(shift: int, n: int):
    """(destination, source) slice pairs of a periodic shift along n nodes."""
    k = shift % n
    if k == 0:
        return ((slice(None), slice(None)),)
    return ((slice(k, None), slice(None, n - k)), (slice(None, k), slice(n - k, None)))


@functools.lru_cache(maxsize=32)
def _stream_plan(rows: tuple, grid: tuple) -> tuple:
    """Per population with lattice vector e in ``rows``, the (destination,
    source) slice tuples of the periodic blocks that shift it by e on grid."""
    return tuple(
        tuple(tuple(zip(*pairs))
              for pairs in itertools.product(*map(_shifted_blocks, e, grid)))
        for e in rows
    )


def _moves(vs: VelocitySet, storage, rows, row) -> list:
    """The (destination, source) views whose copies, in order, stream the
    ``rows`` of ``storage``, (J+1, *grid), in place: each moving row into
    ``row``, a grid of scratch, then each of its blocks back from there."""
    grid = storage.shape[1:]
    plan = _stream_plan(tuple(map(tuple, vs.e.tolist())), grid)
    moves = []
    for j in rows:
        # one block is a shift by whole periods, the rest row's: it stays
        if len(plan[j]) > 1:
            moving = storage[j]
            moves.append((row, moving))
            for to, from_ in plan[j]:
                moves.append((moving[to], row[from_]))
    return moves


def stream(state: SchemeState, vs: VelocitySet, out=None, scratch=None, *,
           plan=None) -> SchemeState:
    """Advect every population one lattice link: f_j(x) <- f_j(x - e_j).

    Each population is copied as at most 2^d periodic blocks, a permutation
    of storage with no arithmetic, so transported values are bit-identical.
    ``out`` is C-contiguous (J+1, nodes) storage, the input's own or apart
    from it, which then first takes a copy of the input; each moving row is
    copied into ``scratch`` and back in its blocks.  Either is allocated, on
    a cache line, when not given.  The result's ``f`` is a (*grid, J+1) view
    of ``out``.  ``plan`` is ``run``'s private ``_Plan``, whose ``result``
    ``state`` is; without one, the call builds its own.
    """
    if plan is None:
        f = state.f
        if f.shape[-1] != vs.J + 1:
            raise ShapeError(f"expected {vs.J + 1} populations per node, got {f.shape[-1]}")
        if out is None:
            out = _aligned_empty(f.size)
        if scratch is None:
            scratch = _aligned_empty(f.size // (vs.J + 1))
        storage = out.reshape(vs.J + 1, *f.shape[:-1])
        if not np.may_share_memory(storage, f):
            storage[...] = _populations_first(f)
        plan = _Plan(f, storage, scratch, (), range(vs.J + 1), vs)
    plan.stream_rows()
    if plan.team is not None:
        plan.team.sync()
    return SchemeState(f=plan.result, steps=state.steps)


def step(state: SchemeState, vs: VelocitySet, mm: MomentMatrix,
         model: EquilibriumModel, params: SchemeParams) -> SchemeState:
    """One full update: collision then streaming; advances the step counter."""
    return run(state, 1, vs, mm, model, params)


def run(state: SchemeState, n_steps: int, vs: VelocitySet, mm: MomentMatrix,
        model: EquilibriumModel, params: SchemeParams) -> SchemeState:
    """Apply n_steps full updates, checking every node's density.

    Each state a step starts from is checked by its ``collide``, and the
    state returned (``state`` itself for zero steps) is checked here: every
    density must be finite and > 0.  Otherwise ``SimulationDiverged`` names
    the first node that fails and the step ("entering step k" or "after n
    steps"); see ``_check_densities``.

    All large storage is allocated once, before the first step, each buffer
    starting on a cache line: one (J+1, nodes) population storage, which the
    first ``collide`` writes from the input and every later kernel updates in
    place, and ``collide``'s block scratch, which ``stream`` borrows for a
    row; their views are built once too, in the kernels' ``_Plan`` ``plan``.
    The result is a (*grid, J+1) view of that storage, as the last
    ``stream`` left it.  The input is never written, and the result shares
    no memory with it; zero steps return ``state`` itself.

    The call may step on two processes (``_team.team_for`` says when and
    where); the result is bit-identical to one process's, on every way out
    no child process is left, and this process's CPU mask is never changed.
    """
    _check_set(model, vs)            # stream follows the links of vs: the model's
    team = None
    try:
        if n_steps > 0:
            from ._team import team_for

            team = team_for(state, n_steps, vs, mm, model, params)
            if team is None:
                nj, nodes = state.f.shape[-1], math.prod(state.grid_shape)
                storage = _aligned_empty(nj * nodes).reshape(nj, nodes)
                blocks = _chunks(nodes)
                scratch, rows = _collide_scratch(model, blocks), range(nj)
            else:
                storage, blocks, rows = team.storage, team.blocks[0], team.rows[0]
                # the worker's blocks too, which this process sweeps if they fail
                scratch = _collide_scratch(model, blocks + team.blocks[1])
            # after any fork, where a failure still reaps the worker
            plan = _Plan(state.f, storage, scratch, blocks, rows, vs, mm, model,
                         params, team)
        for _ in range(n_steps):
            # looked up on the module, where bench/tracing.py counts them; buffers
            # go positionally and the plan by keyword, as a forwarding wrapper passes them
            state = stream(
                collide(state, mm, model, params, storage, scratch, plan=plan),
                vs, storage, scratch, plan=plan)
            state.steps += 1
        # the m_0 that the sweeps check: the density row of M is all ones
        _check_densities(_populations_first(state.f).sum(axis=0).ravel(),
                         "after {} steps", state.steps, state.grid_shape)
    finally:
        if team is not None:
            team.close()
    return state


def conservation_audit(initial: SchemeState, final: SchemeState,
                       mm: MomentMatrix) -> dict:
    """Relative drift of global mass and momentum between two states.

    Momentum drift is measured relative to max(|initial momentum|, mass * lam)
    per component so a zero-mean flow does not divide by zero.

    Each state is reduced to one total per population, a sum along its row
    of (J+1, nodes) storage; mass is the sum of those totals and momentum
    their product with the velocities.  The order of those sums follows the
    storage, so the last digits of a drift depend on the states' layout.
    """
    nj = mm.velocities.shape[0]
    totals0, totals1 = (_populations_first(state.f).reshape(nj, -1).sum(axis=1)
                        for state in (initial, final))
    mass0, mass1 = float(totals0.sum()), float(totals1.sum())
    mom0, mom1 = totals0 @ mm.velocities, totals1 @ mm.velocities
    mass_scale = abs(mass0)
    mom_scale = np.maximum(np.abs(mom0), mass_scale * mm.lam)
    return {
        "mass_drift": abs(mass1 - mass0) / mass_scale,
        "momentum_drift": np.abs(mom1 - mom0) / mom_scale,
    }


# Checkpoints: a '#' metadata line, a header row, then one CSV row per node in
# row-major node order with columns f0..fJ at 17 significant digits.

def save_checkpoint(path, state: SchemeState, params: SchemeParams,
                    mm: MomentMatrix) -> None:
    nj = state.f.shape[-1]
    grid = "x".join(str(n) for n in state.grid_shape)
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"# lbmlab-checkpoint grid={grid} J={nj - 1} "
            f"dt={format_value(params.dt)} lambda={format_value(mm.lam)} "
            f"step={state.steps}\n"
        )
        write_table(fh, [f"f{j}" for j in range(nj)], state.f.reshape(-1, nj))


def load_checkpoint(path) -> tuple[SchemeState, dict]:
    text = read_utf8(path)
    # the first two lines, each ended where a text-mode read with newline="" ends it
    head = re.match(r"([^\r\n]*(?:\r\n?|\n)?)([^\r\n]*(?:\r\n?|\n)?)", text)
    meta_line, header = head.groups()
    if not meta_line.startswith("# lbmlab-checkpoint"):
        raise LbmError(f"{path}: not a checkpoint file")
    meta = dict(re.findall(r"(\w+)=(\S+)", meta_line))
    missing = [key for key in ("grid", "J", "dt", "lambda", "step") if key not in meta]
    if missing:
        raise LbmError(f"{path}: metadata line lacks {', '.join(missing)}")
    info = {
        "grid_shape": _meta_value(path, meta, "grid",
                                  lambda text: tuple(int(n) for n in text.split("x")),
                                  lambda grid: min(grid) >= 1, "at least 1 in every extent"),
        "J": _meta_value(path, meta, "J", int),
        "dt": _meta_value(path, meta, "dt", float, _positive, "finite and > 0"),
        "lambda": _meta_value(path, meta, "lambda", float, _positive, "finite and > 0"),
        "step": _meta_value(path, meta, "step", int, lambda n: n >= 0, ">= 0"),
    }
    grid_shape, nj = info["grid_shape"], info["J"] + 1
    if len(header.strip().split(",")) != nj:
        raise LbmError(f"{path}: header does not match J={nj - 1}")
    rows = [line for line in text[head.end():].splitlines() if line]
    nodes = math.prod(grid_shape)
    if len(rows) != nodes:
        raise LbmError(
            f"{path}: expected {nodes} rows for grid {meta['grid']}, found {len(rows)}"
        )
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if values.shape != (nodes, nj):
            raise ValueError(f"table of shape {values.shape}")
    except ValueError as exc:
        # numpy's parser does not say which row has the wrong width; name it
        for i, row in enumerate(rows):
            if row.count(",") != nj - 1:
                raise LbmError(f"{path}: row {i + 1} has {row.count(',') + 1} "
                               f"columns, expected {nj}") from exc
        raise LbmError(f"{path}: {exc}") from exc
    f = values.reshape(*grid_shape, nj)
    return SchemeState(f=f, steps=info["step"]), info


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _meta_value(path, meta: dict, key: str, convert, valid=None, need: str = ""):
    """``convert(meta[key])``, or an LbmError naming the key if it does not
    parse or, when ``valid`` is given, its value fails that test (``need``
    says what it requires)."""
    try:
        value = convert(meta[key])
    except ValueError as exc:
        raise LbmError(f"{path}: metadata {key}={meta[key]} does not parse") from exc
    if valid is not None and not valid(value):
        raise LbmError(f"{path}: metadata {key}={meta[key]} must be {need}")
    return value

"""The population-major kernels against a node-major reference, bit for bit.

``collide`` and ``stream`` compute on (J+1, nodes) storage.  The reference
below is the node-major formulation they replaced, kept here as the oracle:
every step of every case must agree to the last bit, whichever layout the
input is stored in.  The agreement rests on BLAS forming the dot products of
``M @ f`` exactly as those of ``f @ M.T``, so this file also pins that.
"""

import dataclasses
import functools
import itertools
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

import lbmlab._team
import lbmlab.equilibrium
import lbmlab.lattice
import lbmlab.scheme
from lbmlab.errors import LbmError, ShapeError, SimulationDiverged
from lbmlab.fields import InitialField, SineComponent
from lbmlab.scheme import relax_update
from fresh import fresh_python
from workers import (
    CPUS,
    aarch64,
    assert_no_worker_left,
    counting_forks,
    one_cpu,
    two_cpus,
)

D2Q5_VECTORS = ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1))
D2Q5_HIGHER_ROWS = ((0, 1, 1, 1, 1), (0, 1, -1, 1, -1))
D2Q5_WEIGHTS = (1 / 3,) + (1 / 6,) * 4


def reference_populations(model, W):
    rho = W[..., :1]
    q = W[..., 1:]
    vq = q @ model.velocities.T
    qq = np.sum(q * q, axis=-1, keepdims=True)
    cs2 = model.cs2
    return model.weights * (
        rho + vq / cs2 + vq * vq / (2.0 * cs2 * cs2 * rho) - qq / (2.0 * cs2 * rho)
    )


def reference_collide(f, mm, model, s):
    nc = mm.d + 1
    m = f @ mm.M.T
    m_eq = reference_populations(model, m[..., :nc]) @ mm.M.T
    m_star = m.copy()
    m_star[..., nc:] = relax_update(m[..., nc:], m_eq[..., nc:], s)
    return m_star @ mm.M_inv.T


def reference_stream(f, vs):
    out = np.empty_like(f)
    axes = tuple(range(f.ndim - 1))
    for j in range(vs.J + 1):
        out[..., j] = np.roll(f[..., j], shift=tuple(int(c) for c in vs.e[j]),
                              axis=axes)
    return out


def components(lattice, lam):
    if lattice == "d2q5":
        vs = lbmlab.lattice.build_velocity_set(D2Q5_VECTORS)
        mm = lbmlab.lattice.build_moment_matrix(vs, lam, higher_rows=D2Q5_HIGHER_ROWS)
        model = lbmlab.equilibrium.build_equilibrium(vs, lam, cs2=lam * lam / 3.0,
                                                     weights=D2Q5_WEIGHTS)
    else:
        vs = lbmlab.lattice.build_velocity_set(lattice)
        mm = lbmlab.lattice.build_moment_matrix(vs, lam)
        model = lbmlab.equilibrium.build_equilibrium(vs, lam)
    return vs, mm, model


def sine_conserved(vs, grid, dx):
    field = InitialField(
        rho=SineComponent(1.0, 0.05, 1),
        velocity=tuple(SineComponent(0.02, 0.03, a + 1) for a in range(vs.d)),
    )
    return field.conserved(grid, dx)


def sine_state(vs, model, grid, dx):
    return lbmlab.scheme.initialize_equilibrium(model, vs, sine_conserved(vs, grid, dx))


def population_major_copy(f):
    """The same values as f, stored (J+1, nodes) and viewed as (*grid, J+1)."""
    storage = np.ascontiguousarray(np.moveaxis(f, -1, 0))
    return np.moveaxis(storage, 0, -1)


SIX_S = (1.2, 1.1, 1.9, 1.3, 1.8, 1.6)

# (lattice, lambda, s, grid, steps)
CASES = [
    ("d2q9", 1.0, SIX_S, (64, 8), 200),
    ("d2q9", 0.8, (2.0,), (32, 8), 200),
    ("d2q9", 1.0, (1.5,), (256, 256), 200),
    ("d1q3", 1.0, (1.3,), (64,), 200),
    ("d1q3", 1.7, (2.0,), (32,), 200),
    ("d2q5", 1.7, (1.2, 1.7), (64, 8), 200),
    ("d2q5", 1.0, (2.0,), (32, 8), 200),
    # more nodes than scheme.CHUNK_NODES, in blocks of unequal width; 8,193
    # nodes in fixed blocks of 8,192 would leave a last block of one node
    ("d2q9", 0.8, SIX_S, (97, 91), 75),
    ("d1q3", 1.7, (1.3,), (20001,), 70),
    ("d2q5", 1.7, (1.2, 1.7), (2731, 3), 70),
    # one block each, but at least _team.TEAM_NODES nodes
    ("d2q9", 1.0, SIX_S, (512, 8), 70),
    ("d1q3", 1.0, (1.3,), (4096,), 70),
    ("d2q5", 1.0, (1.2, 1.7), (512, 8), 70),
]


# the cases whose grids collide in more than one block
MULTI_BLOCK = [c for c in CASES if math.prod(c[3]) > lbmlab.scheme.CHUNK_NODES]


POPULATIONS = {"d1q3": 3, "d2q5": 5, "d2q9": 9}


def teamed_steps(grid, lattice="d2q9"):
    """The fewest steps of a ``run`` on ``grid`` that pay for a fork."""
    values = POPULATIONS[lattice] * math.prod(grid)
    return max(2, -(-lbmlab._team.TEAM_UPDATES // values))


# the cases whose grids run may step on two processes
TEAMED = [c for c in CASES if math.prod(c[3]) >= lbmlab._team.TEAM_NODES]


def case_ids(cases):
    return [f"{c[0]}-{'x'.join(map(str, c[3]))}-s{len(c[2])}" for c in cases]


def case_setup(lattice, lam, s, grid):
    """Components, parameters and the initial state of a case."""
    vs, mm, model = components(lattice, lam)
    dx = 1.0 / grid[0]
    s = np.broadcast_to(np.asarray(s), (vs.J - vs.d,)).copy()
    params = lbmlab.scheme.SchemeParams(dx=dx, dt=dx / lam, s=s)
    return (vs, mm, model, params), sine_state(vs, model, grid, dx)


@functools.cache
def reference_run(lattice, lam, s, grid, steps):
    """Populations of a case after ``steps`` reference steps, shared by the tests."""
    (vs, mm, model, params), state = case_setup(lattice, lam, s, grid)
    f = state.f
    for _ in range(steps):
        f = reference_stream(reference_collide(f, mm, model, params.s), vs)
    return f


@pytest.mark.parametrize("lattice, lam, s, grid, steps", CASES, ids=case_ids(CASES))
def test_run_matches_node_major_reference_bitwise(lattice, lam, s, grid, steps):
    args, state = case_setup(lattice, lam, s, grid)
    out = lbmlab.scheme.run(state, steps, *args)
    assert np.array_equal(out.f, reference_run(lattice, lam, s, grid, steps))


@pytest.mark.parametrize("lattice, lam, s, grid, steps", MULTI_BLOCK,
                         ids=case_ids(MULTI_BLOCK))
def test_steps_fed_population_major_results_match_reference_bitwise(
        lattice, lam, s, grid, steps):
    # every step is fed population-major storage, starting with a copy of the
    # initial state, then the result of the step before
    args, state = case_setup(lattice, lam, s, grid)
    out = lbmlab.scheme.SchemeState(f=population_major_copy(state.f))
    for _ in range(steps):
        out = lbmlab.scheme.step(out, *args)
    assert np.array_equal(out.f, reference_run(lattice, lam, s, grid, steps))
    assert out.steps == steps


def test_kernel_storage_starts_on_a_cache_line():
    for size in [*range(1, 40), 4096, 8192 * 29, 9 * 97 * 91]:
        flat = lbmlab.scheme._aligned_empty(size)
        assert flat.shape == (size,) and flat.dtype == np.float64
        assert flat.ctypes.data % 64 == 0
    for lattice, grid in [("d2q9", (97, 91)), ("d2q9", (16, 8)), ("d1q3", (33,))]:
        args, state = case_setup(lattice, 1.0, (1.3,), grid)
        vs, mm, model, params = args
        nj, nodes = vs.J + 1, math.prod(grid)
        # the initial state is stored as the kernels store theirs
        rows = lbmlab.scheme._populations_first(state.f).reshape(nj, nodes)
        assert np.shares_memory(rows, state.f)
        assert rows.flags.c_contiguous and rows.ctypes.data % 64 == 0
        assert lbmlab.scheme.run(state, 2, *args).f.ctypes.data % 64 == 0
        scratch = lbmlab.scheme._collide_scratch(model, lbmlab.scheme._chunks(nodes))
        assert scratch.ctypes.data % 64 == 0
        assert lbmlab.scheme.collide(state, mm, model, params).f.ctypes.data % 64 == 0
        assert lbmlab.scheme.stream(state, vs).f.ctypes.data % 64 == 0


# a multi-block case and an N x 8 case
OFF_LINE_CASES = [c for c in CASES if c[3] in ((97, 91), (64, 8)) and c[0] == "d2q9"]


@pytest.mark.parametrize("offset", [8, 16, 48])
@pytest.mark.parametrize("lattice, lam, s, grid, steps", OFF_LINE_CASES,
                         ids=case_ids(OFF_LINE_CASES))
def test_kernels_bitwise_on_storage_off_a_cache_line(lattice, lam, s, grid, steps,
                                                     offset):
    # where a buffer starts may change speed, never a result
    args, state = case_setup(lattice, lam, s, grid)
    vs, mm, model, params = args
    nj, nodes = vs.J + 1, math.prod(grid)

    def off_line(size):
        flat = lbmlab.scheme._aligned_empty(size + offset // 8)[offset // 8:]
        assert flat.ctypes.data % 64 == offset
        return flat

    # one storage, which both kernels update in place after the first collide
    storage = off_line(nj * nodes).reshape(nj, nodes)
    blocks = lbmlab.scheme._chunks(nodes)
    scratch = off_line(lbmlab.scheme._collide_scratch(model, blocks).size)
    for _ in range(3):
        state = lbmlab.scheme.stream(
            lbmlab.scheme.collide(state, mm, model, params, storage, scratch), vs, storage,
            scratch)
        state.steps += 1
    assert np.array_equal(state.f, reference_run(lattice, lam, s, grid, 3))


@pytest.mark.parametrize("lattice", ["d2q9", "d1q3", "d2q5"])
def test_kernels_match_reference_in_either_layout(lattice):
    vs, mm, model = components(lattice, 1.3)
    grid = (24, 8) if vs.d == 2 else (24,)
    s = np.linspace(1.1, 1.9, vs.J - vs.d)
    params = lbmlab.scheme.SchemeParams(dx=1.0 / 24, dt=1.0 / 24 / 1.3, s=s)
    rng = np.random.default_rng(3)
    noise = 1.0 + 0.1 * rng.random(grid + (vs.J + 1,))
    f = sine_state(vs, model, grid, 1.0 / 24).f * noise
    expected_collide = reference_collide(f, mm, model, s)
    expected_stream = reference_stream(f, vs)
    for stored in (f, population_major_copy(f)):
        state = lbmlab.scheme.SchemeState(f=stored, steps=3)
        collided = lbmlab.scheme.collide(state, mm, model, params)
        streamed = lbmlab.scheme.stream(state, vs)
        assert np.array_equal(collided.f, expected_collide)
        assert np.array_equal(streamed.f, expected_stream)
        assert collided.f.shape == streamed.f.shape == f.shape
        assert collided.steps == streamed.steps == 3

    def own_storage():
        """A population-major copy of f as a state, and its (J+1, nodes) storage."""
        stored = population_major_copy(f)
        return (lbmlab.scheme.SchemeState(f=stored, steps=3),
                lbmlab.scheme._populations_first(stored).reshape(vs.J + 1, -1))

    # each kernel in place: out is its input's own storage
    for kernel, operands, expected in [
            (lbmlab.scheme.collide, (mm, model, params), expected_collide),
            (lbmlab.scheme.stream, (vs,), expected_stream)]:
        state, storage = own_storage()
        result = kernel(state, *operands, storage)
        assert np.array_equal(result.f, expected) and result.steps == 3
        assert np.shares_memory(result.f, storage)


@pytest.mark.parametrize("lattice, lam", [("d2q9", 1.0), ("d2q9", 0.7),
                                          ("d1q3", 1.7), ("d2q5", 1.3)])
@pytest.mark.parametrize("shape", [(200,), (12, 7), ()])
def test_equilibrium_distribution_matches_reference_bitwise(lattice, lam, shape):
    vs, _, model = components(lattice, lam)
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.5, 2.0, shape)
    u = rng.uniform(-0.1 * lam, 0.1 * lam, shape + (vs.d,))
    W = np.concatenate([rho[..., None], rho[..., None] * u], axis=-1)
    feq = lbmlab.equilibrium.equilibrium_distribution(model, vs, W)
    assert feq.shape == shape + (vs.J + 1,)
    assert feq.flags.c_contiguous
    assert np.array_equal(feq, reference_populations(model, W))


def per_row_populations(model, W, out=None, scratch=None):
    """The equilibrium kernel before it paired opposite velocities: both
    divisions on every row.  It ignores ``scratch``, so that it can stand in
    for ``_populations`` inside ``collide``."""
    nj, nodes = model.velocities.shape[0], W.shape[1]
    if out is None:
        out = np.empty((nj, nodes))
    vq = np.empty((nj, nodes))
    qq = np.empty(nodes)
    tmp = np.empty(nodes)
    rho = W[0]
    q = W[1:]
    cs2 = model.cs2
    np.matmul(model.velocities, q, out=vq)
    np.multiply(q[0], q[0], out=qq)
    for qa in q[1:]:
        qq += np.multiply(qa, qa, out=tmp)
    np.divide(vq, cs2, out=out)
    out += rho
    vq *= vq
    vq /= np.multiply(2.0 * cs2 * cs2, rho, out=tmp)
    out += vq
    qq /= np.multiply(2.0 * cs2, rho, out=tmp)
    out -= qq
    out *= model.weights[:, None]
    return out


# no row is the opposite of the row after it
ASYMMETRIC_VECTORS = ((0, 0), (1, 0), (0, 1), (-1, -1))


def kernel_model(lattice, lam):
    if lattice == "asymmetric":
        # no weights give this set the moments of an equilibrium, so it is
        # built without build_equilibrium's check; the kernel does not need them
        v = lam * np.array(ASYMMETRIC_VECTORS, dtype=float)
        return lbmlab.equilibrium.EquilibriumModel(
            weights=np.array([0.4, 0.2, 0.2, 0.2]), cs2=lam * lam / 3.0, lam=lam,
            velocities=v)
    return components(lattice, lam)[2]


KERNEL_SETS = ["d2q9", "d1q3", "d2q5", "asymmetric"]


@pytest.mark.parametrize("lattice, shape, rows", [
    ("d2q9", (2, 2, 2), 6), ("d1q3", (1, 1, 1), 3), ("d2q5", (1, 2, 2), 4),
    ("asymmetric", None, 6)])
def test_pair_layout_and_scratch_rows(lattice, shape, rows):
    model = kernel_model(lattice, 1.3)
    assert lbmlab.equilibrium._scratch_rows(model) == rows
    if shape is None:
        assert model.pairs is None
        return
    assert model.pairs.shape == shape and not model.pairs.flags.writeable
    blocks = model.velocities[1:].reshape(shape[0], 2, *shape[1:])
    assert not model.velocities[0].any()
    assert np.array_equal(blocks[:, 0], model.pairs)
    assert np.array_equal(blocks[:, 1], -model.pairs)
    # collide's scratch: moments, equilibrium, then max(J+1, rows) rows
    nj = model.J + 1
    size = lbmlab.scheme._collide_scratch(model, ((0, 10), (10, 17))).size
    assert size == (2 * nj + max(nj, rows)) * 10


def test_pairs_follow_the_velocities():
    # the layout is derived from the velocities, never passed in, so a model
    # whose velocities change cannot keep a stale one
    model = kernel_model("d2q9", 1.0)
    with pytest.raises(TypeError):
        lbmlab.equilibrium.EquilibriumModel(
            weights=model.weights, cs2=model.cs2, lam=model.lam,
            velocities=model.velocities, pairs=None)
    # rows 1-4 as +x, -x, +y, -y: no block of rows is followed by its opposites
    swapped = dataclasses.replace(model, velocities=model.velocities[[0, 1, 3, 2, 4, 5, 6, 7, 8]])
    assert swapped.pairs is None
    W = signed_conserved(swapped, 64, 1)
    assert np.array_equal(lbmlab.equilibrium._populations(swapped, W).view(np.int64),
                          per_row_populations(swapped, W).view(np.int64))


def signed_conserved(model, nodes, seed):
    """(d+1, nodes) random W with q of both signs; the first node's q is -0.0
    and the last node's first component is -0.0."""
    rng = np.random.default_rng(seed)
    W = np.empty((model.d + 1, nodes))
    W[0] = rng.uniform(0.5, 2.0, nodes)
    W[1:] = rng.uniform(-0.3, 0.3, (model.d, nodes)) * model.lam * W[0]
    W[1:, 0] = -0.0
    W[1, -1] = -0.0
    return W


@pytest.mark.parametrize("nodes", [2, 3, 256, 8193])
@pytest.mark.parametrize("lam", [0.3, 1.0, 1.7])
@pytest.mark.parametrize("lattice", KERNEL_SETS)
def test_populations_match_the_per_row_kernel_bitwise(lattice, lam, nodes):
    model = kernel_model(lattice, lam)
    W = signed_conserved(model, nodes, nodes)
    expected = per_row_populations(model, W).view(np.int64)
    # W as collide passes it, and as initialize_equilibrium does: a view of
    # node-major storage, written into columns of wider storage
    node_major = np.moveaxis(np.ascontiguousarray(W.T), -1, 0)
    storage = np.full((model.J + 1, nodes + 5), np.nan)
    got = lbmlab.equilibrium._populations(model, W)
    assert np.array_equal(got.view(np.int64), expected)
    lbmlab.equilibrium._populations(model, node_major, storage[:, 2:-3])
    assert np.array_equal(storage[:, 2:-3].view(np.int64), expected)
    assert np.isnan(storage[:, :2]).all() and np.isnan(storage[:, -3:]).all()


@pytest.mark.parametrize("lattice", KERNEL_SETS)
def test_non_finite_momentum_is_non_finite_where_the_per_row_kernel_says(lattice):
    model = kernel_model(lattice, 1.0)
    W = signed_conserved(model, 16, 5)
    for node, value in enumerate([np.inf, -np.inf, np.nan, 1e200, -1e200]):
        W[1, 2 * node] = value              # first component
        W[-1, 2 * node + 1] = value         # last component
    with np.errstate(all="ignore"):
        expected = per_row_populations(model, W)
        got = lbmlab.equilibrium._populations(model, W)
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[finite].view(np.int64), expected[finite].view(np.int64))
    # the rest row is rho - |q|^2/(2 cs2 rho), -inf where the per-row kernel's
    # 0 * inf is nan; every other non-finite entry is the same kind
    kinds = np.isnan(got) == np.isnan(expected)
    assert kinds[1:].all()
    assert np.isneginf(got[0][~kinds[0]]).all()


def diverging_field():
    # the density first turns non-positive after a few steps, as in a
    # 16 x 16 `lbmlab run` with ux_offset = 0.6 and s = 1.99
    return InitialField(rho=SineComponent(1.0, 0.3, 1),
                        velocity=(SineComponent(0.6, 0.3, 1), SineComponent(0.0, 0.0, 2)))


@pytest.mark.parametrize("fault, message", [
    ("none", "non-positive density at node (27, 0) entering step 25"),
    # the populations of (5, 3), 1e200 times too large, collide into non-finite
    # ones in step 1, which stream to (4, 2), the first such node in row-major order
    ("overflow", "non-finite density at node (4, 2) entering step 2"),
    ("inf", "non-finite density at node (5, 3) entering step 1"),
])
def test_a_diverging_run_names_the_step_and_node_of_the_per_row_kernel(
        fault, message, monkeypatch):
    vs, mm, model = components("d2q9", 1.0)
    grid = (64, 8)
    dx = 1.0 / grid[0]
    params = lbmlab.scheme.SchemeParams(dx=dx, dt=dx, s=np.full(6, 1.99))
    W = diverging_field().conserved(grid, dx)
    f = lbmlab.scheme.initialize_equilibrium(model, vs, W).f.copy()
    if fault == "overflow":
        f[5, 3] *= 1e200
    elif fault == "inf":
        f[5, 3, 1] = np.inf
    steps = 400 if fault == "none" else 3

    def failure():
        state = lbmlab.scheme.SchemeState(f=f.copy())
        with np.errstate(all="ignore"), pytest.raises(SimulationDiverged) as info:
            lbmlab.scheme.run(state, steps, vs, mm, model, params)
        return str(info.value)

    assert failure() == message
    # the kernel's row-by-row arithmetic, which it keeps for a set without
    # pairs, is the per-row kernel bit for bit
    monkeypatch.setattr(lbmlab.equilibrium, "_pair_layout", lambda v: None)
    model = dataclasses.replace(model)
    assert model.pairs is None
    conserved = np.moveaxis(W, -1, 0).reshape(3, -1)
    assert np.array_equal(lbmlab.equilibrium._populations(model, conserved).view(np.int64),
                          per_row_populations(model, conserved).view(np.int64))
    assert failure() == message


# (lattice, grid, blocks): two blocks, eight, and three of unequal width
INITIAL_CASES = [("d2q9", (1025, 8), 2), ("d2q9", (256, 256), 8), ("d1q3", (16385,), 3)]


@pytest.mark.parametrize("lattice, grid, blocks", INITIAL_CASES,
                         ids=[f"{c[0]}-{'x'.join(map(str, c[1]))}" for c in INITIAL_CASES])
def test_initial_state_is_equilibrium_distribution_in_the_kernels_storage(
        lattice, grid, blocks):
    vs, mm, model = components(lattice, 1.0)
    nj, nodes = vs.J + 1, math.prod(grid)
    assert len(lbmlab.scheme._chunks(nodes)) == blocks
    W = sine_conserved(vs, grid, 1.0 / grid[0])
    W.flags.writeable = False           # a write to W would raise
    state = lbmlab.scheme.initialize_equilibrium(model, vs, W)
    assert state.f.shape == grid + (nj,) and state.steps == 0
    assert np.array_equal(state.f, lbmlab.equilibrium.equilibrium_distribution(model, vs, W))
    # stored as the kernels store theirs; test_kernel_storage_starts_on_a_cache_line
    # checks the alignment
    assert np.shares_memory(
        lbmlab.scheme._populations_first(state.f).reshape(nj, nodes), state.f)
    params = lbmlab.scheme.SchemeParams(dx=1.0 / grid[0], dt=1.0 / grid[0],
                                        s=np.full(vs.J - vs.d, 1.5))
    assert lbmlab.scheme.run(state, 0, vs, mm, model, params) is state


@pytest.mark.parametrize("lattice", ["d2q9", "d1q3"])
def test_run_calls_collide_once_per_step_with_every_node(lattice, monkeypatch):
    # the benchmark counts node updates as f.size // f.shape[-1] over the
    # calls of lbmlab.scheme.collide; a run that bypassed it would read 0.
    # The second grid is more than one block, where run steps on two
    # processes wherever it may
    vs, mm, model = components(lattice, 1.0)
    seen = []
    collide = lbmlab.scheme.collide

    def counting(state, *args, **kwargs):
        seen.append((state.f.shape[-1], state.f.size // state.f.shape[-1]))
        return collide(state, *args, **kwargs)

    monkeypatch.setattr(lbmlab.scheme, "collide", counting)
    n = 70
    for grid in [(16, 8), (97, 91)] if vs.d == 2 else [(16,), (20001,)]:
        params = lbmlab.scheme.SchemeParams(dx=1 / grid[0], dt=1 / grid[0],
                                            s=np.full(vs.J - vs.d, 1.4))
        state = sine_state(vs, model, grid, 1 / grid[0])
        seen.clear()
        lbmlab.scheme.run(state, n, vs, mm, model, params)
        assert seen == [(vs.J + 1, int(np.prod(grid)))] * n


def test_run_builds_its_kernel_views_once_per_call(monkeypatch):
    # one _Plan per run call, however many steps, and none for zero steps; a
    # teamed call builds one here, and the worker its own after the fork
    built = []
    init = lbmlab.scheme._Plan.__init__

    def counting(plan, *args, **kwargs):
        built.append(os.getpid())
        init(plan, *args, **kwargs)

    monkeypatch.setattr(lbmlab.scheme._Plan, "__init__", counting)
    args, state = case_setup("d2q9", 1.0, (1.3,), (64, 8))
    for steps, plans in [(1, 1), (7, 1), (0, 0)]:
        built.clear()
        lbmlab.scheme.run(state, steps, *args)
        assert built == [os.getpid()] * plans
    two_cpus()
    forks = counting_forks(monkeypatch)
    args, state = case_setup("d2q9", 1.0, (1.3,), (97, 91))
    built.clear()
    lbmlab.scheme.run(state, teamed_steps((97, 91)), *args)
    assert forks == [1] and built == [os.getpid()]
    assert_no_worker_left()


@pytest.mark.parametrize("lattice, rows", [
    ("d2q9", ((0, 1, 2, 5, 6), (3, 4, 7, 8))), ("d1q3", ((0, 1), (2,))),
    ("d2q5", ((0, 1, 2), (3, 4))), ("asymmetric", ((0, 1), (2, 3)))])
def test_each_process_streams_one_row_of_every_pair(lattice, rows):
    # so both stream as many blocks; a set without pairs is split in halves
    model = kernel_model(lattice, 1.0)
    assert lbmlab._team.rows(model) == rows
    if model.pairs is not None:
        e = np.rint(model.velocities / model.lam).astype(int)
        plan = lbmlab.scheme._stream_plan(tuple(map(tuple, e.tolist())), (5, 4)[:model.d])
        # the blocks each process copies; the rest row is one block, and stays
        copied = [sum(len(plan[j]) for j in half if len(plan[j]) > 1) for half in rows]
        assert copied[0] == copied[1]


@pytest.mark.parametrize("lattice, lam, s, grid, steps", TEAMED, ids=case_ids(TEAMED))
def test_two_processes_match_one_bitwise(lattice, lam, s, grid, steps, monkeypatch):
    # the values must not depend on the call's length: every case steps on two
    # processes, whether or not its steps pay for the fork
    monkeypatch.setattr(lbmlab._team, "TEAM_UPDATES", 0)
    args, state = case_setup(lattice, lam, s, grid)
    expected = reference_run(lattice, lam, s, grid, steps)
    with monkeypatch.context() as patch:
        one_cpu(patch)
        forks = counting_forks(patch)
        assert np.array_equal(lbmlab.scheme.run(state, steps, *args).f, expected)
        assert forks == []
    two_cpus()
    forks = counting_forks(monkeypatch)
    assert np.array_equal(lbmlab.scheme.run(state, steps, *args).f, expected)
    assert forks == [1]
    assert_no_worker_left()


def test_one_step_or_fewer_than_team_nodes_stays_on_one_process(monkeypatch):
    # each call passes every other condition of a fork.  128 x 8 is the N x 8
    # grid of verify just under TEAM_NODES, run for enough steps to pay; one
    # step of a state of TEAM_UPDATES values stays serial, and two steps fork
    assert 128 * 8 < lbmlab._team.TEAM_NODES <= 256 * 8
    two_cpus()
    forks = counting_forks(monkeypatch)
    args, state = case_setup("d2q9", 1.0, (1.3,), (128, 8))
    lbmlab.scheme.run(state, teamed_steps((128, 8)), *args)
    grid = (-(-lbmlab._team.TEAM_UPDATES // 3),)
    args, state = case_setup("d1q3", 1.0, (1.3,), grid)
    assert teamed_steps(grid, "d1q3") == 2
    lbmlab.scheme.run(state, 1, *args)
    assert forks == []
    lbmlab.scheme.run(state, 2, *args)
    assert forks == [1]
    assert_no_worker_left()


def test_run_off_x86_64_stays_on_one_process(monkeypatch):
    # the spin barrier rests on x86-64 store order; a call that forks on
    # x86-64 makes no fork elsewhere, and gives the same bits
    two_cpus()
    lattice, lam, s, grid, steps = next(c for c in CASES if c[3] == (97, 91))
    assert steps * POPULATIONS[lattice] * math.prod(grid) >= lbmlab._team.TEAM_UPDATES
    args, state = case_setup(lattice, lam, s, grid)
    expected = reference_run(lattice, lam, s, grid, steps)
    forks = counting_forks(monkeypatch)
    with monkeypatch.context() as patch:
        aarch64(patch)
        assert np.array_equal(lbmlab.scheme.run(state, steps, *args).f, expected)
    assert forks == []
    if os.uname().machine == "x86_64":
        assert np.array_equal(lbmlab.scheme.run(state, steps, *args).f, expected)
        assert forks == [1]
    assert_no_worker_left()


def test_run_too_short_to_pay_for_a_fork_stays_on_one_process(monkeypatch):
    # two steps on 512 x 8, and one step fewer than pays on 97 x 91 D2Q9 and
    # on a D1Q3 grid of as many nodes, whose steps update a third as many
    # values and so need three times as many; one more forks
    two_cpus()
    forks = counting_forks(monkeypatch)
    runs = [("d2q9", (512, 8), 2), ("d2q9", (97, 91), teamed_steps((97, 91)) - 1),
            ("d1q3", (97 * 91,), teamed_steps((97 * 91,), "d1q3") - 1)]
    for lattice, grid, steps in runs:
        args, state = case_setup(lattice, 1.0, (1.3,), grid)
        lbmlab.scheme.run(state, steps, *args)
    assert forks == []
    for lattice, grid, steps in runs[1:]:
        args, state = case_setup(lattice, 1.0, (1.3,), grid)
        lbmlab.scheme.run(state, steps + 1, *args)
    assert forks == [1, 1]
    assert_no_worker_left()


def failing_run(state, args, steps, monkeypatch, serial):
    """The message of the SimulationDiverged that run raises, on one process
    or, where it may, on two, and the number of forks it made."""
    with monkeypatch.context() as patch:
        if serial:
            one_cpu(patch)
        forks = counting_forks(patch)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(SimulationDiverged) as failure:
            lbmlab.scheme.run(state, steps, *args)
    assert_no_worker_left()
    return str(failure.value), len(forks)


def in_workers_blocks(message, grid):
    """True if the node that ``message`` names is in the blocks of ``grid``
    that the worker sweeps, those of the second half of the nodes."""
    node = re.search(r"at node \(([\d, ]+)\)", message)[1].split(",")
    return np.ravel_multi_index(tuple(map(int, node)), grid) >= math.prod(grid) // 2


@pytest.mark.parametrize("start_step", [0, 41])
def test_non_positive_density_in_the_workers_blocks_names_the_serial_node(
        start_step, monkeypatch):
    # uniform rest except one node of the worker's blocks, of density 100 moving at
    # lam along x, whose equilibrium streams negative mass to (i, j - 1) and
    # (i, j + 1): the second step fails on the worker's side, reading the
    # shared storage the first step streamed in place.
    # One process collides 97 x 91 in two blocks and 512 x 8 in one.  256 x 256
    # is eight blocks, four a side, and the node is in the worker's fourth, so
    # the worker has collided three blocks in place when the fourth fails
    two_cpus()
    for grid, (i, j) in [((97, 91), (90, 45)), ((512, 8), (400, 4)),
                         ((256, 256), (240, 100))]:
        (vs, mm, model, params), _ = case_setup("d2q9", 1.0, (1.0,), grid)
        W = np.zeros(grid + (3,))
        W[..., 0] = 1.0
        W[i, j] = (100.0, 100.0, 0.0)
        state = lbmlab.scheme.initialize_equilibrium(model, vs, W)
        state.steps = start_step
        args, steps = (vs, mm, model, params), teamed_steps(grid)
        serial, _ = failing_run(state, args, steps, monkeypatch, serial=True)
        assert serial == (f"non-positive density at node ({i}, {j - 1}) "
                          f"entering step {start_step + 2}")
        assert failing_run(state, args, steps, monkeypatch, serial=False) == (serial, 1)
        assert in_workers_blocks(serial, grid)


def test_the_workers_blocks_are_swept_again_from_the_one_that_failed(monkeypatch):
    # collision keeps a node's density only to rounding.  At s = 2, node y
    # collides into chosen populations, one of which streams to x, in the
    # worker's first block of 256 x 256, so that x enters step 2 with a
    # density of 1e-12 and collides into populations near 1e12, whose density
    # comes out non-positive.  The density-100 node of the test above fails
    # step 2 in the worker's fourth block, where one process names it; swept
    # again from the worker's first block, which it collided in place, the
    # error would name x
    two_cpus()
    grid, y, x, j = (256, 256), (129, 4), (130, 5), 5     # e_5 = (1, 1) = x - y
    (vs, mm, model, params), _ = case_setup("d2q9", 1.0, (2.0,), grid)
    assert tuple(vs.e[j]) == (1, 1)
    W = np.zeros(grid + (3,))
    W[..., 0] = 1.0
    calm = lbmlab.scheme.initialize_equilibrium(model, vs, W).f
    W[240, 100] = (100.0, 100.0, 0.0)
    f = lbmlab.scheme.initialize_equilibrium(model, vs, W).f.copy()
    # the rest weights and one more at rest, but for g_j, which leaves x with
    # a density of 1e-12; y's collision at s = 2 is 2 f_eq - f
    g = model.weights + np.eye(vs.J + 1)[0]
    g[j] = 1e-12 - (1.0 - model.weights[j])
    f[y] = calm[y] = (
        2 * lbmlab.equilibrium.equilibrium_distribution(model, vs, mm.M[:3] @ g) - g)
    # x's step 2 on the grid without the failing node, in the same blocks
    entering = lbmlab.scheme.stream(
        lbmlab.scheme.collide(lbmlab.scheme.SchemeState(f=calm), mm, model, params), vs)
    collided = lbmlab.scheme.collide(entering, mm, model, params)
    assert mm.M[0] @ collided.f[x] <= 0.0 < mm.M[0] @ entering.f[x]
    state = lbmlab.scheme.SchemeState(f=f)
    args, steps = (vs, mm, model, params), teamed_steps(grid)
    serial, _ = failing_run(state, args, steps, monkeypatch, serial=True)
    assert serial == "non-positive density at node (240, 99) entering step 2"
    assert failing_run(state, args, steps, monkeypatch, serial=False) == (serial, 1)


@pytest.mark.parametrize("nodes", [2048, 4096, 8193, 20001, 24577, 90000])
def test_halves_differ_by_at_most_one_node(nodes):
    own, theirs = lbmlab._team.halves(nodes)
    blocks = own + theirs
    assert blocks[0][0] == 0 and blocks[-1][1] == nodes
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    sizes = [sum(stop - start for start, stop in half) for half in (own, theirs)]
    assert abs(sizes[0] - sizes[1]) <= 1
    # no block is narrower than two nodes: see the one-column rule of _chunks
    widths = [stop - start for start, stop in blocks]
    assert 2 <= min(widths) and max(widths) <= lbmlab.scheme.CHUNK_NODES


@pytest.mark.parametrize("here, cpu", [(1, 2), (6, 7), (7, 0), (None, 1), (9, 1)])
def test_a_worker_takes_the_cpu_after_the_one_this_process_runs_on(
        here, cpu, monkeypatch):
    # eight CPUs in the mask; where the current CPU is unknown or outside the
    # mask, the worker takes the one after the lowest
    monkeypatch.setattr(lbmlab._team, "_current_cpu", lambda: here)
    assert lbmlab._team.places(set(range(8))) == cpu


def test_current_cpu_is_the_one_this_process_is_pinned_to():
    try:
        for cpu in sorted(CPUS):
            os.sched_setaffinity(0, {cpu})
            assert lbmlab._team._current_cpu() == cpu
    finally:
        os.sched_setaffinity(0, CPUS)


def test_worker_pins_itself_after_this_process_and_leaves_the_mask(monkeypatch):
    # on the highest CPU of the mask, this process is not pinned and the
    # worker wraps around to the lowest
    two_cpus()
    order = sorted(CPUS)
    monkeypatch.setattr(lbmlab._team, "_current_cpu", lambda: order[-1])

    def pinned():
        if os.sched_getaffinity(0) != {order[0]}:
            raise AssertionError("the worker is not on the lowest CPU")

    with lbmlab._team.Worker(pinned, CPUS) as worker:
        assert os.sched_getaffinity(0) == CPUS
    assert worker.status == 0
    assert_no_worker_left()


def test_this_process_keeps_its_mask_while_a_worker_runs(monkeypatch):
    # read while this process streams a teamed run, and while it writes its
    # file of a forked write_both
    two_cpus()
    parent, stream_rows, masks = os.getpid(), lbmlab.scheme._Plan.stream_rows, []

    def recording(plan):
        if os.getpid() == parent:
            masks.append(os.sched_getaffinity(0))
        return stream_rows(plan)

    monkeypatch.setattr(lbmlab.scheme._Plan, "stream_rows", recording)
    forks = counting_forks(monkeypatch)
    args, state = case_setup("d2q9", 1.0, (1.3,), (97, 91))
    lbmlab.scheme.run(state, teamed_steps((97, 91)), *args)
    lbmlab._team.write_both(lbmlab._team.WRITER_NODES,
                            lambda: masks.append(os.sched_getaffinity(0)), lambda: None)
    assert forks == [1, 1]
    assert len(masks) > 1 and all(mask == CPUS for mask in masks)
    assert_no_worker_left()


def test_run_on_a_set_the_model_was_not_built_for_forks_nothing(monkeypatch):
    # with the D2Q9 diagonals reordered, stream followed the wrong links and
    # nothing failed
    (vs, mm, model, params), state = case_setup("d2q9", 1.0, (1.3,), (97, 91))
    reordered = lbmlab.lattice.build_velocity_set(
        map(tuple, vs.e[[0, 1, 2, 3, 4, 7, 8, 5, 6]].tolist()))
    forks = counting_forks(monkeypatch)
    with pytest.raises(ShapeError, match="not built for this velocity set"):
        lbmlab.scheme.run(state, teamed_steps((97, 91)), reordered, mm, model, params)
    with pytest.raises(ShapeError, match="not built for this velocity set"):
        lbmlab.scheme.step(state, reordered, mm, model, params)
    assert forks == []
    assert_no_worker_left()


def test_256_squared_splits_into_four_blocks_a_side():
    blocks = tuple((k * 8192, (k + 1) * 8192) for k in range(8))
    assert lbmlab._team.halves(256 * 256) == (blocks[:4], blocks[4:])


def test_non_finite_population_in_the_workers_blocks_is_named(monkeypatch):
    # the NaN makes its node's density NaN, so the first collide names it
    two_cpus()
    grid = (181, 181)
    steps = teamed_steps(grid)
    args, state = case_setup("d2q9", 1.0, SIX_S, grid)
    state.f[160, 30, 4] = np.nan
    serial, _ = failing_run(state, args, steps, monkeypatch, serial=True)
    assert serial == "non-finite density at node (160, 30) entering step 1"
    assert failing_run(state, args, steps, monkeypatch, serial=False) == (serial, 1)
    assert in_workers_blocks(serial, grid)


def test_run_leaves_no_worker_on_return_or_interrupt(monkeypatch):
    two_cpus()
    forks = counting_forks(monkeypatch)
    args, state = case_setup("d2q9", 1.0, (1.3,), (97, 91))
    lbmlab.scheme.run(state, teamed_steps((97, 91)), *args)
    assert_no_worker_left()

    # this process's stream of a middle step is interrupted while the worker
    # steps; the worker streams through the same method, uncounted
    steps, calls = teamed_steps((97, 91)), itertools.count(1)
    parent, stream_rows = os.getpid(), lbmlab.scheme._Plan.stream_rows

    def interrupted(plan):
        if os.getpid() == parent and next(calls) == steps // 2:
            raise KeyboardInterrupt
        stream_rows(plan)

    monkeypatch.setattr(lbmlab.scheme._Plan, "stream_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        lbmlab.scheme.run(state, steps, *args)
    assert forks == [1, 1] and next(calls) == steps // 2 + 1
    assert_no_worker_left()


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_a_failure_after_the_fork_leaves_no_worker(error, monkeypatch):
    # this process's block scratch is allocated after the worker forks; when
    # that raises here, and not in the worker, the worker is still reaped
    two_cpus()
    parent, scratch = os.getpid(), lbmlab.scheme._collide_scratch

    def failing(*args):
        if os.getpid() == parent:
            raise error
        return scratch(*args)

    monkeypatch.setattr(lbmlab.scheme, "_collide_scratch", failing)
    monkeypatch.setattr(lbmlab._team, "_collide_scratch", failing)
    forks = counting_forks(monkeypatch)
    args, state = case_setup("d2q9", 1.0, (1.3,), (512, 8))
    with pytest.raises(error):
        lbmlab.scheme.run(state, 300, *args)
    assert forks == [1]
    assert_no_worker_left()


def test_worker_that_dies_is_an_lbm_error(monkeypatch):
    two_cpus()
    parent, sweep = os.getpid(), lbmlab.scheme._Plan.sweep

    def dying(plan, *args):
        if os.getpid() != parent:
            os._exit(3)
        return sweep(plan, *args)

    monkeypatch.setattr(lbmlab.scheme._Plan, "sweep", dying)
    args, state = case_setup("d2q9", 1.0, (1.3,), (97, 91))
    with pytest.raises(LbmError, match="stepping worker exited"):
        lbmlab.scheme.run(state, teamed_steps((97, 91)), *args)
    assert_no_worker_left()


def test_worker_that_ends_while_this_process_waits_is_no_error(monkeypatch):
    # the worker's last stream sleeps, so this process posts the last phase
    # first and yields; during that yield the worker posts it too and exits,
    # after this process last read the worker's slot and before it polls
    two_cpus()
    monkeypatch.setattr(lbmlab._team, "TEAM_UPDATES", 0)
    monkeypatch.setattr(lbmlab._team, "SPINS", 0)
    parent, calls = os.getpid(), {"worker": 0, "parent": 0}
    stream_rows, sched_yield = lbmlab.scheme._Plan.stream_rows, os.sched_yield

    def counted_stream(plan):
        # each process counts its own streams in its own copy of calls
        side = "parent" if os.getpid() == parent else "worker"
        calls[side] += 1
        if side == "worker" and calls[side] == 2:
            time.sleep(0.05)
        return stream_rows(plan)

    def slow_yield():
        if os.getpid() == parent and calls["parent"] >= 2:
            time.sleep(0.1)
        else:
            sched_yield()

    monkeypatch.setattr(lbmlab.scheme._Plan, "stream_rows", counted_stream)
    monkeypatch.setattr(os, "sched_yield", slow_yield)
    forks = counting_forks(monkeypatch)
    args, state = case_setup("d2q9", 1.0, (1.3,), (64, 32))
    lbmlab.scheme.run(state, 2, *args)
    assert forks == [1]
    assert_no_worker_left()


# prints the thread count of numpy's OpenBLAS after ``import lbmlab``, read as
# bench/child.py reads it, or nothing where the library is not found
BLAS_THREADS = """
import ctypes, glob, os
import lbmlab
import numpy as np
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            print(getattr(lib, symbol)())
            raise SystemExit
"""


@pytest.mark.parametrize("count, expected", [(None, "1"), ("2", "2")])
def test_import_asks_for_one_blas_thread_unless_one_is_set(count, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if count is not None:
        env["OPENBLAS_NUM_THREADS"] = count
    out = fresh_python(BLAS_THREADS, env=env)
    if not out:
        pytest.skip("numpy's OpenBLAS library was not found")
    assert out.strip() == expected


MODULES = {f"lbmlab.{path.stem}" for path in Path(lbmlab.__file__).parent.glob("*.py")
           if path.stem != "__init__"}


def _command(name):
    return ("from lbmlab.cli import main\n"
            f"assert main(['{name}', '--config', sys.argv[1], '--out', sys.argv[2], "
            "'--quiet']) == 0")


# what a fresh process holds after each statement: the package loads none of
# its modules, and each command only those it runs.  multiprocessing costs
# about 10 ms of import; run maps memory itself, and only run and the run
# command import lbmlab._team, where they may fork
@pytest.mark.parametrize("statement, absent, present", [
    pytest.param("", MODULES, set(), id="package"),
    pytest.param("import lbmlab.cli", {"multiprocessing", "mmap", "lbmlab._team"}, set(),
                 id="cli"),
    pytest.param(_command("run"), {"lbmlab.analysis", "lbmlab.verify"}, set(), id="run"),
    pytest.param(_command("analyze"), {"lbmlab.verify"}, {"lbmlab.analysis"},
                 id="analyze"),
])
def test_a_fresh_process_loads_only_what_it_runs(tmp_path, statement, absent, present):
    config = tmp_path / "run.ini"
    config.write_text("[grid]\nnx = 8\n[scheme]\nsteps = 2\n")
    code = f"import sys, lbmlab\n{statement}\nprint('\\n'.join(sys.modules))"
    loaded = set(fresh_python(code, str(config), str(tmp_path / "out")).split())
    assert sorted(absent & loaded) == [] and sorted(present - loaded) == []

import os
import re

import numpy as np
import pytest

from lbmlab.equilibrium import equilibrium_moments
from lbmlab.errors import (
    ComponentMismatch,
    InvalidRelaxation,
    LbmError,
    ShapeError,
    SimulationDiverged,
)
from lbmlab.fields import InitialField, SineComponent
from lbmlab.scheme import (
    SchemeParams,
    SchemeState,
    collide,
    conservation_audit,
    initialize_equilibrium,
    load_checkpoint,
    moments_of,
    relax_update,
    relaxation_ode_euler_step,
    run,
    save_checkpoint,
    step,
    stream,
)

from fresh import fresh_python


# Each peak-memory test measures in a fresh interpreter, so that the traced
# peak counts the allocations of first calls whatever the suite ran before.
# The snippets print the number of shared mappings and the peak over the
# state's bytes.
SMALL_STATE = """
from lbmlab.equilibrium import build_equilibrium
from lbmlab.lattice import build_moment_matrix, build_velocity_set
from lbmlab.scheme import SchemeParams, initialize_equilibrium, run
from test_scheme import small_conserved
vs = build_velocity_set("d2q9")
mm = build_moment_matrix(vs, 1.0)
model = build_equilibrium(vs, 1.0)
W = small_conserved(GRID)
"""

RUN_PEAK = "GRID = {grid}" + SMALL_STATE + """
import mmap
import tracemalloc
import numpy as np
import lbmlab._team  # run imports it to step on two processes; not its memory
state = initialize_equilibrium(model, vs, W)
params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
mapped = []
real_mmap = mmap.mmap

def recording_mmap(*args, **kwargs):
    shared = real_mmap(*args, **kwargs)
    mapped.append(len(shared))
    return shared

mmap.mmap = recording_mmap
# the fewest steps whose run pays for a fork
steps = -(-lbmlab._team.TEAM_UPDATES // state.f.size)
tracemalloc.start()
run(state, steps, vs, mm, model, params)
peak = tracemalloc.get_traced_memory()[1]
print(len(mapped), (peak + sum(mapped)) / state.f.nbytes)
"""

INITIAL_PEAK = "GRID = (256, 256)" + SMALL_STATE + """
import tracemalloc
tracemalloc.start()
state = initialize_equilibrium(model, vs, W)
peak = tracemalloc.get_traced_memory()[1]
print(0, peak / state.f.nbytes)
"""


def fresh_process_reading(code):
    """(mappings, ratio) that ``code`` prints in a fresh interpreter."""
    mapped, ratio = fresh_python(code).split()
    return int(mapped), float(ratio)


def small_conserved(grid=(16, 16), seed=5):
    """Random W of shape (*grid, 3) near rest, rho about 1."""
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.05 * rng.standard_normal(grid)
    u = 0.05 * rng.standard_normal((*grid, 2))
    return np.concatenate([rho[..., None], rho[..., None] * u], axis=-1)


def small_state(d2q9, grid=(16, 16), seed=5):
    vs, mm, model = d2q9
    W = small_conserved(grid, seed)
    return initialize_equilibrium(model, vs, W), W


class TestParams:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 2.5, float("nan")])
    def test_stability_bound(self, bad):
        with pytest.raises(InvalidRelaxation):
            SchemeParams(dx=1.0, dt=1.0, s=np.array([1.0, bad]))

    def test_boundary_value_allowed(self):
        p = SchemeParams(dx=0.5, dt=0.25, s=np.array([2.0, 0.1]))
        assert p.lam == 2.0
        assert np.allclose(p.tau, [0.125, 2.5])


class TestMoments:
    def test_equilibrium_state_reproduces_field(self, d2q9):
        vs, mm, model = d2q9
        state, W = small_state(d2q9)
        m = moments_of(state, mm)
        assert np.abs(m[..., :3] - W).max() <= 1e-13

    def test_zero_populations(self, d2q9):
        _, mm, _ = d2q9
        assert np.array_equal(moments_of(np.zeros((4, 4, 9)), mm),
                              np.zeros((4, 4, 9)))

    def test_d1q3_example(self, d1q3):
        _, mm, _ = d1q3
        m = moments_of(np.array([1.0, 2.0, 3.0]), mm)
        assert np.array_equal(m, [6.0, -1.0, 5.0])

    def test_shape_mismatch(self, d2q9):
        _, mm, _ = d2q9
        with pytest.raises(ShapeError):
            moments_of(np.zeros((4, 4, 5)), mm)


class TestCollide:
    def test_full_relaxation_reaches_equilibrium(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        params = SchemeParams(1.0, 1.0, np.ones(6))
        out = collide(state, mm, model, params)
        m = moments_of(out, mm)
        m_eq = equilibrium_moments(model, vs, mm, m[..., :3])
        assert np.abs(m[..., 3:] - m_eq[..., 3:]).max() <= 1e-13

    def test_over_relaxation_reflection(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        params = SchemeParams(1.0, 1.0, np.full(6, 2.0))
        m = moments_of(state, mm)
        m_eq = equilibrium_moments(model, vs, mm, m[..., :3])
        out = collide(state, mm, model, params)
        m_star = moments_of(out, mm)
        expected = 2.0 * m_eq[..., 3:] - m[..., 3:]
        assert np.abs(m_star[..., 3:] - expected).max() <= 1e-13

    def test_equilibrium_is_fixed_point(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        params = SchemeParams(1.0, 1.0, np.full(6, 1.3))
        out = collide(state, mm, model, params)
        assert np.abs(out.f - state.f).max() <= 1e-14

    def test_conserved_moments_preserved(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        params = SchemeParams(1.0, 1.0, np.full(6, 1.7))
        m0 = moments_of(state, mm)[..., :3]
        m1 = moments_of(collide(state, mm, model, params), mm)[..., :3]
        assert np.abs(m1 - m0).max() <= 1e-13 * np.abs(m0).max()

    def test_mirrors_relax_update_bitwise(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        s = np.array([1.1, 1.9, 0.7, 1.5, 1.3, 0.4])
        params = SchemeParams(1.0, 1.0, s)
        m = moments_of(state, mm)
        m_eq = equilibrium_moments(model, vs, mm, m[..., :3])
        m_star = m.copy()
        m_star[..., 3:] = relax_update(m[..., 3:], m_eq[..., 3:], s)
        expected_f = m_star @ mm.M_inv.T
        out = collide(state, mm, model, params)
        assert np.array_equal(out.f, expected_f)

    def test_wrong_s_count(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        params = SchemeParams(1.0, 1.0, np.ones(4))
        with pytest.raises(ShapeError):
            collide(state, mm, model, params)

    def test_scale_mismatch(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        params = SchemeParams(2.0, 1.0, np.ones(6))  # lam 2 vs matrix lam 1
        with pytest.raises(ComponentMismatch):
            collide(state, mm, model, params)


class TestEulerStepIdentity:
    def test_examples(self):
        assert relaxation_ode_euler_step(1.0, 0.0, tau=1.0, dt=1.0) == 0.0
        assert relaxation_ode_euler_step(1.0, 0.0, tau=0.5, dt=1.0) == -1.0
        assert relaxation_ode_euler_step(3.0, 1.0, tau=2.0, dt=1.0) == 2.0

    def test_bit_identity_with_collision_update(self):
        rng = np.random.default_rng(41)
        n = 10_000
        m = rng.standard_normal(n)
        m_eq = rng.standard_normal(n)
        dt = rng.uniform(0.01, 1.0, n)
        tau = dt / rng.uniform(np.nextafter(0.0, 1.0), 2.0, n)
        s = dt / tau  # formed identically to the division inside the ODE step
        collide_side = relax_update(m, m_eq, s)
        ode_side = relaxation_ode_euler_step(m, m_eq, tau, dt)
        assert np.array_equal(collide_side, ode_side)


class TestStream:
    def test_uniform_is_identity(self, d2q9):
        vs, _, _ = d2q9
        f = np.tile(np.arange(1.0, 10.0), (8, 8, 1))
        out = stream(SchemeState(f=f.copy()), vs)
        assert np.array_equal(out.f, f)

    def test_pulse_moves_one_link(self, d2q9):
        vs, _, _ = d2q9
        for j in range(9):
            f = np.zeros((8, 8, 9))
            f[3, 4, j] = 1.0
            out = stream(SchemeState(f=f), vs)
            target = ((3 + vs.e[j, 0]) % 8, (4 + vs.e[j, 1]) % 8)
            assert out.f[target][j] == 1.0
            assert out.f.sum() == 1.0

    def test_composition_is_translation(self, d2q9):
        vs, _, _ = d2q9
        rng = np.random.default_rng(6)
        f0 = rng.standard_normal((12, 12, 9))
        state = SchemeState(f=f0.copy())
        n = 7
        for _ in range(n):
            state = stream(state, vs)
        for j in range(9):
            shifted = np.roll(f0[..., j], (n * vs.e[j, 0], n * vs.e[j, 1]),
                              axis=(0, 1))
            assert np.array_equal(state.f[..., j], shifted)

    def test_full_cycle_identity(self, d2q9):
        vs, _, _ = d2q9
        rng = np.random.default_rng(8)
        f0 = rng.standard_normal((8, 8, 9))
        state = SchemeState(f=f0.copy())
        for _ in range(8):
            state = stream(state, vs)
        assert np.array_equal(state.f, f0)

    def test_global_sums_exact(self, d2q9):
        vs, _, _ = d2q9
        rng = np.random.default_rng(9)
        f0 = rng.standard_normal((16, 16, 9))
        out = stream(SchemeState(f=f0.copy()), vs)
        for j in range(9):
            assert np.sort(out.f[..., j], axis=None).tobytes() == \
                np.sort(f0[..., j], axis=None).tobytes()


class TestStepAndRun:
    def test_zero_steps_identity(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        out = run(state, 0, vs, mm, model, params)
        assert out is state

    def test_uniform_equilibrium_unchanged(self, d2q9):
        vs, mm, model = d2q9
        W = np.broadcast_to(np.array([1.0, 0.02, -0.01]), (16, 16, 3)).copy()
        state = initialize_equilibrium(model, vs, W)
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        out = run(state, 100, vs, mm, model, params)
        assert np.abs(out.f - state.f).max() <= 1e-13
        assert out.steps == 100

    def test_mass_conserved_1000_steps(self, d2q9):
        vs, mm, model = d2q9
        field = InitialField(
            rho=SineComponent(1.0, 1e-3, 1),
            velocity=(SineComponent(0.02, 1e-3, 2), SineComponent(0.0, 1e-3, 1)),
        )
        dx = 1.0 / 32
        state = initialize_equilibrium(model, vs, field.conserved((32, 32), dx))
        params = SchemeParams(dx, dx, np.full(6, 1.5))
        out = run(state, 1000, vs, mm, model, params)
        audit = conservation_audit(state, out, mm)
        assert audit["mass_drift"] <= 1e-12

    def test_prop2_pure_transport_is_exact(self, d2q9):
        # bypass collide entirely: n streaming steps move any grid function
        # bit-identically to permuted locations
        vs, _, _ = d2q9
        rng = np.random.default_rng(10)
        g = rng.standard_normal((16, 16))
        for j in [1, 5, 8]:
            f = np.zeros((16, 16, 9))
            f[..., j] = g
            state = SchemeState(f=f)
            n = 11
            for _ in range(n):
                state = stream(state, vs)
            expected = np.roll(g, (n * vs.e[j, 0], n * vs.e[j, 1]), axis=(0, 1))
            assert np.array_equal(state.f[..., j], expected)

    def test_divergence_detected(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        state.f[0, 0, 0] = np.inf
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        with np.errstate(invalid="ignore"), pytest.raises(SimulationDiverged):
            run(state, 2, vs, mm, model, params)

    def test_run_leaves_its_input_alone(self, d2q9):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9)
        before = state.f.copy()
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        out = run(state, 3, vs, mm, model, params)
        assert np.array_equal(state.f, before)
        assert state.steps == 0
        assert not np.shares_memory(out.f, state.f)

    @pytest.mark.parametrize("grid, bound", [((256, 256), 3.0), ((512, 8), 3.9)],
                             ids=["256x256", "512x8"])
    def test_run_peak_memory_is_bounded(self, grid, bound):
        # two population buffers and collide's block scratch, allocated once;
        # the result is a view of the streaming buffer.  tracemalloc does not
        # see mmap memory, so the shared mapping that holds the two buffers
        # when run steps on two processes is added to the traced peak.
        # 512 x 8 is one block, which two processes sweep in halves, each with
        # a scratch half as wide as one process's
        if grid == (512, 8) and len(os.sched_getaffinity(0)) < 2:
            pytest.skip("this process may run on one CPU only, so run steps on one process")
        mapped, ratio = fresh_process_reading(RUN_PEAK.format(grid=grid))
        # 256 x 256: 2.52 measured on one process, 2.52 on two; 4.22 with fresh
        # arrays per step.  512 x 8: 3.82 measured on two processes, against 5.30
        # on one, whose scratch is as wide as the grid
        assert mapped or grid == (256, 256)
        assert ratio <= bound

    def test_initial_state_peak_memory_is_bounded(self):
        # the state's storage and the scratch of one block of _chunks: 1.08
        # measured, against 2.22 when G was evaluated over the whole grid at
        # once and then copied into population-major storage
        assert fresh_process_reading(INITIAL_PEAK)[1] <= 1.25

    @pytest.mark.parametrize("lattice", ["d2q9", "d1q3"])
    def test_audit_drifts_are_bounded_in_either_layout(self, lattice, request):
        # the audit sums population rows, so its last digits follow the layout;
        # either layout keeps the drifts within the bound
        vs, mm, model = request.getfixturevalue(lattice)
        grid = (32, 32) if vs.d == 2 else (1024,)
        field = InitialField(
            rho=SineComponent(1.0, 1e-3, 1),
            velocity=tuple(SineComponent(0.02, 1e-3, a + 1) for a in range(vs.d)),
        )
        dx = 1.0 / grid[0]
        state = initialize_equilibrium(model, vs, field.conserved(grid, dx))
        params = SchemeParams(dx, dx, np.full(vs.J - vs.d, 1.5))
        out = run(state, 500, vs, mm, model, params)
        node_major = [SchemeState(f=np.ascontiguousarray(s.f)) for s in (state, out)]
        for initial, final in ((state, out), node_major):
            audit = conservation_audit(initial, final, mm)
            assert audit["mass_drift"] <= 1e-12
            assert np.all(audit["momentum_drift"] <= 1e-12)

    @pytest.mark.parametrize("lattice", ["d2q9", "d1q3"])
    def test_run_then_step_equals_longer_run_bitwise(self, lattice, request):
        # one refinement simulation takes its step-n state from run(n - 1)
        # followed by step; that must be the state run(n) returns
        vs, mm, model = request.getfixturevalue(lattice)
        grid = (16, 8) if vs.d == 2 else (16,)
        field = InitialField(
            rho=SineComponent(1.0, 1e-3, 1),
            velocity=tuple(SineComponent(0.01, 1e-3, 1) for _ in range(vs.d)),
        )
        dx = 1.0 / 16
        state = initialize_equilibrium(model, vs, field.conserved(grid, dx))
        params = SchemeParams(dx, dx, np.full(vs.J - vs.d, 1.3))
        n = 70  # crosses the default divergence-check interval
        direct = run(state, n, vs, mm, model, params)
        split = step(run(state, n - 1, vs, mm, model, params),
                     vs, mm, model, params)
        assert np.array_equal(direct.f, split.f)
        assert direct.steps == split.steps == n


class TestCheckpoint:
    def test_roundtrip_bitwise(self, d2q9, tmp_path):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9, grid=(6, 5))
        state.steps = 42
        params = SchemeParams(0.125, 0.125, np.full(6, 1.5))
        path = tmp_path / "chk.csv"
        save_checkpoint(path, state, params, mm)
        loaded, info = load_checkpoint(path)
        assert np.array_equal(loaded.f, state.f)
        assert loaded.steps == 42
        assert info["grid_shape"] == (6, 5)
        assert info["J"] == 8
        assert info["dt"] == 0.125
        assert info["lambda"] == 1.0

    def test_lf_line_endings(self, d2q9, tmp_path):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9, grid=(4, 4))
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        path = tmp_path / "chk.csv"
        save_checkpoint(path, state, params, mm)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 2 + 16

    def test_truncated_body_rejected(self, d2q9, tmp_path):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9, grid=(4, 4))
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        path = tmp_path / "chk.csv"
        save_checkpoint(path, state, params, mm)
        text = path.read_text()
        # cut inside the last row: 16 rows remain but the last one is short
        path.write_text(text[:-45])
        with pytest.raises(LbmError, match="row 16 has [0-9]+ columns, expected 9"):
            load_checkpoint(path)
        # drop whole rows
        lines = text.splitlines(keepends=True)
        path.write_text("".join(lines[:10]))
        with pytest.raises(LbmError, match="expected 16 rows for grid 4x4, found 8"):
            load_checkpoint(path)

    # "\udcff" is written as the byte 0xff, which is not UTF-8
    @pytest.mark.parametrize("bad", ["x", "", "1.0.0", "\udcff"])
    def test_unparsable_value_names_the_file(self, d2q9, tmp_path, bad):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9, grid=(4, 4))
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        path = tmp_path / "chk.csv"
        save_checkpoint(path, state, params, mm)
        lines = path.read_text().splitlines(keepends=True)
        lines[7] = bad + lines[7][lines[7].index(","):]
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(LbmError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_incomplete_metadata_rejected(self, d2q9, tmp_path):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9, grid=(4, 4))
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        path = tmp_path / "chk.csv"
        save_checkpoint(path, state, params, mm)
        path.write_text(path.read_text().replace(" step=0", "", 1))
        with pytest.raises(LbmError, match="lacks step"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("grid", "4xQ"), ("J", "eight"), ("step", "zero"), ("dt", "x"),
    ])
    def test_malformed_metadata_value_names_its_key(self, d2q9, tmp_path, key, value):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9, grid=(4, 4))
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        path = tmp_path / "chk.csv"
        save_checkpoint(path, state, params, mm)
        text = path.read_text()
        path.write_text(re.sub(rf" {key}=\S+", f" {key}={value}", text, count=1))
        with pytest.raises(LbmError, match=f"metadata {key}={value} does not parse"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("dt", "nan"), ("dt", "-1"), ("dt", "0"), ("lambda", "inf"), ("step", "-5"),
        ("grid", "0x4"), ("grid", "4x-1"),
    ])
    def test_nonsense_metadata_value_names_its_key(self, d2q9, tmp_path, key, value):
        vs, mm, model = d2q9
        state, _ = small_state(d2q9, grid=(4, 4))
        params = SchemeParams(1.0, 1.0, np.full(6, 1.5))
        path = tmp_path / "chk.csv"
        save_checkpoint(path, state, params, mm)
        text = path.read_text()
        path.write_text(re.sub(rf" {key}=\S+", f" {key}={value}", text, count=1))
        with pytest.raises(LbmError, match=f"metadata {key}={value} must be"):
            load_checkpoint(path)

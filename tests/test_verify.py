import dataclasses
import os

import numpy as np
import pytest

from lbmlab import verify
from lbmlab.config import RunConfig, build_components
from lbmlab.equilibrium import equilibrium_distribution, equilibrium_moments
from lbmlab.errors import ConfigError
from lbmlab.fields import InitialField, SineComponent
from lbmlab.scheme import SchemeParams, initialize_equilibrium, step
from lbmlab.verify import (
    fit_loglog,
    measure_viscosity,
    refinement_studies,
    resolution_residuals,
    run_verification,
    running_slopes,
    shear_mode_decay,
    study_prop3,
)

LADDER = (32, 64, 128, 256)


def components(**fields):
    return build_components(RunConfig(**fields))


def column(outcome, name):
    return [row[outcome.header.index(name)] for row in outcome.rows]


@pytest.fixture(scope="module")
def d2q9_components():
    return components()


@pytest.fixture(scope="module")
def default_studies(d2q9_components):
    return refinement_studies(d2q9_components, LADDER, 32)


class TestResiduals:
    def test_uniform_field_residual_is_zero(self):
        uniform = components(rho_amplitude=0.0, ux_amplitude=0.0, uy_amplitude=0.0)
        assert resolution_residuals(uniform, 32, 32)["prop3"] <= 1e-13

    def test_single_step_full_relaxation_brute_force(self):
        # with s = 1 the collision lands exactly on equilibrium, so after one
        # full step the disequilibrium is the streaming contribution alone;
        # replay that by hand on an 8-node 1-D grid
        setup = components(lattice_name="d1q3", s=(1.0,), ux_amplitude=1e-3)
        measured = resolution_residuals(setup, 8, 1)["prop3"]

        n = 8
        dx = 1.0 / n
        W0 = setup.field.conserved((n,), dx)
        feq = equilibrium_distribution(setup.model, setup.vs, W0)
        f1 = np.empty_like(feq)
        for i in range(n):
            for j, e in enumerate((0, 1, -1)):
                f1[i, j] = feq[(i - e) % n, j]
        m1 = f1 @ setup.mm.M.T
        m_eq1 = equilibrium_moments(setup.model, setup.vs, setup.mm,
                                    m1[:, :2])
        oracle = np.abs(m1[:, 2] - m_eq1[:, 2]).max()
        # collide at s = 1 computes m - 1.0*(m - m_eq), which differs from
        # exact equilibrium by one rounding, hence the 1e-12 relative slack
        assert measured == pytest.approx(oracle, rel=1e-12)

    def test_prop5_beats_prop3(self, d2q9_components):
        res = resolution_residuals(d2q9_components, 64, 64)
        assert res["prop5"] < 0.05 * res["prop3"]

    def test_conservation_residuals_s2_collapse(self):
        # with s = 2 the flux correction vanishes, so the bare and corrected
        # momentum residuals coincide
        res = resolution_residuals(components(s=(2.0,)), 32, 32)
        assert res["prop4"] == res["prop6"]

    def test_mass_drift_audited(self, d2q9_components):
        res = resolution_residuals(d2q9_components, 32, 32)
        assert res["mass_drift"] <= 1e-12


class TestRefinementStudy:
    def test_requires_four_doubling_resolutions(self, d2q9_components):
        with pytest.raises(ConfigError):
            refinement_studies(d2q9_components, (32, 64), 32)
        with pytest.raises(ConfigError):
            refinement_studies(d2q9_components, (32, 64, 96, 128), 32)

    def test_requires_twenty_coarse_steps(self, d2q9_components):
        with pytest.raises(ConfigError):
            refinement_studies(d2q9_components, LADDER, 3)

    def test_deterministic_and_monotone(self, d2q9_components, default_studies):
        a = default_studies["prop3"]
        b = study_prop3(d2q9_components, LADDER, 32)
        residuals = column(a, "residual")
        assert residuals == column(b, "residual")
        assert a.summary_value == b.summary_value
        assert all(x > y for x, y in zip(residuals, residuals[1:]))

    def test_running_slopes_shape(self, default_studies):
        rs = column(default_studies["prop3"], "slope_running")
        assert len(rs) == 4 and np.isnan(rs[0])

    def test_running_slope_across_a_zero_residual_is_nan(self):
        rs = running_slopes((4.0, 1.0, 0.0, 1e-3), (1.0, 0.5, 0.25, 0.125))
        assert rs[1] == pytest.approx(2.0)
        assert np.isnan(rs[0]) and np.isnan(rs[2]) and np.isnan(rs[3])

    def test_fit_loglog_exact_power(self):
        x = np.array([1.0, 0.5, 0.25, 0.125])
        slope, r2 = fit_loglog(x, 3.0 * x**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


class TestViscometry:
    def test_two_point_scaling(self, d2q9_components):
        # doubling N at fixed s halves dt hence the predicted viscosity;
        # the measured value tracks the prediction at both resolutions
        m64 = measure_viscosity(d2q9_components, 64, 1.2)
        m128 = measure_viscosity(d2q9_components, 128, 1.2)
        assert m64.nu_predicted == pytest.approx(2 * m128.nu_predicted)
        assert abs(m64.nu_measured / m64.nu_predicted - 1.0) <= 0.02
        assert abs(m128.nu_measured / m128.nu_predicted - 1.0) <= 0.02
        assert m64.mass_drift <= 1e-12

    def test_stokes_decay_against_analytic_oracle(self, d2q9_components):
        # e-folding: after t = 1/(nu k^2) the amplitude is down by e
        m = measure_viscosity(d2q9_components, 64, 1.2)
        assert m.fit_r2 >= 0.999
        assert abs(m.nu_measured / m.nu_predicted - 1.0) <= 0.02

    def test_one_dimensional_lattice_rejected(self):
        # the shear wave needs a transverse velocity; a 1-D lattice must not
        # fall back to some other lattice
        with pytest.raises(ConfigError):
            measure_viscosity(components(lattice_name="d1q3"), 32, 1.5)

    @pytest.mark.parametrize("s", [1.2, 1.5, 1.8])
    def test_measurement_matches_exact_decay(self, d2q9_components, s):
        m = measure_viscosity(d2q9_components, 32, s)
        assert abs(m.nu_measured / m.nu_exact - 1.0) <= 1e-9

    def test_measurement_at_s2_matches_exact_decay(self, d2q9_components):
        # the exact decay vanishes; the eigenmode start needs no longer run
        m = measure_viscosity(d2q9_components, 32, 2.0)
        assert m.steps == verify.VISCOMETER_STEPS and m.nu_predicted == 0.0
        cs2_dt = d2q9_components.model.cs2 * m.dt
        assert abs(m.nu_measured - m.nu_exact) <= 1e-5 * cs2_dt
        assert abs(m.nu_exact) * m.k**2 * m.dt <= 64 * np.finfo(float).eps

    def test_equilibrium_start_decays_at_the_exact_rate(self, d2q9_components):
        # the paper's experiment: the wave starts at equilibrium, so the
        # non-hydrodynamic modes it excites must die out before the fit
        setup, n, s = d2q9_components, 64, 1.5
        model = setup.model
        dx = 1.0 / n
        params = SchemeParams(dx=dx, dt=dx, s=np.full(6, s))
        k = 2.0 * np.pi
        decay = shear_mode_decay(setup, params, k)
        steps = int(np.ceil(1.5 / decay))
        field = InitialField(
            rho=SineComponent(offset=1.0),
            velocity=(SineComponent(),
                      SineComponent(amplitude=verify.SHEAR_WAVE_AMPLITUDE)),
        )
        state = initialize_equilibrium(model, setup.vs, field.conserved((n, 8), dx))
        amps = []
        for _ in range(steps + 1):
            u_y = (state.f @ model.velocities[:, 1]) / state.f.sum(axis=-1)
            amps.append(2.0 * abs(np.fft.rfft(u_y.mean(axis=1))[1]) / n)
            state = step(state, setup.vs, setup.mm, model, params)
        t = params.dt * np.arange(32, steps + 1)
        nu = -np.polyfit(t, np.log(amps[32:]), 1)[0] / k**2
        nu_exact = decay / (k * k * params.dt)
        assert abs(nu - nu_exact) <= 1e-5 * model.cs2 * params.dt

    @pytest.mark.parametrize("s", [1.2, 1.5, 2.0])
    def test_mode_m_on_mN_nodes_decays_as_mode_1_on_N(self, d2q9_components, s):
        # the amplification depends on k dx alone, so the fixed mode-1 wave
        # covers every mode
        k = 2.0 * np.pi
        for m in (2, 4):
            coarse = SchemeParams(dx=1.0 / 32, dt=1.0 / 32, s=np.full(6, s))
            fine = SchemeParams(dx=1.0 / (32 * m), dt=1.0 / (32 * m), s=np.full(6, s))
            assert (shear_mode_decay(d2q9_components, fine, m * k)
                    == shear_mode_decay(d2q9_components, coarse, k))

    @pytest.mark.parametrize("s", [1.2, 1.5, 1.8])
    def test_exact_decay_converges_at_second_order(self, d2q9_components, s):
        # nu_exact / nu_predicted - 1 shrinks 4x per doubling of N
        cs2, k = d2q9_components.model.cs2, 2.0 * np.pi
        gaps = []
        for n in (32, 64, 128):
            dx = 1.0 / n
            params = SchemeParams(dx=dx, dt=dx, s=np.full(6, s))
            nu_exact = shear_mode_decay(d2q9_components, params, k) / (k * k * dx)
            gaps.append(nu_exact / (cs2 * dx * (1.0 / s - 0.5)) - 1.0)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.8 <= coarse / fine <= 4.2


class TestOrchestration:
    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigError):
            run_verification("prop7", RunConfig())

    def test_ladder_validated_before_any_simulation(self, monkeypatch):
        def no_viscometry(*args):
            raise AssertionError("viscometry ran before the ladder was checked")

        monkeypatch.setattr(verify, "measure_viscosity", no_viscometry)
        with pytest.raises(ConfigError, match="at least 4 resolutions"):
            run_verification("all", RunConfig(resolutions=(16, 32, 64)))

    def test_measurement_off_the_exact_decay_fails(self, monkeypatch):
        measure = verify.measure_viscosity

        def off_by(shift):
            def measure_off(components, N, s):
                m = measure(components, N, s)
                nu = m.nu_measured + shift * components.model.cs2 * m.dt
                return dataclasses.replace(m, nu_measured=nu)
            return measure_off

        cfg = RunConfig(viscosity_s=(1.5,), viscosity_n=32)
        monkeypatch.setattr(verify, "measure_viscosity", off_by(1e-4))
        (outcome,) = run_verification("viscosity", cfg)
        assert not outcome.passed and "measured nu" in outcome.note
        assert outcome.summary_value == pytest.approx(1e-4, rel=1e-3)
        monkeypatch.setattr(verify, "measure_viscosity", off_by(0.0))
        (outcome,) = run_verification("viscosity", cfg)
        assert outcome.passed and outcome.summary_value <= 1e-11

    def test_undamped_shear_mode_reads_no_decay(self):
        # this D2Q5 basis does not damp the shear wave (nu_exact ~ 0 at every
        # s); the momentum sampler reads no decay either, so only check (b)
        # fails.  Sampling q_y / rho read up to 4e-8 cs2 dt.
        cfg = RunConfig(vectors=((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)),
                        higher_rows=((0, 1, 1, 1, 1), (0, 1, -1, 1, -1)),
                        weights=(1 / 3,) + (1 / 6,) * 4, lam=1.7, viscosity_n=32)
        (outcome,) = run_verification("viscosity", cfg)
        assert max(column(outcome, "measured_error")) < verify.VISCOSITY_ATOL
        assert not outcome.passed and "measured nu" not in outcome.note
        assert "exact nu off the prediction" in outcome.note

    def test_all_emits_six_lines(self):
        cfg = RunConfig(viscosity_s=(1.5,), viscosity_n=32)
        outcomes = run_verification("all", cfg)
        names = [o.experiment for o in outcomes]
        assert names == ["prop3", "prop4", "prop5", "prop6", "mass", "viscosity"]
        assert len(names) == 6
        for o in outcomes:
            assert o.summary_line()

    def test_only_run_calls_of_team_nodes_fork(self, monkeypatch):
        # verify-refine's ladder: run(N - 1) on N x 8 forks a worker from
        # _team.TEAM_NODES = 2,048 nodes on, whose 4.7M and 18.8M population
        # updates pass _team.TEAM_UPDATES; its two steps per resolution and every
        # viscometry step go one at a time, and never fork
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("this process may run on one CPU only, so run steps on one process")
        forks, calls = [], []
        fork, run = os.fork, verify.run

        def counting_fork():
            forks.append(1)
            return fork()

        def recording_run(state, n_steps, *args):
            before = len(forks)
            out = run(state, n_steps, *args)
            calls.append((state.f.size // state.f.shape[-1], n_steps, len(forks) - before))
            return out

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(verify, "run", recording_run)
        cfg = RunConfig(resolutions=(64, 128, 256, 512), coarse_steps=64,
                        viscosity_s=(1.5,), viscosity_n=32)
        run_verification("all", cfg)
        assert calls == [(512, 63, 0), (1024, 127, 0), (2048, 255, 1), (4096, 511, 1)]
        assert len(forks) == 2

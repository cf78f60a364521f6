import numpy as np
import pytest

import lbmlab as lb
from lbmlab.config import RunConfig, build_components
from lbmlab.errors import ConfigError, FitRejected, IllConditionedWarning
from lbmlab.verify import (
    ShearWaveConfig,
    _fit_decay,
    fit_loglog,
    resolution_floor,
    study_prop3,
)

LADDER = (32, 64, 128, 256)


def components(**fields):
    return build_components(RunConfig(**fields))


@pytest.fixture(scope="module")
def d2q9_components():
    return components()


@pytest.fixture(scope="module")
def default_studies(d2q9_components):
    return lb.refinement_studies(d2q9_components, LADDER, 32)


class TestResiduals:
    def test_uniform_field_residual_is_zero(self):
        uniform = components(initial_kind="uniform")
        assert lb.resolution_residuals(uniform, 32, 32)["prop3"] <= 1e-13

    def test_single_step_full_relaxation_brute_force(self):
        # with s = 1 the collision lands exactly on equilibrium, so after one
        # full step the disequilibrium is the streaming contribution alone;
        # replay that by hand on an 8-node 1-D grid
        setup = components(lattice_name="d1q3", s=(1.0,), ux_amplitude=1e-3)
        measured = lb.resolution_residuals(setup, 8, 1)["prop3"]

        n = 8
        dx = 1.0 / n
        W0 = setup.field.conserved((n,), dx)
        feq = lb.equilibrium_distribution(setup.model, setup.vs, W0)
        f1 = np.empty_like(feq)
        for i in range(n):
            for j, e in enumerate((0, 1, -1)):
                f1[i, j] = feq[(i - e) % n, j]
        m1 = f1 @ setup.mm.M.T
        m_eq1 = lb.equilibrium_moments(setup.model, setup.vs, setup.mm,
                                       m1[:, :2])
        oracle = np.abs(m1[:, 2] - m_eq1[:, 2]).max()
        # collide at s = 1 computes m - 1.0*(m - m_eq), which differs from
        # exact equilibrium by one rounding, hence the 1e-12 relative slack
        assert measured == pytest.approx(oracle, rel=1e-12)

    def test_prop5_beats_prop3(self, d2q9_components):
        res = lb.resolution_residuals(d2q9_components, 64, 64)
        assert res["prop5"] < 0.05 * res["prop3"]

    def test_conservation_residuals_s2_collapse(self):
        # with s = 2 the flux correction vanishes, so the bare and corrected
        # momentum residuals coincide
        res = lb.resolution_residuals(components(s=(2.0,)), 32, 32)
        assert res["prop4"] == res["prop6"]

    def test_mass_drift_audited(self, d2q9_components):
        res = lb.resolution_residuals(d2q9_components, 32, 32)
        assert res["mass_drift"] <= 1e-12


class TestRefinementStudy:
    def test_requires_four_doubling_resolutions(self, d2q9_components):
        with pytest.raises(ConfigError):
            lb.refinement_studies(d2q9_components, (32, 64), 32)
        with pytest.raises(ConfigError):
            lb.refinement_studies(d2q9_components, (32, 64, 96, 128), 32)

    def test_requires_twenty_coarse_steps(self, d2q9_components):
        with pytest.raises(ConfigError):
            lb.refinement_studies(d2q9_components, LADDER, 3)

    def test_deterministic_and_monotone(self, d2q9_components, default_studies):
        a = default_studies["prop3"]
        b = study_prop3(d2q9_components, LADDER, 32)
        assert a.residuals == b.residuals
        assert a.slope == b.slope
        assert all(x > y for x, y in zip(a.residuals, a.residuals[1:]))

    def test_running_slopes_shape(self, default_studies):
        rs = default_studies["prop3"].running_slopes()
        assert len(rs) == 4 and np.isnan(rs[0])

    def test_fit_loglog_exact_power(self):
        x = np.array([1.0, 0.5, 0.25, 0.125])
        slope, intercept, r2 = fit_loglog(x, 3.0 * x**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


class TestViscometry:
    def test_two_point_scaling(self, d2q9_components):
        # doubling N at fixed s halves dt hence the predicted viscosity;
        # the measured value tracks the prediction at both resolutions
        cfg = ShearWaveConfig(s_shear=1.2)
        m64 = lb.measure_viscosity(d2q9_components, cfg, 64)
        m128 = lb.measure_viscosity(d2q9_components, cfg, 128)
        assert m64.nu_predicted == pytest.approx(2 * m128.nu_predicted)
        assert m64.relative_error <= 0.02
        assert m128.relative_error <= 0.02
        assert m64.mass_drift <= 1e-12

    def test_stokes_decay_against_analytic_oracle(self, d2q9_components):
        # e-folding: after t = 1/(nu k^2) the amplitude is down by e
        cfg = ShearWaveConfig(s_shear=1.2, horizon_decay_times=1.2)
        m = lb.measure_viscosity(d2q9_components, cfg, 64)
        assert m.fit_r2 >= 0.999
        assert abs(m.nu_measured / m.nu_predicted - 1.0) <= 0.02

    def test_ill_conditioned_warning(self, d2q9_components):
        cfg = ShearWaveConfig(s_shear=1.96, horizon_decay_times=0.5)
        with pytest.warns(IllConditionedWarning):
            m = lb.measure_viscosity(d2q9_components, cfg, 32)
        assert m.below_floor

    def test_one_dimensional_lattice_rejected(self):
        # the shear wave needs a transverse velocity; a 1-D lattice must not
        # fall back to some other lattice
        with pytest.raises(ConfigError):
            lb.measure_viscosity(components(lattice_name="d1q3"),
                                 ShearWaveConfig(), 32)

    def test_amplitude_bound_enforced(self):
        with pytest.raises(ConfigError):
            ShearWaveConfig(amplitude=0.1)
        with pytest.raises(ConfigError):
            ShearWaveConfig(mode=0)

    def test_fit_rejected_on_contaminated_decay(self):
        t = np.linspace(0.0, 10.0, 200)
        clean = np.exp(-0.5 * t)
        contaminated = clean * (1.0 + 0.3 * np.sign(np.sin(8 * t)))
        with pytest.raises(FitRejected):
            _fit_decay(t, contaminated, floor_rate=1e-3)
        slope, r2 = _fit_decay(t, clean, floor_rate=1e-3)
        assert slope == pytest.approx(-0.5, rel=1e-6)

    def test_resolution_floor_value(self):
        # cs2 dt (k dx)^2 at N = 64, unit domain and celerity
        floor = resolution_floor(1 / 3, 1 / 64, 2 * np.pi, 1 / 64)
        assert floor == pytest.approx((1 / 3) * (1 / 64) * (2 * np.pi / 64) ** 2)


class TestOrchestration:
    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigError):
            lb.run_verification("prop7", RunConfig())

    def test_all_emits_six_lines(self):
        cfg = RunConfig(viscosity_s=(1.5,), viscosity_n=32,
                        horizon_decay_times=1.2)
        outcomes = lb.run_verification("all", cfg)
        names = [o.experiment for o in outcomes]
        assert names == ["prop3", "prop4", "prop5", "prop6", "mass", "viscosity"]
        assert len(names) == 6
        for o in outcomes:
            assert o.summary_line()

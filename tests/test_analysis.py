import numpy as np
import pytest

from lbmlab.analysis import (
    conservation_defect,
    euler_flux_divergence,
    fd_gradient,
    fd_gradients,
    ns_flux_correction,
    pde_report,
    technical_lemma_prediction,
)
from lbmlab.equilibrium import build_equilibrium, equilibrium_moments, momentum_flux
from lbmlab.errors import GridTooCoarse, NonPositiveDensity, ShapeError
from lbmlab.fields import InitialField, SineComponent
from lbmlab.lattice import build_moment_matrix, build_velocity_set
from lbmlab.scheme import SchemeParams


def _sampled(fld, n, ny, analytic):
    """(W, dW, dx) of a profile on an n x ny grid: W is the read-only view
    ``conserved`` returns, dW its exact ``gradients`` or ``fd_gradients``."""
    dx = 1.0 / n
    W = fld.conserved((n, ny), dx)
    assert not W.flags.writeable
    dW = fld.gradients((n, ny), dx) if analytic else fd_gradients(W, dx)
    return W, dW, dx


def shear_field(n=64, eps=1e-3, analytic=True, ny=8):
    fld = InitialField(
        rho=SineComponent(offset=1.0),
        velocity=(SineComponent(), SineComponent(amplitude=eps)),
    )
    return _sampled(fld, n, ny, analytic)


def mixed_field(n=64, eps=1e-3, ny=8, analytic=True):
    fld = InitialField(
        rho=SineComponent(1.0, eps, 1),
        velocity=(SineComponent(0.0, 0.6 * eps, 1), SineComponent(0.0, eps, 1)),
    )
    return _sampled(fld, n, ny, analytic)


def uniform(values, grid):
    """(W, dW) of a uniform state: every derivative is zero."""
    W = np.broadcast_to(np.array(values), grid + (len(values),)).copy()
    return W, fd_gradients(W, 0.1)


class TestConservationDefect:
    def test_uniform_field_gives_zero(self, d2q9):
        vs, mm, model = d2q9
        W, dW = uniform([1.0, 0.01, -0.02], (16, 8))
        theta = conservation_defect(W, dW, model, vs, mm)
        assert np.abs(theta).max() == 0.0

    def test_conserved_rows_vanish(self, d2q9):
        vs, mm, model = d2q9
        W, dW, _ = mixed_field()
        theta = conservation_defect(W, dW, model, vs, mm)
        norm = np.abs(theta).max()
        assert np.abs(theta[..., :3]).max() <= 1e-12 * norm

    def test_conserved_rows_vanish_fd_path(self, d2q9):
        vs, mm, model = d2q9
        W, dW, _ = mixed_field(analytic=False)
        theta = conservation_defect(W, dW, model, vs, mm)
        norm = np.abs(theta).max()
        assert np.abs(theta[..., :3]).max() <= 1e-12 * norm

    def test_shear_wave_closed_form(self, d2q9):
        # exact evaluation: for W = (1, 0, eps sin kx) the defect sits in the
        # off-diagonal stress row, theta_8 = cs2 * eps * k * cos(kx), with an
        # O(eps^2) tail in the x heat-flux row and nothing anywhere else
        vs, mm, model = d2q9
        n, eps = 64, 1e-3
        W, dW, _ = shear_field(n=n, eps=eps, analytic=True)
        theta = conservation_defect(W, dW, model, vs, mm)
        k = 2 * np.pi
        x = np.arange(n) / n
        cs2 = model.cs2
        assert np.abs(theta[:, 0, 8] - cs2 * eps * k * np.cos(k * x)).max() <= 1e-15
        assert np.abs(theta[:, 0, 5] - eps**2 * k * np.sin(2 * k * x)).max() <= 1e-15
        for idx in (0, 1, 2, 3, 4, 6, 7):
            assert np.abs(theta[..., idx]).max() <= 1e-16

    def test_shear_wave_brute_force_oracle(self, d2q9):
        # independent re-evaluation: loop over populations with hand-coded
        # derivatives of the sine profile and the inviscid time elimination
        vs, mm, model = d2q9
        n, eps = 32, 1e-3
        dx = 1.0 / n
        k = 2 * np.pi
        x = np.arange(n) * dx
        w, v, cs2 = model.weights, model.velocities, model.cs2
        theta_oracle = np.zeros((n, 9))
        for ix in range(n):
            s, c = np.sin(k * x[ix]), np.cos(k * x[ix])
            qy, dqy = eps * s, eps * k * c
            # dt W = 0 for this field (div q = 0, div F = 0); only v_x d_x f_eq
            for kk in range(9):
                acc = 0.0
                for j in range(9):
                    dfeq = w[j] * (v[j, 1] * dqy / cs2
                                   + v[j, 1] ** 2 * qy * dqy / cs2**2
                                   - qy * dqy / cs2)
                    acc += mm.M[kk, j] * v[j, 0] * dfeq
                theta_oracle[ix, kk] = acc
        W, dW, _ = shear_field(n=n, eps=eps, analytic=True)
        theta = conservation_defect(W, dW, model, vs, mm)
        assert np.abs(theta[:, 0, :] - theta_oracle).max() <= 1e-15

    def test_amplitude_linearity(self, d2q9):
        vs, mm, model = d2q9
        eps = 1e-4
        t1 = conservation_defect(*shear_field(eps=eps)[:2], model, vs, mm)
        t2 = conservation_defect(*shear_field(eps=2 * eps)[:2], model, vs, mm)
        ratio = np.abs(t2).max() / np.abs(t1).max()
        assert abs(ratio - 2.0) <= 1e-3 * 2.0

    def test_fd_theta_converges_fourth_order(self, d2q9):
        vs, mm, model = d2q9
        errs = []
        for n in (32, 64):
            exact = conservation_defect(*shear_field(n=n)[:2], model, vs, mm)
            fd = conservation_defect(*shear_field(n=n, analytic=False)[:2],
                                     model, vs, mm)
            errs.append(np.abs(fd - exact).max())
        assert errs[0] / errs[1] >= 14.0

    def test_grid_too_coarse(self, d2q9):
        vs, mm, model = d2q9
        W = np.ones((4, 8, 3))
        with pytest.raises(GridTooCoarse):
            conservation_defect(W, fd_gradients(W, 0.1), model, vs, mm)

    def test_nonpositive_density(self, d2q9):
        vs, mm, model = d2q9
        W = np.ones((8, 8, 3))
        W[3, 3, 0] = -0.5
        with pytest.raises(NonPositiveDensity):
            conservation_defect(W, fd_gradients(W, 0.1), model, vs, mm)

    def test_field_shape_validation(self, d2q9):
        vs, mm, model = d2q9
        W = np.ones((8, 3))  # 3 components need 2 axes
        message = "field with 3 components needs 2 grid axes, got 1"
        with pytest.raises(ShapeError, match=message):
            conservation_defect(W, np.zeros((2, 8, 3)), model, vs, mm)
        with pytest.raises(ShapeError, match=message):
            euler_flux_divergence(W, 0.1, model, vs)

    def test_derivatives_must_fit_the_field(self, d2q9):
        vs, mm, model = d2q9
        W, dW, _ = shear_field(n=16)
        for wrong in (dW[:1], dW[:, :, :1], dW[..., :2]):
            with pytest.raises(ShapeError, match="do not fit a field of shape"):
                conservation_defect(W, wrong, model, vs, mm)


class TestEulerFluxDivergence:
    def test_uniform_zero(self, d2q9):
        vs, mm, model = d2q9
        W, _ = uniform([1.0, 0.03, 0.01], (16, 8))
        out = euler_flux_divergence(W, 0.1, model, vs)
        assert np.abs(out).max() == 0.0

    def test_density_wave_linearization(self, d2q9):
        # W = (1 + eps sin kx, 0, 0): q = 0 exactly, so F = cs2 rho I exactly
        # and the momentum row is cs2 eps k cos(kx) up to stencil truncation
        vs, _, model = d2q9
        n, eps = 128, 1e-6
        dx = 1.0 / n
        fld = InitialField(rho=SineComponent(1.0, eps, 1),
                           velocity=(SineComponent(), SineComponent()))
        out = euler_flux_divergence(fld.conserved((n, 8), dx), dx, model, vs)
        k = 2 * np.pi
        x = np.arange(n) * dx
        expected = model.cs2 * eps * k * np.cos(k * x)
        scale = model.cs2 * eps * k
        assert np.abs(out[..., 0]).max() == 0.0
        assert np.abs(out[:, 0, 1] - expected).max() <= 1e-5 * scale
        assert np.abs(out[..., 2]).max() <= 1e-12 * scale

    def test_matches_fd_of_flux_values(self, d2q9):
        vs, _, model = d2q9
        W, _, dx = mixed_field(analytic=False)
        out = euler_flux_divergence(W, dx, model, vs)
        F = momentum_flux(model, vs, W)
        q = W[..., 1:]
        oracle = np.zeros_like(W)
        for b in range(2):
            oracle[..., 0] += fd_gradient(q[..., b], b, dx)
            for a in range(2):
                oracle[..., 1 + a] += fd_gradient(F[..., a, b], b, dx)
        # the b terms are added in the same order, so the sums agree bit for bit
        assert np.array_equal(out, oracle)


class TestNsFluxCorrection:
    def test_s2_returns_bare_flux(self, d2q9):
        vs, mm, model = d2q9
        W, dW, _ = mixed_field()
        params = SchemeParams(1 / 64, 1 / 64, np.full(6, 2.0))
        corr = ns_flux_correction(conservation_defect(W, dW, model, vs, mm),
                                  W, model, vs, mm, params)
        F = momentum_flux(model, vs, W)
        assert np.array_equal(corr, F)

    def test_uniform_returns_pressure(self, d2q9):
        vs, mm, model = d2q9
        rho = 1.4
        W, dW = uniform([rho, 0.0, 0.0], (16, 8))
        params = SchemeParams(1 / 64, 1 / 64, np.full(6, 1.5))
        theta = conservation_defect(W, dW, model, vs, mm)
        corr = ns_flux_correction(theta, W, model, vs, mm, params)
        assert np.allclose(corr, model.cs2 * rho * np.eye(2), atol=1e-15)

    def test_shear_wave_off_diagonal_oracle(self, d2q9):
        # Lambda_xy picks exactly the stress_xy row, so the off-diagonal
        # correction is F_xy - dt (1/s - 1/2) theta_8, term by term
        vs, mm, model = d2q9
        s = 1.5
        n = 64
        params = SchemeParams(1.0 / n, 1.0 / n, np.full(6, s))
        W, dW, _ = shear_field(n=n)
        theta = conservation_defect(W, dW, model, vs, mm)
        F = momentum_flux(model, vs, W)
        corr = ns_flux_correction(theta, W, model, vs, mm, params)
        expected = F[..., 0, 1] - params.dt * (1 / s - 0.5) * theta[..., 8]
        assert np.abs(corr[..., 0, 1] - expected).max() <= 1e-15
        assert np.abs(corr[..., 0, 1] - corr[..., 1, 0]).max() <= 1e-16


class TestTechnicalLemmaPrediction:
    def test_uniform_equals_equilibrium_moments(self, d2q9):
        vs, mm, model = d2q9
        W, dW = uniform([1.0, 0.0, 0.0], (16, 8))
        params = SchemeParams(1 / 64, 1 / 64, np.full(6, 1.5))
        theta = conservation_defect(W, dW, model, vs, mm)
        pred = technical_lemma_prediction(theta, W, model, vs, mm, params)
        m_eq = equilibrium_moments(model, vs, mm, W)
        assert np.array_equal(pred, m_eq)

    def test_shear_wave_shift(self, d2q9):
        vs, mm, model = d2q9
        s = 1.5
        params = SchemeParams(1 / 64, 1 / 64, np.full(6, s))
        W, dW, _ = shear_field()
        theta = conservation_defect(W, dW, model, vs, mm)
        pred = technical_lemma_prediction(theta, W, model, vs, mm, params)
        m_eq = equilibrium_moments(model, vs, mm, W)
        diff = m_eq[..., 3:] - pred[..., 3:]
        assert np.allclose(diff, (params.dt / s) * theta[..., 3:], atol=1e-18)


class TestPdeReport:
    def test_mu_values(self, d2q9):
        vs, mm, model = d2q9
        params = SchemeParams(1e-2, 1e-2, np.full(6, 1.0))
        rep = pde_report(vs, mm, model, params)
        assert rep.ks == (3, 4, 5, 6, 7, 8)
        assert np.allclose(rep.mu, 5e-3)
        params2 = SchemeParams(1e-2, 1e-2, np.full(6, 2.0))
        rep2 = pde_report(vs, mm, model, params2)
        assert np.allclose(rep2.mu, 0.0)

    def test_shear_viscosity_prediction(self):
        vs = build_velocity_set("d2q9")
        lam = 1.0
        mm = build_moment_matrix(vs, lam)
        model = build_equilibrium(vs, lam)
        dt = 1.0 / 128
        params = SchemeParams(dt, dt, np.full(6, 1.25))
        rep = pde_report(vs, mm, model, params)
        assert rep.shear_moment == "stress_xy"
        assert abs(rep.nu_shear - 7.8125e-4) <= 1e-18
        assert abs(rep.mu[-1] - 2.34375e-3) <= 1e-18

    def test_csv_columns(self, d2q9, d1q3):
        vs, mm, model = d2q9
        params = SchemeParams(1 / 64, 1 / 64, np.full(6, 1.5))
        csv = pde_report(vs, mm, model, params).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "k,s_k,mu_k,Lambda_11_k,Lambda_12_k,Lambda_22_k"
        assert len(lines) == 7
        vs1, mm1, model1 = d1q3
        params1 = SchemeParams(1 / 64, 1 / 64, np.array([1.5]))
        csv1 = pde_report(vs1, mm1, model1, params1).to_csv()
        assert csv1.splitlines()[0] == "k,s_k,mu_k,Lambda_11_k"
        rep1 = pde_report(vs1, mm1, model1, params1)
        assert rep1.nu_shear is not None  # the single relaxed moment's rate

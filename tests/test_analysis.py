import numpy as np
import pytest

import lbmlab as lb
from lbmlab.analysis import SmoothField, fd_gradient
from lbmlab.errors import GridTooCoarse, NonPositiveDensity, ShapeError
from lbmlab.fields import InitialField, SineComponent


def shear_field(n=64, eps=1e-3, mode=1, analytic=True, ny=8):
    fld = InitialField(
        rho=SineComponent(offset=1.0),
        velocity=(SineComponent(), SineComponent(amplitude=eps, mode=mode)),
    )
    dx = 1.0 / n
    if analytic:
        return fld.smooth_field((n, ny), dx)
    return SmoothField(W=fld.conserved((n, ny), dx), dx=dx)


def mixed_field(n=64, eps=1e-3, ny=8, analytic=True):
    fld = InitialField(
        rho=SineComponent(1.0, eps, 1),
        velocity=(SineComponent(0.0, 0.6 * eps, 1), SineComponent(0.0, eps, 1)),
    )
    dx = 1.0 / n
    if analytic:
        return fld.smooth_field((n, ny), dx)
    return SmoothField(W=fld.conserved((n, ny), dx), dx=dx)


class TestConservationDefect:
    def test_uniform_field_gives_zero(self, d2q9):
        vs, mm, model = d2q9
        W = np.broadcast_to(np.array([1.0, 0.01, -0.02]), (16, 8, 3)).copy()
        theta = lb.conservation_defect(SmoothField(W, 0.1), model, vs, mm).theta
        assert np.abs(theta).max() == 0.0

    def test_conserved_rows_vanish(self, d2q9):
        vs, mm, model = d2q9
        theta = lb.conservation_defect(mixed_field(), model, vs, mm).theta
        norm = np.abs(theta).max()
        assert np.abs(theta[..., :3]).max() <= 1e-12 * norm

    def test_conserved_rows_vanish_fd_path(self, d2q9):
        vs, mm, model = d2q9
        theta = lb.conservation_defect(mixed_field(analytic=False),
                                       model, vs, mm).theta
        norm = np.abs(theta).max()
        assert np.abs(theta[..., :3]).max() <= 1e-12 * norm

    def test_shear_wave_closed_form(self, d2q9):
        # exact evaluation: for W = (1, 0, eps sin kx) the defect sits in the
        # off-diagonal stress row, theta_8 = cs2 * eps * k * cos(kx), with an
        # O(eps^2) tail in the x heat-flux row and nothing anywhere else
        vs, mm, model = d2q9
        n, eps = 64, 1e-3
        fld = shear_field(n=n, eps=eps, analytic=True)
        theta = lb.conservation_defect(fld, model, vs, mm).theta
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
        fld = shear_field(n=n, eps=eps, analytic=True)
        theta = lb.conservation_defect(fld, model, vs, mm).theta
        assert np.abs(theta[:, 0, :] - theta_oracle).max() <= 1e-15

    def test_amplitude_linearity(self, d2q9):
        vs, mm, model = d2q9
        eps = 1e-4
        t1 = lb.conservation_defect(shear_field(eps=eps), model, vs, mm).theta
        t2 = lb.conservation_defect(shear_field(eps=2 * eps), model, vs, mm).theta
        ratio = np.abs(t2).max() / np.abs(t1).max()
        assert abs(ratio - 2.0) <= 1e-3 * 2.0

    def test_fd_theta_converges_fourth_order(self, d2q9):
        vs, mm, model = d2q9
        errs = []
        for n in (32, 64):
            exact = lb.conservation_defect(shear_field(n=n), model, vs, mm).theta
            fd = lb.conservation_defect(shear_field(n=n, analytic=False),
                                        model, vs, mm).theta
            errs.append(np.abs(fd - exact).max())
        assert errs[0] / errs[1] >= 14.0

    def test_grid_too_coarse(self, d2q9):
        vs, mm, model = d2q9
        W = np.ones((4, 8, 3))
        with pytest.raises(GridTooCoarse):
            lb.conservation_defect(SmoothField(W, 0.1), model, vs, mm)

    def test_nonpositive_density(self, d2q9):
        vs, mm, model = d2q9
        W = np.ones((8, 8, 3))
        W[3, 3, 0] = -0.5
        with pytest.raises(NonPositiveDensity):
            lb.conservation_defect(SmoothField(W, 0.1), model, vs, mm)

    def test_field_shape_validation(self):
        with pytest.raises(ShapeError):
            SmoothField(np.ones((8, 3)), 0.1)  # 2 components need 1 axis


class TestEulerFluxDivergence:
    def test_uniform_zero(self, d2q9):
        vs, mm, model = d2q9
        W = np.broadcast_to(np.array([1.0, 0.03, 0.01]), (16, 8, 3)).copy()
        out = lb.euler_flux_divergence(SmoothField(W, 0.1), model, vs)
        assert np.abs(out).max() == 0.0

    def test_density_wave_linearization(self, d2q9):
        # W = (1 + eps sin kx, 0, 0): q = 0 exactly, so F = cs2 rho I exactly
        # and the momentum row is cs2 eps k cos(kx) up to stencil truncation
        vs, _, model = d2q9
        n, eps = 128, 1e-6
        dx = 1.0 / n
        fld = InitialField(rho=SineComponent(1.0, eps, 1),
                           velocity=(SineComponent(), SineComponent()))
        out = lb.euler_flux_divergence(
            SmoothField(fld.conserved((n, 8), dx), dx), model, vs)
        k = 2 * np.pi
        x = np.arange(n) * dx
        expected = model.cs2 * eps * k * np.cos(k * x)
        scale = model.cs2 * eps * k
        assert np.abs(out[..., 0]).max() == 0.0
        assert np.abs(out[:, 0, 1] - expected).max() <= 1e-5 * scale
        assert np.abs(out[..., 2]).max() <= 1e-12 * scale

    def test_matches_fd_of_flux_values(self, d2q9):
        vs, _, model = d2q9
        fld = mixed_field(analytic=False)
        out = lb.euler_flux_divergence(fld, model, vs)
        F = lb.momentum_flux(model, vs, fld.W)
        q = fld.W[..., 1:]
        oracle = np.zeros_like(fld.W)
        for b in range(2):
            oracle[..., 0] += fd_gradient(q[..., b], b, fld.dx)
            for a in range(2):
                oracle[..., 1 + a] += fd_gradient(F[..., a, b], b, fld.dx)
        assert np.abs(out - oracle).max() <= 1e-12


class TestNsFluxCorrection:
    def test_s2_returns_bare_flux(self, d2q9):
        vs, mm, model = d2q9
        fld = mixed_field()
        params = lb.SchemeParams(1 / 64, 1 / 64, np.full(6, 2.0))
        corr = lb.ns_flux_correction(lb.conservation_defect(fld, model, vs, mm),
                                     model, vs, mm, params)
        F = lb.momentum_flux(model, vs, fld.W)
        assert np.array_equal(corr, F)

    def test_uniform_returns_pressure(self, d2q9):
        vs, mm, model = d2q9
        rho = 1.4
        W = np.broadcast_to(np.array([rho, 0.0, 0.0]), (16, 8, 3)).copy()
        params = lb.SchemeParams(1 / 64, 1 / 64, np.full(6, 1.5))
        defect = lb.conservation_defect(SmoothField(W, 1 / 64), model, vs, mm)
        corr = lb.ns_flux_correction(defect, model, vs, mm, params)
        assert np.allclose(corr, model.cs2 * rho * np.eye(2), atol=1e-15)

    def test_shear_wave_off_diagonal_oracle(self, d2q9):
        # Lambda_xy picks exactly the stress_xy row, so the off-diagonal
        # correction is F_xy - dt (1/s - 1/2) theta_8, term by term
        vs, mm, model = d2q9
        s = 1.5
        n = 64
        params = lb.SchemeParams(1.0 / n, 1.0 / n, np.full(6, s))
        fld = shear_field(n=n)
        defect = lb.conservation_defect(fld, model, vs, mm)
        theta = defect.theta
        F = lb.momentum_flux(model, vs, fld.W)
        corr = lb.ns_flux_correction(defect, model, vs, mm, params)
        expected = F[..., 0, 1] - params.dt * (1 / s - 0.5) * theta[..., 8]
        assert np.abs(corr[..., 0, 1] - expected).max() <= 1e-15
        assert np.abs(corr[..., 0, 1] - corr[..., 1, 0]).max() <= 1e-16


class TestTechnicalLemmaPrediction:
    def test_uniform_equals_equilibrium_moments(self, d2q9):
        vs, mm, model = d2q9
        W = np.broadcast_to(np.array([1.0, 0.0, 0.0]), (16, 8, 3)).copy()
        params = lb.SchemeParams(1 / 64, 1 / 64, np.full(6, 1.5))
        defect = lb.conservation_defect(SmoothField(W, 1 / 64), model, vs, mm)
        pred = lb.technical_lemma_prediction(defect, model, vs, mm, params)
        m_eq = lb.equilibrium_moments(model, vs, mm, W)
        assert np.array_equal(pred, m_eq)

    def test_shear_wave_shift(self, d2q9):
        vs, mm, model = d2q9
        s = 1.5
        params = lb.SchemeParams(1 / 64, 1 / 64, np.full(6, s))
        fld = shear_field()
        defect = lb.conservation_defect(fld, model, vs, mm)
        pred = lb.technical_lemma_prediction(defect, model, vs, mm, params)
        m_eq = lb.equilibrium_moments(model, vs, mm, fld.W)
        theta = defect.theta
        diff = m_eq[..., 3:] - pred[..., 3:]
        assert np.allclose(diff, (params.dt / s) * theta[..., 3:], atol=1e-18)


class TestPdeReport:
    def test_mu_values(self, d2q9):
        vs, mm, model = d2q9
        params = lb.SchemeParams(1e-2, 1e-2, np.full(6, 1.0))
        rep = lb.pde_report(vs, mm, model, params)
        assert rep.ks == (3, 4, 5, 6, 7, 8)
        assert np.allclose(rep.mu, 5e-3)
        params2 = lb.SchemeParams(1e-2, 1e-2, np.full(6, 2.0))
        rep2 = lb.pde_report(vs, mm, model, params2)
        assert np.allclose(rep2.mu, 0.0)

    def test_shear_viscosity_prediction(self):
        vs = lb.build_velocity_set("d2q9")
        lam = 1.0
        mm = lb.build_moment_matrix(vs, lam)
        model = lb.build_equilibrium(vs, lam)
        dt = 1.0 / 128
        params = lb.SchemeParams(dt, dt, np.full(6, 1.25))
        rep = lb.pde_report(vs, mm, model, params)
        assert rep.shear_moment == "stress_xy"
        assert abs(rep.nu_shear - 7.8125e-4) <= 1e-18
        assert abs(rep.mu[-1] - 2.34375e-3) <= 1e-18

    def test_csv_columns(self, d2q9, d1q3):
        vs, mm, model = d2q9
        params = lb.SchemeParams(1 / 64, 1 / 64, np.full(6, 1.5))
        csv = lb.pde_report(vs, mm, model, params).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "k,s_k,mu_k,Lambda_11_k,Lambda_12_k,Lambda_22_k"
        assert len(lines) == 7
        vs1, mm1, model1 = d1q3
        params1 = lb.SchemeParams(1 / 64, 1 / 64, np.array([1.5]))
        csv1 = lb.pde_report(vs1, mm1, model1, params1).to_csv()
        assert csv1.splitlines()[0] == "k,s_k,mu_k,Lambda_11_k"
        rep1 = lb.pde_report(vs1, mm1, model1, params1)
        assert rep1.nu_shear is not None  # the single relaxed moment's rate

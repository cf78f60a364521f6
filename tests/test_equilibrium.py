import numpy as np
import pytest
from hypothesis import given, strategies as st

from lbmlab.equilibrium import (
    build_equilibrium,
    equilibrium_distribution,
    equilibrium_jacobian,
    equilibrium_moments,
    momentum_flux,
)
from lbmlab.errors import InvalidEquilibrium, NonPositiveDensity
from lbmlab.lattice import build_velocity_set, lambda_tensor
from lbmlab.scheme import initialize_equilibrium

from fresh import fresh_python

D2Q9_WEIGHTS = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)


def random_states(d, n, seed, lam=1.0):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 2.0, n)
    u = rng.uniform(-0.1 * lam, 0.1 * lam, (n, d))
    return np.concatenate([rho[:, None], rho[:, None] * u], axis=1)


def test_rest_state_gives_weights(d2q9):
    vs, _, model = d2q9
    feq = equilibrium_distribution(model, vs, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(feq, D2Q9_WEIGHTS, atol=1e-15)


@pytest.mark.parametrize("fixture", ["d2q9", "d1q3"])
def test_moment_constraints_1000_states(fixture, request):
    vs, _, model = request.getfixturevalue(fixture)
    W = random_states(vs.d, 1000, seed=7)
    feq = equilibrium_distribution(model, vs, W)
    rho = W[:, 0]
    mass_rel = np.abs(feq.sum(-1) - rho) / rho
    mom_rel = np.abs(feq @ model.velocities - W[:, 1:]) / rho[:, None]
    assert mass_rel.max() <= 1e-12
    assert mom_rel.max() <= 1e-12


def test_nonpositive_density_guard(d2q9):
    # rho <= 0 is false on NaN, which once gave NaN populations unchecked
    vs, _, model = d2q9
    for rho, problem in ((-1.0, "rho > 0"), (0.0, "rho > 0"), (np.nan, "finite rho"),
                         (np.inf, "finite rho"), (-np.inf, "finite rho")):
        W = np.ones((4, 4, 3))
        W[1, 2, 0] = rho
        for evaluate in (equilibrium_distribution, equilibrium_jacobian,
                         initialize_equilibrium):
            with pytest.raises(NonPositiveDensity, match=f"requires {problem} everywhere$"):
                evaluate(model, vs, W)


class TestEquilibriumMoments:
    def test_d1q3_rest(self, d1q3):
        vs, mm, model = d1q3
        rho = 1.7
        m_eq = equilibrium_moments(model, vs, mm, np.array([rho, 0.0]))
        # matrix-vector oracle: energy row is v^2, second moment is cs2*rho
        oracle = mm.M @ equilibrium_distribution(model, vs, np.array([rho, 0.0]))
        assert np.allclose(m_eq, oracle, atol=1e-15)
        assert np.allclose(m_eq, [rho, 0.0, rho / 3.0], atol=1e-14)

    def test_first_entries_equal_state(self, d2q9):
        vs, mm, model = d2q9
        W = random_states(2, 50, seed=11)
        m_eq = equilibrium_moments(model, vs, mm, W)
        assert np.abs(m_eq[:, :3] - W).max() <= 1e-12

    def test_zero_momentum(self, d2q9):
        vs, mm, model = d2q9
        m_eq = equilibrium_moments(model, vs, mm, np.array([2.0, 0.0, 0.0]))
        assert abs(m_eq[1]) <= 1e-14 and abs(m_eq[2]) <= 1e-14


class TestMomentumFlux:
    def test_rest_state_isotropic(self, d2q9):
        vs, _, model = d2q9
        rho = 1.3
        F = momentum_flux(model, vs, np.array([rho, 0.0, 0.0]))
        assert np.allclose(F, model.cs2 * rho * np.eye(2), atol=1e-15)

    def test_closed_form_via_summation_oracle(self, d2q9):
        vs, _, model = d2q9
        W = random_states(2, 20, seed=13)
        F = momentum_flux(model, vs, W)
        # direct 9-term summation, independent loop
        feq = equilibrium_distribution(model, vs, W)
        v = model.velocities
        for n in range(W.shape[0]):
            for a in range(2):
                for b in range(2):
                    oracle = sum(v[j, a] * v[j, b] * feq[n, j] for j in range(9))
                    assert abs(F[n, a, b] - oracle) <= 1e-15
        # the default equilibrium is built to produce q q / rho + cs2 rho I
        rho = W[:, :1]
        q = W[:, 1:]
        closed = (q[:, :, None] * q[:, None, :] / rho[:, :, None]
                  + model.cs2 * rho[:, :, None] * np.eye(2))
        assert np.abs(F - closed).max() <= 1e-13

    def test_symmetry(self, d2q9):
        vs, _, model = d2q9
        W = random_states(2, 100, seed=17)
        F = momentum_flux(model, vs, W)
        assert np.abs(F[:, 0, 1] - F[:, 1, 0]).max() <= 1e-16

    def test_resummation_equivalence(self, d2q9):
        # F must equal the Lambda-weighted contraction of the moments of f_eq
        vs, mm, model = d2q9
        W = random_states(2, 30, seed=19)
        F = momentum_flux(model, vs, W)
        m_eq = equilibrium_moments(model, vs, mm, W)
        lam_t = lambda_tensor(mm, vs)
        recon = np.einsum("abk,nk->nab", lam_t, m_eq)
        assert np.abs(F - recon).max() <= 1e-13


class TestJacobian:
    def fd_jacobian(self, model, vs, W):
        W = np.asarray(W, dtype=float)
        out = np.empty((model.J + 1, model.d + 1))
        for i in range(model.d + 1):
            h = 1e-6 * max(1.0, abs(W[i]))
            up, dn = W.copy(), W.copy()
            up[i] += h
            dn[i] -= h
            out[:, i] = (equilibrium_distribution(model, vs, up)
                         - equilibrium_distribution(model, vs, dn)) / (2 * h)
        return out

    def test_matches_finite_differences(self, d2q9):
        vs, _, model = d2q9
        W = np.array([1.2, 0.05, -0.03])
        jac = equilibrium_jacobian(model, vs, W)
        fd = self.fd_jacobian(model, vs, W)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert (np.abs(jac - fd) / scale).max() <= 1e-6

    def test_matches_finite_differences_d1q3(self, d1q3):
        vs, _, model = d1q3
        W = np.array([0.9, -0.02])
        jac = equilibrium_jacobian(model, vs, W)
        fd = self.fd_jacobian(model, vs, W)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert (np.abs(jac - fd) / scale).max() <= 1e-6

    def test_density_column_at_rest(self, d2q9):
        vs, _, model = d2q9
        jac = equilibrium_jacobian(model, vs, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(jac[:, 0], D2Q9_WEIGHTS, atol=1e-15)

    def test_conserved_rows_contract_to_identity(self, d2q9):
        vs, mm, model = d2q9
        W = random_states(2, 40, seed=23)
        jac = equilibrium_jacobian(model, vs, W)
        contracted = np.einsum("kj,nji->nki", mm.M[:3], jac)
        assert np.abs(contracted - np.eye(3)).max() <= 1e-12

    @given(st.floats(0.5, 2.0), st.floats(-0.1, 0.1), st.floats(-0.1, 0.1))
    def test_jacobian_property(self, rho, ux, uy):
        vs = build_velocity_set("d2q9")
        model = build_equilibrium(vs, 1.0)
        W = np.array([rho, rho * ux, rho * uy])
        jac = equilibrium_jacobian(model, vs, W)
        assert abs(jac[:, 0].sum() - 1.0) <= 1e-12
        assert np.abs(model.velocities.T @ jac[:, 0]).max() <= 1e-12


class TestCustomTables:
    def test_legal_anisotropic_table(self):
        vs = build_velocity_set("d2q9")
        w = (0.625,) + (0.0625,) * 4 + (0.03125,) * 4
        model = build_equilibrium(vs, 1.0, weights=w, cs2=0.25)
        W = random_states(2, 200, seed=29)
        feq = equilibrium_distribution(model, vs, W)
        assert np.abs(feq.sum(-1) - W[:, 0]).max() <= 1e-12
        assert np.abs(feq @ model.velocities - W[:, 1:]).max() <= 1e-12

    def test_inconsistent_table_rejected(self):
        vs = build_velocity_set("d2q9")
        # standard weights but a wrong sound speed cannot carry the momentum
        with pytest.raises(InvalidEquilibrium):
            build_equilibrium(vs, 1.0, weights=tuple(D2Q9_WEIGHTS), cs2=0.2)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_equilibria_rejected(self):
        # 2 cs2**2 underflows to 0, so the probe-set residual is NaN
        vs = build_velocity_set("d2q9")
        with pytest.raises(InvalidEquilibrium, match="probe set"):
            build_equilibrium(vs, 1.0, cs2=1e-300)

    def test_custom_lattice_needs_weights(self):
        vs = build_velocity_set([(0, 0), (1, 0), (0, 1), (-1, -1)])
        with pytest.raises(InvalidEquilibrium):
            build_equilibrium(vs, 1.0)


def test_building_components_does_not_import_numpy_random():
    # the probe set is a fixed formula; importing numpy.random costs every
    # process time and peak memory (about 11 ms and 2 MB on a 2-vCPU VM)
    code = ("import sys\n"
            "from lbmlab.config import RunConfig, build_components\n"
            "build_components(RunConfig())\n"
            "print('numpy.random' in sys.modules)\n")
    assert fresh_python(code) == "False\n"

import numpy as np
import pytest

from lbmlab.errors import (
    ConstructionError,
    InvalidVelocitySet,
    RankDeficient,
    ShapeError,
    SingularMomentMatrix,
)
from lbmlab.lattice import (
    _lu_inverse,
    build_moment_matrix,
    build_velocity_set,
    lambda_tensor,
)

D2Q9_EXPECTED = [
    (0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),
    (1, 1), (-1, 1), (-1, -1), (1, -1),
]


def test_d2q9_vector_order():
    vs = build_velocity_set("D2Q9")
    assert [tuple(e) for e in vs.e] == D2Q9_EXPECTED
    assert vs.d == 2 and vs.J == 8


def test_d1q3_vectors():
    vs = build_velocity_set("D1Q3")
    assert [tuple(e) for e in vs.e] == [(0,), (1,), (-1,)]
    assert vs.d == 1 and vs.J == 2


def test_duplicate_vector_rejected():
    with pytest.raises(InvalidVelocitySet):
        build_velocity_set([(0, 0), (0, 0), (1, 0)])


def test_non_integer_vector_rejected():
    with pytest.raises(InvalidVelocitySet):
        build_velocity_set([(0.5, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_rank_deficient_rejected():
    # all first moments live on the x axis: momentum_y row is null
    with pytest.raises(RankDeficient):
        build_velocity_set([(0, 0), (1, 0), (-1, 0)])


def test_ragged_vectors_rejected():
    with pytest.raises(InvalidVelocitySet, match="same dimension"):
        build_velocity_set([(0,), (1, 2), (-1,)])


def test_3d_rejected():
    with pytest.raises(InvalidVelocitySet):
        build_velocity_set([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_unknown_name_rejected():
    with pytest.raises(InvalidVelocitySet):
        build_velocity_set("d3q19")


class TestMomentMatrix:
    def test_d1q3_default(self, d1q3):
        _, mm, _ = d1q3
        expected = np.array([[1, 1, 1], [0, 1, -1], [0, 1, 1]], dtype=float)
        assert np.array_equal(mm.M, expected)

    def test_pinned_rows_bitwise(self):
        vs = build_velocity_set("d2q9")
        lam = 0.37
        mm = build_moment_matrix(vs, lam)
        assert np.array_equal(mm.M[0], np.ones(9))
        assert np.array_equal(mm.M[1:3], (lam * vs.e.astype(float)).T)

    def test_d2q9_inverse_against_numpy(self, d2q9):
        _, mm, _ = d2q9
        assert abs(np.linalg.det(mm.M)) > 1.0
        assert np.abs(mm.M @ mm.M_inv - np.eye(9)).max() <= 1e-12
        assert np.abs(mm.M_inv @ mm.M - np.eye(9)).max() <= 1e-12
        assert np.abs(mm.M_inv - np.linalg.inv(mm.M)).max() <= 1e-12

    def test_velocities_recovered(self, d2q9):
        vs, mm, _ = d2q9
        assert np.array_equal(mm.velocities, vs.e.astype(float))

    def test_duplicated_row_singular(self):
        vs = build_velocity_set("d1q3")
        with pytest.raises(SingularMomentMatrix):
            build_moment_matrix(vs, 1.0, higher_rows=[[0.0, 1.0, -1.0]])

    def test_higher_rows_shape_checked(self):
        vs = build_velocity_set("d1q3")
        with pytest.raises(ShapeError):
            build_moment_matrix(vs, 1.0, higher_rows=[[1.0, 2.0]])

    def test_ragged_higher_rows_rejected(self):
        vs = build_velocity_set("d2q9")
        rows = [[1.0] * 9] * 5 + [[1.0]]
        with pytest.raises(ShapeError):
            build_moment_matrix(vs, 1.0, higher_rows=rows)

    def test_custom_higher_rows_used(self):
        vs = build_velocity_set("d1q3")
        mm = build_moment_matrix(vs, 1.0, higher_rows=[[1.0, 0.0, 0.0]])
        assert np.array_equal(mm.M[2], [1.0, 0.0, 0.0])
        assert mm.names == ("density", "momentum_x", "m2")
        assert mm.shear_index is None

    def test_nonpositive_lambda_rejected(self):
        vs = build_velocity_set("d1q3")
        for lam in (0.0, float("nan")):
            with pytest.raises(ConstructionError, match="velocity scale must be positive"):
                build_moment_matrix(vs, lam)

    def test_lambda_scaling(self):
        vs = build_velocity_set("d2q9")
        lam = 2.0
        mm = build_moment_matrix(vs, lam)
        # energy row is 3|v|^2 - 4 lam^2
        vsq = (lam * vs.e.astype(float) ** 2).sum(axis=1) * lam
        assert np.allclose(mm.M[3], 3 * (lam**2) * (vs.e**2).sum(1) - 4 * lam**2)


class TestLuInverse:
    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.normal(size=(7, 7))
            inv = _lu_inverse(a)
            assert np.abs(inv - np.linalg.inv(a)).max() <= 1e-10 * np.abs(inv).max()

    def test_singular_raises(self):
        a = np.ones((3, 3))
        with pytest.raises(SingularMomentMatrix):
            _lu_inverse(a)

    def test_tiny_pivot_raises(self):
        a = np.eye(4)
        a[2, 2] = 1e-15
        with pytest.raises(SingularMomentMatrix):
            _lu_inverse(a)


class TestLambdaTensor:
    @pytest.mark.parametrize("name,lam", [("d2q9", 1.0), ("d2q9", 0.5),
                                          ("d1q3", 1.0), ("d1q3", 2.0)])
    def test_symmetry_and_reconstruction(self, name, lam):
        vs = build_velocity_set(name)
        mm = build_moment_matrix(vs, lam)
        lt = lambda_tensor(mm, vs)
        v = mm.velocities
        assert np.array_equal(lt, lt.transpose(1, 0, 2))
        rec = np.einsum("abk,kj->abj", lt, mm.M)
        target = np.einsum("ja,jb->abj", v, v)
        scale = max(1.0, np.abs(target).max())
        assert np.abs(rec - target).max() <= 1e-12 * scale

    def test_d1q3_golden(self, d1q3):
        vs, mm, _ = d1q3
        lt = lambda_tensor(mm, vs)
        # row 2 of M is exactly v^2, so Lambda_11 picks the k=2 unit coordinate
        assert np.allclose(lt[0, 0], [0.0, 0.0, 1.0], atol=1e-15)

    def test_d2q9_golden_table(self, d2q9):
        vs, mm, _ = d2q9
        lt = lambda_tensor(mm, vs)
        golden_xx = [2 / 3, 0, 0, 1 / 6, 0, 0, 0, 1 / 2, 0]
        golden_xy = [0, 0, 0, 0, 0, 0, 0, 0, 1]
        golden_yy = [2 / 3, 0, 0, 1 / 6, 0, 0, 0, -1 / 2, 0]
        assert np.allclose(lt[0, 0], golden_xx, atol=1e-15)
        assert np.allclose(lt[0, 1], golden_xy, atol=1e-15)
        assert np.allclose(lt[1, 1], golden_yy, atol=1e-15)
        # independent oracle: solve M^T Lambda_ab = (v^a v^b)_j directly
        v = mm.velocities
        for a in range(2):
            for b in range(2):
                oracle = np.linalg.solve(mm.M.T, v[:, a] * v[:, b])
                assert np.abs(lt[a, b] - oracle).max() <= 1e-12

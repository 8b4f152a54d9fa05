import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfirstlaw import cxmat

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def closed_form_2x2(a, d, b):
    """Independent oracle: eigenvalues of [[a, b], [conj(b), d]] ascending."""
    s = math.sqrt((a - d) ** 2 + 4 * abs(b) ** 2)
    return 0.5 * (a + d - s), 0.5 * (a + d + s)


finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
complex_entries = st.tuples(finite, finite).map(lambda p: complex(*p))


def matrices(rows, cols):
    return st.lists(complex_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda v: np.array(v, dtype=complex).reshape(rows, cols)
    )


class TestMul:
    def test_identity(self):
        m = np.array([[1, 2j], [3, 4]], dtype=complex)
        assert np.array_equal(cxmat.mul(np.eye(2), m), m)

    def test_pauli_involution(self):
        assert np.allclose(cxmat.mul(SIGMA_X, SIGMA_X), np.eye(2), atol=0)

    def test_damping_kraus_product(self):
        # K1 at gamma = 0.75 times its adjoint: entries squared, 1 - gamma = 0.25
        k1 = np.diag([1.0, math.sqrt(0.25)]).astype(complex)
        out = cxmat.mul(k1, cxmat.adjoint(k1))
        assert np.allclose(out, np.diag([1.0, 0.25]), atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(cxmat.ShapeError):
            cxmat.mul(np.ones((2, 3)), np.ones((2, 2)))

    @given(matrices(2, 3), matrices(3, 2))
    def test_dims_of_product(self, a, b):
        assert cxmat.mul(a, b).shape == (2, 2)


class TestAdjoint:
    def test_real_diagonal_fixed(self):
        m = np.diag([1.0, math.sqrt(0.5)]).astype(complex)
        assert np.array_equal(cxmat.adjoint(m), m)

    def test_transposes(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(cxmat.adjoint(m), np.array([[0, 0], [1, 0]]))

    def test_conjugates(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1j
        assert cxmat.adjoint(m)[1, 0] == -1j

    @given(matrices(3, 2))
    def test_involution(self, m):
        assert np.array_equal(cxmat.adjoint(cxmat.adjoint(m)), m)


class TestTrace:
    def test_identity(self):
        assert cxmat.trace(np.eye(2)) == 2.0

    def test_unit_trace_preserved_by_dephasing_form(self):
        # off-diagonal decay never touches the diagonal
        rho = np.array([[0.75, 0.1 * math.exp(-0.5)], [0.1 * math.exp(-0.5), 0.25]])
        assert cxmat.trace(rho) == pytest.approx(1.0, abs=1e-15)

    def test_weighted_projector(self):
        value = cxmat.trace(cxmat.mul(np.diag([0.75, 0.25]), np.diag([0.0, 1.0])))
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_non_square(self):
        with pytest.raises(cxmat.ShapeError):
            cxmat.trace(np.ones((2, 3)))

    @given(matrices(3, 3), matrices(3, 3))
    def test_cyclic(self, a, b):
        lhs = cxmat.trace(cxmat.mul(a, b))
        rhs = cxmat.trace(cxmat.mul(b, a))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


class TestHermitianEigen:
    def test_diagonal_input(self):
        eig = cxmat.hermitian_eigen(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(eig.eigenvalues, [0.25, 0.75], atol=0)
        assert np.allclose(eig.eigenvectors, np.eye(2), atol=0)

    def test_sigma_x(self):
        eig = cxmat.hermitian_eigen(SIGMA_X)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.allclose(eig.eigenvectors[:, 0], [inv_sqrt2, -inv_sqrt2], atol=1e-15)
        assert np.allclose(eig.eigenvectors[:, 1], [inv_sqrt2, inv_sqrt2], atol=1e-15)

    def test_pure_state_spectrum(self):
        # theta = pi/6 projector; discriminant of the 2x2 closed form is 1,
        # so the spectrum is exactly {0, 1}
        rho = np.array([[0.75, math.sqrt(3) / 4], [math.sqrt(3) / 4, 0.25]], dtype=complex)
        lam0, lam1 = closed_form_2x2(0.75, 0.25, math.sqrt(3) / 4)
        assert lam0 == pytest.approx(0.0, abs=1e-15)
        assert lam1 == pytest.approx(1.0, abs=1e-15)
        eig = cxmat.hermitian_eigen(rho)
        assert np.allclose(eig.eigenvalues, [0.0, 1.0], atol=1e-15)

    def test_random_matrices_invariants(self):
        rng = np.random.default_rng(20240811)
        for trial in range(200):
            dim = 2 + trial % 7
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = raw + raw.conj().T
            eig = cxmat.hermitian_eigen(a)
            residual = np.max(np.abs(a @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues))
            orth = np.max(np.abs(eig.eigenvectors.conj().T @ eig.eigenvectors - np.eye(dim)))
            assert residual <= 1e-10
            assert orth <= 1e-12
            assert abs(eig.eigenvalues.sum() - np.trace(a).real) <= 1e-10
            assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_2x2_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, d = rng.normal(size=2)
            b = complex(rng.normal(), rng.normal())
            eig = cxmat.hermitian_eigen(np.array([[a, b], [np.conj(b), d]]))
            lam0, lam1 = closed_form_2x2(a, d, b)
            assert abs(eig.eigenvalues[0] - lam0) <= 1e-12
            assert abs(eig.eigenvalues[1] - lam1) <= 1e-12

    def test_phase_fix_largest_component_real_positive(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = raw + raw.conj().T
        eig = cxmat.hermitian_eigen(a)
        for j in range(4):
            col = eig.eigenvectors[:, j]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert pivot.imag == pytest.approx(0.0, abs=1e-15)
            assert pivot.real > 0

    def test_non_hermitian_rejected(self):
        with pytest.raises(cxmat.NonHermitianError):
            cxmat.hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square_rejected(self):
        with pytest.raises(cxmat.ShapeError):
            cxmat.hermitian_eigen(np.ones((2, 3)))

    def test_sweep_cap(self):
        rng = np.random.default_rng(13)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = raw + raw.conj().T
        with pytest.raises(cxmat.ConvergenceError):
            cxmat.hermitian_eigen(a, max_sweeps=0)

    def test_zero_matrix(self):
        eig = cxmat.hermitian_eigen(np.zeros((3, 3)))
        assert np.array_equal(eig.eigenvalues, np.zeros(3))
        assert np.array_equal(eig.eigenvectors, np.eye(3))

    def test_non_finite_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(cxmat.NumericError):
            cxmat.hermitian_eigen(m)

    def test_large_finite_entries_accepted(self):
        # the entries are finite although their sum overflows to inf
        m = np.full((2, 2), 1e308, dtype=complex)
        with np.errstate(over="ignore"):
            assert np.isinf(m.sum().real)
        assert cxmat.as_matrix(m) is m
        m[1, 1] = np.inf
        with pytest.raises(cxmat.NumericError):
            cxmat.as_matrix(m)


@settings(max_examples=40)
@given(matrices(3, 3))
def test_eigen_reconstruction_random_hermitian(raw):
    a = raw + raw.conj().T
    eig = cxmat.hermitian_eigen(a)
    rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.max(np.abs(a - rebuilt)) <= 1e-10 * max(1.0, np.max(np.abs(a)))

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


def _random_hermitian(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return z + z.conj().T


def _assert_stack_matches_single_calls(stack, **kwargs):
    eig = cxmat.hermitian_eigen(stack, **kwargs)
    assert eig.eigenvalues.shape == stack.shape[:-1]
    assert eig.eigenvectors.shape == stack.shape
    for index in np.ndindex(stack.shape[:-2]):
        one = cxmat.hermitian_eigen(stack[index], **kwargs)
        assert np.max(np.abs(eig.eigenvalues[index] - one.eigenvalues)) <= 1e-14
        assert np.max(np.abs(eig.eigenvectors[index] - one.eigenvectors)) <= 1e-14
    return eig


class TestHermitianEigenStack:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_stack_equals_per_matrix_calls(self, d):
        rng = np.random.default_rng(700 + d)
        stack = np.array([_random_hermitian(rng, d) * rng.uniform(0.01, 10) for _ in range(12)])
        eig = _assert_stack_matches_single_calls(stack)
        for a, values, vecs in zip(stack, eig.eigenvalues, eig.eigenvectors):
            assert np.max(np.abs(a @ vecs - vecs * values)) <= 1e-10 * np.max(np.abs(a))
            assert np.all(np.diff(values) >= 0)

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(9)
        stack = np.array([_random_hermitian(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        eig = _assert_stack_matches_single_calls(stack)
        assert eig.dim == 3

    def test_converged_members_next_to_unconverged_ones(self):
        rng = np.random.default_rng(21)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        degenerate = u @ np.diag([1.0, 1.0, 1.0, 3.0]) @ u.conj().T
        degenerate = 0.5 * (degenerate + degenerate.conj().T)
        stack = np.array([
            np.zeros((4, 4)),
            np.diag([0.4, -1.0, 2.5, 0.0]),
            _random_hermitian(rng, 4),
            0.5 * np.eye(4),
            degenerate,
            np.diag([1.0, 1.0, 2.0, 2.0]),
            _random_hermitian(rng, 4) * 1e-6,
        ]).astype(complex)
        eig = _assert_stack_matches_single_calls(stack)
        assert np.array_equal(eig.eigenvalues[0], np.zeros(4))
        assert np.array_equal(eig.eigenvectors[0], np.eye(4))
        assert np.array_equal(eig.eigenvalues[1], [-1.0, 0.0, 0.4, 2.5])
        assert np.array_equal(np.abs(eig.eigenvectors[1]), np.eye(4)[:, [1, 3, 0, 2]])
        assert np.array_equal(eig.eigenvalues[3], np.full(4, 0.5))
        assert np.max(np.abs(eig.eigenvalues[4] - [1.0, 1.0, 1.0, 3.0])) <= 1e-14

    def test_matrix_input_returns_one_decomposition(self):
        eig = cxmat.hermitian_eigen(SIGMA_X)
        assert eig.eigenvalues.shape == (2,)
        assert eig.eigenvectors.shape == (2, 2)
        assert eig.dim == 2

    def test_non_hermitian_names_first_failing_matrix(self):
        rng = np.random.default_rng(3)
        stack = np.array([_random_hermitian(rng, 3) for _ in range(5)])
        stack[2, 0, 1] += 1e-6
        stack[4, 1, 2] += 1.0
        with pytest.raises(cxmat.NonHermitianError, match=r"^matrix \(2,\) of the stack: ") as info:
            cxmat.hermitian_eigen(stack)
        assert info.value.index == (2,)
        with pytest.raises(cxmat.NonHermitianError) as info:
            cxmat.hermitian_eigen(stack.reshape(5, 1, 3, 3)[1:].reshape(2, 2, 3, 3))
        assert info.value.index == (0, 1)
        with pytest.raises(cxmat.NonHermitianError) as info:
            cxmat.hermitian_eigen(stack[2])
        assert info.value.index is None

    def test_sweep_cap_names_first_unconverged_matrix(self):
        rng = np.random.default_rng(13)
        stack = np.array([np.diag([0.2, 0.3, 0.5]), np.zeros((3, 3)), _random_hermitian(rng, 3),
                          _random_hermitian(rng, 3)]).astype(complex)
        with pytest.raises(cxmat.ConvergenceError, match=r"^matrix \(2,\) of the stack: ") as info:
            cxmat.hermitian_eigen(stack, max_sweeps=0)
        assert info.value.index == (2,)
        eig = cxmat.hermitian_eigen(stack[:2], max_sweeps=0)
        assert np.array_equal(eig.eigenvalues, [[0.2, 0.3, 0.5], np.zeros(3)])

    def test_first_failing_matrix_wins_across_checks(self):
        rng = np.random.default_rng(14)
        stack = np.array([np.eye(3), _random_hermitian(rng, 3), _random_hermitian(rng, 3)])
        stack[2, 0, 1] += 1.0
        with pytest.raises(cxmat.ConvergenceError) as info:
            cxmat.hermitian_eigen(stack, max_sweeps=0)
        assert info.value.index == (1,)
        stack[1, 0, 1] += 1.0
        with pytest.raises(cxmat.NonHermitianError) as info:
            cxmat.hermitian_eigen(stack, max_sweeps=0)
        assert info.value.index == (1,)


@settings(max_examples=40)
@given(matrices(3, 3))
def test_eigen_reconstruction_random_hermitian(raw):
    a = raw + raw.conj().T
    eig = cxmat.hermitian_eigen(a)
    rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.max(np.abs(a - rebuilt)) <= 1e-10 * max(1.0, np.max(np.abs(a)))

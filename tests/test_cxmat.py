import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfirstlaw import cxmat
from qfirstlaw.channel import ChannelSpec, evolve
from qfirstlaw.cxmat import (
    HERMITIAN_TOL,
    OFFDIAG_FACTOR,
    ConvergenceError,
    HermitianEigenDecomposition,
    NonHermitianError,
    ShapeError,
    _raise_at,
    as_matrix,
)
from qfirstlaw.firstlaw import TimeGrid
from qfirstlaw.qstate import Hamiltonian, prepare_pure_state

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

    def test_sweep_cap(self, monkeypatch):
        rng = np.random.default_rng(13)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = raw + raw.conj().T
        monkeypatch.setattr(cxmat, "MAX_SWEEPS", 0)
        with pytest.raises(cxmat.ConvergenceError):
            cxmat.hermitian_eigen(a)

    def test_zero_matrix(self):
        eig = cxmat.hermitian_eigen(np.zeros((3, 3)))
        assert np.array_equal(eig.eigenvalues, np.zeros(3))
        assert np.array_equal(eig.eigenvectors, np.eye(3))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (2, 0), (3, 2, 0), (2, 2, 0, 0)])
    def test_empty_matrices_rejected(self, shape):
        with pytest.raises(cxmat.ShapeError, match=r"got shape \(\d+(, \d+)+\)"):
            cxmat.hermitian_eigen(np.zeros(shape))
        if len(shape) < 4:
            with pytest.raises(cxmat.ShapeError, match=re.escape(f"got shape {shape}")):
                cxmat.as_matrix(np.zeros(shape))

    def test_vector_rejected(self):
        with pytest.raises(cxmat.ShapeError, match="got ndim=1$"):
            cxmat.as_matrix(np.zeros(3))

    def test_empty_stack_of_matrices_accepted(self):
        assert cxmat.as_matrix(np.zeros((0, 2, 2))).shape == (0, 2, 2)
        eig = cxmat.hermitian_eigen(np.zeros((0, 2, 2)))
        assert eig.eigenvalues.shape == (0, 2) and eig.eigenvectors.shape == (0, 2, 2)

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


def _assert_stack_matches_single_calls(stack):
    eig = cxmat.hermitian_eigen(stack)
    assert eig.eigenvalues.shape == stack.shape[:-1]
    assert eig.eigenvectors.shape == stack.shape
    for index in np.ndindex(stack.shape[:-2]):
        one = cxmat.hermitian_eigen(stack[index])
        assert np.array_equal(eig.eigenvalues[index], one.eigenvalues)
        assert np.array_equal(eig.eigenvectors[index], one.eigenvectors)
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
        assert eig.eigenvalues.shape[-1] == 3

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
        assert eig.eigenvalues.shape[-1] == 2

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

    def test_sweep_cap_names_first_unconverged_matrix(self, monkeypatch):
        rng = np.random.default_rng(13)
        stack = np.array([np.diag([0.2, 0.3, 0.5]), np.zeros((3, 3)), _random_hermitian(rng, 3),
                          _random_hermitian(rng, 3)]).astype(complex)
        monkeypatch.setattr(cxmat, "MAX_SWEEPS", 0)
        with pytest.raises(cxmat.ConvergenceError, match=r"^matrix \(2,\) of the stack: ") as info:
            cxmat.hermitian_eigen(stack)
        assert info.value.index == (2,)
        eig = cxmat.hermitian_eigen(stack[:2])
        assert np.array_equal(eig.eigenvalues, [[0.2, 0.3, 0.5], np.zeros(3)])

    def test_first_failing_matrix_wins_across_checks(self, monkeypatch):
        rng = np.random.default_rng(14)
        stack = np.array([np.eye(3), _random_hermitian(rng, 3), _random_hermitian(rng, 3)])
        stack[2, 0, 1] += 1.0
        monkeypatch.setattr(cxmat, "MAX_SWEEPS", 0)
        with pytest.raises(cxmat.ConvergenceError) as info:
            cxmat.hermitian_eigen(stack)
        assert info.value.index == (1,)
        stack[1, 0, 1] += 1.0
        with pytest.raises(cxmat.NonHermitianError) as info:
            cxmat.hermitian_eigen(stack)
        assert info.value.index == (1,)

    def test_hermiticity_bound_is_per_matrix_and_scales_with_it(self):
        # A skew of 1e-10 is round-off next to entries of 2^20 but not next
        # to entries of order 1: a bound taken over the whole stack would
        # accept both matrices
        rng = np.random.default_rng(41)
        a = _random_hermitian(rng, 3)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = 1e-10 * (z - z.conj().T)
        stack = np.array([2.0 ** 20 * a + s, a + s])
        with pytest.raises(cxmat.NonHermitianError) as info:
            cxmat.hermitian_eigen(stack)
        assert info.value.index == (1,)
        cxmat.hermitian_eigen(stack[0])
        with pytest.raises(cxmat.NonHermitianError) as solver:
            cxmat.hermitian_eigen(stack[1])
        with pytest.raises(cxmat.NonHermitianError) as built:
            Hamiltonian.from_matrix(stack[1])
        assert str(built.value) == str(solver.value)
        assert str(solver.value).startswith("matrix is not Hermitian: max|a - a†| = ")
        assert str(info.value) == f"matrix (1,) of the stack: {solver.value}"


def reference_eigen(a) -> HermitianEigenDecomposition:
    """Diagonalize a Hermitian matrix, or every matrix of a ``(..., n, n)``
    stack at once, by cyclic complex Jacobi rotations.

    Each matrix must satisfy max|a - a†| <= HERMITIAN_TOL * max(1, max|a|).
    Sweeps run until every off-diagonal magnitude of a matrix is at most
    OFFDIAG_FACTOR times the largest entry of that matrix; a (p, q) rotation
    is applied only to the matrices whose |a_pq| still exceeds their own
    threshold, so each matrix gets exactly the rotations it would get alone.
    A matrix still above its threshold after cxmat.MAX_SWEEPS sweeps raises
    ConvergenceError.  Errors on a stack name the first failing matrix and
    carry its ``index``.
    """
    m = np.asarray(a, dtype=np.complex128)
    batch = m.shape[:-2]
    stack = as_matrix(m.reshape((-1,) + m.shape[-2:]) if m.ndim >= 2 else m)
    n = stack.shape[-1]
    if stack.shape[-2] != n:
        raise ShapeError(f"eigendecomposition requires a square matrix, got {m.shape}")
    adj = stack.conj().swapaxes(-1, -2)
    dev = np.abs(stack - adj).max(axis=(-2, -1))
    bound = HERMITIAN_TOL * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))

    # A rotation multiplies both A and the accumulated eigenvectors V by J on
    # the right, so they are stored one above the other and rotated together.
    aug = np.zeros((len(stack), 2 * n, n), dtype=np.complex128)
    work, vecs = aug[:, :n], aug[:, n:]
    # Fold round-off asymmetry away before iterating.
    work[...] = 0.5 * (stack + adj)
    vecs[:, range(n), range(n)] = 1.0
    thresh = OFFDIAG_FACTOR * np.abs(work).max(axis=(-2, -1))
    # Entry-major view of A (a view, so it follows the rotations): a gather
    # from it puts the grid axis last, so the per-sweep max is elementwise.
    entries = aug.reshape(len(aug), 2 * n * n)[:, :n * n].T
    off_diagonal = ~np.eye(n, dtype=bool).ravel()
    sweeps = 0
    while True:
        off_max = np.abs(entries[off_diagonal]).max(axis=0, initial=0.0)
        active = off_max > thresh
        if sweeps >= cxmat.MAX_SWEEPS or not active.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                rotate = np.abs(work[:, p, q]) > thresh
                if rotate.any():
                    rows = slice(None) if rotate.all() else np.flatnonzero(rotate)
                    _reference_rotate(aug, rows, p, q)
        sweeps += 1

    # The first failing matrix is reported, whichever check it fails.
    skew = np.flatnonzero(dev > bound)
    stuck = np.flatnonzero(active)
    if skew.size and not (stuck.size and stuck[0] < skew[0]):
        _raise_at(NonHermitianError, batch, skew[0], "matrix is not Hermitian: "
                  f"max|a - a†| = {dev[skew[0]]:.3e} > {bound[skew[0]]:.3e}")
    if stuck.size:
        _raise_at(ConvergenceError, batch, stuck[0],
                  f"Jacobi sweep cap ({cxmat.MAX_SWEEPS}) exceeded; "
                  f"max off-diagonal {off_max[stuck[0]]:.3e} > {thresh[stuck[0]]:.3e}")

    values = np.diagonal(work, axis1=-2, axis2=-1).real
    order = np.argsort(values, axis=-1, kind="stable")
    each = np.arange(len(work))[:, None]
    values = values[each, order]
    vecs = vecs.swapaxes(-1, -2)[each, order].swapaxes(-1, -2)
    # Rotate each column so its largest-magnitude component is real positive.
    pivot = vecs[each, np.abs(vecs).argmax(axis=-2), range(n)]
    vecs = vecs * (np.conj(pivot) / np.abs(pivot))[:, None, :]
    return HermitianEigenDecomposition(values.reshape(batch + (n,)), vecs.reshape(batch + (n, n)))


def _reference_rotate(aug, rows, p, q):
    """Zero the (p, q) entry of each selected matrix A by the unitary plane
    rotation J = [[c, s*phase], [-s*conj(phase), c]]: A <- J† A J and
    V <- V J, with ``aug`` holding A above V.

    t = s/c satisfies t^2 + 2*phi*t - 1 = 0 with phi = (aqq - app) / (2|apq|),
    and the smaller-magnitude root keeps the rotation angle below pi/4 (the
    classic stability choice).  A is exactly Hermitian (folded on entry, and
    the products below keep conjugate symmetry bit for bit), so rows p and q
    of J† A J are the conjugates of its columns p and q."""
    n = aug.shape[-1]
    # These may be views (``rows`` may be a slice): use them before any write.
    apq = aug[rows, p, q]
    app = aug[rows, p, p].real
    aqq = aug[rows, q, q].real
    r = np.abs(apq)
    phase = apq / r
    phi = (aqq - app) / (2.0 * r)
    t = np.copysign(1.0, phi) / (np.abs(phi) + np.hypot(1.0, phi))
    # Analytic updates for the rotated block kill round-off drift.
    new_pp = app - t * r
    new_qq = aqq + t * r
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    c_ = c[:, None]
    s_phase = (s * phase)[:, None]
    s_conj = (s * np.conj(phase))[:, None]
    colp = aug[rows, :, p].copy()
    colq = aug[rows, :, q]
    aug[rows, :, p] = c_ * colp - s_conj * colq
    aug[rows, :, q] = s_phase * colp + c_ * colq
    aug[rows, p, :] = np.conj(aug[rows, :n, p])
    aug[rows, q, :] = np.conj(aug[rows, :n, q])
    aug[rows, p, p] = new_pp
    aug[rows, q, q] = new_qq
    aug[rows, p, q] = 0.0
    aug[rows, q, p] = 0.0


def _assert_matches_reference(stack):
    """The solver returns the matrix-major reference's eigensystem bit for bit."""
    eig = cxmat.hermitian_eigen(stack)
    ref = reference_eigen(stack)
    for got, want in ((eig.eigenvalues, ref.eigenvalues), (eig.eigenvectors, ref.eigenvectors)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
    return eig


def _mixed_stack(rng, d, length=12):
    """Seeded dense Hermitian matrices between members that need no sweep
    (zero, diagonal, scaled identity), have an exactly degenerate pair or
    have eigenvectors whose two largest components tie (a sigma_x block)."""
    stack = np.array([_random_hermitian(rng, d) * rng.uniform(0.01, 10) for _ in range(length)])
    stack[1] = 0.0
    stack[4] = np.diag(rng.normal(size=d))
    stack[7] = 0.5 * np.eye(d)
    stack[9, :2, 2:] = stack[9, 2:, :2] = 0.0
    stack[9, :2, :2] = np.eye(2)
    stack[10] = 0.0
    stack[10, :2, :2] = SIGMA_X
    return stack


def _qudit_d4_stack(seed):
    """Like one ``qudit-d4`` benchmark input: the 401 states of a d = 4
    mixed-unitary channel from a pure state, tau in [0, 4], above the 401
    matrices of the driven H(t) = (1 + 0.1 t) H0."""
    rng = np.random.default_rng(seed)
    d, tau = 4, np.linspace(0.0, 4.0, 401)
    weights = rng.dirichlet(np.ones(3))
    unitaries = [np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                 for _ in weights]
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    decay = np.exp(-tau)[:, None, None]
    rho = decay * rho0 + (1 - decay) * sum(w * u @ rho0 @ u.conj().T
                                           for w, u in zip(weights, unitaries))
    h0 = 0.25 * _random_hermitian(rng, d)
    return np.concatenate([rho, (1 + 0.1 * tau)[:, None, None] * h0])


class TestMatchesReference:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_stacks_with_converged_members(self, d):
        _assert_matches_reference(_mixed_stack(np.random.default_rng(900 + d), d))

    @pytest.mark.parametrize("channel", ["phase_damping", "phase_flip"])
    def test_qubit_channel_stack(self, channel):
        rho0 = prepare_pure_state(math.pi / 6)
        rho = evolve(ChannelSpec(channel), rho0, TimeGrid(8.0, 4000).points).matrix
        assert rho.shape == (4001, 2, 2)
        _assert_matches_reference(rho)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_qudit_d4_stack(self, seed):
        stack = _qudit_d4_stack(seed)
        assert stack.shape == (802, 4, 4)
        _assert_matches_reference(stack)

    def test_leading_axes_and_empty_stacks(self):
        rng = np.random.default_rng(31)
        _assert_matches_reference(np.array([_random_hermitian(rng, 3) for _ in range(6)])
                                  .reshape(2, 3, 3, 3))
        _assert_matches_reference(_random_hermitian(rng, 5))
        _assert_matches_reference(np.zeros((0, 3, 3)))
        _assert_matches_reference(np.ones((3, 1, 1)))

    @pytest.mark.parametrize("case", ["sweep_cap", "non_hermitian"])
    def test_errors_match(self, case, monkeypatch):
        if case == "sweep_cap":
            monkeypatch.setattr(cxmat, "MAX_SWEEPS", 0)
        for d in (3, 2):  # the sweep loop and the 2 x 2 path
            rng = np.random.default_rng(15)
            stack = np.array([np.diag([0.2, 0.3, 0.5][:d]), np.zeros((d, d)),
                              _random_hermitian(rng, d), _random_hermitian(rng, d)]
                             ).astype(complex).reshape(2, 2, d, d)
            if case == "non_hermitian":
                stack[1, 1, 0, d - 1] += 1e-6
            with pytest.raises((ConvergenceError, NonHermitianError)) as ref:
                reference_eigen(stack)
            with pytest.raises(type(ref.value)) as got:
                cxmat.hermitian_eigen(stack)
            assert got.value.index == ref.value.index == ((1, 0) if case == "sweep_cap"
                                                          else (1, 1))
            assert str(got.value) == str(ref.value)

    def test_no_floating_point_warning_escapes(self):
        # Every matrix is rotated and the unpicked ones are dropped: those
        # with an exactly zero (p, q) entry divide by zero, and one with a
        # subnormal (p, q) entry below its threshold overflows.
        rng = np.random.default_rng(17)
        stack = np.array([_random_hermitian(rng, 3) for _ in range(6)])
        stack[0] = np.diag([1.0, 2.0, 3.0])
        stack[2, 0, 1] = stack[2, 1, 0] = 0.0
        stack[3, 1, 2] = stack[3, 2, 1] = 0.0
        stack[4] = np.diag([1.0, -1.0, 0.5])
        stack[4, 0, 1] = stack[4, 1, 0] = 1e-320
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            eig = cxmat.hermitian_eigen(stack)
        ref = reference_eigen(stack)
        assert np.array_equal(eig.eigenvalues, ref.eigenvalues)
        assert np.array_equal(eig.eigenvectors, ref.eigenvectors)


def _scaled_2x2(seed, length=64):
    """Seeded Hermitian 2 x 2 matrices, each scaled by 10^k, k uniform in [-8, 8]."""
    rng = np.random.default_rng([2, seed])
    return np.array([_random_hermitian(rng, 2) for _ in range(length)]) * (
        10.0 ** rng.uniform(-8, 8, size=(length, 1, 1)))


class TestTwoByTwoMatchesReference:
    """A 2 x 2 stack takes its one rotation without the sweep loop, with the loop's bits."""

    @pytest.mark.parametrize("seed", range(6))
    def test_scaled_stacks(self, seed):
        stack = _scaled_2x2(seed)
        _assert_matches_reference(stack)
        _assert_matches_reference(stack.reshape(4, 16, 2, 2))
        _assert_matches_reference(stack.real)
        _assert_matches_reference(stack[seed])

    @pytest.mark.parametrize("off", [0.0, -0.0, complex(-0.0, -0.0), 1e-300, -1e-300j,
                                     0.5, 2.0], ids=str)
    def test_off_diagonal_at_and_around_the_threshold(self, off):
        # 0.5 and 2.0 are in units of each matrix's threshold: below and above it
        stack = _scaled_2x2(7)
        entry = off * OFFDIAG_FACTOR * np.abs(stack).max(axis=(1, 2)) if off in (0.5, 2.0) else off
        stack[:, 0, 1] = entry
        stack[:, 1, 0] = np.conj(entry)
        eig = _assert_matches_reference(stack)
        if off != 2.0:
            # nothing rotates: the spectrum is the sorted diagonal
            diagonal = np.sort(stack.diagonal(axis1=1, axis2=2).real, axis=1)
            assert np.array_equal(eig.eigenvalues, diagonal)

    def test_equal_diagonals_rotate_by_45_degrees(self):
        # phi = 0 gives t = 1, and both components of each column tie in magnitude
        stack = _scaled_2x2(8)
        stack[:, 1, 1] = stack[:, 0, 0]
        eig = _assert_matches_reference(stack)
        assert np.allclose(np.abs(eig.eigenvectors), math.sqrt(0.5), rtol=1e-15, atol=0)
        _assert_matches_reference(stack.real)

    def test_real_zero_and_sigma_x_matrices(self):
        stack = np.array([np.zeros((2, 2)), SIGMA_X.real, np.diag([2.0, -1.0]),
                          [[1.0, -0.0], [-0.0, 1.0]], [[0.0, 3.0], [3.0, 0.0]]])
        _assert_matches_reference(stack)
        _assert_matches_reference(np.zeros((0, 2, 2)))
        eig = _assert_matches_reference(np.zeros((2, 2)))
        assert np.array_equal(eig.eigenvectors, np.eye(2))

    def test_stack_needing_no_rotation_passes_a_zero_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(cxmat, "MAX_SWEEPS", 0)
        _assert_matches_reference(np.array([np.diag([3.0, -1.0]), np.zeros((2, 2))]))


def reference_stack_matmul(a, b):
    """The stack_matmul that ran on C-ordered stacks, kept verbatim as the reference."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def grid_last(x):
    """A copy of ``x`` with the same values and its first (grid) axis last in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


class TestStackKernels:
    @pytest.mark.parametrize("length", [0, 1, 17, 4001])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_stack_matmul_is_bit_identical_across_layouts(self, d, length):
        rng = np.random.default_rng([d, length, 3])
        a, b = rng.normal(size=(2, length, d, d, 2)) @ [1, 1j]
        m = rng.normal(size=(d, d, 2)) @ [1, 1j]
        adjoint = np.swapaxes(grid_last(a).conj(), -1, -2)
        cases = [(a, b), (grid_last(a), grid_last(b)), (a, grid_last(b)), (grid_last(a), b),
                 (adjoint, b), (adjoint, grid_last(b)), (b, np.swapaxes(a.conj(), -1, -2)),
                 (m, grid_last(b)), (grid_last(a), m), (m, b), (a, m), (m, np.swapaxes(m, 0, 1))]
        for x, y in cases:
            if d == length == 1 and x.ndim != y.ndim:
                # numpy runs a one-element complex product of a matrix and a
                # stack through its scalar loop or its fused multiply-add loop
                # depending on how the operands are presented: the reference
                # itself gives either
                continue
            expected = reference_stack_matmul(np.ascontiguousarray(x), np.ascontiguousarray(y))
            got = cxmat.stack_matmul(x, y)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert np.ascontiguousarray(got).tobytes() == expected.tobytes()
            if got.ndim == 3 and length > 1:
                assert got.strides[0] == got.itemsize

    @pytest.mark.parametrize("length", [1, 2, 17, 4001])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_stack_matmul_equals_matmul(self, d, length):
        rng = np.random.default_rng([d, length])
        a, b = rng.normal(size=(2, length, d, d, 2)) @ [1, 1j]
        for x, y in [(a, b), (a, b[0]), (a[0], b), (a[:1], b)]:
            expected = x @ y
            got = cxmat.stack_matmul(x, y)
            assert got.shape == expected.shape
            scale = np.max(np.abs(x) @ np.abs(y))
            assert np.max(np.abs(got - expected)) <= 4 * np.spacing(scale)


@settings(max_examples=40)
@given(matrices(3, 3))
def test_eigen_reconstruction_random_hermitian(raw):
    a = raw + raw.conj().T
    eig = cxmat.hermitian_eigen(a)
    rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.max(np.abs(a - rebuilt)) <= 1e-10 * max(1.0, np.max(np.abs(a)))

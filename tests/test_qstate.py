import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfirstlaw import cxmat, exprparse, qstate
from qfirstlaw.qstate import (
    DensityOperator,
    Hamiltonian,
    energy_eigenbasis,
    internal_energy,
    prepare_pure_state,
    validate_density,
)

angles_theta = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
angles_phi = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True, allow_nan=False)


class TestPreparePureState:
    def test_ground_state(self):
        rho = prepare_pure_state(0.0)
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_reference_angle(self):
        rho = prepare_pure_state(math.pi / 6)
        expected = np.array(
            [[0.75, math.sqrt(3) / 4], [math.sqrt(3) / 4, 0.25]], dtype=complex
        )
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_equator_with_pi_phase(self):
        rho = prepare_pure_state(math.pi / 4, math.pi)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    @given(angles_theta, angles_phi)
    def test_valid_and_idempotent(self, theta, phi):
        rho = prepare_pure_state(theta, phi)
        assert all(r.passed for r in validate_density(rho))
        assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) <= 1e-12

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi/2\], got 3\.14"):
            prepare_pure_state(math.pi)

    def test_phi_out_of_range(self):
        with pytest.raises(ValueError, match=r"^phi must lie in \[0, 2\*pi\), got 6\.28"):
            prepare_pure_state(0.3, 2 * math.pi)


class TestValidateDensity:
    def test_pure_state_passes(self):
        results = validate_density(prepare_pure_state(math.pi / 6))
        assert [r.name for r in results] == ["hermiticity", "trace", "positivity"]
        assert all(r.passed for r in results)

    def test_negative_eigenvalue_fails(self):
        rho = DensityOperator(np.array([[0.6, 0.6], [0.6, 0.4]], dtype=complex))
        by_name = {r.name: r for r in validate_density(rho)}
        assert by_name["hermiticity"].passed
        assert by_name["trace"].passed
        assert not by_name["positivity"].passed
        # independent 2x2 oracle: 0.5*((a+d) - sqrt((a-d)^2 + 4 b^2))
        expected_min = 0.5 * (1.0 - math.sqrt(0.2**2 + 4 * 0.6**2))
        assert by_name["positivity"].measured == pytest.approx(expected_min, abs=1e-12)

    def test_wrong_trace_fails(self):
        rho = DensityOperator(np.diag([0.5, 0.4]).astype(complex))
        by_name = {r.name: r for r in validate_density(rho)}
        assert not by_name["trace"].passed
        assert by_name["positivity"].passed

    def test_non_hermitian_fails(self):
        rho = DensityOperator(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
        assert not all(r.passed for r in validate_density(rho))

    def test_pure_state_zero_eigenvalue_not_rejected(self):
        # round-off on the exactly-zero eigenvalue must stay inside the floor
        assert all(r.passed for r in validate_density(prepare_pure_state(0.7, 1.3)))

    def test_stack_of_valid_states_passes(self):
        stack = np.stack([prepare_pure_state(theta, 0.4).matrix
                          for theta in (0.0, 0.5, 1.2)])
        assert all(r.passed for r in validate_density(DensityOperator(stack)))

    def test_stack_reports_worst_member(self):
        stack = np.stack([prepare_pure_state(theta).matrix
                          for theta in (0.0, 0.5, 1.2)])
        stack[1, 0, 1] += 0.3
        by_name = {r.name: r for r in validate_density(DensityOperator(stack))}
        assert not by_name["hermiticity"].passed
        assert by_name["hermiticity"].measured == pytest.approx(0.3, abs=1e-15)
        assert by_name["trace"].passed

    def test_single_matrix_report_unchanged(self):
        m = np.array([[0.6, 0.5 + 0.1j], [0.4, 0.5]], dtype=complex)
        by_name = {r.name: r for r in validate_density(DensityOperator(m))}
        assert by_name["hermiticity"].measured == float(np.max(np.abs(m - m.conj().T)))
        assert by_name["trace"].measured == abs(complex(np.trace(m)) - 1.0)
        hermitian = 0.5 * (m + m.conj().T)
        assert by_name["positivity"].measured == pytest.approx(
            float(np.linalg.eigvalsh(hermitian)[0]), abs=1e-14)

    def test_hermiticity_bound_is_per_matrix_and_scales_with_it(self):
        # a skew of 1e-10 passes next to entries of 2^19; one of 1e-11 fails
        # next to entries of 0.5, and that matrix is reported though its
        # deviation is the smaller one
        big = np.diag([2.0 ** 19, 2.0 ** 19]).astype(complex)
        big[0, 1] = 1e-10
        small = np.diag([0.5, 0.5]).astype(complex)
        small[0, 1] = 1e-11
        by_name = {r.name: r for r in validate_density(DensityOperator(np.array([big, small])))}
        assert not by_name["hermiticity"].passed
        assert by_name["hermiticity"].measured == 1e-11
        assert by_name["hermiticity"].bound == cxmat.HERMITIAN_TOL
        assert validate_density(DensityOperator(big))[0].passed

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_empty_stack_raises_a_shape_error(self, d):
        rho = DensityOperator(np.zeros((0, d, d), dtype=complex))
        with pytest.raises(cxmat.ShapeError, match=rf"empty stack .*\(0, {d}, {d}\)$"):
            validate_density(rho)

    def test_line_marks_failures(self):
        rho = DensityOperator(np.diag([0.5, 0.4]).astype(complex))
        lines = [r.line() for r in validate_density(rho)]
        assert lines[0].startswith("[PASS] hermiticity: ")
        assert lines[1] == "[FAIL] trace: measured=1.000e-01 bound=1.000e-12"


class TestInternalEnergy:
    def test_reference_angle(self):
        rho = prepare_pure_state(math.pi / 6)
        h = Hamiltonian([0.0, 1.0])
        assert internal_energy(rho, h.matrix(0.0)) == pytest.approx(0.25, abs=1e-15)

    def test_ground_state_energy(self):
        rho = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        h = Hamiltonian([-0.7, 2.3])
        assert internal_energy(rho, h.matrix(0.0)) == pytest.approx(-0.7, abs=1e-15)

    def test_dim_mismatch(self):
        rho = DensityOperator(np.eye(3, dtype=complex) / 3)
        with pytest.raises(cxmat.ShapeError):
            internal_energy(rho, Hamiltonian([0.0, 1.0]).matrix(0.0))

    def test_imaginary_energy_is_refused_naming_the_grid_point(self):
        # a non-Hermitian H gives Tr(rho H) = 0.5i on the state |+><+|
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        hm = np.array([[0, 1j], [0, 0]])
        message = "internal energy has non-negligible imaginary part 5.000e-01"
        with pytest.raises(cxmat.NumericError, match=f"^{message}$"):
            internal_energy(DensityOperator(plus), hm)
        stack = DensityOperator(np.stack([np.eye(2) / 2, plus]))
        with pytest.raises(cxmat.NumericError, match=f"^at grid point 1: {message}$"):
            internal_energy(stack, np.stack([hm, hm]))

    @given(angles_theta, st.floats(-5, 5), st.floats(-5, 5))
    def test_linear_in_hamiltonian(self, theta, e_g, e_e):
        rho = prepare_pure_state(theta)
        u = internal_energy(rho, Hamiltonian([e_g, e_e]).matrix(0.0))
        expected = e_g * math.cos(theta) ** 2 + e_e * math.sin(theta) ** 2
        assert u == pytest.approx(expected, abs=1e-12)

    @given(angles_theta, st.floats(-5, 5))
    def test_shift_by_identity(self, theta, shift):
        rho = prepare_pure_state(theta)
        base = internal_energy(rho, Hamiltonian([0.0, 1.0]).matrix(0.0))
        shifted = internal_energy(rho, Hamiltonian([shift, 1.0 + shift]).matrix(0.0))
        assert shifted == pytest.approx(base + shift, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_empty_stack_gives_an_empty_array(self, d):
        # like energy_eigenbasis and evolve on an empty grid
        empty = np.zeros((0, d, d), dtype=complex)
        u = internal_energy(DensityOperator(empty), empty)
        assert isinstance(u, np.ndarray) and u.shape == (0,)


class TestHamiltonian:
    def test_empty_diagonal_is_refused(self):
        with pytest.raises(cxmat.ShapeError, match=r"at least one level"):
            Hamiltonian([])

    def test_diagonal_constant(self):
        h = Hamiltonian([0.0, 1.0])
        assert np.array_equal(h.matrix(3.7), np.diag([0.0, 1.0]).astype(complex))
        assert np.array_equal(energy_eigenbasis(h.matrix(3.7)).eigenvectors, np.eye(2))

    def test_driven_diagonal(self):
        h = Hamiltonian([0.0, "1+0.1*t"])
        assert h.matrix(2.0)[1, 1] == pytest.approx(1.2, abs=1e-15)

    def test_diagonal_entries_are_real_and_share_the_upper_parse(self):
        with pytest.raises(TypeError, match=r"entry \(0,0\): cannot interpret \[1, 2\]"):
            Hamiltonian([[1, 2], 0.0])
        h = Hamiltonian(["(1+0.1*t)*2", "(1+0.1*t)*3"], {(0, 1): ("(1+0.1*t)*0.5", "0")})
        drives = {id(re.left) for _, (re, _) in h._cells}
        assert len(drives) == 1

    def test_from_matrix_hermitian_by_construction(self):
        m = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
        h = Hamiltonian.from_matrix(m)
        assert h.matrix(0.0)[0, 1] == 0.5j
        assert np.array_equal(h.matrix(0.0), m)

    def test_from_matrix_rejects_non_hermitian(self):
        with pytest.raises(cxmat.NonHermitianError):
            Hamiltonian.from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_from_matrix_rejects_a_non_square_matrix(self):
        with pytest.raises(cxmat.ShapeError, match=r"got shape \(2, 3\)$"):
            Hamiltonian.from_matrix(np.zeros((2, 3)))

    def test_lower_triangle_index_rejected(self):
        with pytest.raises(ValueError, match=r"^upper-triangle index out of range: \(1, 0\)$"):
            Hamiltonian([0, 1], {(1, 0): 1.0})

    def test_expression_entries_stay_hermitian(self):
        h = Hamiltonian([0.0, "t"], {(0, 1): ("cos(t)", "sin(t)")})
        m = h.matrix(0.9)
        assert np.max(np.abs(m - m.conj().T)) == 0.0
        assert m[0, 1] == pytest.approx(complex(math.cos(0.9), math.sin(0.9)), abs=1e-15)

    @pytest.mark.parametrize("t, shown", [(math.nan, "nan"), (-math.inf, "-inf"),
                                          ([0.0, 1.0, math.inf], "inf")])
    def test_non_finite_time_rejected(self, t, shown):
        # refused whether or not an entry contains t
        for h in [Hamiltonian([0.0, 1.0]), Hamiltonian([0.0, "1+0.1*t"])]:
            with pytest.raises(ValueError, match=f"time must be finite, got {shown}$"):
                h.matrix(t)

    @pytest.mark.parametrize("diag, upper, error, message", [
        ([0.0, math.inf], None, ValueError, r"^entry \(1,1\): number inf is not finite"),
        ([0.0, 1.0], {(0, 1): (0.5, math.nan)}, ValueError,
         r"^entry \(0,1\): number nan is not finite"),
        ([0, "1+t", "foo(t)"], None, exprparse.ParseError,
         r"^entry \(2,2\): unknown function 'foo' \(offset 0\)$"),
    ], ids=["inf-diagonal", "nan-upper", "unknown-function"])
    def test_bad_entry_refused_at_construction_naming_it(self, diag, upper, error, message):
        with pytest.raises(error, match=message):
            Hamiltonian(diag, upper)

    def test_domain_error_names_entry_and_time(self):
        h = Hamiltonian([0.0, "1"], {(0, 1): ("log(t)", "0")})
        with pytest.raises(exprparse.DomainError, match=r"entry \(0,1\): .* at t=0\.0 "):
            h.matrix(0.0)

    @pytest.mark.parametrize("h, static", [
        (Hamiltonian([0.0, 1.0]), True),
        (Hamiltonian([0.3, 1.7], {(0, 1): (0.2, -0.4)}), True),
        (Hamiltonian.from_matrix(np.array([[0.3, 0.2j], [-0.2j, 1.7]])), True),
        (Hamiltonian(["2*0.5", "exp(1)-sqrt(4)"], {(0, 1): ("cos(1)", "0")}), True),
        (Hamiltonian([0.0, "1+0.1*t"]), False),
        (Hamiltonian([0.0, 1.0], {(0, 1): ("0*t", "0")}), False),
        (Hamiltonian([0.0, 1.0], {(0, 1): ("0.2", "sin(t)")}), False),
    ], ids=["numbers", "number-coupling", "from_matrix", "t-free-expressions", "driven",
            "zero-times-t-coupling", "driven-imaginary-part"])
    def test_static_is_read_from_the_cells(self, h, static):
        # structural, not by value: a "0*t" coupling evaluates to 0 but reads t
        assert h.static is static
        with pytest.raises(AttributeError):
            h.static = not static

    def test_literal_zero_coupling_is_not_stored(self):
        h = Hamiltonian([0.0, 1.0], {(0, 1): (0, 0)})
        assert np.array_equal(h.matrix(np.array([0.0, 2.0])),
                              np.broadcast_to(np.diag([0.0, 1.0]), (2, 2, 2)))
        assert np.array_equal(energy_eigenbasis(h.matrix(0.0)).eigenvectors, np.eye(2))


class TestEnergyEigenbasis:
    def test_diagonal_exact_identity(self):
        basis = energy_eigenbasis(Hamiltonian([0.0, 1.0]).matrix(0.0))
        assert np.array_equal(basis.eigenvalues, np.array([0.0, 1.0]))
        assert np.array_equal(basis.eigenvectors, np.eye(2, dtype=complex))

    def test_sigma_x(self):
        h = Hamiltonian.from_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
        basis = energy_eigenbasis(h.matrix(0.0))
        assert np.allclose(basis.eigenvalues, [-1.0, 1.0], atol=1e-15)
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.allclose(basis.eigenvectors[:, 0], [inv_sqrt2, -inv_sqrt2], atol=1e-15)
        assert np.allclose(basis.eigenvectors[:, 1], [inv_sqrt2, inv_sqrt2], atol=1e-15)

    def test_eigen_residual_general(self):
        h = Hamiltonian([0.3, 1.7], {(0, 1): (0.2, 0.4)})
        basis = energy_eigenbasis(h.matrix(0.0))
        m = h.matrix(0.0)
        resid = np.max(np.abs(m @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues))
        assert resid <= 1e-10

    def test_zero_valued_coupling_takes_the_diagonal_path(self):
        # the short-circuit reads the values: a stored "0*t" cell is exactly 0
        h = Hamiltonian(["1+t", "0.5"], {(0, 1): ("0*t", "0")})
        assert np.all(h.matrix(np.array([0.0, 1.0]))[:, 0, 1] == 0)
        basis = energy_eigenbasis(h.matrix(np.array([0.0, 1.0])))
        # entry order, not sorted, and the exact computational basis
        assert np.array_equal(basis.eigenvalues, np.array([[1.0, 0.5], [2.0, 0.5]]))
        assert np.array_equal(basis.eigenvectors, np.broadcast_to(np.eye(2), (2, 2, 2)))

    @pytest.mark.parametrize("h", [Hamiltonian([0.0, 1.0])], ids=["diagonal"])
    def test_basis_same_at_every_point_is_one_matrix(self, h):
        # a diagonal H's basis is a broadcast view, not a per-point copy
        basis = energy_eigenbasis(h.matrix(np.linspace(0.0, 1.0, 5)))
        assert basis.eigenvectors.shape == (5, 2, 2) and basis.eigenvectors.strides[0] == 0
        assert basis.eigenvalues.shape == (5, 2)
        assert np.array_equal(basis.eigenvectors[3], energy_eigenbasis(h.matrix(0.0)).eigenvectors)

    def test_constant_stack_is_solved_as_given(self):
        # the stack of a constant non-diagonal H is solved matrix by matrix:
        # a static H is one matrix only when the caller evaluates it once
        h = Hamiltonian.from_matrix(np.array([[0.3, 0.2], [0.2, 1.7]]))
        basis = energy_eigenbasis(h.matrix(np.linspace(0.0, 1.0, 5)))
        one = energy_eigenbasis(h.matrix(0.0))
        assert one.eigenvalues.shape == (2,) and one.eigenvectors.shape == (2, 2)
        assert basis.eigenvectors.shape == (5, 2, 2) and basis.eigenvectors.strides[0] != 0
        assert np.array_equal(basis.eigenvalues, np.broadcast_to(one.eigenvalues, (5, 2)))
        assert np.array_equal(basis.eigenvectors, np.broadcast_to(one.eigenvectors, (5, 2, 2)))

    def test_driven_diagonal_keeps_entry_order(self):
        h = Hamiltonian(["1+t", "0.5"])
        basis = energy_eigenbasis(h.matrix(0.0))
        # entry order, not sorted: the first branch is the first diagonal entry
        assert np.array_equal(basis.eigenvalues, np.array([1.0, 0.5]))


def test_density_operator_requires_square():
    with pytest.raises(cxmat.ShapeError):
        DensityOperator(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_density_operator_rejects_empty_matrices(shape):
    with pytest.raises(cxmat.ShapeError, match=r"at least one row and one column"):
        DensityOperator(np.zeros(shape))


def test_density_operator_rejects_non_finite():
    m = np.eye(2, dtype=complex)
    m[1, 1] = np.inf
    with pytest.raises(cxmat.NumericError):
        DensityOperator(m)

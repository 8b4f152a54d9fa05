import math

import numpy as np
import pytest

from qfirstlaw import cxmat
from qfirstlaw.channel import ChannelSpec, evolve
from qfirstlaw.oracle import (
    pd_coherence,
    pd_eigensystem,
    pd_heat,
    pf_coherence,
    pf_heat,
)
from qfirstlaw.qstate import DensityOperator, prepare_pure_state

#: (e_g, e_e) of the unit splitting and of a wider one
CFG = (0.0, 1.0)
WIDE = (0.3, 1.7)
REFERENCE_STATE = prepare_pure_state(math.pi / 6)

# frozen from direct evaluation of the closed forms
PD_HEAT_AT_1 = 0.08032824756140147
PD_HEAT_AT_8 = 0.17316105991312036
PF_HEAT_AT_8 = 0.00012581958580513313
LOG4_OVER_8 = math.log(4) / 8


class TestPdEigensystem:
    def test_initial_pure_state(self):
        values, vectors = pd_eigensystem(0.0, REFERENCE_STATE)
        assert values[0] == pytest.approx(1.0, abs=1e-15)
        assert values[1] == pytest.approx(0.0, abs=1e-15)
        # leading eigenvector is the state itself
        psi = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        assert abs(np.vdot(psi, vectors[:, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_long_time_limit(self):
        values, vectors = pd_eigensystem(40.0, REFERENCE_STATE)
        assert values[0] == pytest.approx(0.75, abs=1e-12)
        assert values[1] == pytest.approx(0.25, abs=1e-12)
        assert abs(vectors[0, 0]) == pytest.approx(1.0, abs=1e-8)
        assert abs(vectors[1, 1]) == pytest.approx(1.0, abs=1e-8)

    def test_reference_angle_discriminant(self):
        # at theta = pi/6 the discriminant is m = 1/4 + (3/4) e^{-tau}
        sm = math.sqrt(0.25 + 0.75 * math.exp(-2.0))
        values, _ = pd_eigensystem(2.0, REFERENCE_STATE)
        assert values[0] == pytest.approx(0.5 * (1 + sm), abs=1e-15)
        assert values[1] == pytest.approx(0.5 * (1 - sm), abs=1e-15)

    def test_eigenvalues_sum_to_one_exactly(self):
        for tau in np.linspace(0.0, 12.0, 30):
            values, _ = pd_eigensystem(float(tau), REFERENCE_STATE)
            assert values.sum() == 1.0

    def test_diagonal_state_falls_back_to_basis(self):
        rho = DensityOperator(np.diag([0.25, 0.75]).astype(complex))
        values, vectors = pd_eigensystem(1.0, rho)
        assert values[0] == 0.75
        # larger branch sits on the larger population, here |e>
        assert abs(vectors[1, 0]) == 1.0
        assert abs(vectors[0, 1]) == 1.0

    def test_maximally_mixed_falls_back_to_basis(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2)
        values, vectors = pd_eigensystem(2.0, rho)
        assert np.array_equal(values, np.array([0.5, 0.5]))
        assert np.array_equal(np.abs(vectors), np.eye(2))

    def test_matches_numerical_eigensystem(self):
        # acceptance cross-check: 100 sampled times, phase and order aside
        for rho0 in (REFERENCE_STATE, prepare_pure_state(math.pi / 6, 1.1)):
            for tau in np.linspace(0.0, 8.0, 100):
                values, vectors = pd_eigensystem(float(tau), rho0)
                evolved = evolve(ChannelSpec("phase_damping"), rho0, float(tau))
                eig = cxmat.hermitian_eigen(evolved.matrix)
                assert abs(values[0] - eig.eigenvalues[1]) <= 1e-12
                assert abs(values[1] - eig.eigenvalues[0]) <= 1e-12
                assert abs(np.vdot(vectors[:, 0], eig.eigenvectors[:, 1])) >= 1 - 1e-12
                assert abs(np.vdot(vectors[:, 1], eig.eigenvectors[:, 0])) >= 1 - 1e-12

    def test_eigen_residual_against_evolved_matrix(self):
        for tau in np.linspace(0.0, 10.0, 40):
            values, vectors = pd_eigensystem(float(tau), REFERENCE_STATE)
            evolved = evolve(ChannelSpec("phase_damping"), REFERENCE_STATE, float(tau))
            resid = np.max(np.abs(evolved.matrix @ vectors - vectors * values))
            assert resid <= 1e-12

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError):
            pd_eigensystem(0.0, DensityOperator(np.eye(3) / 3))


class TestPdHeat:
    def test_zero_at_origin(self):
        assert pd_heat(0.0, *CFG) == 0.0

    def test_reference_values(self):
        assert pd_heat(1.0, *CFG) == pytest.approx(PD_HEAT_AT_1, abs=1e-15)
        assert pd_heat(8.0, *CFG) == pytest.approx(PD_HEAT_AT_8, abs=1e-15)

    def test_long_time_limit(self):
        assert pd_heat(40.0, *CFG) == pytest.approx(LOG4_OVER_8, abs=1e-12)

    def test_monotone_nondecreasing(self):
        values = [pd_heat(0.05 * i, *CFG) for i in range(300)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_scales_with_energy_splitting(self):
        assert pd_heat(2.0, *WIDE) == pytest.approx(1.4 * pd_heat(2.0, *CFG), abs=1e-15)


class TestPdCoherence:
    def test_zero_at_origin(self):
        assert pd_coherence(0.0, *CFG) == 0.0

    def test_exactly_cancels_heat(self):
        for tau in np.linspace(0.0, 20.0, 50):
            assert pd_heat(float(tau), *CFG) + pd_coherence(float(tau), *CFG) == 0.0

    def test_reference_value(self):
        assert pd_coherence(1.0, *CFG) == pytest.approx(-PD_HEAT_AT_1, abs=1e-15)


class TestPfHeat:
    def test_zero_at_origin(self):
        assert pf_heat(0.0, *CFG) == pytest.approx(0.0, abs=1e-15)

    def test_maximum_at_log_two(self):
        assert pf_heat(math.log(2), *CFG) == pytest.approx(LOG4_OVER_8, abs=1e-14)
        grid = np.linspace(0.0, 8.0, 2000)
        values = [pf_heat(float(t), *CFG) for t in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(math.log(2), abs=5e-3)

    def test_decays_back_toward_zero(self):
        assert pf_heat(8.0, *CFG) == pytest.approx(PF_HEAT_AT_8, abs=1e-15)
        assert pf_heat(40.0, *CFG) <= 1e-16

    def test_nonnegative(self):
        assert all(pf_heat(0.02 * i, *CFG) >= 0.0 for i in range(500))

    def test_printed_sum_matches_reduced_form(self):
        # the bracketed four-term sum must equal
        # (e_e - e_g)/8 * (-log(1 + 3e^{-2 tau} - 3e^{-tau}))
        for e_g, e_e in (CFG, WIDE, (-1.0, 2.0), (1.7, 0.3)):
            for tau in np.linspace(0.0, 12.0, 60):
                reduced = (
                    -(e_e - e_g)
                    / 8.0
                    * math.log(1 + 3 * math.exp(-2 * tau) - 3 * math.exp(-tau))
                )
                assert pf_heat(float(tau), e_g, e_e) == pytest.approx(reduced, abs=1e-12)

    def test_scales_with_energy_splitting(self):
        for tau in np.linspace(0.0, 8.0, 40):
            assert pf_heat(float(tau), *WIDE) == pytest.approx(
                1.4 * pf_heat(float(tau), *CFG), abs=1e-12
            )


class TestPfCoherence:
    def test_zero_at_origin(self):
        assert pf_coherence(0.0, *CFG) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_log_two(self):
        assert pf_coherence(math.log(2), *CFG) == pytest.approx(-LOG4_OVER_8, abs=1e-14)

    def test_cancels_heat_everywhere(self):
        for tau in np.linspace(0.0, 20.0, 80):
            assert abs(pf_heat(float(tau), *CFG) + pf_coherence(float(tau), *CFG)) <= 1e-14

    def test_extreme_time_raises_domain_error(self):
        for fn in (pf_heat, pf_coherence):
            with pytest.raises(ValueError, match="domain"):
                fn(500.0, *CFG)


def test_pd_oracle_agrees_with_trajectory_eigenvalues():
    # specialized eigenvalue law for theta = pi/6: 0.5 * (1 +- sqrt(1/4 + 3/4 e^{-tau}))
    for tau in np.linspace(0.0, 8.0, 25):
        values, _ = pd_eigensystem(float(tau), REFERENCE_STATE)
        sm = math.sqrt(0.25 + 0.75 * math.exp(-float(tau)))
        assert values[0] == pytest.approx(0.5 * (1 + sm), abs=1e-14)
        assert values[1] == pytest.approx(0.5 * (1 - sm), abs=1e-14)


def reference_pd_heat(tau, e_g, e_e):
    return (e_e - e_g) / 8.0 * (tau + math.log(4.0) - math.log(3.0 + math.exp(tau)))


def reference_pd_coherence(tau, e_g, e_e):
    return (e_e - e_g) / 8.0 * (-tau - math.log(4.0) + math.log(3.0 + math.exp(tau)))


def reference_pf_heat(tau, e_g, e_e):
    big = math.exp(2.0 * tau) - 3.0 * math.exp(tau) + 3.0
    small = 3.0 * math.exp(-2.0 * tau) - 3.0 * math.exp(-tau) + 1.0
    a = 4.0 * math.exp(-tau) * math.sqrt(big)
    term_g = ((-4.0 + a - 2.0 * tau + math.log(big))
              + (4.0 - a - 2.0 * tau + math.log(big))) * e_g / 16.0
    term_e = ((-4.0 + a - math.log(small)) + (4.0 - a - math.log(small))) * e_e / 16.0
    return term_g + term_e


def reference_pf_coherence(tau, e_g, e_e):
    big = math.exp(2.0 * tau) - 3.0 * math.exp(tau) + 3.0
    b = math.exp(tau) / math.sqrt(big)
    term_g = ((1.0 + 2.0 * tau - math.log(big) - b)
              + (-1.0 + 2.0 * tau - math.log(big) + b)) * e_g / 16.0
    term_e = ((-1.0 - 2.0 * tau + math.log(big) + b)
              + (1.0 - 2.0 * tau + math.log(big) - b)) * e_e / 16.0
    return term_g + term_e


GRID_4001 = np.linspace(0.0, 8.0, 4001)
CLOSED_FORMS = (pd_heat, pd_coherence, pf_heat, pf_coherence)
# the scalar math-module forms the array forms replaced
REFERENCES = {pd_heat: reference_pd_heat, pd_coherence: reference_pd_coherence,
              pf_heat: reference_pf_heat, pf_coherence: reference_pf_coherence}


class TestArrayInput:
    @pytest.mark.parametrize("cfg", [CFG, WIDE], ids=["unit", "wide"])
    @pytest.mark.parametrize("fn", CLOSED_FORMS, ids=lambda fn: fn.__name__)
    def test_each_element_within_two_ulp_of_the_scalar_call(self, fn, cfg):
        curve = fn(GRID_4001, *cfg)
        assert isinstance(curve, np.ndarray) and curve.shape == GRID_4001.shape
        scalar = np.array([fn(float(tau), *cfg) for tau in GRID_4001])
        assert np.all(np.abs(curve - scalar) <= 2.0 * np.spacing(np.abs(scalar)))

    @pytest.mark.parametrize("cfg", [CFG, WIDE], ids=["unit", "wide"])
    @pytest.mark.parametrize("fn", CLOSED_FORMS, ids=lambda fn: fn.__name__)
    def test_agrees_with_the_scalar_math_forms(self, fn, cfg):
        # numpy's exp and log may differ from the math module's by an ulp;
        # the forms add O(1) logarithms, so that stays within a few eps
        reference = np.array([REFERENCES[fn](float(tau), *cfg) for tau in GRID_4001])
        assert np.max(np.abs(fn(GRID_4001, *cfg) - reference)) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("cfg", [CFG, WIDE], ids=["unit", "wide"])
    def test_phase_damping_heat_and_coherence_cancel_exactly(self, cfg):
        assert np.all(pd_heat(GRID_4001, *cfg) + pd_coherence(GRID_4001, *cfg) == 0.0)

    @pytest.mark.parametrize("fn", CLOSED_FORMS, ids=lambda fn: fn.__name__)
    def test_energies_in_either_order(self, fn):
        # the curves are linear in the splitting: swapping the levels negates them
        ordered, inverted = fn(GRID_4001, *WIDE), fn(GRID_4001, *WIDE[::-1])
        assert np.max(np.abs(inverted + ordered)) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("fn", CLOSED_FORMS, ids=lambda fn: fn.__name__)
    def test_scalar_input_returns_a_float(self, fn):
        assert type(fn(1.0, *CFG)) is float
        assert type(fn(np.float64(1.0), *CFG)) is float

    @pytest.mark.parametrize("fn", [pf_heat, pf_coherence], ids=lambda fn: fn.__name__)
    def test_domain_error_names_the_first_failing_tau(self, fn):
        with pytest.raises(ValueError, match=r"log argument out of domain at tau=500\.0$"):
            fn(np.array([0.0, 1.0, 500.0, 600.0]), *CFG)

    @pytest.mark.parametrize("fn", [pd_heat, pd_coherence], ids=lambda fn: fn.__name__)
    def test_phase_damping_domain_error_past_exp_overflow(self, fn):
        with pytest.raises(ValueError, match=r"log argument out of domain at tau=800\.0$"):
            fn(np.array([1.0, 800.0]), *CFG)
        with pytest.raises(ValueError, match=r"at tau=800\.0$"):
            fn(800.0, *CFG)

    @pytest.mark.parametrize("fn", [pd_heat, pd_coherence], ids=lambda fn: fn.__name__)
    def test_zero_at_origin_is_positive(self, fn):
        # so the first fig2 CSV row reads 0.00000000000e+00, never -0.00000000000e+00
        assert math.copysign(1.0, fn(0.0, *CFG)) == 1.0
        assert not np.signbit(fn(GRID_4001, *CFG)[0])

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfirstlaw import channel, cxmat, exprparse
from qfirstlaw.channel import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ChannelSpec,
    CptpError,
    KrausSet,
    apply,
    completeness_deviation,
    evolve,
    kraus_at,
    validate_cptp,
)
from qfirstlaw.firstlaw import TimeGrid, spectral_trajectory
from qfirstlaw.qstate import (
    DensityOperator,
    Hamiltonian,
    InitialStatePrep,
    prepare_pure_state,
    validate_density,
)

REFERENCE_STATE = prepare_pure_state(InitialStatePrep(math.pi / 6))
PHASE_DAMPING_CUSTOM = Path(__file__).parent / "data" / "phase_damping_custom.json"

angles_theta = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
angles_phi = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True, allow_nan=False)


def dephased_state(rho0: DensityOperator, factor: float) -> np.ndarray:
    """Closed-form evolved matrix: off-diagonals scaled, diagonal untouched."""
    m = rho0.matrix.copy()
    m[0, 1] *= factor
    m[1, 0] *= factor
    return m


class TestKrausAt:
    def test_phase_damping_at_zero(self):
        ks = kraus_at(ChannelSpec.phase_damping(), 0.0)
        assert np.array_equal(ks.operators[0], np.eye(2, dtype=complex))
        assert np.array_equal(ks.operators[1], np.zeros((2, 2), dtype=complex))

    def test_phase_damping_at_log_four(self):
        # gamma = 1 - 1/4 = 3/4
        ks = kraus_at(ChannelSpec.phase_damping(), math.log(4))
        assert np.allclose(ks.operators[0], np.diag([1.0, 0.5]), atol=1e-15)
        assert np.allclose(ks.operators[1], np.diag([0.0, math.sqrt(3) / 2]), atol=1e-15)

    def test_phase_flip_at_log_two(self):
        ks = kraus_at(ChannelSpec.phase_flip(), math.log(2))
        assert np.allclose(ks.operators[0], math.sqrt(0.5) * np.eye(2), atol=1e-15)
        assert np.allclose(ks.operators[1], math.sqrt(0.5) * PAULI_Z, atol=1e-15)

    def test_rate_scales_time(self):
        fast = kraus_at(ChannelSpec.phase_damping(rate=2.0), math.log(4) / 2)
        slow = kraus_at(ChannelSpec.phase_damping(rate=1.0), math.log(4))
        assert np.allclose(fast.operators[0], slow.operators[0], atol=1e-15)

    def test_pauli_assignments(self):
        for spec, pauli in [
            (ChannelSpec.bit_flip(), PAULI_X),
            (ChannelSpec.bit_phase_flip(), PAULI_Y),
        ]:
            ks = kraus_at(spec, 1.3)
            p = 1 - math.exp(-1.3)
            assert np.allclose(ks.operators[1], math.sqrt(p) * pauli, atol=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            kraus_at(ChannelSpec.phase_damping(), -0.1)

    @pytest.mark.parametrize("t, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                          ([0.0, 1.0, math.nan], "nan")])
    def test_non_finite_time_rejected(self, t, shown):
        for spec in [ChannelSpec.phase_damping(), ChannelSpec.identity()]:
            with pytest.raises(ValueError, match=f"time must be finite and non-negative, got {shown}"):
                kraus_at(spec, t)


class TestValidateCptp:
    @pytest.mark.parametrize("t", [0.0, 0.1, math.log(2), 2.0, 8.0])
    @pytest.mark.parametrize(
        "spec",
        [
            ChannelSpec.phase_damping(),
            ChannelSpec.phase_flip(),
            ChannelSpec.bit_flip(),
            ChannelSpec.bit_phase_flip(),
        ],
        ids=lambda s: s.kind,
    )
    def test_builtins_complete(self, spec, t):
        assert completeness_deviation(kraus_at(spec, t)) <= 1e-12

    def test_double_identity_fails_by_one(self):
        deviation = completeness_deviation(KrausSet((np.eye(2),) * 2, 0.0))
        assert not deviation <= 1e-12
        assert deviation == 1.0

    def test_validate_returns_the_deviation_or_raises_at_the_first_bad_time(self):
        times = np.array([0.0, 1.3, 4.0])
        kraus = kraus_at(ChannelSpec.phase_flip(), times)
        assert np.array_equal(validate_cptp(kraus), completeness_deviation(kraus))
        drifting = ChannelSpec.custom([[["1", "0"], ["0", "1-0.1*t"]]])
        with pytest.raises(CptpError, match=r"^Kraus set at t=1\.3 is not CPTP: deviation "
                                            r"2\.431e-01 > 1\.000e-10$") as info:
            validate_cptp(kraus_at(drifting, times))
        assert info.value.deviation == completeness_deviation(kraus_at(drifting, 1.3))


class TestApply:
    def test_phase_damping_scales_off_diagonals(self):
        for tau in [0.0, 0.4, 1.7, 6.0]:
            out = evolve(ChannelSpec.phase_damping(), REFERENCE_STATE, tau)
            expected = dephased_state(REFERENCE_STATE, math.exp(-0.5 * tau))
            assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_phase_flip_factor_changes_sign(self):
        # factor 2e^{-tau} - 1: positive before ln 2, negative after
        for tau, sign in [(0.3, 1), (math.log(2), 0), (2.0, -1)]:
            out = evolve(ChannelSpec.phase_flip(), REFERENCE_STATE, tau)
            expected = dephased_state(REFERENCE_STATE, 2 * math.exp(-tau) - 1)
            assert np.max(np.abs(out.matrix - expected)) <= 1e-12
            if sign:
                assert math.copysign(1, out.matrix[0, 1].real) == sign

    def test_builtins_fix_maximally_mixed(self):
        mixed = DensityOperator(np.eye(2, dtype=complex) / 2)
        for spec in [
            ChannelSpec.phase_damping(),
            ChannelSpec.phase_flip(),
            ChannelSpec.bit_flip(),
            ChannelSpec.bit_phase_flip(),
        ]:
            for tau in np.linspace(0.0, 8.0, 15):
                out = evolve(spec, mixed, float(tau))
                assert np.max(np.abs(out.matrix - mixed.matrix)) <= 1e-15

    def test_refuses_incomplete_set(self):
        broken = KrausSet((np.eye(2) * 0.5,), 1.0)
        with pytest.raises(CptpError, match="t=1.0"):
            apply(broken, REFERENCE_STATE)

    def test_dim_mismatch(self):
        with pytest.raises(cxmat.ShapeError):
            apply(kraus_at(ChannelSpec.phase_damping(), 0.0), DensityOperator(np.eye(3) / 3))


class TestEvolve:
    def test_off_diagonal_value_at_tau_two(self):
        out = evolve(ChannelSpec.phase_damping(), REFERENCE_STATE, 2.0)
        # sqrt(3)/4 * e^{-1}, evaluated independently
        assert out.matrix[0, 1].real == pytest.approx(0.159296470792246, abs=1e-14)

    def test_phase_flip_diagonal_at_log_two(self):
        out = evolve(ChannelSpec.phase_flip(), REFERENCE_STATE, math.log(2))
        assert abs(out.matrix[0, 1]) <= 1e-15
        assert out.matrix[0, 0].real == pytest.approx(0.75, abs=1e-15)

    def test_zero_time_is_identity(self):
        for spec in [ChannelSpec.phase_damping(), ChannelSpec.bit_flip()]:
            out = evolve(spec, REFERENCE_STATE, 0.0)
            assert np.array_equal(out.matrix, REFERENCE_STATE.matrix)

    @given(angles_theta, angles_phi, st.floats(0.0, 8.0))
    def test_preserves_density_invariants(self, theta, phi, tau):
        rho0 = prepare_pure_state(InitialStatePrep(theta, phi))
        for spec in [ChannelSpec.phase_damping(), ChannelSpec.phase_flip()]:
            out = evolve(spec, rho0, tau)
            assert validate_density(out).passed

    def test_invariants_over_grid_all_builtins(self):
        specs = {
            channel.PHASE_DAMPING: prepare_pure_state(InitialStatePrep(math.pi / 6)),
            channel.PHASE_FLIP: prepare_pure_state(InitialStatePrep(math.pi / 6)),
            channel.BIT_FLIP: prepare_pure_state(InitialStatePrep(math.pi / 4, math.pi / 2)),
            channel.BIT_PHASE_FLIP: prepare_pure_state(InitialStatePrep(math.pi / 4)),
        }
        for kind, rho0 in specs.items():
            spec = ChannelSpec(kind)
            for tau in np.linspace(0.0, 8.0, 100):
                out = evolve(spec, rho0, float(tau))
                report = validate_density(out)
                assert report.passed, f"{kind} at tau={tau}: {report.summary()}"

    def test_diagonals_constant_for_z_dephasing_any_state(self):
        rho0 = prepare_pure_state(InitialStatePrep(0.9, 2.2))
        for spec in [ChannelSpec.phase_damping(), ChannelSpec.phase_flip()]:
            for tau in np.linspace(0.0, 8.0, 25):
                out = evolve(spec, rho0, float(tau))
                assert np.max(np.abs(np.diag(out.matrix - rho0.matrix))) <= 1e-15

    def test_diagonals_constant_for_xy_flips_on_equal_populations(self):
        # bit flip / bit-phase flip only preserve populations when they start equal
        for spec, phi in [(ChannelSpec.bit_flip(), math.pi / 2), (ChannelSpec.bit_phase_flip(), 0.0)]:
            rho0 = prepare_pure_state(InitialStatePrep(math.pi / 4, phi))
            for tau in np.linspace(0.0, 8.0, 25):
                out = evolve(spec, rho0, float(tau))
                assert np.max(np.abs(np.diag(out.matrix - rho0.matrix))) <= 1e-15

    def test_bit_phase_flip_has_complex_action(self):
        rho0 = prepare_pure_state(InitialStatePrep(math.pi / 4))
        out = evolve(ChannelSpec.bit_phase_flip(), rho0, 1.0)
        # sigma_y conjugation flips the sign of the real part of rho01
        expected = (1 - math.exp(-1.0)) * (-0.5) + math.exp(-1.0) * 0.5
        assert out.matrix[0, 1].real == pytest.approx(expected, abs=1e-14)


class TestCustomChannels:
    def dephasing_as_expressions(self):
        return ChannelSpec.custom(
            [
                [["1", "0"], ["0", "exp(-0.5*t)"]],
                [["0", "0"], ["0", "sqrt(1-exp(-t))"]],
            ]
        )

    def test_expression_channel_matches_builtin(self):
        spec = self.dephasing_as_expressions()
        for tau in [0.0, 0.5, 2.0, 7.0]:
            mine = evolve(spec, REFERENCE_STATE, tau)
            builtin = evolve(ChannelSpec.phase_damping(), REFERENCE_STATE, tau)
            assert np.max(np.abs(mine.matrix - builtin.matrix)) <= 1e-12

    def test_identity_channel(self):
        out = evolve(ChannelSpec.identity(), REFERENCE_STATE, 5.0)
        assert np.array_equal(out.matrix, REFERENCE_STATE.matrix)

    def test_rejects_non_cptp_at_time_zero(self):
        with pytest.raises(CptpError, match=r"^Kraus set at t=0\.0 is not CPTP: deviation "
                                            r"7\.500e-01 > 1\.000e-10$") as info:
            ChannelSpec.custom([[["0.5", "0"], ["0", "0.5"]]])
        assert info.value.deviation == 0.75

    def test_nan_deviation_is_refused(self):
        # at t > 0 the second operator's K†K is inf - inf = nan off the diagonal
        big = [["1e200*t", "1e200*t"], ["1e200*t", "-1e200*t"]]
        spec = ChannelSpec.custom([[["1", "0"], ["0", "1"]], big])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CptpError, match=r"t=1\.0 is not CPTP: deviation nan") as info:
                evolve(spec, REFERENCE_STATE, np.array([0.0, 1.0, 2.0]))
        assert math.isnan(info.value.deviation)

    def test_drifting_channel_fails_later(self):
        drifting = ChannelSpec.custom([[["1", "0"], ["0", "1-0.1*t"]]])
        evolve(drifting, REFERENCE_STATE, 0.0)
        with pytest.raises(CptpError, match="t=3"):
            evolve(drifting, REFERENCE_STATE, 3.0)

    def test_expression_domain_error_carries_context(self):
        spec = ChannelSpec.custom([[["1", "0"], ["0", "sqrt(1-t)"]]])
        with pytest.raises(exprparse.DomainError, match=r"entry \(1,1\)"):
            kraus_at(spec, 4.0)

    def test_grid_domain_error_names_entry_and_first_bad_time(self):
        spec = ChannelSpec.custom([[["1", "0"], ["0", "sqrt(1-t)"]]])
        grid = TimeGrid(4.0, 40)
        first_bad = float(grid.points[grid.points > 1.0][0])
        with pytest.raises(exprparse.DomainError,
                           match=rf"entry \(1,1\): .* at t={re.escape(repr(first_bad))} "):
            spectral_trajectory(spec, REFERENCE_STATE, Hamiltonian.two_level(), grid)

    def test_drifting_channel_names_first_failing_grid_time(self):
        drifting = ChannelSpec.custom([[["1", "0"], ["0", "1-0.1*t"]]])
        grid = TimeGrid(4.0, 40)
        first_bad = re.escape(repr(float(grid.points[1])))
        with pytest.raises(CptpError, match=rf"t={first_bad} is not CPTP") as info:
            spectral_trajectory(drifting, REFERENCE_STATE, Hamiltonian.two_level(), grid)
        assert info.value.deviation == pytest.approx(1.0 - (1.0 - 0.1 * grid.points[1]) ** 2)

    def test_from_json_round_trip(self):
        payload = json.dumps(
            {
                "kind": "custom",
                "dim": 2,
                "kraus": [
                    [[["1", "0"], ["0", "0"]], [["0", "0"], ["exp(-0.5*t)", "0"]]],
                    [[["0", "0"], ["0", "0"]], [["0", "0"], ["sqrt(1-exp(-t))", "0"]]],
                ],
            }
        )
        spec = ChannelSpec.from_json(payload)
        assert spec.kind == channel.CUSTOM
        assert completeness_deviation(kraus_at(spec, 1.0)) <= 1e-12

    def test_from_json_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ChannelSpec.from_json({"kind": "phase_damping"})

    def test_from_json_rejects_missing_kraus(self):
        with pytest.raises(ValueError, match="kraus"):
            ChannelSpec.from_json({"kind": "custom", "dim": 2})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec("amplitude_damping")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec.phase_damping(rate=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", [ChannelSpec.phase_damping, ChannelSpec.phase_flip,
                                        ChannelSpec.bit_flip, ChannelSpec.bit_phase_flip])
    def test_non_finite_rate_rejected(self, family, rate):
        with pytest.raises(ValueError, match="rate must be finite and positive"):
            family(rate=rate)


def _einsum_apply(kraus, rho):
    """The contraction apply used before the stack kernels."""
    ops = np.stack(kraus.operators, axis=-3)
    return np.einsum("...kij,...jl,...kml->...im", ops, rho.matrix, ops.conj())


def _einsum_completeness(kraus):
    """The completeness deviation used before the stack kernels."""
    ops = np.stack(kraus.operators, axis=-3)
    total = np.einsum("...kji,...kjl->...il", ops.conj(), ops)
    return np.abs(total - np.eye(kraus.dim)).max(axis=(-2, -1))


class TestStackKernelsMatchEinsum:
    TIMES = ChannelSpec.phase_damping().physical_time(TimeGrid(8.0, 400).points)

    def _assert_bit_equal(self, spec, rho0):
        for t in [self.TIMES, 1.3]:
            kraus = kraus_at(spec, t)
            assert np.array_equal(apply(kraus, rho0).matrix, _einsum_apply(kraus, rho0))
            assert np.array_equal(completeness_deviation(kraus), _einsum_completeness(kraus))

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2])
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4])
    @pytest.mark.parametrize("family", [ChannelSpec.phase_damping, ChannelSpec.phase_flip,
                                        ChannelSpec.bit_flip, ChannelSpec.bit_phase_flip])
    def test_builtin_families(self, family, theta, phi):
        self._assert_bit_equal(family(), prepare_pure_state(InitialStatePrep(theta, phi)))

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4])
    def test_custom_phase_damping_fixture(self, theta):
        spec = ChannelSpec.from_json(PHASE_DAMPING_CUSTOM.read_text())
        self._assert_bit_equal(spec, prepare_pure_state(InitialStatePrep(theta)))


class TestKrausSet:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(cxmat.ShapeError):
            KrausSet((np.eye(2), np.eye(3)), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KrausSet((), 0.0)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_operators_rejected(self, shape):
        with pytest.raises(cxmat.ShapeError, match=r"at least one row and one column"):
            KrausSet((np.zeros(shape),), 0.0)


def test_physical_time_conversion():
    assert ChannelSpec.phase_damping(rate=4.0).physical_time(2.0) == 0.5
    assert ChannelSpec.identity().physical_time(2.0) == 2.0

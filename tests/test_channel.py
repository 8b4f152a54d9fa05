import dataclasses
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
    prepare_pure_state,
    validate_density,
)

REFERENCE_STATE = prepare_pure_state(math.pi / 6)
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
        ks = kraus_at(ChannelSpec("phase_damping"), 0.0)
        assert np.array_equal(ks.operators[0], np.eye(2, dtype=complex))
        assert np.array_equal(ks.operators[1], np.zeros((2, 2), dtype=complex))

    def test_phase_damping_at_log_four(self):
        # gamma = 1 - 1/4 = 3/4
        ks = kraus_at(ChannelSpec("phase_damping"), math.log(4))
        assert np.allclose(ks.operators[0], np.diag([1.0, 0.5]), atol=1e-15)
        assert np.allclose(ks.operators[1], np.diag([0.0, math.sqrt(3) / 2]), atol=1e-15)

    def test_phase_flip_at_log_two(self):
        ks = kraus_at(ChannelSpec("phase_flip"), math.log(2))
        assert np.allclose(ks.operators[0], math.sqrt(0.5) * np.eye(2), atol=1e-15)
        assert np.allclose(ks.operators[1], math.sqrt(0.5) * PAULI_Z, atol=1e-15)

    def test_pauli_assignments(self):
        for spec, pauli in [
            (ChannelSpec("bit_flip"), PAULI_X),
            (ChannelSpec("bit_phase_flip"), PAULI_Y),
        ]:
            ks = kraus_at(spec, 1.3)
            p = 1 - math.exp(-1.3)
            assert np.allclose(ks.operators[1], math.sqrt(p) * pauli, atol=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            kraus_at(ChannelSpec("phase_damping"), -0.1)

    @pytest.mark.parametrize("kind", channel.BUILTIN_KINDS)
    def test_builtin_probability_is_one_minus_exp_of_tau(self, kind):
        # builtins read tau as-is: p = 1 - exp(-tau), computed via expm1
        times = TimeGrid(8.0, 80).points
        p = -np.expm1(-times)
        k1, k2 = kraus_at(ChannelSpec(kind), times).operators
        assert np.array_equal(np.abs(k2).max(axis=(-2, -1)), np.sqrt(p))
        assert np.array_equal(k1[:, 1, 1], np.sqrt(1.0 - p))

    @pytest.mark.parametrize("kind", channel.BUILTIN_KINDS)
    def test_builtin_takes_no_rate(self, kind):
        with pytest.raises(TypeError):
            ChannelSpec(kind, rate=2.0)

    @pytest.mark.parametrize("t, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                          (-math.inf, "-inf")])
    def test_builtins_reject_non_finite_grid_time(self, t, shown):
        for kind in channel.BUILTIN_KINDS:
            with pytest.raises(ValueError, match=f"time must be finite and non-negative, got {shown}"):
                kraus_at(ChannelSpec(kind), np.array([0.0, 1.0, t, 2.0]))

    @pytest.mark.parametrize("t, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                          ([0.0, 1.0, math.nan], "nan")])
    def test_non_finite_time_rejected(self, t, shown):
        for spec in [ChannelSpec("phase_damping"), ChannelSpec.identity()]:
            with pytest.raises(ValueError, match=f"time must be finite and non-negative, got {shown}"):
                kraus_at(spec, t)


class TestValidateCptp:
    @pytest.mark.parametrize("t", [0.0, 0.1, math.log(2), 2.0, 8.0])
    @pytest.mark.parametrize("kind", channel.BUILTIN_KINDS)
    def test_builtins_complete(self, kind, t):
        assert completeness_deviation(kraus_at(ChannelSpec(kind), t)) <= 1e-12

    def test_double_identity_fails_by_one(self):
        deviation = completeness_deviation(KrausSet((np.eye(2),) * 2, 0.0))
        assert not deviation <= 1e-12
        assert deviation == 1.0

    @pytest.mark.parametrize("shape, grid_last", [
        ((3, 3), False), ((1, 2, 2), False), ((17, 5, 5), False),
        ((4001, 2, 2), False), ((4001, 2, 2), True),
    ])
    def test_deviation_is_the_max_over_the_matrix_axes(self, shape, grid_last):
        rng = np.random.default_rng(len(shape))
        ops = rng.normal(size=(2, *shape)) + 1j * rng.normal(size=(2, *shape))
        # at the first and last time the first operator's K†K is inf - inf = nan off the diagonal
        ops.reshape(2, -1, *shape[-2:])[0, [0, -1], :2, :2] = 1e200 * np.array([[1, 1], [1, -1]])
        if grid_last:
            ops = [cxmat.stack_view(np.ascontiguousarray(np.moveaxis(k, 0, -1))) for k in ops]
        with np.errstate(over="ignore", invalid="ignore"):
            deviation = completeness_deviation(KrausSet(tuple(ops), np.zeros(shape[:-2])))
            # elementwise, not matmul: BLAS can turn an inf - inf cell into inf + nan j
            total = sum((k.conj()[..., :, None] * k[..., None, :]).sum(axis=-3) for k in ops)
        expected = np.abs(total - np.eye(shape[-1])).max(axis=(-2, -1))
        assert np.shape(deviation) == expected.shape == shape[:-2]
        assert np.isnan(np.ravel(expected)[[0, -1]]).all()
        np.testing.assert_allclose(deviation, expected, rtol=1e-13, atol=0)

    def test_validate_returns_the_deviation_or_raises_at_the_first_bad_time(self):
        times = np.array([0.0, 1.3, 4.0])
        kraus = kraus_at(ChannelSpec("phase_flip"), times)
        assert np.array_equal(validate_cptp(kraus), completeness_deviation(kraus))
        drifting = ChannelSpec.custom([[["1", "0"], ["0", "1-0.1*t"]]])
        with pytest.raises(CptpError, match=r"^Kraus set at t=1\.3 is not CPTP: deviation "
                                            r"2\.431e-01 > 1\.000e-10$"):
            validate_cptp(kraus_at(drifting, times))


class TestApply:
    def test_phase_damping_scales_off_diagonals(self):
        for tau in [0.0, 0.4, 1.7, 6.0]:
            out = evolve(ChannelSpec("phase_damping"), REFERENCE_STATE, tau)
            expected = dephased_state(REFERENCE_STATE, math.exp(-0.5 * tau))
            assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_phase_flip_factor_changes_sign(self):
        # factor 2e^{-tau} - 1: positive before ln 2, negative after
        for tau, sign in [(0.3, 1), (math.log(2), 0), (2.0, -1)]:
            out = evolve(ChannelSpec("phase_flip"), REFERENCE_STATE, tau)
            expected = dephased_state(REFERENCE_STATE, 2 * math.exp(-tau) - 1)
            assert np.max(np.abs(out.matrix - expected)) <= 1e-12
            if sign:
                assert math.copysign(1, out.matrix[0, 1].real) == sign

    def test_builtins_fix_maximally_mixed(self):
        mixed = DensityOperator(np.eye(2, dtype=complex) / 2)
        for kind in channel.BUILTIN_KINDS:
            for tau in np.linspace(0.0, 8.0, 15):
                out = evolve(ChannelSpec(kind), mixed, float(tau))
                assert np.max(np.abs(out.matrix - mixed.matrix)) <= 1e-15

    def test_refuses_incomplete_set(self):
        broken = KrausSet((np.eye(2) * 0.5,), 1.0)
        with pytest.raises(CptpError, match="t=1.0"):
            apply(broken, REFERENCE_STATE)

    def test_dim_mismatch(self):
        with pytest.raises(cxmat.ShapeError):
            apply(kraus_at(ChannelSpec("phase_damping"), 0.0), DensityOperator(np.eye(3) / 3))

    def test_trace_drift_beyond_the_completeness_deviation_is_refused(self):
        # deviation 5e-11 passes the CPTP check; the trace-10 state drifts by
        # 1e-9, past the d * 5e-11 + 1e-12 a unit-trace state could drift by
        kraus = KrausSet((math.sqrt(1 + 5e-11) * np.eye(2),), 0.0)
        with pytest.raises(cxmat.NumericError, match=re.escape(
                "at t=0.0: trace drifted by 1.000e-09 under a CPTP-validated set")):
            apply(kraus, DensityOperator(10 * np.eye(2)))


class TestEvolve:
    def test_off_diagonal_value_at_tau_two(self):
        out = evolve(ChannelSpec("phase_damping"), REFERENCE_STATE, 2.0)
        # sqrt(3)/4 * e^{-1}, evaluated independently
        assert out.matrix[0, 1].real == pytest.approx(0.159296470792246, abs=1e-14)

    def test_phase_flip_diagonal_at_log_two(self):
        out = evolve(ChannelSpec("phase_flip"), REFERENCE_STATE, math.log(2))
        assert abs(out.matrix[0, 1]) <= 1e-15
        assert out.matrix[0, 0].real == pytest.approx(0.75, abs=1e-15)

    def test_zero_time_is_identity(self):
        for spec in [ChannelSpec("phase_damping"), ChannelSpec("bit_flip")]:
            out = evolve(spec, REFERENCE_STATE, 0.0)
            assert np.array_equal(out.matrix, REFERENCE_STATE.matrix)

    @given(angles_theta, angles_phi, st.floats(0.0, 8.0))
    def test_preserves_density_invariants(self, theta, phi, tau):
        rho0 = prepare_pure_state(theta, phi)
        for spec in [ChannelSpec("phase_damping"), ChannelSpec("phase_flip")]:
            out = evolve(spec, rho0, tau)
            assert all(r.passed for r in validate_density(out))

    def test_invariants_over_grid_all_builtins(self):
        specs = {
            channel.PHASE_DAMPING: prepare_pure_state(math.pi / 6),
            channel.PHASE_FLIP: prepare_pure_state(math.pi / 6),
            channel.BIT_FLIP: prepare_pure_state(math.pi / 4, math.pi / 2),
            channel.BIT_PHASE_FLIP: prepare_pure_state(math.pi / 4),
        }
        for kind, rho0 in specs.items():
            spec = ChannelSpec(kind)
            for tau in np.linspace(0.0, 8.0, 100):
                out = evolve(spec, rho0, float(tau))
                failed = [r.line() for r in validate_density(out) if not r.passed]
                assert not failed, f"{kind} at tau={tau}: {failed}"

    def test_diagonals_constant_for_z_dephasing_any_state(self):
        rho0 = prepare_pure_state(0.9, 2.2)
        for spec in [ChannelSpec("phase_damping"), ChannelSpec("phase_flip")]:
            for tau in np.linspace(0.0, 8.0, 25):
                out = evolve(spec, rho0, float(tau))
                assert np.max(np.abs(np.diag(out.matrix - rho0.matrix))) <= 1e-15

    def test_diagonals_constant_for_xy_flips_on_equal_populations(self):
        # bit flip / bit-phase flip only preserve populations when they start equal
        for kind, phi in [("bit_flip", math.pi / 2), ("bit_phase_flip", 0.0)]:
            rho0 = prepare_pure_state(math.pi / 4, phi)
            for tau in np.linspace(0.0, 8.0, 25):
                out = evolve(ChannelSpec(kind), rho0, float(tau))
                assert np.max(np.abs(np.diag(out.matrix - rho0.matrix))) <= 1e-15

    def test_bit_phase_flip_has_complex_action(self):
        rho0 = prepare_pure_state(math.pi / 4)
        out = evolve(ChannelSpec("bit_phase_flip"), rho0, 1.0)
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
            builtin = evolve(ChannelSpec("phase_damping"), REFERENCE_STATE, tau)
            assert np.max(np.abs(mine.matrix - builtin.matrix)) <= 1e-12

    def test_identity_channel(self):
        out = evolve(ChannelSpec.identity(), REFERENCE_STATE, 5.0)
        assert np.array_equal(out.matrix, REFERENCE_STATE.matrix)

    def test_rejects_non_cptp_at_time_zero(self):
        with pytest.raises(CptpError, match=r"^Kraus set at t=0\.0 is not CPTP: deviation "
                                            r"7\.500e-01 > 1\.000e-10$"):
            ChannelSpec.custom([[["0.5", "0"], ["0", "0.5"]]])

    def test_nan_deviation_is_refused(self):
        # at t > 0 the second operator's K†K is inf - inf = nan off the diagonal
        big = [["1e200*t", "1e200*t"], ["1e200*t", "-1e200*t"]]
        spec = ChannelSpec.custom([[["1", "0"], ["0", "1"]], big])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CptpError, match=r"t=1\.0 is not CPTP: deviation nan > "):
                evolve(spec, REFERENCE_STATE, np.array([0.0, 1.0, 2.0]))

    def test_drifting_channel_fails_later(self):
        drifting = ChannelSpec.custom([[["1", "0"], ["0", "1-0.1*t"]]])
        evolve(drifting, REFERENCE_STATE, 0.0)
        with pytest.raises(CptpError, match="t=3"):
            evolve(drifting, REFERENCE_STATE, 3.0)

    @pytest.mark.parametrize("entry, error, message", [
        ("1+", exprparse.ParseError,
         r"^custom channel operator 1 entry \(1,1\): unexpected end of expression \(offset 2\)$"),
        (math.inf, ValueError, r"^custom channel operator 1 entry \(1,1\): number inf is not"),
        (10 ** 400, ValueError,
         r"^custom channel operator 1 entry \(1,1\): int too large to convert to float$"),
    ], ids=["parse", "inf", "huge-int"])
    def test_refused_entry_names_operator_and_entry(self, entry, error, message):
        with pytest.raises(error, match=message) as info:
            ChannelSpec.custom([[["1", "0"], ["0", "0"]], [["0", "0"], ["0", entry]]])
        assert type(info.value) is error

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
            spectral_trajectory(spec, REFERENCE_STATE, Hamiltonian([0.0, 1.0]), grid)

    def test_drifting_channel_names_first_failing_grid_time(self):
        drifting = ChannelSpec.custom([[["1", "0"], ["0", "1-0.1*t"]]])
        grid = TimeGrid(4.0, 40)
        first_bad = re.escape(repr(float(grid.points[1])))
        deviation = f"{1.0 - (1.0 - 0.1 * grid.points[1]) ** 2:.3e}"
        with pytest.raises(CptpError, match=rf"t={first_bad} is not CPTP: deviation {deviation} "):
            spectral_trajectory(drifting, REFERENCE_STATE, Hamiltonian([0.0, 1.0]), grid)

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

    def test_spec_fields(self):
        # tau is the one time variable: a spec carries no rate
        names = [f.name for f in dataclasses.fields(ChannelSpec)]
        assert names == ["kind", "dim", "custom_operators"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec("amplitude_damping")

    def test_builtin_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "builtin channels are qubit channels (dim 2)")):
            ChannelSpec("phase_damping", dim=3)

    def test_custom_without_operators_rejected(self):
        with pytest.raises(ValueError, match="^custom channel needs at least one Kraus operator$"):
            ChannelSpec("custom")

    def test_from_json_rejects_a_non_object(self):
        with pytest.raises(ValueError, match="^channel JSON must be an object$"):
            ChannelSpec.from_json("[1]")


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
    TIMES = TimeGrid(8.0, 400).points

    def _assert_bit_equal(self, spec, rho0):
        for t in [self.TIMES, 1.3]:
            kraus = kraus_at(spec, t)
            assert np.array_equal(apply(kraus, rho0).matrix, _einsum_apply(kraus, rho0))
            assert np.array_equal(completeness_deviation(kraus), _einsum_completeness(kraus))

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2])
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4])
    @pytest.mark.parametrize("kind", channel.BUILTIN_KINDS)
    def test_builtin_families(self, kind, theta, phi):
        self._assert_bit_equal(ChannelSpec(kind), prepare_pure_state(theta, phi))

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4])
    def test_custom_phase_damping_fixture(self, theta):
        spec = ChannelSpec.from_json(PHASE_DAMPING_CUSTOM.read_text())
        self._assert_bit_equal(spec, prepare_pure_state(theta))


class TestKrausSet:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(cxmat.ShapeError):
            KrausSet((np.eye(2), np.eye(3)), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KrausSet((), 0.0)

    @pytest.mark.parametrize("time_label, shape", [(0.0, (4, 2, 2)), ([0.0, 1.0], (4, 2, 2)),
                                                   (np.zeros(4), (2, 2))])
    def test_time_label_of_another_shape_rejected(self, time_label, shape):
        # a label that does not match would name the wrong time, or none
        with pytest.raises(cxmat.ShapeError, match="does not label operators of shape"):
            KrausSet((np.zeros(shape),), time_label)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_operators_rejected(self, shape):
        with pytest.raises(cxmat.ShapeError, match=r"at least one row and one column"):
            KrausSet((np.zeros(shape),), 0.0)

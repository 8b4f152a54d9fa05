"""The per-layer benchmark's tracer (perfbench/tracer.py), loaded as it is,
must keep working on the package: every observer accepts what its layer
returns, and every layer that ``tracer.LAYERS`` lists for all four workloads
records at least one call per trajectory, which the benchmark requires of
each of them.  The benchmark's seeded qudit inputs (perfbench/inputs.py) also
show that a ledger does not depend on the energy unit."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qfirstlaw import ChannelSpec, DensityOperator, Hamiltonian, TimeGrid, firstlaw
from qfirstlaw.qstate import prepare_pure_state

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _complex_matrix(rows):
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])


def _qubit_ledger():
    rho0 = prepare_pure_state(math.pi / 6)
    return (ChannelSpec("phase_damping"), rho0, Hamiltonian([0.0, 1.0]),
            TimeGrid(8.0, 4000))


def _seeded_inputs(*args):
    """``inputs.qudit_inputs(*args)`` with static H, built as the benchmark builds them."""
    return [(ChannelSpec.from_json(doc["channel"]), DensityOperator(_complex_matrix(doc["rho0"])),
             Hamiltonian.from_matrix(_complex_matrix(doc["hamiltonian"]["matrix"])),
             TimeGrid(doc["tau_max"], doc["steps"]))
            for doc in json.loads(_load("inputs").qudit_inputs(*args))]


def _seeded_d8_input():
    return _seeded_inputs(1, 1, 8, False, 4.0, 16)[0]


@pytest.mark.parametrize("case", [_qubit_ledger, _seeded_d8_input], ids=["qubit-4000", "d8"])
def test_traced_layers_record_calls_on_every_trajectory(case):
    args = case()
    tracer_mod = _load("tracer")
    original = firstlaw.spectral_trajectory
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert firstlaw.spectral_trajectory is not original
        firstlaw.run_energetics(*args)
    finally:
        tracer.uninstall()
    assert firstlaw.spectral_trajectory is original
    stats = tracer.snapshot()
    assert stats["firstlaw.spectral_trajectory"]["calls"] == 1
    layers = [name for name, _, _, listed in tracer_mod.LAYERS if listed == tracer_mod.ALL]
    assert layers
    for layer in layers:
        assert stats[layer]["calls"] >= 1, layer


def _rotated_spectrum(d):
    """A seeded Q diag(linspace(0, 1, d)) Q† with Q unitary: its round-off
    leaves it short of Hermitian by a few times 1e-17."""
    rng = np.random.default_rng([23, d])
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q @ np.diag(np.linspace(0.0, 1.0, d)) @ q.conj().T


@pytest.mark.parametrize("case", [0, 1, 2, 3, "d2", "d4", "d8"])
def test_ledger_does_not_depend_on_the_energy_unit(case):
    """Scaling H by 2^20 is exact through Jacobi, the overlaps and the
    quadrature, so the ledger scales bit for bit: no bound on the way may
    refuse a Hamiltonian for the size of its entries.  The integer cases
    take the seeded benchmark inputs as they are; the others put a matrix
    that is Hermitian only up to round-off into ``from_matrix``, whose
    skew at 2^20 exceeds 1e-12."""
    scale = 2.0 ** 20
    if isinstance(case, int):
        spec, rho0, h, grid = _seeded_inputs(3, 4, 4, False, 2.0, 40)[case]
        matrix = h.matrix(0.0)
    else:
        d = int(case[1:])
        spec, rho0, _, grid = _seeded_inputs(3, 1, d, False, 2.0, 16 if d == 8 else 40)[0]
        matrix = _rotated_spectrum(d)
        assert np.max(np.abs(scale * (matrix - matrix.conj().T))) > 1e-12
        h = Hamiltonian.from_matrix(matrix)

    def columns(hamiltonian):
        ledger = firstlaw.run_energetics(spec, rho0, hamiltonian, grid)
        return np.stack([ledger.delta_u, ledger.work, ledger.heat, ledger.coherence])

    base = columns(h)
    scaled = columns(Hamiltonian.from_matrix(scale * matrix))
    assert scaled.tobytes() == (scale * base).tobytes()

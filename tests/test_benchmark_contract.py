"""The per-layer benchmark's tracer (perfbench/tracer.py), loaded as it is,
must keep working on the package: every observer accepts what its layer
returns, and branch matching and degeneracy inheritance record at least one
call per trajectory, which the benchmark requires of every layer it lists."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qfirstlaw import ChannelSpec, DensityOperator, Hamiltonian, TimeGrid, firstlaw
from qfirstlaw.qstate import InitialStatePrep, prepare_pure_state

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _complex_matrix(rows):
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])


def _qubit_ledger():
    rho0 = prepare_pure_state(InitialStatePrep(math.pi / 6))
    return (ChannelSpec.phase_damping(), rho0, Hamiltonian.two_level(0.0, 1.0),
            TimeGrid(8.0, 4000))


def _seeded_d8_input():
    doc = json.loads(_load("inputs").qudit_inputs(1, 1, 8, False, 4.0, 16))[0]
    return (ChannelSpec.from_json(doc["channel"]), DensityOperator(_complex_matrix(doc["rho0"])),
            Hamiltonian.from_matrix(_complex_matrix(doc["hamiltonian"]["matrix"])),
            TimeGrid(doc["tau_max"], doc["steps"]))


@pytest.mark.parametrize("case", [_qubit_ledger, _seeded_d8_input], ids=["qubit-4000", "d8"])
def test_traced_layers_record_calls_on_every_trajectory(case):
    args = case()
    original = firstlaw.branch_match
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert firstlaw.branch_match is not original
        firstlaw.run_energetics(*args)
    finally:
        tracer.uninstall()
    assert firstlaw.branch_match is original
    stats = tracer.snapshot()
    assert stats["firstlaw.spectral_trajectory"]["calls"] == 1
    for layer in ("firstlaw.branch_match", "firstlaw._inherit_degenerate"):
        assert stats[layer]["calls"] >= 1, layer

"""Work / heat / coherence bookkeeping for finite-dimensional systems under
non-dissipative Kraus channels, with closed-form oracles and a verification CLI."""

from .channel import ChannelSpec, KrausSet, apply, evolve, kraus_at, validate_cptp
from .cxmat import HermitianEigenDecomposition, hermitian_eigen
from .firstlaw import (
    EnergeticsLedger,
    SpectralTrajectory,
    TimeGrid,
    branch_match,
    integrate_first_law,
    run_energetics,
    spectral_trajectory,
)
from .oracle import (
    pd_coherence,
    pd_eigensystem,
    pd_heat,
    pf_coherence,
    pf_heat,
)
from .qstate import (
    DensityOperator,
    Hamiltonian,
    energy_eigenbasis,
    internal_energy,
    prepare_pure_state,
    validate_density,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "DensityOperator",
    "EnergeticsLedger",
    "Hamiltonian",
    "HermitianEigenDecomposition",
    "KrausSet",
    "SpectralTrajectory",
    "TimeGrid",
    "apply",
    "branch_match",
    "energy_eigenbasis",
    "evolve",
    "hermitian_eigen",
    "integrate_first_law",
    "internal_energy",
    "kraus_at",
    "pd_coherence",
    "pd_eigensystem",
    "pd_heat",
    "pf_coherence",
    "pf_heat",
    "prepare_pure_state",
    "run_energetics",
    "spectral_trajectory",
    "validate_cptp",
    "validate_density",
]

"""Seeded inputs for the qudit workloads.

A qudit input is a mixed-unitary custom channel in the documented JSON
schema, a pure initial state and a Hamiltonian, all written as JSON text:

    K0 = sqrt(exp(-t)) I,    K_i = sqrt(w_i (1 - exp(-t))) U_i   (i = 1..3)

with each U_i the Q factor of a QR decomposition of a complex Gaussian
matrix (phases fixed so the draw is Haar) and w Dirichlet(1, 1, 1).  The set
is complete at every t, so the channel passes the CPTP check that
``ChannelSpec.from_json`` runs at t = 0 and the per-step check after it.

Coefficients are written with ``repr(float(x))``: under numpy 2,
``repr(np.float64(x))`` reads ``np.float64(...)``, which the expression lexer
rejects.  The program sees only this text; its sha256 is reported so two runs
can be shown to use identical inputs.

A benchmark pass runs several inputs drawn from one seed (``qudit_inputs``):
the work of one draw depends on its matrices (Jacobi sweeps, reorderings),
and averaging over draws keeps that from dominating the seed-to-seed spread.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

N_UNITARIES = 3


def _num(x) -> str:
    return repr(float(x))


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.25 * (z + z.conj().T)


def _channel_json(rng: np.random.Generator, d: int) -> dict:
    weights = rng.dirichlet(np.ones(N_UNITARIES))
    identity = [[["sqrt(exp(-t))" if i == j else "0", "0"] for j in range(d)]
                for i in range(d)]
    kraus = [identity]
    for w in weights:
        u = _haar_unitary(rng, d)
        scale = f"sqrt({_num(w)}*(1-exp(-t)))"
        kraus.append([[[f"{_num(u[i, j].real)}*{scale}", f"{_num(u[i, j].imag)}*{scale}"]
                       for j in range(d)] for i in range(d)])
    return {"kind": "custom", "dim": d, "kraus": kraus}


def _pure_state(rng: np.random.Generator, d: int) -> list:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    return [[[_num(rho[i, j].real), _num(rho[i, j].imag)] for j in range(d)] for i in range(d)]


def _driven_hamiltonian(h0: np.ndarray) -> dict:
    """H(t) = (1 + 0.1 t) H0 as expression strings (diagonal plus upper triangle)."""
    d = h0.shape[0]
    drive = "(1+0.1*t)*"
    return {
        "diag": [drive + _num(h0[i, i].real) for i in range(d)],
        "upper": [[i, j, drive + _num(h0[i, j].real), drive + _num(h0[i, j].imag)]
                  for i in range(d) for j in range(i + 1, d)],
    }


def _static_hamiltonian(h0: np.ndarray) -> dict:
    d = h0.shape[0]
    return {"matrix": [[[_num(h0[i, j].real), _num(h0[i, j].imag)] for j in range(d)]
                       for i in range(d)]}


def _document(seed: int, index: int, dim: int, driven: bool, tau_max: float, steps: int) -> dict:
    rng = np.random.default_rng([seed, dim, index])
    channel = _channel_json(rng, dim)
    rho0 = _pure_state(rng, dim)
    h0 = _hermitian(rng, dim)
    hamiltonian = _driven_hamiltonian(h0) if driven else _static_hamiltonian(h0)
    return {"channel": channel, "rho0": rho0, "hamiltonian": hamiltonian,
            "tau_max": tau_max, "steps": steps}


def qudit_inputs(seed: int, count: int, dim: int, driven: bool, tau_max: float,
                 steps: int) -> str:
    """JSON text of a list of ``count`` independent inputs drawn from ``seed``;
    the same arguments give the same text."""
    return json.dumps([_document(seed, index, dim, driven, tau_max, steps)
                       for index in range(count)], sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()

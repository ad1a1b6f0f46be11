"""A fixed reference job, timed next to every operation to gauge the machine's speed.

    python3 benchmarks/reference.py

It imports numpy and scipy, as qcap does, then runs work of the kind qcap
does, on fixed inputs and with nothing from qcap: a few thousand 16x16
states built, validated, partially traced and diagonalized in a Python
loop, and a few short Nelder-Mead searches.

The benchmark runs it in a fresh interpreter, as it runs each CLI command,
and divides the workload's round time by this job's median time in the same
run.  The job never changes, so the quotient moves only when qcap does,
while a shared host that slows every process for a minute moves both alike.
It prints one number, a checksum of its results, which must be finite.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
import scipy.optimize

STATES = 6000
SEARCHES = 12


@dataclass(frozen=True)
class _State:
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not np.allclose(m, m.conj().T, atol=1e-9):
            raise ValueError("not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-8:
            raise ValueError("trace is not 1")
        if np.linalg.eigvalsh(m).min() < -1e-9:
            raise ValueError("not positive")


def _entropy(matrix: np.ndarray) -> float:
    w = np.linalg.eigvalsh(matrix)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def _gram(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    m = g @ g.conj().T
    return m / np.trace(m).real


def job() -> float:
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(STATES):
        state = _State(_gram(rng, 16, int(rng.integers(1, 17))))
        left = np.einsum("ijkj->ik", state.matrix.reshape(4, 4, 4, 4))
        right = np.einsum("ijil->jl", state.matrix.reshape(4, 4, 4, 4))
        total += _entropy(state.matrix) - _entropy(left) + _entropy(np.kron(right, np.eye(2) / 2))
    target = _gram(rng, 4, 4)

    def objective(x: np.ndarray) -> float:
        m = (x[:16] + 1j * x[16:]).reshape(4, 4)
        gram = m @ m.conj().T
        return float(np.linalg.norm(gram / np.trace(gram).real - target))

    for _ in range(SEARCHES):
        result = scipy.optimize.minimize(
            objective, rng.standard_normal(32), method="Nelder-Mead",
            options={"maxiter": 200, "fatol": 1e-8, "xatol": 1e-6, "adaptive": True},
        )
        total += result.fun
    return total


def main() -> int:
    value = job()
    if not np.isfinite(value):
        print(f"reference job gave {value}", file=sys.stderr)
        return 1
    print(repr(float(value)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

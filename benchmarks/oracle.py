"""Reference values for the benchmark's output checks, computed without qcap.

Everything here is plain numpy and the standard library, so a fault in qcap
cannot hide behind a check that calls qcap itself.  Entropies are in bits.
"""
from __future__ import annotations

import math

import numpy as np


def h2(x: float) -> float:
    """Binary entropy in bits, 0 at the endpoints."""
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def flat_erasure_block(n: int, p: float) -> tuple[float, float, float]:
    """(S_out, S_env, Ic) of the flat n-qubit input through n erasure uses.

    S_out = n (H2(p) + 1 - p), S_env = n (H2(p) + p), Ic = n (1 - 2p).
    """
    return n * (h2(p) + 1.0 - p), n * (h2(p) + p), n * (1.0 - 2.0 * p)


def counterexample_entropy(eps: float, n: int) -> float:
    """Entropy of (1 - eps)|psi><psi| mixed with eps times a flat state on n directions."""
    return h2(eps) + eps * math.log2(n)


def _entropies(stack: np.ndarray) -> np.ndarray:
    values = np.clip(np.linalg.eigvalsh(stack), 0.0, None)
    logs = np.log2(values, out=np.zeros_like(values), where=values > 0.0)
    return -(values * logs).sum(axis=-1)


def _trace_out(parent: np.ndarray, before: int, after: int) -> np.ndarray:
    """Trace one qubit out of a marginal, with `before` kept qubits ahead of it."""
    a, b = 1 << before, 1 << after
    t = parent.reshape(a, 2, b, a, 2, b)
    return np.einsum("aibcid->abcd", t).reshape(a * b, a * b)


def marginal_entropies(rho: np.ndarray, n: int) -> np.ndarray:
    """S(rho_mask) for every retained mask of an n-qubit state, bit j = qubit j.

    Qubit 0 is the leftmost tensor factor.  Marginals are built top-down:
    each one traces the lowest missing qubit out of its parent, one level of
    popcount at a time, and each level's spectra come from one batched solve.
    """
    full = (1 << n) - 1
    table = np.zeros(1 << n)
    level = {full: np.asarray(rho, dtype=complex)}
    table[full] = _entropies(level[full][None])[0]
    for kept in range(n - 1, -1, -1):
        nxt = {}
        for mask in range(full + 1):
            if mask.bit_count() != kept:
                continue
            j = next(q for q in range(n) if not mask >> q & 1)
            parent = level[mask | 1 << j]
            before = (mask & ((1 << j) - 1)).bit_count()
            nxt[mask] = _trace_out(parent, before, kept - before)
        masks = sorted(nxt)
        table[masks] = _entropies(np.stack([nxt[m] for m in masks]))
        level = nxt
    return table


def retained_set_sum(rho: np.ndarray, p: float, n: int) -> float:
    """Coherent information of n erasure uses as a sum over retained sets.

    sum over masks of p^(n - |mask|) (1 - p)^|mask| (S(rho_mask) - S(rho_mask^c)).
    """
    table = marginal_entropies(rho, n)
    full = (1 << n) - 1
    total = 0.0
    for mask in range(full + 1):
        kept = mask.bit_count()
        total += p ** (n - kept) * (1.0 - p) ** kept * (table[mask] - table[full ^ mask])
    return float(total)


def overlap(psi: np.ndarray, rho: np.ndarray) -> float:
    """Fidelity <psi|rho|psi> of a pure state with a density matrix."""
    return float(np.vdot(psi, rho @ psi).real)

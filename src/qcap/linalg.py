"""Dense linear algebra helpers shared by the whole package.

All entropies are in bits (logarithms base 2).  Matrices are plain numpy
arrays; the typed wrappers live in :mod:`qcap.states`.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-10
_LOG2 = math.log(2.0)


def _scalar_or_stack(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def _first_failure(bad: np.ndarray) -> tuple[tuple[int, ...], str] | None:
    """Index of the first flagged stack member and a message suffix naming it.

    ``bad`` holds one flag per member of a stack; a single matrix has a 0-d
    flag and an empty suffix.  Returns None when nothing is flagged.
    """
    if bad.ndim == 0:
        return ((), "") if bad else None
    if not bad.any():
        return None
    where = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
    return where, f" at stack index {where[0] if bad.ndim == 1 else where}"


def partial_trace(matrix: np.ndarray, dims: Iterable[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` lists the factor dimensions left to right, ``keep`` the factor
    indices to retain (original order is preserved).  An empty keep set
    returns the 1x1 matrix holding the trace.  Leading axes of ``matrix``
    index a stack of matrices, each reduced alike.
    """
    dims = tuple(int(d) for d in dims)
    keep = sorted({int(k) for k in keep})
    m = np.asarray(matrix, dtype=complex)
    total = math.prod(dims)
    if m.shape[-2:] != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match factor dimensions {dims}"
        )
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    lead = m.shape[:-2]
    if not keep:
        return np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    reshaped = m.reshape(lead + dims + dims)
    row = list(range(n))
    col = [k + n if k in set(keep) else k for k in range(n)]
    out = [k for k in keep] + [k + n for k in keep]
    reduced = np.einsum(reshaped, [Ellipsis] + row + col, [Ellipsis] + out)
    kept_dim = math.prod(dims[k] for k in keep)
    return np.ascontiguousarray(reduced.reshape(lead + (kept_dim, kept_dim)))


def trace_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; for Hermitian input this is sum |eigenvalue|.

    Leading axes index a stack of matrices, giving one norm per member.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return _scalar_or_stack(np.zeros(m.shape[:-2]))
    return _scalar_or_stack(np.linalg.svd(m, compute_uv=False).sum(-1))


def entropy_of_spectrum(values: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in bits of a nonnegative eigenvalue vector.

    Entries that are not positive contribute nothing.  Leading axes index a
    stack of spectra, giving one entropy per member.
    """
    values = np.asarray(values, dtype=float)
    logs = np.log2(np.where(values > 0.0, values, 1.0))
    return _scalar_or_stack(np.abs((values * logs).sum(-1)))


def density_spectrum(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix and return its eigenvalues, clamped at zero.

    The input must be finite, Hermitian within 1e-9, have unit trace within 1e-9,
    and eigenvalues above -1e-10; the eigenvalues come from one solve of the
    Hermitian part, ascending, with small negative ones set to zero.

    Leading axes index a stack of matrices, validated and solved in one
    call; an error names the first failing member by its stack index.
    """
    m = np.asarray(rho, dtype=complex)
    bad = ~np.isfinite(m)
    failed = _first_failure(bad.any(axis=(-2, -1)))
    if failed:
        where, note = failed
        i, j = np.argwhere(bad[where])[0]
        raise ValueError(f"density matrix has a non-finite entry at row {i}, column {j}{note}")
    adjoint = m.conj().swapaxes(-1, -2)
    defect = np.abs(m - adjoint).max(axis=(-2, -1), initial=0.0)
    failed = _first_failure(defect > HERMITICITY_TOL)
    if failed:
        where, note = failed
        raise ValueError(
            f"density matrix is not Hermitian: max deviation {defect[where]:.3e}{note}"
        )
    tr = m.trace(axis1=-2, axis2=-1)
    failed = _first_failure(abs(tr - 1.0) > TRACE_TOL)
    if failed:
        where, note = failed
        raise ValueError(f"density matrix trace {complex(tr[where]):.12g} deviates from 1{note}")
    values = np.linalg.eigvalsh(0.5 * (m + adjoint))
    lowest = values[..., 0]
    failed = _first_failure(lowest < EIGENVALUE_FLOOR)
    if failed:
        where, note = failed
        raise ValueError(
            f"density matrix has negative eigenvalue {float(lowest[where]):.3e} "
            f"below the floor {EIGENVALUE_FLOOR:.0e}{note}"
        )
    return np.clip(values, 0.0, None)


def von_neumann_entropy(rho: np.ndarray, validate: bool = True) -> float | np.ndarray:
    """Von Neumann entropy in bits, -Tr(rho log2 rho).

    With ``validate`` the input is checked by :func:`density_spectrum`;
    without it, negative eigenvalues are clamped to zero unchecked.  Leading
    axes index a stack of matrices, giving one entropy per member.
    """
    if validate:
        return entropy_of_spectrum(density_spectrum(rho))
    m = np.asarray(rho, dtype=complex)
    values = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    return entropy_of_spectrum(np.clip(values, 0.0, None))


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x) on [0, 1], 0 at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(matrix)
    values = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(values)) @ vectors.conj().T


def uhlmann_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2.

    Both arguments must pass :func:`density_spectrum`.  For a pure first
    argument this reduces to <psi|rho2|psi>.
    """
    a = np.asarray(rho1, dtype=complex)
    b = np.asarray(rho2, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    for name, m in (("first", a), ("second", b)):
        try:
            density_spectrum(m)
        except ValueError as exc:
            raise ValueError(f"{name} argument: {exc}") from None
    root = _psd_sqrt(0.5 * (a + a.conj().T))
    inner = root @ (0.5 * (b + b.conj().T)) @ root
    values = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    fid = float(np.sqrt(values).sum()) ** 2
    return min(max(fid, 0.0), 1.0)


def bw_overlap(lambdas1: Iterable[float], lambdas2: Iterable[float]) -> float:
    """Bhattacharyya overlap (sum_i sqrt(p_i q_i))^2 of two spectra."""
    p = np.asarray(list(lambdas1), dtype=float)
    q = np.asarray(list(lambdas2), dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"spectra have different lengths {p.size} and {q.size}")
    for name, vec in (("first", p), ("second", q)):
        if not np.isfinite(vec).all():
            raise ValueError(f"{name} spectrum has a non-finite entry")
        if vec.size and float(vec.min()) < EIGENVALUE_FLOOR:
            raise ValueError(
                f"{name} spectrum has negative entry {float(vec.min()):.3e}"
            )
        if abs(float(vec.sum()) - 1.0) > TRACE_TOL:
            raise ValueError(
                f"{name} spectrum sums to {float(vec.sum()):.12g}, expected 1"
            )
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    return float(np.sqrt(p * q).sum() ** 2)

"""Typed density matrices, pure states, purifications, and state generators."""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .linalg import (
    TRACE_TOL,
    density_spectrum,
    entropy_of_spectrum,
    partial_trace,
    trace_norm,
)


def _auto_labels(count: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(count))


def _fresh_label(base: str, taken: Sequence[str]) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _check_factors(total: int, dims, labels) -> tuple[tuple[int, ...], tuple[str, ...]]:
    dims = (total,) if dims is None else tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != total:
        raise ValueError(f"factor dimensions {dims} do not multiply to {total}")
    labels = _auto_labels(len(dims)) if labels is None else tuple(str(s) for s in labels)
    if len(labels) != len(dims):
        raise ValueError(f"{len(labels)} labels for {len(dims)} factors")
    if len(set(labels)) != len(labels):
        raise ValueError(f"factor labels must be unique, got {labels}")
    return dims, labels


class _Factors:
    """Lookup of a labeled tensor factor, shared by the state types."""

    labels: tuple[str, ...]

    def factor_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"factor {label!r} not found; available factors are {list(self.labels)}"
            ) from None


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Factors):
    """Unit-trace positive semidefinite matrix with labeled tensor factors.

    Construction validates the matrix and keeps its clamped eigenvalues,
    ascending, in ``eigenvalues``; :meth:`entropy` reads them.  Both arrays are read-only.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] | None = None
    labels: tuple[str, ...] | None = None
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        dims, labels = _check_factors(m.shape[0], self.dims, self.labels)
        object.__setattr__(self, "eigenvalues", density_spectrum(m))
        m = m.view()  # read-only without touching the caller's array
        m.flags.writeable = self.eigenvalues.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduced(self, keep_labels: Sequence[str]) -> "DensityMatrix":
        """Partial trace keeping only the listed factors, original order."""
        keep = sorted(self.factor_index(s) for s in keep_labels)
        sub = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(
            sub,
            tuple(self.dims[k] for k in keep),
            tuple(self.labels[k] for k in keep),
        )

    def entropy(self) -> float:
        return entropy_of_spectrum(self.eigenvalues)

    def flattened(self) -> "DensityMatrix":
        """Same validated matrix and spectrum relabeled as one factor "sys", with no new solve."""
        flat = copy.copy(self)
        vars(flat).update(dims=(self.dim,), labels=("sys",))
        return flat


@dataclass(frozen=True, eq=False)
class PureState(_Factors):
    """Unit vector with labeled tensor factors."""

    vector: np.ndarray
    dims: tuple[int, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        dims, labels = _check_factors(v.size, self.dims, self.labels)
        finite = np.isfinite(v)
        if not finite.all():
            raise ValueError(f"pure state has a non-finite entry at index {np.argmin(finite)}")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > TRACE_TOL:
            raise ValueError(f"pure state norm {norm:.12g} deviates from 1")
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.vector.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vector, self.vector.conj()), self.dims, self.labels)

    def reduced(self, keep_labels: Sequence[str]) -> DensityMatrix:
        return self.density().reduced(keep_labels)


def maximally_mixed(dim: int, dims=None, labels=None) -> DensityMatrix:
    """Identity over its dimension, the flat state."""
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, dims, labels)


def purify(rho: DensityMatrix) -> PureState:
    """Canonical purification sum_a sqrt(l_a) |a>|v_a> on reference x system.

    The reference factor "ref" ("ref1", ... if taken) comes first, has the
    same total dimension as ``rho``, and tracing it out returns ``rho`` exactly.
    """
    values, vectors = np.linalg.eigh(rho.matrix)
    amps = np.sqrt(np.clip(values[::-1], 0.0, None))
    d = rho.dim
    # row a of the (ref, system) table is sqrt(l_a) v_a, eigenvalues descending
    table = amps[:, None] * vectors[:, ::-1].T
    ref = _fresh_label("ref", rho.labels)
    return PureState(table.reshape(-1), (d,) + rho.dims, (ref,) + rho.labels)


def max_overlap_purification(rho: DensityMatrix) -> tuple[PureState, float]:
    """Purification of Tr_B rho whose aux-0 branch is rho's top eigenvector.

    For ``rho`` on factors (A, B) with largest eigenvalue l_max and top eigenvector
    phi, returns the pure state on (A, B, C = "aux"), dim C = dim A + 1,

        sqrt(l_max) |phi>|0_C> + sum_i sqrt(t_i) |t_i>_A |0_B> |i_C>

    where (t_i, |t_i>) is the spectrum of the residual A marginal
    tau = Tr_B rho - l_max Tr_B |phi><phi|, positive semidefinite because
    rho >= l_max |phi><phi|.  Its A marginal equals Tr_B rho to rounding,
    and its overlap with rho x |0_C><0_C| equals l_max^2 exactly.
    """
    if len(rho.dims) != 2:
        raise ValueError(
            f"expected a state with exactly two factors, got {len(rho.dims)}"
        )
    da, db = rho.dims
    values, vectors = np.linalg.eigh(rho.matrix)
    l_max = float(values[-1])
    head = math.sqrt(max(l_max, 0.0)) * vectors[:, -1].reshape(da, db)
    tau = partial_trace(rho.matrix, rho.dims, [0]) - head @ head.conj().T
    values, vectors = np.linalg.eigh(tau)
    table = np.zeros((da, db, da + 1), dtype=complex)
    table[:, :, 0] = head
    table[:, 0, 1:] = vectors * np.sqrt(np.clip(values, 0.0, None))
    aux = _fresh_label("aux", rho.labels)
    state = PureState(table.reshape(-1), (da, db, da + 1), rho.labels + (aux,))
    return state, l_max


def _factor_first(state: PureState, label: str) -> np.ndarray:
    """State table with the named factor as rows, remaining factors flattened."""
    idx = state.factor_index(label)
    arr = state.vector.reshape(state.dims)
    arr = np.moveaxis(arr, idx, 0)
    return arr.reshape(state.dims[idx], -1)


def _uhlmann_isometry(
    state1: PureState, state2: PureState, shared: str
) -> tuple[np.ndarray, float]:
    """Isometry U on the complement factors maximizing Re <state2|(I x U)|state1>.

    Both states must share the named factor with equal dimension, and the
    complement of ``state1`` must not exceed that of ``state2``.  U is the
    Uhlmann polar factor: with M = v2^dag v1 the cross-overlap of the two
    state tables (shared factor as rows) and M = W S V^dag its thin SVD,
    U = conj(W V^dag).  The overlap it attains is Tr S, real and
    nonnegative, and its square is the fidelity of the shared marginals.
    Returns (U, gap) where gap is the trace-norm mismatch of the shared
    marginals; callers decide how much gap they tolerate.
    """
    i1, i2 = state1.factor_index(shared), state2.factor_index(shared)
    ds = state1.dims[i1]
    if state2.dims[i2] != ds:
        raise ValueError(
            f"shared factor {shared!r} has dimension {ds} in one state "
            f"and {state2.dims[i2]} in the other"
        )
    v1 = _factor_first(state1, shared)
    v2 = _factor_first(state2, shared)
    n1, n2 = v1.shape[1], v2.shape[1]
    if n1 > n2:
        raise ValueError(
            f"complement dimension {n1} of the first state exceeds {n2}; "
            "an isometry needs the first complement to be no larger"
        )
    gap = trace_norm(v1 @ v1.conj().T - v2 @ v2.conj().T)
    w, _, vh = np.linalg.svd(v2.conj().T @ v1, full_matrices=False)
    return (w @ vh).conj(), float(gap)


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _wishart_gram(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """G G^dag for a d x rank complex Gaussian G drawn from ``rng``, unnormalized."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} outside the valid range 1..{dim}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """Each matrix of a stack divided by the real part of its trace."""
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Wishart-style random state G G^dag / Tr with a d x rank Gaussian G."""
    return DensityMatrix(_unit_trace(_wishart_gram(dim, rank, _as_rng(seed))))


def _gaussian_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex Gaussian vector drawn from ``rng``: a Haar-random pure state."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pure_state(dim: int, seed, dims=None, labels=None) -> PureState:
    return PureState(_gaussian_unit_vector(dim, _as_rng(seed)), dims, labels)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    rng = _as_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def high_entropy_counterexample(psi: PureState, eps: float, n: int) -> DensityMatrix:
    """State with fidelity 1 - eps to ``psi`` and entropy H2(eps) + eps log2 n.

    Mixes ``psi`` with the flat state on n orthonormal directions orthogonal
    to it, showing that near-unit fidelity puts no useful cap on entropy
    once the ambient dimension is large.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"mixing weight {eps!r} outside [0, 1]")
    if n < 1:
        raise ValueError(f"need at least one orthogonal direction, got {n}")
    d = psi.dim
    if d < n + 1:
        raise ValueError(
            f"ambient dimension {d} too small: n={n} orthogonal directions "
            f"need dimension at least {n + 1}"
        )
    # The Householder reflection H = I - 2 w w^dag / |w|^2 with
    # w = psi + (psi_k / |psi_k|) e_k maps e_k to a multiple of psi, so its
    # other columns are orthonormal and orthogonal to psi.  Taking k at the
    # largest entry keeps |w|^2 = 2 (1 + |psi_k|) away from zero.
    v = psi.vector
    k = int(np.argmax(np.abs(v)))
    w = v.copy()
    w[k] += v[k] / abs(v[k])
    cols = [j for j in range(n + 1) if j != k][:n]
    others = np.outer(w, (-2.0 / np.vdot(w, w).real) * w[cols].conj())
    others[cols, np.arange(n)] += 1.0
    m = (1.0 - eps) * np.outer(v, v.conj())
    m += (eps / n) * (others @ others.conj().T)
    return DensityMatrix(m, psi.dims, psi.labels)


def write_density_file(path, rho: DensityMatrix) -> None:
    """Serialize a density matrix as a dims header plus re/im entry pairs."""
    lines = ["dims " + " ".join(str(d) for d in rho.dims)]
    for row in rho.matrix:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_density_file(path) -> DensityMatrix:
    """Parse the format written by :func:`write_density_file` and validate."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].split() or lines[0].split()[0] != "dims":
        raise ValueError("state file must start with a 'dims d1 d2 ...' line")
    try:
        dims = tuple(int(tok) for tok in lines[0].split()[1:])
    except ValueError:
        raise ValueError(f"unreadable dims line {lines[0]!r}") from None
    if not dims:
        raise ValueError("dims line lists no factor dimensions")
    total = math.prod(dims)
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != 2 * total * total:
        raise ValueError(
            f"expected {2 * total * total} numbers for a {total}x{total} matrix, "
            f"found {len(tokens)}"
        )
    try:
        flat = np.array([float(tok) for tok in tokens], dtype=float)
    except ValueError:
        raise ValueError("state file holds a non-numeric entry") from None
    entries = flat[0::2] + 1j * flat[1::2]
    return DensityMatrix(entries.reshape(total, total), dims)

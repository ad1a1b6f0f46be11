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
    _first_failure,
    _MemberError,
    _factor_spectrum,
    density_spectrum,
    entropy_of_spectrum,
    partial_trace,
    trace_norm,
)


def _check_dims(total: int, dims) -> tuple[int, ...]:
    dims = (total,) if dims is None else tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != total:
        raise ValueError(f"factor dimensions {dims} do not multiply to {total}")
    return dims


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive semidefinite matrix with tensor factors addressed by position.

    Construction validates the matrix and keeps its clamped eigenvalues,
    ascending, in ``eigenvalues``; :meth:`entropy` reads them.  Both arrays are read-only.
    ``DensityMatrix(matrix)`` takes the eigenvalues from one solve of the d x d
    matrix; :meth:`from_factor` builds rho = F F^dag from a d x r factor F and,
    when r < d, solves only the r x r Gram F^dag F.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] | None = None
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        dims = _check_dims(m.shape[0], self.dims)
        self._store(m, density_spectrum(m), dims)

    @classmethod
    def from_factor(cls, factor, dims=None) -> "DensityMatrix":
        """The state F F^dag of a d x r factor F, validated as the constructor validates it.

        The checks and their messages are those of the constructor, run on
        the formed matrix; the eigenvalues come from the smaller of F^dag F
        and F F^dag, with d - r zeros in front when r < d.
        """
        f = np.asarray(factor, dtype=complex)
        if f.ndim != 2:
            raise ValueError(f"density factor must be a matrix, got shape {f.shape}")
        dims = _check_dims(f.shape[0], dims)
        m = f @ f.conj().T
        return cls._checked(m, _factor_spectrum(f, m), dims)

    @classmethod
    def _checked(cls, m, eigenvalues, dims) -> "DensityMatrix":
        """Wrap a matrix and the clamped spectrum that :func:`density_spectrum` gave it."""
        state = object.__new__(cls)
        state._store(m, eigenvalues, dims)
        return state

    def _store(self, m, eigenvalues, dims):
        m = m.view()  # read-only without touching the caller's array
        m.flags.writeable = eigenvalues.flags.writeable = False
        vars(self).update(matrix=m, eigenvalues=eigenvalues, dims=dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduced(self, keep: Sequence[int]) -> "DensityMatrix":
        """Partial trace keeping only the factors at the listed positions, original order."""
        sub = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(sub, tuple(self.dims[k] for k in sorted(set(keep))))

    def entropy(self) -> float:
        return entropy_of_spectrum(self.eigenvalues)

    def flattened(self) -> "DensityMatrix":
        """Same validated matrix and spectrum over the one factor ``(dim,)``, with no new solve."""
        flat = copy.copy(self)
        vars(flat).update(dims=(self.dim,))
        return flat


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector with tensor factors addressed by position."""

    vector: np.ndarray
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        dims = _check_dims(v.size, self.dims)
        _check_unit(v)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.vector.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vector, self.vector.conj()), self.dims)

    def reduced(self, keep: Sequence[int]) -> DensityMatrix:
        return self.density().reduced(keep)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unconjugated dot of stacked vectors: one BLAS dot per pair, rounded as ``np.vdot``'s."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _projectors(vectors: np.ndarray) -> np.ndarray:
    """|v><v| of stacked vectors."""
    return vectors[..., :, None] * vectors.conj()[..., None, :]


def _check_unit(vectors: np.ndarray) -> None:
    """Raise unless each vector of the stack is finite and of unit norm within 1e-9."""
    finite = np.isfinite(vectors)
    where = _first_failure(~finite.all(-1))
    if where is not None:
        raise _MemberError(
            f"pure state has a non-finite entry at index {np.argmin(finite[where])}", where
        )
    norm = np.sqrt(_dot(vectors.conj(), vectors).real)
    where = _first_failure(abs(norm - 1.0) > TRACE_TOL)
    if where is not None:
        raise _MemberError(f"pure state norm {norm[where]:.12g} deviates from 1", where)


def maximally_mixed(dim: int, dims=None) -> DensityMatrix:
    """Identity over its dimension, the flat state."""
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, dims)


def purify(rho: DensityMatrix) -> PureState:
    """Canonical purification sum_a sqrt(l_a) |a>|v_a> on reference x system.

    The reference is factor 0, ahead of ``rho``'s factors; it has the same
    total dimension as ``rho``, and tracing it out returns ``rho`` exactly.
    """
    return PureState(_purification(rho.matrix), (rho.dim,) + rho.dims)


def _purification(matrix: np.ndarray) -> np.ndarray:
    """Vector of :func:`purify` for a density matrix; leading axes index a stack."""
    values, vectors = np.linalg.eigh(matrix)
    amps = np.sqrt(np.clip(values[..., ::-1], 0.0, None))
    # row a of the (ref, system) table is sqrt(l_a) v_a, eigenvalues descending
    table = amps[..., :, None] * vectors[..., :, ::-1].swapaxes(-1, -2)
    return table.reshape(matrix.shape[:-2] + (-1,))


def _max_overlap_vector(matrix: np.ndarray, da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    """Purification of Tr_B rho whose aux-0 branch is rho's top eigenvector, and l_max.

    For rho on factors (A, B) with largest eigenvalue l_max and top eigenvector
    phi, the vector is the pure state on (A, B, C) with the auxiliary factor C
    appended last, dim C = dim A + 1,

        sqrt(l_max) |phi>|0_C> + sum_i sqrt(t_i) |t_i>_A |0_B> |i_C>

    where (t_i, |t_i>) is the spectrum of the residual A marginal
    tau = Tr_B rho - l_max Tr_B |phi><phi|, positive semidefinite because
    rho >= l_max |phi><phi|.  Its A marginal equals Tr_B rho to rounding,
    and its overlap with rho x |0_C><0_C| equals l_max^2 exactly.  Leading
    axes of ``matrix`` index a stack.
    """
    lead = matrix.shape[:-2]
    values, vectors = np.linalg.eigh(matrix)
    l_max = values[..., -1]
    head = np.sqrt(np.clip(l_max, 0.0, None))[..., None, None] * vectors[..., -1].reshape(
        lead + (da, db)
    )
    tau = partial_trace(matrix, (da, db), [0]) - head @ head.conj().swapaxes(-1, -2)
    values, vectors = np.linalg.eigh(tau)
    table = np.zeros(lead + (da, db, da + 1), dtype=complex)
    table[..., 0] = head
    table[..., :, 0, 1:] = vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    return table.reshape(lead + (-1,)), l_max


def _uhlmann(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isometry U on the complement maximizing Re <v2|(I x U)|v1>, and the marginal gap.

    ``v1`` and ``v2`` are (reference, complement) tables of two pure states
    with equal reference dimension, the complement of ``v1`` no larger than
    that of ``v2``.  U is the Uhlmann polar factor: with M = v2^dag v1 the
    cross-overlap of the tables and M = W S V^dag its thin SVD,
    U = conj(W V^dag).  The overlap it attains is Tr S, real and
    nonnegative, and its square is the fidelity of the reference marginals.
    The gap is the trace-norm mismatch of those marginals; callers decide
    how much gap they tolerate.  Leading axes index a stack.
    """
    gap = trace_norm(v1 @ v1.conj().swapaxes(-1, -2) - v2 @ v2.conj().swapaxes(-1, -2))
    w, _, vh = np.linalg.svd(v2.conj().swapaxes(-1, -2) @ v1, full_matrices=False)
    return (w @ vh).conj(), gap


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


def random_pure_state(dim: int, seed, dims=None) -> PureState:
    return PureState(_gaussian_unit_vector(dim, _as_rng(seed)), dims)


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
    # rho = F F^dag with F = [sqrt(1 - eps) psi | sqrt(eps / n) H[:, cols]], of rank n + 1
    factor = np.empty((d, n + 1), dtype=complex)
    factor[:, 0] = math.sqrt(1.0 - eps) * v
    others = factor[:, 1:]
    np.outer(w, (-2.0 / np.vdot(w, w).real) * w[cols].conj(), out=others)
    others[cols, np.arange(n)] += 1.0
    others *= math.sqrt(eps / n)
    return DensityMatrix.from_factor(factor, psi.dims)


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

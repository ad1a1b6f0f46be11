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
    _adjoint,
    _eigh,
    _floored,
    _read_only,
    _require_int,
    _require_probability,
    density_spectrum,
    entropy_of_spectrum,
    partial_trace,
    trace_norm,
)


def _check_dims(total: int, dims) -> tuple[int, ...]:
    dims = (total,) if dims is None else dims
    dims = tuple(_require_int(d, "factor dimension", 1) for d in dims)
    if math.prod(dims) != total:
        raise ValueError(f"factor dimensions {dims} do not multiply to {total}")
    return dims


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive semidefinite matrix with tensor factors addressed by position.

    Construction validates the matrix and keeps its clamped eigenvalues,
    ascending, in ``eigenvalues``; :meth:`entropy` reads them.  Both arrays are read-only.
    ``DensityMatrix(matrix)`` and :meth:`from_factor` take the eigenvalues from
    one solve of the d x d matrix; a state exact by construction from checked
    inputs is wrapped with its known spectrum, with no check and no solve.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] | None = None
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:  # one matrix, not a stack; the square rule is density_spectrum's
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        dims = _check_dims(m.shape[0], self.dims)
        self._store(m, density_spectrum(m), dims)

    @classmethod
    def from_factor(cls, factor, dims=None) -> "DensityMatrix":
        """The state F F^dag of a d x r factor F, checked and solved as the constructor does."""
        f = np.asarray(factor, dtype=complex)
        if f.ndim != 2:
            raise ValueError(f"density factor must be a matrix, got shape {f.shape}")
        return cls(f @ _adjoint(f), dims)

    @classmethod
    def _checked(cls, m, eigenvalues, dims) -> "DensityMatrix":
        """Wrap m and its ascending spectrum, checked by the caller or exact from checked inputs."""
        state = object.__new__(cls)
        state._store(m, eigenvalues, dims)
        return state

    def _store(self, m, eigenvalues, dims):
        vars(self).update(matrix=_read_only(m), eigenvalues=_read_only(eigenvalues), dims=dims)

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
        return DensityMatrix(_projectors(_normalized(self.vector)), self.dims)

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
    """Identity over its dimension, the flat state: I/dim and its spectrum, all 1/dim, are exact."""
    dims = _check_dims(_require_int(dim, "dim", 1), dims)
    return DensityMatrix._checked(np.eye(dim, dtype=complex) / dim, np.full(dim, 1.0 / dim), dims)


def purify(rho: DensityMatrix) -> PureState:
    """Canonical purification sum_a sqrt(l_a) |a>|v_a> on reference x system.

    The reference is factor 0, ahead of ``rho``'s factors; it has the same
    total dimension as ``rho``, and tracing it out returns ``rho`` exactly.
    """
    return PureState(_purification(rho.matrix), (rho.dim,) + rho.dims)


def _purification(matrix: np.ndarray) -> np.ndarray:
    """Vector of :func:`purify`, eigenvalues floored as a density's; leading axes index a stack."""
    values, vectors = _eigh(matrix)
    amps = np.sqrt(_floored(values)[..., ::-1])
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
    and its overlap with rho x |0_C><0_C| equals l_max^2 exactly.  The
    spectra of the Hermitian parts of rho and tau get the floor check of
    :func:`qcap.linalg.density_spectrum`.  Leading axes of ``matrix`` index a stack.
    """
    lead = matrix.shape[:-2]
    values, vectors = _eigh(matrix)
    l_max = _floored(values)[..., -1]
    head = np.sqrt(l_max)[..., None, None] * vectors[..., -1].reshape(lead + (da, db))
    tau = partial_trace(matrix, (da, db), [0]) - head @ _adjoint(head)
    values, vectors = _eigh(tau)
    table = np.zeros(lead + (da, db, da + 1), dtype=complex)
    table[..., 0] = head
    table[..., :, 0, 1:] = vectors * np.sqrt(_floored(values))[..., None, :]
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
    gap = trace_norm(v1 @ _adjoint(v1) - v2 @ _adjoint(v2))
    w, _, vh = np.linalg.svd(_adjoint(v2) @ v1, full_matrices=False)
    return (w @ vh).conj(), gap


def _as_rng(seed) -> np.random.Generator:
    """The Generator ``seed``, or a new one seeded by None or a non-negative integer."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(None if seed is None else _require_int(seed, "seed", 0))


def _wishart_grams(raw: np.ndarray) -> np.ndarray:
    """Stacked G G^dag, unnormalized, for G = raw[..., 0, :, :] + i raw[..., 1, :, :]."""
    g = raw[..., 0, :, :] + 1j * raw[..., 1, :, :]
    return g @ _adjoint(g)


def _normalized(vectors: np.ndarray) -> np.ndarray:
    """Stacked complex vectors divided by their norms, each rounded as ``np.linalg.norm``'s."""
    norm = np.sqrt(_dot(vectors.real, vectors.real) + _dot(vectors.imag, vectors.imag))
    return vectors / norm[..., None]


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """Each matrix of a stack divided by the real part of its trace."""
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Wishart-style random state G G^dag / Tr with a d x rank Gaussian G."""
    dim = _require_int(dim, "dim", 1)
    rank = _require_int(rank, "rank", 1, dim)
    return _random_densities(_as_rng(seed).standard_normal((1, 2, dim, rank)))[0]


def _random_densities(raw: np.ndarray) -> list[DensityMatrix]:
    """The :func:`random_density` state of each draw of a stack, checked and solved in one call."""
    m = _unit_trace(_wishart_grams(raw))
    spectrum = density_spectrum(m)
    return [DensityMatrix._checked(m[j], spectrum[j], (m.shape[-1],)) for j in range(len(m))]


def random_pure_state(dim: int, seed, dims=None) -> PureState:
    """Normalized complex Gaussian vector: a Haar-random pure state."""
    dim = _require_int(dim, "dim", 1)
    raw = _as_rng(seed).standard_normal((2, dim))
    return PureState(_normalized(raw[0] + 1j * raw[1]), dims)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    dim = _require_int(dim, "dim", 1)
    return _haar_unitaries(_as_rng(seed).standard_normal((2, dim, dim)))


def _haar_unitaries(raw: np.ndarray) -> np.ndarray:
    """Q times the phases of R's diagonal, for QR = G = raw[..., 0, :, :] + i raw[..., 1, :, :].

    Leading axes of ``raw`` index a stack of Ginibre draws, one Haar unitary each.
    """
    q, r = np.linalg.qr(raw[..., 0, :, :] + 1j * raw[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def high_entropy_counterexample(psi: PureState, eps: float, n: int) -> DensityMatrix:
    """State with fidelity 1 - eps to ``psi`` and entropy H2(eps) + eps log2 n.

    Mixes ``psi`` with the flat state on n orthonormal directions orthogonal
    to it, showing that near-unit fidelity puts no useful cap on entropy
    once the ambient dimension is large.  The state is H D H^dag for a
    Householder reflection H and a diagonal D, formed as a rank-two update
    of D in O(d^2), exact to rounding from the checked ``psi``; its spectrum is
    D's diagonal, sorted, so nothing is checked or solved.
    """
    eps = _require_probability(eps, "mixing weight")
    d = psi.dim
    n = _require_int(n, "n (orthogonal directions)", 1, d - 1)
    # H = I - beta w w^dag, beta = 2 / |w|^2, with w = u + (u_k / |u_k|) e_k for
    # the unit u = psi / |psi|, maps e_k to a multiple of u, so its other
    # columns are orthonormal and orthogonal to psi.  Normalizing first keeps
    # that exact within rounding, not within psi's norm tolerance; taking k at
    # the largest entry keeps |w|^2 = 2 (1 + |u_k|) away from zero.
    u = psi.vector / np.linalg.norm(psi.vector)
    k = int(np.argmax(np.abs(u)))
    w = u.copy()
    w[k] += u[k] / abs(u[k])
    beta = 2.0 / np.vdot(w, w).real
    # D holds 1 - eps at k and eps / n on n other directions;
    # H D H^dag = D + w x^dag + x w^dag with x = -beta D w + (beta^2 / 2) (w^dag D w) w
    diag = np.zeros(d)
    diag[[j for j in range(n + 1) if j != k][:n]] = eps / n
    diag[k] = 1.0 - eps
    dw = diag * w
    x = beta * (0.5 * beta * np.vdot(w, dw).real * w - dw)
    m = np.stack([w, x], axis=1) @ np.stack([x, w]).conj()
    m[np.diag_indices(d)] += diag
    return DensityMatrix._checked(m, np.sort(diag), psi.dims)


def write_density_file(path, rho: DensityMatrix) -> None:
    """Serialize a density matrix as a dims header plus re/im entry pairs."""
    # a state with no factors is written as one factor of size 1: a bare dims line is refused
    lines = ["dims " + " ".join(str(d) for d in rho.dims or (1,))]
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
    total = math.prod(_require_int(d, "factor dimension", 1) for d in dims)
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

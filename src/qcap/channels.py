"""Kraus-form quantum channels and the operations that combine them."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureState

COMPLETENESS_TOL = 1e-9
KRAUS_LIMIT = 3**6
BRANCH_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map held as one Kraus stack.

    ``kraus`` is a read-only C-ordered complex array of shape (num_kraus,
    out_dim, in_dim), built from any sequence of equal-shape matrices or a
    (k, out, in) array, with sum_k A_k^dag A_k = I within 1e-9.  The stack is
    the only field: ``in_dim``, ``out_dim`` and ``num_kraus`` are read from its
    shape.  Every action of the channel is the one map sum_k A_k X A_k^dag on a
    stack: the output uses ``kraus``, the environment the complementary stack
    ``kraus.transpose(1, 0, 2)``, and an adjoint map the conjugate transpose of
    its operators.
    """

    kraus: np.ndarray

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = np.shape(self.kraus[0])
        if len(shape) != 2:
            raise ValueError(
                f"Kraus operators must be matrices, but entry 0 has shape {shape}; "
                f"wrap a single operator A as [A]"
            )
        try:
            ops = np.ascontiguousarray(self.kraus, dtype=complex)
        except ValueError:  # operators of unequal shapes
            k = next(k for k, a in enumerate(self.kraus) if np.shape(a) != shape)
            raise ValueError(
                f"Kraus operator {k} has shape {np.shape(self.kraus[k])}, expected {shape}"
            ) from None
        finite = np.isfinite(ops).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"Kraus operator {int(np.argmin(finite))} has a non-finite entry")
        # sum A^dag A from the Gram matrix of the real view, with no conjugate copy of the stack:
        # its columns interleave Re and Im of each input level
        in_dim = shape[1]
        flat = ops.reshape(-1, in_dim).view(float)
        gram = (flat.T @ flat).reshape(in_dim, 2, in_dim, 2)
        total = gram[:, 0, :, 0] + gram[:, 1, :, 1] + 1j * (gram[:, 0, :, 1] - gram[:, 1, :, 0])
        defect = float(np.max(np.abs(total - np.eye(in_dim))))
        if defect > COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus operators violate completeness: max |sum A^dag A - I| "
                f"entry is {defect:.3e}"
            )
        ops = ops.view()  # read-only without touching the caller's array
        ops.flags.writeable = False
        object.__setattr__(self, "kraus", ops)

    @property
    def num_kraus(self) -> int:
        return self.kraus.shape[0]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel(np.eye(dim, dtype=complex)[None])


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel([u])


def erasure_channel(p: float) -> KrausChannel:
    """Qubit erasure channel with erasure probability p.

    Maps rho to (1-p) rho + p |2><2| on a three-level output, the retained
    qubit embedded as levels 0 and 1 and level 2 acting as the erasure flag.
    Kraus operators: sqrt(1-p) (|0><0| + |1><1|), sqrt(p) |2><0|,
    sqrt(p) |2><1|.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p!r} outside [0, 1]")
    ops = np.zeros((3, 3, 2), dtype=complex)
    ops[0, 0, 0] = ops[0, 1, 1] = math.sqrt(1.0 - p)
    ops[1, 2, 0] = ops[2, 2, 1] = math.sqrt(p)
    return KrausChannel(ops)


def _conjugate(kraus: np.ndarray, matrix: np.ndarray, dims=None, idx: int = 0) -> np.ndarray:
    """sum_k A_k X A_k^dag for a (k, out, in) stack acting on factor ``idx`` of X.

    ``dims`` are the factor dimensions of X, by default one factor.  One
    batched product applies every operator to the row factor; one matrix
    product then contracts the Kraus index and the column factor against
    conj(A).  The other factors keep their places.
    """
    k, out, inn = kraus.shape
    dims = dims or (inn,)
    left, right = math.prod(dims[:idx]), math.prod(dims[idx + 1 :])
    # blocks X[l, :, r, l', :, r'] as (in, in') matrices, indexed (l, r, l', r')
    x = matrix.reshape(left, inn, right, left, inn, right).transpose(0, 2, 3, 5, 1, 4)
    # (l, r, l', r', out, k, in'): each (k, in) slice of the (out, k, in) view times a block
    rows = kraus.transpose(1, 0, 2) @ x[..., None, :, :]
    # contract (k, in') against conj(A): conjugating rows and the product spares a copy of the stack
    np.conjugate(rows, out=rows)
    both = np.conjugate(rows.reshape(-1, k * inn) @ kraus.transpose(0, 2, 1).reshape(k * inn, out))
    both = both.reshape(left, right, left, right, out, out).transpose(0, 4, 1, 2, 5, 3)
    return both.reshape(left * out * right, -1)


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel output sum_k A_k rho A_k^dag as a single-factor state."""
    if rho.dim != channel.in_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match channel input {channel.in_dim}"
        )
    return DensityMatrix(_conjugate(channel.kraus, rho.matrix), (channel.out_dim,))


def _locate_factor(channel: KrausChannel, state, factor: int) -> tuple[int, ...]:
    """Factor dimensions after the channel acts on input factor ``factor``, a position."""
    dims = state.dims
    if not 0 <= factor < len(dims):
        raise ValueError(f"factor {factor} out of range for {len(dims)} factors")
    if dims[factor] != channel.in_dim:
        raise ValueError(
            f"factor {factor} has dimension {dims[factor]}, channel expects {channel.in_dim}"
        )
    return dims[:factor] + (channel.out_dim,) + dims[factor + 1 :]


def apply_to_subsystem(channel: KrausChannel, rho: DensityMatrix, factor: int) -> DensityMatrix:
    """Apply the channel to the factor at position ``factor``, leaving the others alone."""
    new_dims = _locate_factor(channel, rho, factor)
    return DensityMatrix(_conjugate(channel.kraus, rho.matrix, rho.dims, factor), new_dims)


def tensor_power(channel: KrausChannel, n: int) -> KrausChannel:
    """n-fold tensor product channel with all Kraus products enumerated.

    Operator (k_1, ..., k_n), first index slowest, is A_k1 x ... x A_kn.
    """
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    count = channel.num_kraus**n
    if count > KRAUS_LIMIT:
        raise ValueError(
            f"tensor power would need {count} Kraus operators, above the "
            f"limit {KRAUS_LIMIT}"
        )
    if n == 1:
        return channel
    a = ops = channel.kraus
    for _ in range(n - 1):
        shape = np.multiply(ops.shape, a.shape)
        ops = (ops[:, None, :, None, :, None] * a[:, None, :, None]).reshape(shape)
    return KrausChannel(ops)


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Composition outer(inner(.)); operator i * inner.num_kraus + j is B_i A_j."""
    if inner.out_dim != outer.in_dim:
        raise ValueError(
            f"cannot compose: inner output dimension {inner.out_dim} does not "
            f"match outer input dimension {outer.in_dim}"
        )
    ops = outer.kraus[:, None] @ inner.kraus[None]
    return KrausChannel(ops.reshape(-1, outer.out_dim, inner.in_dim))


def environment_state(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Environment marginal W with W_kl = Tr(A_k rho A_l^dag).

    This is the state the channel leaks to its environment in a Stinespring
    dilation with one environment level per Kraus operator: the output of the
    complementary channel, whose stack swaps the Kraus and output axes.
    """
    if rho.dim != channel.in_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match channel input {channel.in_dim}"
        )
    w = _conjugate(channel.kraus.transpose(1, 0, 2), rho.matrix)
    return DensityMatrix(w, (channel.num_kraus,))


def measure_environment_branches(
    channel: KrausChannel, state: PureState, factor: int
) -> list[tuple[float, PureState]]:
    """Pure branches left by measuring the channel environment.

    Applies each Kraus operator to the factor at position ``factor`` of a
    pure input and returns (probability, normalized state) pairs, with the
    factors in their places; branches below 1e-12 probability are dropped.
    Probabilities sum to 1 and the weighted mixture of branch projectors
    reconstructs the channel output.
    """
    new_dims = _locate_factor(channel, state, factor)
    moved = np.tensordot(channel.kraus, state.vector.reshape(state.dims), axes=(2, factor))
    vectors = np.moveaxis(moved, 1, factor + 1).reshape(channel.num_kraus, -1)
    branches = []
    for v in vectors:
        prob = float(np.vdot(v, v).real)
        if prob > BRANCH_CUTOFF:
            branches.append((prob, PureState(v / math.sqrt(prob), new_dims)))
    return branches


@dataclass(frozen=True, eq=False)
class CodingScheme:
    """Source state, encoder, decoder, and the number of channel uses."""

    source: DensityMatrix
    encoder: KrausChannel
    decoder: KrausChannel
    block_size: int

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError(f"block size must be at least 1, got {self.block_size}")
        if self.encoder.in_dim != self.source.dim:
            raise ValueError(
                f"encoder input dimension {self.encoder.in_dim} does not match "
                f"source dimension {self.source.dim}"
            )

"""Kraus-form quantum channels and the operations that combine them."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _MemberError, _first_failure
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-9
KRAUS_LIMIT = 3**6


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
        _check_kraus(ops)
        object.__setattr__(self, "kraus", _read_only(ops))

    @classmethod
    def _checked(cls, ops: np.ndarray) -> "KrausChannel":
        """Wrap a C-ordered complex stack that :func:`_check_kraus` already passed."""
        channel = object.__new__(cls)
        object.__setattr__(channel, "kraus", _read_only(ops))
        return channel

    @property
    def num_kraus(self) -> int:
        return self.kraus.shape[0]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]


def _read_only(ops: np.ndarray) -> np.ndarray:
    ops = ops.view()  # read-only without touching the caller's array
    ops.flags.writeable = False
    return ops


def _check_kraus(ops: np.ndarray) -> None:
    """Raise unless each (k, out, in) stack of ``ops`` is finite and complete within 1e-9.

    Leading axes of ``ops`` index a stack of channels; an error names the
    first failing member by its stack index.
    """
    where = _first_failure(~np.isfinite(ops).all(axis=(-3, -2, -1)))
    if where is not None:
        k = int(np.argmin(np.isfinite(ops[where]).all(axis=(1, 2))))
        raise _MemberError(f"Kraus operator {k} has a non-finite entry", where)
    # sum A^dag A from the Gram matrix of the real view, with no conjugate copy of the stack:
    # its columns interleave Re and Im of each input level
    in_dim = ops.shape[-1]
    lead = ops.shape[:-3]
    flat = ops.reshape(lead + (-1, in_dim)).view(float)
    gram = (flat.swapaxes(-1, -2) @ flat).reshape(lead + (in_dim, 2, in_dim, 2))
    re, im = gram[..., 0, :, 0] + gram[..., 1, :, 1], gram[..., 0, :, 1] - gram[..., 1, :, 0]
    defect = np.hypot(re - np.eye(in_dim), im).max(axis=(-2, -1))
    where = _first_failure(defect > COMPLETENESS_TOL)
    if where is not None:
        raise _MemberError(
            f"Kraus operators violate completeness: max |sum A^dag A - I| "
            f"entry is {defect[where]:.3e}",
            where,
        )


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
    conj(A).  The other factors keep their places.  Leading axes of
    ``kraus`` and ``matrix`` index a stack, each channel acting on its own
    matrix.
    """
    k, out, inn = kraus.shape[-3:]
    lead = matrix.shape[:-2]
    dims = dims or (inn,)
    left, right = math.prod(dims[:idx]), math.prod(dims[idx + 1 :])
    # blocks X[l, :, r, l', :, r'] as (in, in') matrices, indexed (s, l, r, l', r'), s the member
    x = matrix.reshape(-1, left, inn, right, left, inn, right).transpose(0, 1, 3, 4, 6, 2, 5)
    # (s, l, r, l', r', out, k, in'): each (k, in) slice of the (out, k, in) view times a block
    rows = kraus.swapaxes(-3, -2).reshape(-1, 1, 1, 1, 1, out, k, inn) @ x[..., None, :, :]
    # contract (k, in') against conj(A): conjugating rows and the product spares a copy of the stack
    np.conjugate(rows, out=rows)
    columns = kraus.swapaxes(-1, -2).reshape(-1, k * inn, out)
    both = np.conjugate(rows.reshape(len(columns), -1, k * inn) @ columns)
    both = both.reshape(-1, left, right, left, right, out, out).transpose(0, 1, 5, 2, 3, 6, 4)
    return both.reshape(lead + (left * out * right, -1))


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel output sum_k A_k rho A_k^dag as a single-factor state."""
    if rho.dim != channel.in_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match channel input {channel.in_dim}"
        )
    return DensityMatrix(_conjugate(channel.kraus, rho.matrix), (channel.out_dim,))


def apply_to_subsystem(channel: KrausChannel, rho: DensityMatrix, factor: int) -> DensityMatrix:
    """Apply the channel to the factor at position ``factor``, leaving the others alone."""
    dims = rho.dims
    if not 0 <= factor < len(dims):
        raise ValueError(f"factor {factor} out of range for {len(dims)} factors")
    if dims[factor] != channel.in_dim:
        raise ValueError(
            f"factor {factor} has dimension {dims[factor]}, channel expects {channel.in_dim}"
        )
    new_dims = dims[:factor] + (channel.out_dim,) + dims[factor + 1 :]
    return DensityMatrix(_conjugate(channel.kraus, rho.matrix, dims, factor), new_dims)


def tensor_power(channel: KrausChannel, n: int) -> KrausChannel:
    """n-fold tensor product channel with all Kraus products enumerated.

    Operator (k_1, ..., k_n), first index slowest, is A_k1 x ... x A_kn.
    """
    ops = _tensor_power(channel.kraus, n)
    return channel if n == 1 else KrausChannel(ops)


def _tensor_power(ops: np.ndarray, n: int) -> np.ndarray:
    """Kraus products of :func:`tensor_power`, unchecked; leading axes index a stack."""
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    count = ops.shape[-3] ** n
    if count > KRAUS_LIMIT:
        raise ValueError(
            f"tensor power would need {count} Kraus operators, above the "
            f"limit {KRAUS_LIMIT}"
        )
    a, lead = ops, ops.shape[:-3]
    for _ in range(n - 1):
        shape = lead + tuple(np.multiply(ops.shape[-3:], a.shape[-3:]))
        product = ops[..., :, None, :, None, :, None] * a[..., None, :, None, :, None, :]
        ops = product.reshape(shape)
    return ops


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Composition outer(inner(.)); operator i * inner.num_kraus + j is B_i A_j."""
    return KrausChannel(_compose(outer.kraus, inner.kraus))


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Kraus products of :func:`compose`, unchecked; leading axes index a stack."""
    if inner.shape[-2] != outer.shape[-1]:
        raise ValueError(
            f"cannot compose: inner output dimension {inner.shape[-2]} does not "
            f"match outer input dimension {outer.shape[-1]}"
        )
    ops = outer[..., :, None, :, :] @ inner[..., None, :, :, :]
    return ops.reshape(ops.shape[:-4] + (-1,) + ops.shape[-2:])


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


def _branch_vectors(kraus: np.ndarray, vector: np.ndarray, dims, factor: int) -> np.ndarray:
    """Unnormalized (A_k on factor ``factor``)|psi>, one row per k.

    These are the pure branches left by measuring the channel environment:
    row k has squared norm p_k, the probability of outcome k, the p_k sum to 1,
    and sum_k |row k><row k| is the channel output on |psi><psi|.  Leading axes
    of ``kraus`` and ``vector`` index a stack; the rows of each member keep the
    factors in their places, with factor ``factor`` resized to the channel output.
    """
    lead = vector.shape[:-1]
    k, out, inn = kraus.shape[-3:]
    at = len(lead) + factor
    # (in, rest) table of psi with the acted-on factor first; rest keeps the others in order
    table = np.moveaxis(vector.reshape(lead + tuple(dims)), at, len(lead))
    rest = table.shape[len(lead) + 1 :]
    moved = kraus.reshape(lead + (k * out, inn)) @ table.reshape(lead + (inn, -1))
    moved = np.moveaxis(moved.reshape(lead + (k, out) + rest), len(lead) + 1, at + 1)
    return moved.reshape(lead + (k, -1))


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

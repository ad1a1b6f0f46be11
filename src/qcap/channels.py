"""Kraus-form quantum channels and the operations that combine them."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import tensor_product
from .states import DensityMatrix, PureState

COMPLETENESS_TOL = 1e-9
KRAUS_LIMIT = 3**6
BRANCH_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Every operator is an out_dim x in_dim matrix and the list satisfies
    sum_k A_k^dag A_k = I within 1e-9.
    """

    kraus: tuple[np.ndarray, ...]
    in_dim: int
    out_dim: int

    def __post_init__(self):
        ops = tuple(np.asarray(a, dtype=complex) for a in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = (self.out_dim, self.in_dim)
        for k, a in enumerate(ops):
            if a.shape != shape:
                raise ValueError(
                    f"Kraus operator {k} has shape {a.shape}, expected {shape}"
                )
        total = sum(a.conj().T @ a for a in ops)
        defect = float(np.max(np.abs(total - np.eye(self.in_dim))))
        if defect > COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus operators violate completeness: max |sum A^dag A - I| "
                f"entry is {defect:.3e}"
            )
        object.__setattr__(self, "kraus", ops)

    @classmethod
    def from_kraus(cls, operators) -> "KrausChannel":
        ops = [np.asarray(a, dtype=complex) for a in operators]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        out_dim, in_dim = ops[0].shape
        return cls(tuple(ops), in_dim, out_dim)

    @property
    def num_kraus(self) -> int:
        return len(self.kraus)

    def stacked(self) -> np.ndarray:
        return np.stack(self.kraus)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),), dim, dim)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel.from_kraus([u])


def erasure_channel(p: float) -> KrausChannel:
    """Qubit erasure channel with erasure probability p.

    Maps rho to (1-p) rho + p |2><2| on a three-level output, the retained
    qubit embedded as levels 0 and 1 and level 2 acting as the erasure flag.
    Kraus operators: sqrt(1-p) (|0><0| + |1><1|), sqrt(p) |2><0|,
    sqrt(p) |2><1|.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p!r} outside [0, 1]")
    keep = np.zeros((3, 2), dtype=complex)
    keep[0, 0] = keep[1, 1] = math.sqrt(1.0 - p)
    lose0 = np.zeros((3, 2), dtype=complex)
    lose0[2, 0] = math.sqrt(p)
    lose1 = np.zeros((3, 2), dtype=complex)
    lose1[2, 1] = math.sqrt(p)
    return KrausChannel((keep, lose0, lose1), 2, 3)


def _apply_matrix(channel: KrausChannel, matrix: np.ndarray) -> np.ndarray:
    a = channel.stacked()
    return np.einsum("kij,jl,kml->im", a, matrix, a.conj(), optimize=True)


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel output sum_k A_k rho A_k^dag as a single-factor state."""
    if rho.dim != channel.in_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match channel input {channel.in_dim}"
        )
    return DensityMatrix(_apply_matrix(channel, rho.matrix), (channel.out_dim,), ("out",))


def _on_factor(op: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``op`` (out x in) into one axis of ``tensor``, other axes in place."""
    return np.moveaxis(np.tensordot(op, tensor, axes=(1, axis)), 0, axis)


def _locate_factor(channel: KrausChannel, state, factor: str) -> tuple[int, tuple[int, ...]]:
    """Index of the labeled input factor and the factor dimensions after the channel."""
    idx = state.factor_index(factor)
    if state.dims[idx] != channel.in_dim:
        raise ValueError(
            f"factor {factor!r} has dimension {state.dims[idx]}, channel expects "
            f"{channel.in_dim}"
        )
    return idx, state.dims[:idx] + (channel.out_dim,) + state.dims[idx + 1 :]


def apply_to_subsystem(channel: KrausChannel, rho: DensityMatrix, factor: str) -> DensityMatrix:
    """Apply the channel to one labeled factor, leaving the others alone."""
    idx, new_dims = _locate_factor(channel, rho, factor)
    n = len(rho.dims)
    table = rho.matrix.reshape(rho.dims + rho.dims)
    out = sum(_on_factor(a.conj(), _on_factor(a, table, idx), n + idx) for a in channel.kraus)
    dim = math.prod(new_dims)
    return DensityMatrix(out.reshape(dim, dim), new_dims, rho.labels)


def tensor_power(channel: KrausChannel, n: int) -> KrausChannel:
    """n-fold tensor product channel with all Kraus products enumerated."""
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
    ops = [
        reduce(tensor_product, combo)
        for combo in itertools.product(channel.kraus, repeat=n)
    ]
    return KrausChannel(tuple(ops), channel.in_dim**n, channel.out_dim**n)


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Composition outer(inner(.)) with the product Kraus family."""
    if inner.out_dim != outer.in_dim:
        raise ValueError(
            f"cannot compose: inner output dimension {inner.out_dim} does not "
            f"match outer input dimension {outer.in_dim}"
        )
    ops = tuple(b @ a for b in outer.kraus for a in inner.kraus)
    return KrausChannel(ops, inner.in_dim, outer.out_dim)


def _environment_matrix(channel: KrausChannel, matrix: np.ndarray) -> np.ndarray:
    a = channel.stacked()
    moved = a @ matrix
    return np.einsum("kij,lij->kl", moved, a.conj(), optimize=True)


def environment_state(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Environment marginal W with W_kl = Tr(A_k rho A_l^dag).

    This is the state the channel leaks to its environment in a Stinespring
    dilation with one environment level per Kraus operator.
    """
    if rho.dim != channel.in_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match channel input {channel.in_dim}"
        )
    w = _environment_matrix(channel, rho.matrix)
    return DensityMatrix(w, (channel.num_kraus,), ("env",))


def measure_environment_branches(
    channel: KrausChannel, state: PureState, factor: str
) -> list[tuple[float, PureState]]:
    """Pure branches left by measuring the channel environment.

    Applies each Kraus operator to the labeled factor of a pure input and
    returns (probability, normalized state) pairs; branches below 1e-12
    probability are dropped.  Probabilities sum to 1 and the weighted
    mixture of branch projectors reconstructs the channel output.
    """
    idx, new_dims = _locate_factor(channel, state, factor)
    table = state.vector.reshape(state.dims)
    branches = []
    for a in channel.kraus:
        v = _on_factor(a, table, idx).reshape(-1)
        prob = float(np.vdot(v, v).real)
        if prob > BRANCH_CUTOFF:
            branches.append((prob, PureState(v / math.sqrt(prob), new_dims, state.labels)))
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

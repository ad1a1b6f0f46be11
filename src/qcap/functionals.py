"""Entanglement fidelity, entropy exchange, and coherent information.

Rectangular channels (input space embedded in a larger output space, or the
reverse) follow a first-levels convention: the smaller space sits in the
leading dimensions of the larger one.  The bundled erasure channel uses the
same convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CodingScheme,
    KrausChannel,
    _check_input,
    _check_kraus,
    _compose,
    apply_channel,
    apply_to_subsystem,
    environment_state,
    tensor_power,
)
from .states import DensityMatrix, purify

KRAUS_METHOD = "kraus-formula"
PURIFICATION_METHOD = "purification-definition"


@dataclass(frozen=True)
class FidelityReport:
    """Entanglement fidelity value plus the method that produced it."""

    value: float
    method: str


@dataclass(frozen=True)
class CoherentInfoReport:
    """Receiver entropy, environment entropy, and their difference in bits."""

    output_entropy: float
    env_entropy: float
    coherent_info: float


def _kraus_fidelities(matrix: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_k |Tr(rho A_k)|^2 clamped to [0, 1] for sqrt(1 - F); leading axes index a stack."""
    amps = np.trace(kraus @ matrix[..., None, :, :], axis1=-2, axis2=-1)
    return np.clip((np.abs(amps) ** 2).sum(-1), 0.0, 1.0)


def _purification_fidelity(rho: DensityMatrix, channel: KrausChannel) -> float:
    eta = purify(rho.flattened())
    out = apply_to_subsystem(channel, eta.density(), 1)
    # first-levels convention: only the levels input and output share can overlap
    d, m = rho.dim, min(channel.in_dim, channel.out_dim)
    shared = eta.vector.reshape(d, channel.in_dim)[:, :m].reshape(-1)
    block = out.matrix.reshape(d, channel.out_dim, d, channel.out_dim)[:, :m, :, :m]
    return float(np.vdot(shared, block.reshape(d * m, d * m) @ shared).real)


def entanglement_fidelity(
    rho: DensityMatrix, channel: KrausChannel, method: str = KRAUS_METHOD
) -> FidelityReport:
    """How well the channel preserves entanglement with a reference.

    The Kraus route evaluates sum_k |Tr(rho A_k)|^2; the purification route
    purifies rho, sends the system half through the channel, and takes the
    overlap with the original purification, unclamped.  Both agree to 1e-10.
    """
    _check_input(channel, rho)
    if method not in (KRAUS_METHOD, PURIFICATION_METHOD):
        raise ValueError(f"unknown entanglement fidelity method {method!r}")
    if method == KRAUS_METHOD:
        return FidelityReport(float(_kraus_fidelities(rho.matrix, channel.kraus)), method)
    return FidelityReport(_purification_fidelity(rho, channel), method)


def entropy_exchange(rho: DensityMatrix, channel: KrausChannel) -> float:
    """Entropy in bits picked up by the channel environment."""
    return environment_state(channel, rho).entropy()


def coherent_information(rho: DensityMatrix, channel: KrausChannel) -> CoherentInfoReport:
    """Receiver entropy minus environment entropy for one channel use."""
    s_out = apply_channel(channel, rho).entropy()
    s_env = entropy_exchange(rho, channel)
    return CoherentInfoReport(s_out, s_env, s_out - s_env)


def end_to_end_fidelity(scheme: CodingScheme, channel: KrausChannel) -> FidelityReport:
    """Entanglement fidelity of decoder o channel^block o encoder on the source."""
    block = tensor_power(channel, scheme.block_size)
    total = _chain(scheme.encoder.kraus, block.kraus, scheme.decoder.kraus)
    return entanglement_fidelity(scheme.source, KrausChannel._checked(total))


def _chain(encoder: np.ndarray, block: np.ndarray, decoder: np.ndarray) -> np.ndarray:
    """Kraus stack of decoder o block o encoder, each product checked for completeness.

    Leading axes of the three stacks index a stack of schemes; the source
    lives in the encoder's input.
    """
    source_dim = encoder.shape[-1]
    if encoder.shape[-2] != block.shape[-1]:
        raise ValueError(
            f"chain mismatch at channel input: encoder emits dimension "
            f"{encoder.shape[-2]}, channel block expects {block.shape[-1]}"
        )
    if decoder.shape[-1] != block.shape[-2]:
        raise ValueError(
            f"chain mismatch at decoder input: channel block emits dimension "
            f"{block.shape[-2]}, decoder expects {decoder.shape[-1]}"
        )
    if decoder.shape[-2] != source_dim:
        raise ValueError(
            f"chain mismatch at decoder output: decoder emits dimension "
            f"{decoder.shape[-2]}, source lives in {source_dim}"
        )
    inner = _compose(block, encoder)
    _check_kraus(inner)
    total = _compose(decoder, inner)
    _check_kraus(total)
    return total

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
    _branch_vectors,
    _check_input,
    apply_channel,
    compose,
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
    """sum_k |Tr(rho A_k)|^2, unclamped, so 1 + O(1e-16) can occur; leading axes index a stack."""
    amps = np.trace(kraus @ matrix[..., None, :, :], axis1=-2, axis2=-1)
    return (np.abs(amps) ** 2).sum(-1)


def _purification_fidelity(rho: DensityMatrix, channel: KrausChannel) -> float:
    # sum_k |<eta|(I (x) A_k)|eta>|^2 on the levels input and output share (first-levels rule)
    eta = purify(rho).vector
    d, m = rho.dim, min(channel.in_dim, channel.out_dim)
    kept = _branch_vectors(channel.kraus, eta, d).reshape(-1, d, channel.out_dim)[..., :m]
    amps = np.tensordot(kept, eta.reshape(d, d)[:, :m].conj(), 2)
    return float((np.abs(amps) ** 2).sum())


def entanglement_fidelity(
    rho: DensityMatrix, channel: KrausChannel, method: str = KRAUS_METHOD
) -> FidelityReport:
    """How well the channel preserves entanglement with a reference.

    The Kraus route evaluates sum_k |Tr(rho A_k)|^2; the purification route
    purifies rho, sends the system half through the channel, and takes the
    overlap with the original purification.  Neither is clamped, so a faithful
    channel may give 1 + O(1e-16).  Both agree to 1e-10.
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
    """Entanglement fidelity of decoder o channel^block o encoder; compose checks each product."""
    block = tensor_power(channel, scheme.block_size)
    _check_chain(scheme.encoder.kraus, block.kraus, scheme.decoder.kraus)
    total = compose(scheme.decoder, compose(block, scheme.encoder))
    return entanglement_fidelity(scheme.source, total)


def _check_chain(encoder: np.ndarray, block: np.ndarray, decoder: np.ndarray) -> None:
    """Raise unless the encoder, channel block and decoder stacks chain back to the source."""
    for where, first, emits, then, expects in (
        ("channel input", "encoder", encoder.shape[-2], "channel block expects", block.shape[-1]),
        ("decoder input", "channel block", block.shape[-2], "decoder expects", decoder.shape[-1]),
        ("decoder output", "decoder", decoder.shape[-2], "source lives in", encoder.shape[-1]),
    ):
        if emits != expects:
            msg = f"chain mismatch at {where}: {first} emits dimension {emits}, {then} {expects}"
            raise ValueError(msg)

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
    apply_channel,
    apply_to_subsystem,
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


def _kraus_fidelity(rho: DensityMatrix, channel: KrausChannel) -> float:
    amps = np.trace(channel.kraus @ rho.matrix, axis1=1, axis2=2)
    total = float(np.sum(np.abs(amps) ** 2))
    return min(max(total, 0.0), 1.0)


def _purification_fidelity(rho: DensityMatrix, channel: KrausChannel) -> float:
    eta = purify(rho.flattened())
    out = apply_to_subsystem(channel, eta.density(), "sys")
    # first-levels convention: only the levels input and output share can overlap
    d, m = rho.dim, min(channel.in_dim, channel.out_dim)
    shared = eta.vector.reshape(d, channel.in_dim)[:, :m].reshape(-1)
    block = out.matrix.reshape(d, channel.out_dim, d, channel.out_dim)[:, :m, :, :m]
    value = float(np.vdot(shared, block.reshape(d * m, d * m) @ shared).real)
    return min(max(value, 0.0), 1.0)


def entanglement_fidelity(
    rho: DensityMatrix, channel: KrausChannel, method: str = KRAUS_METHOD
) -> FidelityReport:
    """How well the channel preserves entanglement with a reference.

    The Kraus route evaluates sum_k |Tr(rho A_k)|^2; the purification route
    purifies rho, sends the system half through the channel, and takes the
    overlap with the original purification.  Both agree to 1e-10.
    """
    if rho.dim != channel.in_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match channel input {channel.in_dim}"
        )
    if method not in (KRAUS_METHOD, PURIFICATION_METHOD):
        raise ValueError(f"unknown entanglement fidelity method {method!r}")
    fidelity = _kraus_fidelity if method == KRAUS_METHOD else _purification_fidelity
    return FidelityReport(fidelity(rho, channel), method)


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
    if scheme.encoder.out_dim != block.in_dim:
        raise ValueError(
            f"chain mismatch at channel input: encoder emits dimension "
            f"{scheme.encoder.out_dim}, channel block expects {block.in_dim}"
        )
    if scheme.decoder.in_dim != block.out_dim:
        raise ValueError(
            f"chain mismatch at decoder input: channel block emits dimension "
            f"{block.out_dim}, decoder expects {scheme.decoder.in_dim}"
        )
    if scheme.decoder.out_dim != scheme.source.dim:
        raise ValueError(
            f"chain mismatch at decoder output: decoder emits dimension "
            f"{scheme.decoder.out_dim}, source lives in {scheme.source.dim}"
        )
    total = compose(scheme.decoder, compose(block, scheme.encoder))
    return entanglement_fidelity(scheme.source, total)

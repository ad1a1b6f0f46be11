"""Replacing a general source encoder by a directly transmitted state.

Given a coding scheme whose end-to-end entanglement fidelity is 1 - eps,
this module constructs a channel-input state rho_prime (the best pure
branch of the encoder) and a tail map appended after the decoder so that
sending rho_prime straight into the channel achieves fidelity at least
1 - 2 eps, while the entropy of rho_prime stays close to the source's.

The tail map comes from the isometry relating the branch purification to
an exact purification of the decoded output's reference marginal, so
the two reference marginals agree to rounding.  Each instance still
records their trace-norm mismatch as ``marginal_gap`` and is flagged if
it exceeds ``MARGINAL_GAP_TOL``; the fidelity bound is checked on every
instance, flagged or not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    CodingScheme,
    KrausChannel,
    _conjugate,
    apply_to_subsystem,
    compose,
    erasure_channel,
    measure_environment_branches,
    tensor_power,
    unitary_channel,
)
from .functionals import end_to_end_fidelity, entanglement_fidelity
from .states import (
    DensityMatrix,
    PureState,
    _as_rng,
    _uhlmann_isometry,
    max_overlap_purification,
    purify,
    random_density,
    random_unitary,
)

FIDELITY_WINDOW = 1.0 / 72.0
FIDELITY_SLACK = 1e-7
MARGINAL_GAP_TOL = 1e-8


@dataclass(frozen=True)
class EliminationInstance:
    """One executed encoder elimination with its audit numbers.

    The verdicts are read from the numbers they judge: ``fidelity_ok``
    checks ``eps_out <= 2 eps_in + slack`` and ``entropy_ok`` the entropy gap
    bound, both meant to hold on every instance; ``flagged`` marks a
    ``marginal_gap`` above ``MARGINAL_GAP_TOL``, which the exact purification
    should never give.
    """

    scheme: CodingScheme
    eps_in: float
    branch_index: int
    rho_prime: DensityMatrix
    tail_decoder: KrausChannel
    eps_out: float
    entropy_gap: float
    entropy_bound: float
    marginal_gap: float

    @property
    def flagged(self) -> bool:
        return self.marginal_gap > MARGINAL_GAP_TOL

    @property
    def fidelity_ok(self) -> bool:
        return self.eps_out <= 2.0 * self.eps_in + FIDELITY_SLACK

    @property
    def entropy_ok(self) -> bool:
        return self.entropy_gap <= self.entropy_bound


def _append_zero(state: PureState, aux_dim: int) -> PureState:
    zero = np.zeros(aux_dim, dtype=complex)
    zero[0] = 1.0
    return PureState(
        np.kron(state.vector, zero), state.dims + (aux_dim,), state.labels + ("aux",)
    )


def eliminate_encoder(scheme: CodingScheme, channel: KrausChannel) -> EliminationInstance:
    """Run the constructive elimination of the scheme's encoder.

    Steps: purify the source, split the encoder into pure branches by
    measuring its environment, score each branch's conditional fidelity by
    one adjoint map of the decode block and decode only the best (at least
    the overall one, by averaging), take rho_prime from that branch's density,
    and build the tail map from the isometry relating the branch purification
    to the max-overlap purification of the decoded output.  Requires the
    source dimension not to exceed the channel-block input so the relating
    isometry exists.
    """
    eps_in = 1.0 - end_to_end_fidelity(scheme, channel).value
    if eps_in >= FIDELITY_WINDOW:
        raise ValueError(
            f"scheme infidelity {eps_in:.6g} is outside the validity window "
            f"[0, 1/72); the construction needs a nearly faithful scheme"
        )
    block = tensor_power(channel, scheme.block_size)
    d_src = scheme.source.dim
    if d_src > block.in_dim:
        raise ValueError(
            f"source dimension {d_src} exceeds the channel input dimension "
            f"{block.in_dim}; the tail construction needs an isometry upward"
        )

    source = scheme.source.flattened()
    phi = purify(source)
    decode_block = compose(scheme.decoder, block)
    branches = measure_environment_branches(scheme.encoder, phi, "sys")
    # branch b scores <phi|(I x D)(|b><b|)|phi> = <b|Y|b>, Y = (I x D^dag)(|phi><phi|)
    adjoint = decode_block.kraus.conj().swapaxes(1, 2)
    y = _conjugate(adjoint, np.outer(phi.vector, phi.vector.conj()), (d_src, d_src), 1)
    vectors = np.array([branch.vector for _, branch in branches])
    scores = np.einsum("bi,ij,bj->b", vectors.conj(), y, vectors).real
    best_index = int(np.argmax(scores))
    psi = branches[best_index][1]
    chosen = psi.density()
    rho_out = apply_to_subsystem(decode_block, chosen, "sys")
    rho_prime = chosen.reduced(["sys"])
    big_psi, _ = max_overlap_purification(rho_out)
    aux_dim = d_src + 1
    psi_zero = _append_zero(psi, aux_dim)
    u, gap = _uhlmann_isometry(big_psi, psi_zero, "ref")
    reshaped = u.reshape(block.in_dim, aux_dim, scheme.decoder.out_dim, aux_dim)
    tail = KrausChannel(reshaped[:, :, :, 0].transpose(1, 0, 2))

    eps_out = 1.0 - entanglement_fidelity(rho_prime, compose(tail, decode_block)).value
    entropy_gap = abs(source.entropy() - rho_prime.entropy())
    entropy_bound = 2.0 * math.sqrt(2.0 * eps_in) * math.log2(d_src) + 2.0
    return EliminationInstance(
        scheme=scheme,
        eps_in=eps_in,
        branch_index=best_index,
        rho_prime=rho_prime,
        tail_decoder=tail,
        eps_out=eps_out,
        entropy_gap=entropy_gap,
        entropy_bound=entropy_bound,
        marginal_gap=gap,
    )


def _split_isometry_scheme(rng: np.random.Generator) -> tuple[CodingScheme, KrausChannel]:
    """Mixed pair of orthogonal-image isometries, perfectly decodable."""
    basis = random_unitary(4, rng)
    first, second = basis[:, :2], basis[:, 2:]
    weight = float(rng.uniform(0.2, 0.8))
    encoder = KrausChannel([math.sqrt(weight) * first, math.sqrt(1.0 - weight) * second])
    rotation = random_unitary(4, rng)
    channel = unitary_channel(rotation)
    decoder = KrausChannel(
        [first.conj().T @ rotation.conj().T, second.conj().T @ rotation.conj().T]
    )
    source = random_density(2, rank=2, seed=rng)
    return CodingScheme(source, encoder, decoder, 1), channel


def _noisy_rotation_scheme(rng: np.random.Generator) -> tuple[CodingScheme, KrausChannel]:
    """Identity-plus-rotated encoder branches through a slightly noisy unitary."""
    dim = int(rng.integers(2, 5))
    source = random_density(dim, rank=dim, seed=rng)
    angle = float(rng.uniform(0.05, 0.15))
    herm = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = herm + herm.conj().T
    herm = herm / np.linalg.norm(herm, 2)
    weight = float(rng.uniform(0.25, 0.45))

    def rotation(generator: np.ndarray) -> np.ndarray:  # exp(i generator)
        values, vectors = np.linalg.eigh(generator)
        return (vectors * np.exp(1j * values)) @ vectors.conj().T

    def drift_encoder(theta: float) -> KrausChannel:
        return KrausChannel(
            [math.sqrt(1.0 - weight) * np.eye(dim), math.sqrt(weight) * rotation(theta * herm)]
        )

    main = random_unitary(dim, rng)
    noise_angle = float(rng.uniform(0.01, 0.03))
    noise_rate = float(rng.uniform(0.001, 0.004))
    kick = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    kick = kick + kick.conj().T
    kick = kick / np.linalg.norm(kick, 2)
    wobble = main @ rotation(noise_angle * kick)
    channel = KrausChannel([math.sqrt(1.0 - noise_rate) * main, math.sqrt(noise_rate) * wobble])
    decoder = unitary_channel(main.conj().T)
    scheme = CodingScheme(source, drift_encoder(angle), decoder, 1)
    # shrink the encoder drift until the scheme is comfortably faithful
    while 1.0 - end_to_end_fidelity(scheme, channel).value > 0.009:
        angle *= 0.5
        scheme = CodingScheme(source, drift_encoder(angle), decoder, 1)
    return scheme, channel


def _erasure_recovery_scheme(rng: np.random.Generator) -> tuple[CodingScheme, KrausChannel]:
    """Low-rate erasure with the flag-to-ground recovery decoder."""
    p = float(rng.uniform(0.001, 0.005))
    channel = erasure_channel(p)
    encoder = unitary_channel(random_unitary(2, rng))
    recover_kept = np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
    recover_lost = np.array([[0, 0, 1], [0, 0, 0]], dtype=complex)
    decoder = compose(
        unitary_channel(encoder.kraus[0].conj().T),
        KrausChannel([recover_kept, recover_lost]),
    )
    source = random_density(2, rank=2, seed=rng)
    return CodingScheme(source, encoder, decoder, 1), channel


def random_demo_schemes(count: int, seed) -> list[tuple[CodingScheme, KrausChannel]]:
    """Seeded mixed bag of high-fidelity schemes for the elimination demo.

    Cycles through three families: classically mixed orthogonal isometries
    (exactly decodable, so the elimination is exact), mixed near-identity
    rotations through a noisy unitary, and low-rate erasure with a recovery
    decoder.  Every scheme has end-to-end fidelity at least 0.99.
    """
    if count < 1:
        raise ValueError(f"need at least one scheme, got {count}")
    rng = _as_rng(seed)
    builders = (
        _split_isometry_scheme,
        _noisy_rotation_scheme,
        _erasure_recovery_scheme,
    )
    return [builders[i % len(builders)](rng) for i in range(count)]

"""Replacing a general source encoder by a directly transmitted state.

Given a coding scheme whose end-to-end entanglement fidelity is 1 - eps,
this module constructs a channel-input state rho_prime (the best pure
branch of the encoder) and a tail map appended after the decoder so that
sending rho_prime straight into the channel achieves fidelity at least
1 - 2 eps, while the entropy of rho_prime stays close to the source's.

Each step is one stacked core.  ``channels._branch_vectors`` splits the
purified source into the encoder's pure branches; ``states._max_overlap_vector``
purifies the reference marginal of the decoded kept branch; ``states._uhlmann``
relates that purification to the kept branch by the Uhlmann polar factor,
whose aux-0 slice is the tail map.  The decoder leaves the reference alone,
so the two reference marginals agree to rounding.  Each instance still
records their trace-norm mismatch as ``marginal_gap`` and is flagged if it
exceeds ``MARGINAL_GAP_TOL``; the fidelity bound is checked on every
instance, flagged or not.

:func:`eliminate_encoders` and :func:`random_demo_schemes` are lazy.  The
first reads its schemes ``_WINDOW`` at a time, so a stream of any length
holds one window, groups each window by shape (source, encoder, decoder and
channel stacks, and block size) and runs each group in chunks of at most
``_CHUNK`` instances.  Every step, every validation included, is one call on
the chunk, so the number of solves per chunk does not depend on its size.  A
failed check names the instance by its position in the input.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channels import (
    CodingScheme,
    KrausChannel,
    _branch_vectors,
    _check_kraus,
    _compose,
    _conjugate,
    _tensor_power,
    compose,
    erasure_channel,
    unitary_channel,
)
from .functionals import _chain, _kraus_fidelities, end_to_end_fidelity
from .linalg import (
    _MemberError,
    _first_failure,
    density_spectrum,
    entropy_of_spectrum,
    partial_trace,
)
from .states import (
    DensityMatrix,
    _as_rng,
    _check_unit,
    _dot,
    _max_overlap_vector,
    _projectors,
    _purification,
    _uhlmann,
    random_density,
    random_unitary,
)

FIDELITY_WINDOW = 1.0 / 72.0
FIDELITY_SLACK = 1e-7
BRANCH_CUTOFF = 1e-12
MARGINAL_GAP_TOL = 1e-8
_CHUNK = 32
_WINDOW = 8 * _CHUNK


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


def eliminate_encoder(scheme: CodingScheme, channel: KrausChannel) -> EliminationInstance:
    """Run the constructive elimination of the scheme's encoder.

    Steps: purify the source, split the encoder into pure branches by
    measuring its environment, score each branch's conditional fidelity by
    one adjoint map of the decode block and decode only the best (at least
    the overall one, by averaging), take rho_prime from that branch's density,
    and build the tail map from the isometry relating the branch purification
    to the max-overlap purification of the decoded output.  Requires the
    source dimension not to exceed the channel-block input so the relating
    isometry exists.  This is :func:`eliminate_encoders` on one scheme.
    """
    return next(eliminate_encoders([(scheme, channel)]))


def eliminate_encoders(pairs) -> Iterator[EliminationInstance]:
    """:func:`eliminate_encoder` of each (scheme, channel) pair, yielded in input order.

    Reads ``_WINDOW`` pairs at a time and runs same-shape pairs in chunks of at
    most ``_CHUNK``.  An error names the first failing instance by its input
    position; a check on shapes alone names the first instance of its chunk.
    """
    stream = iter(pairs)
    start = 0
    while window := list(itertools.islice(stream, _WINDOW)):
        groups: dict[tuple, list[int]] = {}
        for i, (scheme, channel) in enumerate(window):
            key = (scheme.encoder.kraus.shape, scheme.decoder.kraus.shape, channel.kraus.shape,
                   scheme.block_size)
            groups.setdefault(key, []).append(i)
        results: list[EliminationInstance] = [None] * len(window)
        for members in groups.values():
            for first in range(0, len(members), _CHUNK):
                chunk = members[first : first + _CHUNK]
                try:
                    done = _eliminate_stack([window[i] for i in chunk])
                except _MemberError as exc:
                    where = start + chunk[exc.where[0]]
                    raise ValueError(f"{exc.reason} at instance {where}") from None
                except ValueError as exc:
                    raise ValueError(f"{exc} at instance {start + chunk[0]}") from None
                for i, instance in zip(chunk, done):
                    results[i] = instance
        yield from results
        start += len(window)


def _eliminate_stack(pairs) -> list[EliminationInstance]:
    """The elimination of same-shape pairs, each step one call on the stack.

    Stack axis 0 is the position in ``pairs``; a failed member check raises
    :class:`qcap.linalg._MemberError` with that position.
    """
    schemes = [scheme for scheme, _ in pairs]
    encoder = np.stack([s.encoder.kraus for s in schemes])
    decoder = np.stack([s.decoder.kraus for s in schemes])
    n = schemes[0].block_size
    block = _tensor_power(np.stack([channel.kraus for _, channel in pairs]), n)
    if n > 1:
        _check_kraus(block)
    source = np.stack([s.source.matrix for s in schemes])
    eps_in = 1.0 - _kraus_fidelities(source, _chain(encoder, block, decoder))
    where = _first_failure(eps_in >= FIDELITY_WINDOW)
    if where is not None:
        raise _MemberError(
            f"scheme infidelity {eps_in[where]:.6g} is outside the validity window "
            f"[0, 1/72); the construction needs a nearly faithful scheme",
            where,
        )
    d_src, d_in = source.shape[-1], block.shape[-1]
    if d_src > d_in:
        raise ValueError(
            f"source dimension {d_src} exceeds the channel input dimension "
            f"{d_in}; the tail construction needs an isometry upward"
        )

    # factors by position: the reference 0, the source 1 (then the channel in and out), aux last
    phi = _purification(source)
    _check_unit(phi)
    decode = _compose(decoder, block)
    _check_kraus(decode)
    branch_index, psi = _kept_branch(encoder, decode, phi, d_src)
    rho_prime, prime_spectrum, big_psi = _decode_kept(decode, psi, d_src, d_in)
    tail, marginal_gap = _tail(big_psi, psi, d_src, d_in)
    chain = _compose(tail, decode)
    _check_kraus(chain)

    eps_out = 1.0 - _kraus_fidelities(rho_prime, chain)
    source_entropy = entropy_of_spectrum(np.stack([s.source.eigenvalues for s in schemes]))
    entropy_gap = np.abs(source_entropy - entropy_of_spectrum(prime_spectrum))
    return [
        EliminationInstance(
            scheme=scheme,
            eps_in=float(eps_in[j]),
            branch_index=int(branch_index[j]),
            rho_prime=DensityMatrix._checked(rho_prime[j], prime_spectrum[j], (d_in,)),
            tail_decoder=KrausChannel._checked(tail[j]),
            eps_out=float(eps_out[j]),
            entropy_gap=float(entropy_gap[j]),
            entropy_bound=2.0 * math.sqrt(2.0 * float(eps_in[j])) * math.log2(d_src) + 2.0,
            marginal_gap=float(marginal_gap[j]),
        )
        for j, scheme in enumerate(schemes)
    ]


def _kept_branch(encoder, decode, phi, d_src) -> tuple[np.ndarray, np.ndarray]:
    """Index among the kept branches and unit vector of each member's best branch.

    Measuring the encoder environment on the purification ``phi`` splits it
    into branches; those below ``BRANCH_CUTOFF`` probability are dropped and
    not counted in the index.  Branch b scores <phi|(I x D)(|b><b|)|phi> =
    <b|Y|b> with one adjoint map Y = (I x D^dag)(|phi><phi|) of the decode
    block D, and the first best score is kept: by averaging, it is at least
    the overall fidelity.
    """
    vectors = _branch_vectors(encoder, phi, (d_src, d_src), 1)
    probs = _dot(vectors.conj(), vectors).real
    kept = probs > BRANCH_CUTOFF
    branches = vectors / np.sqrt(np.where(kept, probs, 1.0))[..., None]
    # a dropped branch is no state: a unit placeholder keeps it out of the norm check
    _check_unit(np.where(kept[..., None], branches, 1.0 / math.sqrt(branches.shape[-1])))
    y = _conjugate(decode.conj().swapaxes(-1, -2), _projectors(phi), (d_src, d_src), 1)
    scores = np.einsum("...bi,...ij,...bj->...b", branches.conj(), y, branches).real
    # a dropped branch, left unnormalized, scores at most its probability, below the kept best
    best = np.argmax(scores, axis=-1)
    rows = np.arange(len(phi))
    return np.cumsum(kept, axis=-1)[rows, best] - 1, branches[rows, best]


def _decode_kept(decode, psi, d_src, d_in) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho_prime, its spectrum and the max-overlap purification of the decoded kept branch.

    The kept branch's density, its decoded output and rho_prime, its
    channel-input marginal, are each checked as density matrices.
    """
    chosen = _projectors(psi)
    density_spectrum(chosen)
    rho_out = _conjugate(decode, chosen, (d_src, d_in), 1)
    density_spectrum(rho_out)
    rho_prime = partial_trace(chosen, (d_src, d_in), [1])
    prime_spectrum = density_spectrum(rho_prime)
    big_psi, _ = _max_overlap_vector(rho_out, d_src, d_src)
    _check_unit(big_psi)
    return rho_prime, prime_spectrum, big_psi


def _tail(big_psi, psi, d_src, d_in) -> tuple[np.ndarray, np.ndarray]:
    """Checked tail Kraus stacks and reference-marginal gaps from the relating isometry.

    The isometry maps the max-overlap purification ``big_psi`` onto the kept
    branch with an aux |0> appended; its aux-0 output slice is the tail map.
    """
    count, aux_dim = len(psi), d_src + 1
    psi_zero = np.zeros(psi.shape + (aux_dim,), dtype=complex)
    psi_zero[..., 0] = psi
    _check_unit(psi_zero.reshape(count, -1))
    u, gap = _uhlmann(big_psi.reshape(count, d_src, -1), psi_zero.reshape(count, d_src, -1))
    reshaped = u.reshape(count, d_in, aux_dim, d_src, aux_dim)
    tail = np.ascontiguousarray(reshaped[..., 0].swapaxes(-3, -2))
    _check_kraus(tail)
    return tail, gap


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


def random_demo_schemes(count: int, seed) -> Iterator[tuple[CodingScheme, KrausChannel]]:
    """Seeded mixed bag of high-fidelity schemes for the elimination demo, drawn as taken.

    Cycles through three families: classically mixed orthogonal isometries
    (exactly decodable, so the elimination is exact), mixed near-identity
    rotations through a noisy unitary, and low-rate erasure with a recovery
    decoder.  Every scheme has end-to-end fidelity at least 0.99.  ``count``
    is checked at the call; each scheme is drawn when the iterator reaches it.
    """
    if count < 1:
        raise ValueError(f"need at least one scheme, got {count}")
    rng = _as_rng(seed)
    builders = (_split_isometry_scheme, _noisy_rotation_scheme, _erasure_recovery_scheme)
    return (builders[i % len(builders)](rng) for i in range(count))

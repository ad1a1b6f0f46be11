"""Replacing a general source encoder by a directly transmitted state.

Given a coding scheme whose end-to-end entanglement fidelity is 1 - eps,
this module constructs a channel-input state rho_prime (the best pure
branch of the encoder) and a tail map appended after the decoder so that
sending rho_prime straight into the channel achieves fidelity at least
1 - 2 eps, while the entropy of rho_prime stays close to the source's.

Each step is one stacked core.  ``channels._branch_vectors`` splits the purified
source phi into the encoder's branches and decodes each: one table of
x_bm = (I x D_m)(I x E_b)|phi> gives eps_in as sum ||x_bm - <phi|x_bm> phi||^2,
nonnegative and free of cancellation against 1, the branch scores and the kept
branch's decoded output.  ``states._max_overlap_vector`` purifies that output, its
one solve also the output's eigenvalue floor check; ``states._uhlmann`` relates it
to the kept branch by the Uhlmann polar factor, whose aux-0 slice is the tail map,
and eps_out is the same sum over the tail-mapped kept rows.  The decoder leaves the
reference alone, so the two reference marginals agree to rounding; their trace-norm
mismatch is kept as ``marginal_gap`` and flags an instance above ``MARGINAL_GAP_TOL``.
The fidelity bound is checked on every instance, flagged or not.

:func:`eliminate_encoders` and :func:`random_demo_schemes` are lazy: each runs
on :mod:`qcap.linalg`'s window engine, ``_windowed``, so a stream of any length
holds one window.  The elimination groups pairs by the shapes of their encoder,
decoder and channel stacks and block size; the demo groups raw draws, taken in
stream order scheme by scheme, by family and dimension, the rotation family's
drift-shrinking loop included.  Every step, every validation included, is one
call on the stack, so the number of solves per group does not depend on its
size.  A failed check names the instance by its stream position, and the demo's
arrays are bit for bit those of drawing and building each scheme alone.
"""
from __future__ import annotations

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
    _erasure_kraus,
    _tensor_power,
)
from .functionals import _check_chain, _kraus_fidelities
from .linalg import (
    _MemberError,
    _adjoint,
    _check_density,
    _eigh,
    _first_failure,
    _require_int,
    _windowed,
    density_spectrum,
    entropy_of_spectrum,
)
from .states import (
    DensityMatrix,
    _as_rng,
    _check_unit,
    _dot,
    _haar_unitaries,
    _max_overlap_vector,
    _purification,
    _random_densities,
    _uhlmann,
)

FIDELITY_WINDOW = 1.0 / 72.0
FIDELITY_SLACK = 1e-7
BRANCH_CUTOFF = 1e-12
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


def eliminate_encoder(scheme: CodingScheme, channel: KrausChannel) -> EliminationInstance:
    """Run the constructive elimination of the scheme's encoder.

    Steps: purify the source, split the encoder into pure branches by measuring its
    environment, decode every branch, keep the one of best conditional fidelity (at least
    the overall one, by averaging), take rho_prime as its channel-input marginal, and build
    the tail map from the isometry relating its purification to the max-overlap
    purification of its decoded output.  Requires the source dimension not to exceed the
    channel-block input so the relating isometry exists.  This is
    :func:`eliminate_encoders` on one scheme.
    """
    return next(eliminate_encoders([(scheme, channel)]))


def eliminate_encoders(pairs) -> Iterator[EliminationInstance]:
    """:func:`eliminate_encoder` of each (scheme, channel) pair, yielded in input order.

    The pairs of a window whose stacks and block size have equal shapes run as
    one stack; an error names the failing instance by its input position.
    """

    def shape(pair):
        scheme, channel = pair
        ops = scheme.encoder, scheme.decoder, channel
        return (scheme.block_size,) + tuple(op.kraus.shape for op in ops)

    return _windowed(pairs, shape, _eliminate_stack)


def _eliminate_stack(pairs) -> list[EliminationInstance]:
    """The elimination of same-shape pairs, each step one call on the stack.

    Stack axis 0 is the position in ``pairs``; a failed member check raises
    :class:`qcap.linalg._MemberError` with that position.  Checked here is what can drift:
    products of checked stacks (block, decode) and the source's purification phi.
    """
    schemes = [scheme for scheme, _ in pairs]
    encoder = np.stack([s.encoder.kraus for s in schemes])
    decoder = np.stack([s.decoder.kraus for s in schemes])
    n = schemes[0].block_size
    block = _tensor_power(np.stack([channel.kraus for _, channel in pairs]), n)
    if n > 1:
        _check_kraus(block)
    _check_chain(encoder, block, decoder)
    source = np.stack([s.source.matrix for s in schemes])
    d_src, d_in = source.shape[-1], block.shape[-1]
    # factors by position: the reference 0, the source 1 (then the channel in and out), aux last
    phi = _purification(source)
    _check_unit(phi)
    decode = _compose(decoder, block)
    _check_kraus(decode)
    # the decoded branch table: row (b, m) is (I x D_m)(I x E_b)|phi>, broadcast over b
    branches = _branch_vectors(encoder, phi, d_src)
    decoded = _branch_vectors(decode[:, None], branches, d_src)
    amps, eps_in = _departure(decoded, phi)
    where = _first_failure(eps_in >= FIDELITY_WINDOW)
    if where is not None:
        raise _MemberError(
            f"scheme infidelity {eps_in[where]:.6g} is outside the validity window "
            f"[0, 1/72); the construction needs a nearly faithful scheme",
            where,
        )
    if d_src > d_in:
        raise ValueError(
            f"source dimension {d_src} exceeds the channel input dimension "
            f"{d_in}; the tail construction needs an isometry upward"
        )
    branch_index, psi, kept_rows = _kept_branch(branches, decoded, amps)
    rho_prime, prime_spectrum, big_psi = _decode_kept(kept_rows, psi, d_src, d_in)
    tail, marginal_gap = _tail(big_psi, psi, d_src, d_in)
    _, eps_out = _departure(_branch_vectors(tail[:, None], kept_rows, d_src), psi)
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


def _departure(rows, target) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps <target|row>, and sum ||row - <target|row> target||^2 over each member's rows.

    For the rows (I x A_k)|target> of a channel the sum is 1 - F by completeness, but as a
    sum of squares it is nonnegative, and rounding squared on an exact recovery.
    """
    rows = rows.reshape(len(target), -1, target.shape[-1])
    amps = (rows @ target.conj()[..., None])[..., 0]
    residual = rows - amps[..., None] * target[:, None]
    return amps, _dot(residual.conj(), residual).real.sum(-1)


def _kept_branch(branches, decoded, amps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index among the kept branches, unit vector and decoded rows of each member's best branch.

    Branch b, of probability p_b above ``BRANCH_CUTOFF`` (the others are dropped and not
    counted in the index), scores sum_m |<phi|x_bm>|^2 / p_b over its decoded rows x_bm; the
    first best is kept, at least the overall fidelity by averaging.  Its rows come over sqrt(p_b).
    The kept branch over its own norm is the unit vector, checked as rho_prime's trace.
    """
    probs = _dot(branches.conj(), branches).real
    kept = probs > BRANCH_CUTOFF
    weight = np.where(kept, probs, 1.0)
    scores = (np.abs(amps.reshape(decoded.shape[:-1])) ** 2).sum(-1) / weight
    # a dropped branch, left unnormalized, scores at most its probability, below the kept best
    best = np.argmax(scores, axis=-1)
    rows = np.arange(len(branches))
    norm = np.sqrt(weight[rows, best])
    unit, chosen = branches[rows, best] / norm[:, None], decoded[rows, best] / norm[:, None, None]
    return np.cumsum(kept, axis=-1)[rows, best] - 1, unit, chosen


def _decode_kept(kept_rows, psi, d_src, d_in) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho_prime, its spectrum and the max-overlap purification of the decoded kept branch.

    Each density, checked as it can drift, sums |row><row| over a table: the decoded output over
    ``kept_rows``, rho_prime over the reference rows of ``psi``'s (reference, input) table.  Only
    rho_prime is solved; the output's spectrum comes from its purification, whose norm is checked.
    """
    rho_out = kept_rows.swapaxes(-1, -2) @ kept_rows.conj()
    _check_density(rho_out)
    table = psi.reshape(-1, d_src, d_in)
    rho_prime = table.swapaxes(-1, -2) @ table.conj()
    prime_spectrum = density_spectrum(rho_prime)
    big_psi, _ = _max_overlap_vector(rho_out, d_src, d_src)
    _check_unit(big_psi)
    return rho_prime, prime_spectrum, big_psi


def _tail(big_psi, psi, d_src, d_in) -> tuple[np.ndarray, np.ndarray]:
    """Checked tail Kraus stacks and reference-marginal gaps from the relating isometry.

    The isometry maps the max-overlap purification ``big_psi`` onto the kept
    branch with an aux |0> appended; its aux-0 output slice is the tail map, checked
    because LAPACK's SVD picks the completion of its null space.
    """
    count, aux_dim = len(psi), d_src + 1
    psi_zero = np.zeros(psi.shape + (aux_dim,), dtype=complex)
    psi_zero[..., 0] = psi  # psi's norm, checked as rho_prime's trace
    u, gap = _uhlmann(big_psi.reshape(count, d_src, -1), psi_zero.reshape(count, d_src, -1))
    reshaped = u.reshape(count, d_in, aux_dim, d_src, aux_dim)
    tail = np.ascontiguousarray(reshaped[..., 0].swapaxes(-3, -2))
    _check_kraus(tail)
    return tail, gap


def _draw_split_isometry(rng: np.random.Generator) -> tuple:
    """Raw draws of one split-isometry scheme, in stream order."""
    return (rng.standard_normal((2, 4, 4)), rng.uniform(0.2, 0.8), rng.standard_normal((2, 4, 4)),
            rng.standard_normal((2, 2, 2)))


def _split_isometry_schemes(basis, weight, rotation, source) -> tuple:
    """Mixed pair of orthogonal-image isometries, perfectly decodable, per stacked draw."""
    basis, rotation = _haar_unitaries(basis), _haar_unitaries(rotation)
    first, second = basis[..., :2], basis[..., 2:]
    encoder = np.stack([_scaled(weight, first), _scaled(1.0 - weight, second)], axis=1)
    undo = _adjoint(rotation)
    decoder = np.stack([_adjoint(first) @ undo, _adjoint(second) @ undo], axis=1)
    return _random_densities(source), encoder, decoder, rotation[:, None]


def _draw_noisy_rotation(rng: np.random.Generator) -> tuple:
    """Raw draws of one noisy-rotation scheme, in stream order."""
    dim = int(rng.integers(2, 5))
    return (rng.standard_normal((2, dim, dim)), rng.uniform(0.05, 0.15),
            rng.standard_normal((2, dim, dim)), rng.uniform(0.25, 0.45),
            rng.standard_normal((2, dim, dim)), rng.uniform(0.01, 0.03),
            rng.uniform(0.001, 0.004), rng.standard_normal((2, dim, dim)))


def _noisy_rotation_schemes(
    source, angle, herm, weight, main, noise_angle, noise_rate, kick
) -> tuple:
    """Identity-plus-rotated encoder branches through a slightly noisy unitary, per stacked draw.

    Each encoder's drift angle is halved until its scheme is comfortably faithful, at most
    0.009 infidelity.  The loop draws nothing: each round rebuilds and scores, on one stack,
    only the members still above.
    """
    herm, kick, main = _unit_hermitian(herm), _unit_hermitian(kick), _haar_unitaries(main)
    wobble = main @ _rotations(noise_angle[:, None, None] * kick)
    channel = np.stack([_scaled(1.0 - noise_rate, main), _scaled(noise_rate, wobble)], axis=1)
    decoder = np.ascontiguousarray(_adjoint(main)[:, None])
    states = _random_densities(source)
    rho = np.stack([state.matrix for state in states])
    encoder = np.empty(channel.shape, dtype=complex)
    encoder[:, 0] = _scaled(1.0 - weight, np.eye(rho.shape[-1]))
    todo = np.arange(len(rho))
    while len(todo):
        drift = angle[todo][:, None, None] * herm[todo]
        encoder[todo, 1] = _scaled(weight[todo], _rotations(drift))
        chain = _compose(decoder[todo], _compose(channel[todo], encoder[todo]))
        todo = todo[1.0 - _kraus_fidelities(rho[todo], chain) > 0.009]
        angle[todo] *= 0.5
    return states, encoder, decoder, channel


def _draw_erasure_recovery(rng: np.random.Generator) -> tuple:
    """Raw draws of one erasure-recovery scheme, in stream order."""
    return rng.uniform(0.001, 0.005), rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2, 2))


def _erasure_recovery_schemes(p, unitary, source) -> tuple:
    """Low-rate erasure with the flag-to-ground recovery decoder, per stacked draw."""
    unitary = _haar_unitaries(unitary)
    decoder = _compose(np.ascontiguousarray(_adjoint(unitary)[:, None]), _RECOVERY)
    return _random_densities(source), unitary[:, None], decoder, _erasure_kraus(p)


_RECOVERY = np.array([[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 0]]], dtype=complex)
_DEMO_FAMILIES = (
    (_draw_split_isometry, _split_isometry_schemes),
    (_draw_noisy_rotation, _noisy_rotation_schemes),
    (_draw_erasure_recovery, _erasure_recovery_schemes),
)


def _scaled(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Each matrix of the stack times the square root of its weight."""
    return np.sqrt(weights)[:, None, None] * stack


def _unit_hermitian(raw: np.ndarray) -> np.ndarray:
    """G + G^dag over its spectral norm, for each G = raw[:, 0] + i raw[:, 1] of a stack."""
    g = raw[:, 0] + 1j * raw[:, 1]
    g = g + _adjoint(g)
    return g / np.linalg.norm(g, 2, axis=(-2, -1))[:, None, None]


def _rotations(generators: np.ndarray) -> np.ndarray:
    """exp(i G) for each Hermitian G of a stack, from its eigendecomposition."""
    values, vectors = _eigh(generators)
    return (vectors * np.exp(1j * values)[..., None, :]) @ _adjoint(vectors)


def _demo_group(draws) -> list[tuple[CodingScheme, KrausChannel]]:
    """The schemes of (family, raw draws) items of one family and draw shape, built on one stack."""
    family = draws[0][0]
    columns = (np.array(values) for values in zip(*(draw for _, draw in draws)))
    states, encoder, decoder, channel = _DEMO_FAMILIES[family][1](*columns)
    for ops in (encoder, decoder, channel):  # formed from the draws, so checked once here
        _check_kraus(ops)
    wrap = KrausChannel._checked
    return [(CodingScheme(source, wrap(encoder[j]), wrap(decoder[j]), 1), wrap(channel[j]))
            for j, source in enumerate(states)]


def random_demo_schemes(trials: int, seed) -> Iterator[tuple[CodingScheme, KrausChannel]]:
    """Seeded mixed bag of high-fidelity schemes for the elimination demo, drawn a window at a time.

    Cycles through three families: classically mixed orthogonal isometries
    (exactly decodable, so the elimination is exact), mixed near-identity
    rotations through a noisy unitary, and low-rate erasure with a recovery
    decoder.  Every scheme has end-to-end fidelity at least 0.99.  ``trials``
    is checked at the call.  Scheme i is of family i mod 3 and takes its raw
    draws in its family's order, so the stream does not depend on the window.
    """
    trials = _require_int(trials, "trials", 1)
    rng = _as_rng(seed)
    families = (i % len(_DEMO_FAMILIES) for i in range(trials))
    draws = ((family, _DEMO_FAMILIES[family][0](rng)) for family in families)
    return _windowed(draws, lambda item: (item[0],) + tuple(map(np.shape, item[1])), _demo_group)

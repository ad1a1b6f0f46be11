"""Randomized numeric checks of entropy continuity and mixing bounds.

Each check draws seeded random instances, evaluates a closed-form bound
against exact entropies, and reports violation counts plus the worst
observed slack (signed distance past the bound, negative when safe) and
the trial that set it.  All entropies are in bits.

Every check runs in chunks of ``_CHUNK`` trials, each in two phases.  A
Python loop first makes only the raw generator calls of one trial after
another, in a fixed call order, so a seed gives the same instances whatever
the chunking.  The chunk's draws are then stacked, and every matrix and
unit vector is built on the stack: Wishart Grams, normalization, mixing,
validation, partial traces, eigensolves and slacks run once on the whole
chunk through the stack-aware kernels of :mod:`qcap.linalg`.  The chunk
bounds the memory a check holds while keeping per-call overhead small.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    density_spectrum,
    entropy_of_spectrum,
    partial_trace,
    trace_norm,
    von_neumann_entropy,
)
from .states import _as_rng, _dot, _projectors, _unit_trace

FP_TOL = 1e-9
PURE_EPS_CAP = 1.0 / 36.0
MIXED_EPS_CAP = 1.0 / 72.0
_MAX_PARTS = 4
_CHUNK = 64


@dataclass(frozen=True)
class TrialReport:
    """Summary of one randomized bound check.

    ``worst_trial`` is the index of the first trial whose slack equals
    ``max_slack``; with the seed of the run it replays that instance.
    """

    trials: int
    violations: int
    max_slack: float
    epsilon_max: float
    dim: int
    worst_trial: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _run(trials: int, dim: int, seed, draw, measure) -> TrialReport:
    """Draw and measure ``trials`` instances chunk by chunk.

    ``draw(rng)`` makes one trial's raw generator calls and returns them as
    a tuple; ``measure`` takes the chunk's draws stacked field by field,
    builds its matrices, and returns the slacks (one row per trial), the
    count of violated side conditions that have no slack, and the epsilon
    reached by each trial.
    """
    rng = _as_rng(seed)
    violations, max_slack, worst, eps_max = 0, -math.inf, 0, 0.0
    for start in range(0, trials, _CHUNK):
        drawn = [draw(rng) for _ in range(min(_CHUNK, trials - start))]
        slacks, misses, eps = measure(*(np.array(field) for field in zip(*drawn)))
        violations += int(np.count_nonzero(slacks > FP_TOL)) + misses
        k = int(np.argmax(slacks))
        if slacks.flat[k] > max_slack:
            max_slack, worst = float(slacks.flat[k]), start + k // slacks.shape[1]
        eps_max = max(eps_max, float(eps.max()))
    return TrialReport(trials, violations, max_slack, eps_max, dim, worst)


def _check_sizes(trials: int, dim: int, what: str) -> None:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if dim < 2:
        raise ValueError(f"need {what} >= 2, got {dim}")


def _normalized(vectors: np.ndarray) -> np.ndarray:
    """Stacked complex vectors divided by their norms, each rounded as ``np.linalg.norm``'s."""
    norm = np.sqrt(_dot(vectors.real, vectors.real) + _dot(vectors.imag, vectors.imag))
    return vectors / norm[..., None]


def _gram_factor(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """The draws of ``_wishart_gram(dim, rank, rng)`` in one generator call of the same stream.

    Real and imaginary parts of its dim x rank Gaussian G, padded with zero
    columns to dim x dim; they leave G G^dag unchanged up to rounding.
    """
    raw = np.zeros((2, dim, dim))
    raw[:, :, :rank] = rng.standard_normal((2, dim, rank))
    return raw


def _wishart_grams(raw: np.ndarray) -> np.ndarray:
    """Stacked G G^dag, unnormalized, for the G of stacked ``_gram_factor`` draws."""
    g = raw[..., 0, :, :] + 1j * raw[..., 1, :, :]
    return g @ g.conj().swapaxes(-1, -2)


def _marginal_entropies(dense: np.ndarray, dim: int) -> np.ndarray:
    """Entropies of the (left, right) marginals of stacked states on dim x dim."""
    dims = (dim, dim)
    marginals = np.stack(
        [partial_trace(dense, dims, [0]), partial_trace(dense, dims, [1])], axis=-3
    )
    return von_neumann_entropy(marginals, validate=False)


def _pure_marginal_entropy(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Entropy of either marginal of stacked pure states on dim x dim.

    Both marginals of a pure state have the squared singular values of its
    dim x dim coefficient table as their nonzero spectrum.
    """
    table = vectors.reshape(vectors.shape[:-1] + (dim, dim))
    return entropy_of_spectrum(np.linalg.svd(table, compute_uv=False) ** 2)


def check_fannes(trials: int = 200, dim: int = 6, seed=None) -> TrialReport:
    """Entropy difference against trace distance for nearby mixed states.

    Pairs are built by mixing a state toward a second one; whenever the
    trace distance t stays below 1/3 both forms must hold:
    |S1 - S2| <= t log2(dim) - t log2(t)  and  |S1 - S2| <= t log2(dim) + 1.
    The mixing weight is halved until t < 1/3.  epsilon_max records the
    largest trace distance tested.
    """
    _check_sizes(trials, dim, "dimension")
    log_dim = math.log2(dim)

    def draw(rng):
        rho = _gram_factor(dim, int(rng.integers(1, dim + 1)), rng)
        sigma = _gram_factor(dim, int(rng.integers(1, dim + 1)), rng)
        return rho, sigma, 0.22 * rng.random()

    def mix(rho, sigma, t):
        return (1.0 - t)[:, None, None] * rho + t[:, None, None] * sigma

    def measure(rho, sigma, t_mix):
        rho, sigma = _unit_trace(_wishart_grams(rho)), _unit_trace(_wishart_grams(sigma))
        spectrum = density_spectrum(rho)
        other = mix(rho, sigma, t_mix)
        dist = trace_norm(rho - other)
        far = dist >= 1.0 / 3.0
        while far.any():
            t_mix[far] /= 2.0
            other[far] = mix(rho[far], sigma[far], t_mix[far])
            dist[far] = trace_norm(rho[far] - other[far])
            far = dist >= 1.0 / 3.0
        diff = np.abs(entropy_of_spectrum(spectrum) - von_neumann_entropy(other, validate=False))
        eta = -dist * np.log2(np.where(dist > 0.0, dist, 1.0))
        bounds = np.stack([dist * log_dim + eta, dist * log_dim + 1.0], axis=1)
        return diff[:, None] - bounds, 0, dist

    return _run(trials, dim, seed, draw, measure)


def check_pure_overlap_continuity(
    trials: int = 200, dim: int = 4, eps_max: float = PURE_EPS_CAP, seed=None
) -> TrialReport:
    """Marginal entropy drift between bipartite pure states of known overlap.

    States live on dim x dim.  The second state is rotated away from the
    first inside a random plane so the squared overlap is exactly 1 - eps,
    with eps drawn uniformly below ``eps_max`` (capped at 1/36).  Each
    marginal entropy difference must stay below 2 sqrt(eps) log2(dim) + 1.
    """
    _check_sizes(trials, dim, "local dimension")
    if not 0.0 < eps_max <= PURE_EPS_CAP:
        raise ValueError(
            f"eps_max {eps_max!r} outside the validity window (0, 1/36]"
        )
    total_dim = dim * dim

    def draw(rng):
        # psi's real and imaginary parts, then those of the raw second direction
        return rng.standard_normal((4, total_dim)), eps_max * rng.random()

    def measure(normals, eps):
        psi = _normalized(normals[:, 0] + 1j * normals[:, 1])
        raw = normals[:, 2] + 1j * normals[:, 3]
        raw -= _dot(psi.conj(), raw)[:, None] * psi
        chi = _normalized(raw)
        other = np.sqrt(1.0 - eps)[:, None] * psi + np.sqrt(eps)[:, None] * chi
        s = _pure_marginal_entropy(np.stack([psi, other], axis=1), dim)
        drift = np.abs(s[:, 0] - s[:, 1]) - (2.0 * np.sqrt(eps) * math.log2(dim) + 1.0)
        # left and right marginals share one spectrum: both inequalities, one slack
        return np.column_stack([drift, drift]), 0, eps

    return _run(trials, dim, seed, draw, measure)


def check_mixed_overlap_continuity(
    trials: int = 200, dim: int = 4, eps_max: float = MIXED_EPS_CAP, seed=None
) -> TrialReport:
    """Marginal entropy drift when a mixed state nearly matches a pure one.

    On dim x dim, rho = (1-w) |phi><phi| + w sigma with the effective
    deficit eps = 1 - <phi|rho|phi> below ``eps_max`` (capped at 1/72).
    Checks, with b = 2 sqrt(2 eps):
    |S(rho_X) - S(phi_X)| <= b log2(dim) + 2 on both sides,
    |S(rho_left) - S(rho_right)| <= 2 b log2(dim) + 4, and as a side
    condition that the top eigenvalue of rho is at least 1 - eps.
    """
    _check_sizes(trials, dim, "local dimension")
    if not 0.0 < eps_max <= MIXED_EPS_CAP:
        raise ValueError(
            f"eps_max {eps_max!r} outside the validity window (0, 1/72]"
        )
    total_dim = dim * dim
    log_dim = math.log2(dim)

    def draw(rng):
        phi = rng.standard_normal((2, total_dim))
        sigma = _gram_factor(total_dim, int(rng.integers(1, total_dim + 1)), rng)
        return phi, sigma, eps_max * rng.random()

    def measure(phi, sigma, weight):
        phi = _normalized(phi[:, 0] + 1j * phi[:, 1])
        sigma = _unit_trace(_wishart_grams(sigma))
        w = weight[:, None, None]
        pure = _projectors(phi)
        dense = (1.0 - w) * pure + w * sigma
        eps = 1.0 - _dot(phi.conj(), (dense @ phi[..., None])[..., 0]).real
        eps = np.clip(eps, 0.0, eps_max)
        s_phi = _pure_marginal_entropy(phi, dim)
        s_rho = _marginal_entropies(dense, dim)
        base = 2.0 * np.sqrt(2.0 * eps)
        sides = np.abs(s_rho - s_phi[:, None]) - (base * log_dim + 2.0)[:, None]
        cross = np.abs(s_rho[:, 0] - s_rho[:, 1]) - (2.0 * base * log_dim + 4.0)
        top = np.linalg.eigvalsh(dense)[:, -1]
        misses = int(np.count_nonzero(top < 1.0 - eps - FP_TOL))
        return np.column_stack([sides, cross]), misses, eps

    return _run(trials, dim, seed, draw, measure)


def check_mixing_bounds(trials: int = 200, dim: int = 4, seed=None) -> TrialReport:
    """Concavity sandwich for mixtures of two to four states.

    For weights w and components rho_i the mixture entropy must satisfy
    sum w_i S(rho_i) <= S(sum w_i rho_i) <= sum w_i S(rho_i) + H(w)
    with H the Shannon entropy of the weights.  epsilon_max records the
    largest H(w) drawn.  Trials with fewer parts are padded to
    ``_MAX_PARTS`` with zero weights and zero matrices, which add
    exact zeros to every sum.
    """
    _check_sizes(trials, dim, "dimension")

    def draw(rng):
        count = int(rng.integers(2, _MAX_PARTS + 1))
        weights = np.zeros(_MAX_PARTS)
        weights[:count] = rng.dirichlet(np.ones(count))
        parts = np.zeros((_MAX_PARTS, 2, dim, dim))
        for i in range(count):
            parts[i] = _gram_factor(dim, int(rng.integers(1, dim + 1)), rng)
        return weights, parts, count

    def measure(weights, raw, count):
        drawn = np.arange(_MAX_PARTS) < count[:, None]
        states = _unit_trace(_wishart_grams(raw[drawn]))
        parts = np.zeros(drawn.shape + (dim, dim), dtype=complex)
        parts[drawn] = states
        entropies = np.zeros(drawn.shape)
        entropies[drawn] = entropy_of_spectrum(density_spectrum(states))
        s_mix = von_neumann_entropy(
            (weights[:, :, None, None] * parts).sum(axis=1), validate=False
        )
        s_avg = (weights * entropies).sum(axis=1)
        h_weights = entropy_of_spectrum(weights)
        slacks = np.stack([s_avg - s_mix, s_mix - (s_avg + h_weights)], axis=1)
        return slacks, 0, h_weights

    return _run(trials, dim, seed, draw, measure)

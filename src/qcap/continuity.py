"""Randomized numeric checks of entropy continuity and mixing bounds.

Each check draws seeded random instances, evaluates a closed-form bound
against exact entropies, and reports violation counts plus the worst
observed slack (signed distance past the bound, negative when safe) and
the trial that set it.  Every verdict is a slack: a slack above ``FP_TOL``,
or one that is not finite, is a violation.  All entropies are in bits.

Every check runs in chunks of ``_CHUNK`` trials, each in two phases.  A
Python loop first makes only the raw generator calls of one trial after
another, in a fixed call order, so a seed gives the same instances whatever
the chunking; each call's output is written straight into the trial's row
of zeroed chunk arrays, whose per-trial shapes the check declares.  Every
matrix and unit vector is then built on the chunk: Wishart Grams,
normalization, mixing, validation, marginals, eigensolves and slacks run
once on the whole chunk through the stack-aware kernels of
:mod:`qcap.linalg` and :mod:`qcap.states`; the Gram and normalization
kernels are the ones that ``random_density`` and ``random_pure_state`` run,
and every eigensolve solves the Hermitian part.  lemma2 never forms its
dim^2 x dim^2 states: it takes sigma's deficit and marginals from the
Gaussian factor of sigma, so it solves only dim x dim marginals.  The chunk
bounds the memory a check holds while keeping per-call overhead small.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _adjoint, _eigvalsh, _require_int, density_spectrum, entropy_of_spectrum
from .states import _as_rng, _dot, _normalized, _unit_trace, _wishart_grams

FP_TOL = 1e-9
PURE_EPS_CAP = 1.0 / 36.0
MIXED_EPS_CAP = 1.0 / 72.0
_MAX_PARTS = 4
_CHUNK = 64


@dataclass(frozen=True)
class TrialReport:
    """Summary of one randomized bound check.

    ``worst_trial`` is the index of the first trial whose slack equals
    ``max_slack``, NaN included; with the seed of the run it replays that instance.
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


def _run(trials: int, dim: int, seed, rows, draw, measure) -> TrialReport:
    """Draw and measure ``trials`` instances chunk by chunk.

    ``rows`` holds the shape of each array one trial draws into.  Each chunk's
    arrays come from :func:`_drawn`; ``measure`` takes them, builds its
    matrices, and returns the slacks (one row per trial) and the epsilon
    reached by each trial.  A slack that is not at most ``FP_TOL``, NaN too, is a violation.
    """
    rng = _as_rng(seed)
    violations, max_slack, worst, eps_max = 0, -math.inf, 0, 0.0
    # not linalg._windowed: a fold over a count, not a map over a stream; 64-trial chunks ran faster
    for start in range(0, trials, _CHUNK):
        slacks, eps = measure(*_drawn(rng, min(_CHUNK, trials - start), rows, draw))
        violations += int(np.count_nonzero(~(slacks <= FP_TOL)))
        k = int(np.argmax(slacks))  # NaN ranks above every number: the chunk's first NaN, if any
        if not (slacks.flat[k] <= max_slack or math.isnan(max_slack)):
            max_slack, worst = float(slacks.flat[k]), start + k // slacks.shape[1]
        eps_max = max(eps_max, float(eps.max()))
    return TrialReport(trials, violations, max_slack, eps_max, dim, worst)


def _drawn(rng: np.random.Generator, count: int, rows, draw) -> list[np.ndarray]:
    """``count`` trials drawn one after another into zeroed arrays, one per shape in ``rows``.

    Each array has a leading trial axis; ``draw(rng, *rows)`` makes one
    trial's raw generator calls and writes their output into that trial's
    rows, views such as ``array[i, ...]``, so a 0-d row too is written in
    place.  A call whose ``out`` is a whole contiguous row fills it with the
    values, and leaves the generator in the state, of the same call by shape.
    """
    chunk = [np.zeros((count,) + shape) for shape in rows]
    for i in range(count):
        draw(rng, *[array[i, ...] for array in chunk])
    return chunk


def _gram_factor(row: np.ndarray, rank: int, rng: np.random.Generator) -> None:
    """The draw of ``random_density(dim, rank, rng)``, written into a zeroed (2, dim, dim) row.

    Real and imaginary parts of its dim x rank Gaussian G, from the same one
    generator call, fill the first ``rank`` columns; the zero columns left
    after them leave the ``_wishart_grams`` product G G^dag unchanged up to rounding.
    """
    row[..., :rank] = rng.standard_normal((2, row.shape[-2], rank))


def _flat_dirichlet(draws: np.ndarray) -> np.ndarray:
    """Rows of standard exponential draws scaled as ``rng.dirichlet(np.ones(k))`` scales them.

    numpy draws each Gamma(1) component of a flat Dirichlet as a standard
    exponential and scales the k of them by 1 / acc, with acc summed left to
    right from 0.0.  ``np.sum`` switches to pairwise sums from eight terms on,
    so the columns are added one by one.  Zero padding after a row's k draws
    adds exact zeros.
    """
    acc = np.zeros(draws.shape[:-1])
    for column in np.moveaxis(draws, -1, 0):
        acc += column
    return draws * (1.0 / acc)[..., None]


def _marginal_grams(parts: np.ndarray, dim: int) -> np.ndarray:
    """Stacked (left, right) marginals of G G^dag on dim x dim, in real arithmetic.

    G = parts[..., 0, :, :] + i parts[..., 1, :, :] has dim * dim rows, and row
    (a, b) is a on the left factor and b on the right.  The left marginal is
    T T^dag for T the rows of G regrouped as dim x (dim * columns) with a
    first, the right one likewise with b first.  For R = [Re T; Im T], the
    real part of T T^dag is the sum of the diagonal blocks of R R^T, and its
    imaginary part is the lower off-diagonal block less the upper one.
    """
    lead, cols = parts.shape[:-3], parts.shape[-1]
    blocks = parts.reshape(lead + (2, dim, dim, cols))
    r = np.stack([blocks, blocks.swapaxes(-3, -2)], axis=-5)
    r = r.reshape(lead + (2, 2 * dim, dim * cols))
    rr = r @ r.swapaxes(-1, -2)
    re = rr[..., :dim, :dim] + rr[..., dim:, dim:]
    return re + 1j * (rr[..., dim:, :dim] - rr[..., :dim, dim:])


def _pure_marginal_entropy(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Entropy of either marginal of stacked pure states on dim x dim.

    Both marginals of a pure state have one nonzero spectrum, that of
    Phi Phi^dag for its dim x dim coefficient table Phi.
    """
    table = vectors.reshape(vectors.shape[:-1] + (dim, dim))
    return entropy_of_spectrum(_eigvalsh(table @ _adjoint(table)))


def check_fannes(trials: int = 200, dim: int = 6, seed=None) -> TrialReport:
    """Entropy difference against trace distance for nearby mixed states.

    Pairs are built by mixing a state toward a second one; whenever the
    trace distance t stays below 1/3 both forms must hold:
    |S1 - S2| <= t log2(dim) - t log2(t)  and  |S1 - S2| <= t log2(dim) + 1.
    The mixing weight is halved until t < 1/3.  epsilon_max records the
    largest trace distance tested.
    """
    trials, dim = _require_int(trials, "trials", 1), _require_int(dim, "dimension", 2)
    log_dim = math.log2(dim)

    def draw(rng, rho, sigma, t_mix):
        _gram_factor(rho, int(rng.integers(1, dim + 1)), rng)
        _gram_factor(sigma, int(rng.integers(1, dim + 1)), rng)
        t_mix[...] = 0.22 * rng.random()

    def measure(rho, sigma, t_mix):
        rho, sigma = _unit_trace(_wishart_grams(rho)), _unit_trace(_wishart_grams(sigma))
        spectrum = density_spectrum(rho)
        # rho - ((1 - t) rho + t sigma) = t (rho - sigma): one Hermitian solve, whose sum of
        # |eigenvalues| is the trace norm, halved exactly with t
        dist = t_mix * np.abs(_eigvalsh(rho - sigma)).sum(-1)
        while (far := dist >= 1.0 / 3.0).any():
            t_mix[far] /= 2.0
            dist[far] /= 2.0
        other = (1.0 - t_mix)[:, None, None] * rho + t_mix[:, None, None] * sigma
        diff = np.abs(entropy_of_spectrum(spectrum) - entropy_of_spectrum(_eigvalsh(other)))
        eta = entropy_of_spectrum(dist[:, None])  # -t log2 t, 0 at t = 0
        bounds = np.stack([dist * log_dim + eta, dist * log_dim + 1.0], axis=1)
        return diff[:, None] - bounds, dist

    return _run(trials, dim, seed, ((2, dim, dim), (2, dim, dim), ()), draw, measure)


def check_pure_overlap_continuity(trials: int = 200, dim: int = 4, seed=None) -> TrialReport:
    """Marginal entropy drift between bipartite pure states of known overlap.

    States live on dim x dim.  The second state is rotated away from the
    first inside a random plane so the squared overlap is exactly 1 - eps,
    with eps drawn uniformly below ``PURE_EPS_CAP`` = 1/36.  Each
    marginal entropy difference must stay below 2 sqrt(eps) log2(dim) + 1.
    """
    trials, dim = _require_int(trials, "trials", 1), _require_int(dim, "local dimension", 2)
    total_dim = dim * dim

    def draw(rng, normals, eps):
        # psi's real and imaginary parts, then those of the raw second direction
        rng.standard_normal(out=normals)
        eps[...] = PURE_EPS_CAP * rng.random()

    def measure(normals, eps):
        psi = _normalized(normals[:, 0] + 1j * normals[:, 1])
        raw = normals[:, 2] + 1j * normals[:, 3]
        raw -= _dot(psi.conj(), raw)[:, None] * psi
        chi = _normalized(raw)
        other = np.sqrt(1.0 - eps)[:, None] * psi + np.sqrt(eps)[:, None] * chi
        s = _pure_marginal_entropy(np.stack([psi, other], axis=1), dim)
        drift = np.abs(s[:, 0] - s[:, 1]) - (2.0 * np.sqrt(eps) * math.log2(dim) + 1.0)
        # left and right marginals share one spectrum: both inequalities, one slack
        return np.column_stack([drift, drift]), eps

    return _run(trials, dim, seed, ((4, total_dim), ()), draw, measure)


def check_mixed_overlap_continuity(trials: int = 200, dim: int = 4, seed=None) -> TrialReport:
    """Marginal entropy drift when a mixed state nearly matches a pure one.

    On dim x dim, rho = (1-w) |phi><phi| + w sigma with w below ``MIXED_EPS_CAP`` = 1/72.
    The deficit eps = 1 - <phi|rho|phi> is formed as w (1 - <phi|sigma|phi>), which does
    not cancel against 1 and lies in [0, w].  Checks, with b = 2 sqrt(2 eps):
    |S(rho_X) - S(phi_X)| <= b log2(dim) + 2 on both sides and
    |S(rho_left) - S(rho_right)| <= 2 b log2(dim) + 4.  The lemma's side condition
    lambda_max(rho) >= 1 - eps holds by the Rayleigh quotient, so it is not solved.
    """
    trials, dim = _require_int(trials, "trials", 1), _require_int(dim, "local dimension", 2)
    total_dim = dim * dim
    log_dim = math.log2(dim)

    def draw(rng, phi, factor, weight):
        rng.standard_normal(out=phi)
        _gram_factor(factor, int(rng.integers(1, total_dim + 1)), rng)
        weight[...] = MIXED_EPS_CAP * rng.random()

    def measure(phi, factor, weight):
        phi = _normalized(phi[:, 0] + 1j * phi[:, 1])
        x, y = phi.real, phi.imag
        # sigma = G G^dag / ||G||_F^2 for the padded factor G = A + iB, and ||G^dag phi||^2
        # is the squared norm of [A; B]^T [x; y] plus that of [A; B]^T [y; -x]
        norm2 = np.square(factor).sum(axis=(1, 2, 3))
        turns = np.stack([np.concatenate([x, y], -1), np.concatenate([y, -x], -1)], axis=1)
        overlap = np.square(turns @ factor.reshape(-1, 2 * total_dim, total_dim)).sum(axis=(1, 2))
        eps = weight * (1.0 - overlap / norm2)
        pure = _marginal_grams(np.stack([x, y], axis=1)[..., None], dim)
        w = weight[:, None, None, None]
        rho = (1.0 - w) * pure + w * (_marginal_grams(factor, dim) / norm2[:, None, None, None])
        # S(phi_left), S(rho_left), S(rho_right): one solve of a (trials, 3, dim, dim) stack
        s = entropy_of_spectrum(_eigvalsh(np.concatenate([pure[:, :1], rho], axis=1)))
        s_phi, s_rho = s[:, 0], s[:, 1:]
        base = 2.0 * np.sqrt(2.0 * eps)
        sides = np.abs(s_rho - s_phi[:, None]) - (base * log_dim + 2.0)[:, None]
        cross = np.abs(s_rho[:, 0] - s_rho[:, 1]) - (2.0 * base * log_dim + 4.0)
        return np.column_stack([sides, cross]), eps

    return _run(trials, dim, seed, ((2, total_dim), (2, total_dim, total_dim), ()), draw, measure)


def check_mixing_bounds(trials: int = 200, dim: int = 4, seed=None) -> TrialReport:
    """Concavity sandwich for mixtures of two to four states.

    For weights w and components rho_i the mixture entropy must satisfy
    sum w_i S(rho_i) <= S(sum w_i rho_i) <= sum w_i S(rho_i) + H(w)
    with H the Shannon entropy of the weights.  epsilon_max records the
    largest H(w) drawn.  Trials with fewer parts are padded to
    ``_MAX_PARTS`` with zero weights and zero matrices, which add
    exact zeros to every sum.
    """
    trials, dim = _require_int(trials, "trials", 1), _require_int(dim, "dimension", 2)

    def draw(rng, weights, parts, count):
        k = int(rng.integers(2, _MAX_PARTS + 1))
        count[...] = k
        rng.standard_exponential(out=weights[:k])  # normalized as rng.dirichlet's in measure
        for part in parts[:k]:
            _gram_factor(part, int(rng.integers(1, dim + 1)), rng)

    def measure(weights, raw, count):
        weights = _flat_dirichlet(weights)
        drawn = np.arange(_MAX_PARTS) < count[:, None]
        states = _unit_trace(_wishart_grams(raw[drawn]))
        parts = np.zeros(drawn.shape + (dim, dim), dtype=complex)
        parts[drawn] = states
        entropies = np.zeros(drawn.shape)
        entropies[drawn] = entropy_of_spectrum(density_spectrum(states))
        s_mix = entropy_of_spectrum(_eigvalsh((weights[:, :, None, None] * parts).sum(axis=1)))
        s_avg = (weights * entropies).sum(axis=1)
        h_weights = entropy_of_spectrum(weights)
        slacks = np.stack([s_avg - s_mix, s_mix - (s_avg + h_weights)], axis=1)
        return slacks, h_weights

    return _run(trials, dim, seed, ((_MAX_PARTS,), (_MAX_PARTS, 2, dim, dim), ()), draw, measure)

"""Randomized numeric checks of entropy continuity and mixing bounds.

Each check draws seeded random instances, evaluates a closed-form bound
against exact entropies, and reports violation counts plus the worst
observed slack (signed distance past the bound, negative when safe).
All entropies are in bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace, trace_norm, von_neumann_entropy
from .states import _as_rng, random_density, random_pure_state

FP_TOL = 1e-9
PURE_EPS_CAP = 1.0 / 36.0
MIXED_EPS_CAP = 1.0 / 72.0


@dataclass(frozen=True)
class TrialReport:
    """Summary of one randomized bound check."""

    trials: int
    violations: int
    max_slack: float
    epsilon_max: float
    dim: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _marginal_entropies(vec: np.ndarray, dims: tuple[int, int]) -> tuple[float, float]:
    dense = np.outer(vec, vec.conj())
    left = partial_trace(dense, dims, [0])
    right = partial_trace(dense, dims, [1])
    return (
        von_neumann_entropy(left, validate=False),
        von_neumann_entropy(right, validate=False),
    )


def check_fannes(trials: int = 200, dim: int = 6, seed=None) -> TrialReport:
    """Entropy difference against trace distance for nearby mixed states.

    Pairs are built by mixing a state toward a second one; whenever the
    trace distance t stays below 1/3 both forms must hold:
    |S1 - S2| <= t log2(dim) - t log2(t)  and  |S1 - S2| <= t log2(dim) + 1.
    epsilon_max records the largest trace distance tested.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if dim < 2:
        raise ValueError(f"need dimension >= 2, got {dim}")
    rng = _as_rng(seed)
    violations = 0
    max_slack = -math.inf
    eps_max = 0.0
    for _ in range(trials):
        rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng)
        sigma = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng)
        t_mix = float(rng.uniform(0.0, 0.22))
        other = (1.0 - t_mix) * rho.matrix + t_mix * sigma.matrix
        dist = trace_norm(rho.matrix - other)
        while dist >= 1.0 / 3.0:
            t_mix /= 2.0
            other = (1.0 - t_mix) * rho.matrix + t_mix * sigma.matrix
            dist = trace_norm(rho.matrix - other)
        eps_max = max(eps_max, dist)
        diff = abs(rho.entropy() - von_neumann_entropy(other, validate=False))
        eta = -dist * math.log2(dist) if dist > 0.0 else 0.0
        for bound in (dist * math.log2(dim) + eta, dist * math.log2(dim) + 1.0):
            slack = diff - bound
            max_slack = max(max_slack, slack)
            if slack > FP_TOL:
                violations += 1
    return TrialReport(trials, violations, max_slack, eps_max, dim)


def check_pure_overlap_continuity(
    trials: int = 200, dim: int = 4, eps_max: float = PURE_EPS_CAP, seed=None
) -> TrialReport:
    """Marginal entropy drift between bipartite pure states of known overlap.

    States live on dim x dim.  The second state is rotated away from the
    first inside a random plane so the squared overlap is exactly 1 - eps,
    with eps drawn uniformly below ``eps_max`` (capped at 1/36).  Each
    marginal entropy difference must stay below 2 sqrt(eps) log2(dim) + 1.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if dim < 2:
        raise ValueError(f"need local dimension >= 2, got {dim}")
    if not 0.0 < eps_max <= PURE_EPS_CAP:
        raise ValueError(
            f"eps_max {eps_max!r} outside the validity window (0, 1/36]"
        )
    rng = _as_rng(seed)
    total_dim = dim * dim
    violations = 0
    max_slack = -math.inf
    eps_seen = 0.0
    for _ in range(trials):
        psi = random_pure_state(total_dim, seed=rng).vector
        raw = rng.standard_normal(total_dim) + 1j * rng.standard_normal(total_dim)
        raw -= np.vdot(psi, raw) * psi
        chi = raw / np.linalg.norm(raw)
        eps = float(rng.uniform(0.0, eps_max))
        eps_seen = max(eps_seen, eps)
        other = math.sqrt(1.0 - eps) * psi + math.sqrt(eps) * chi
        s_first = _marginal_entropies(psi, (dim, dim))
        s_second = _marginal_entropies(other, (dim, dim))
        bound = 2.0 * math.sqrt(eps) * math.log2(dim) + 1.0
        for side in (0, 1):
            slack = abs(s_first[side] - s_second[side]) - bound
            max_slack = max(max_slack, slack)
            if slack > FP_TOL:
                violations += 1
    return TrialReport(trials, violations, max_slack, eps_seen, dim)


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
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if dim < 2:
        raise ValueError(f"need local dimension >= 2, got {dim}")
    if not 0.0 < eps_max <= MIXED_EPS_CAP:
        raise ValueError(
            f"eps_max {eps_max!r} outside the validity window (0, 1/72]"
        )
    rng = _as_rng(seed)
    total_dim = dim * dim
    violations = 0
    max_slack = -math.inf
    eps_seen = 0.0
    for _ in range(trials):
        phi = random_pure_state(total_dim, seed=rng).vector
        sigma = random_density(
            total_dim, rank=int(rng.integers(1, total_dim + 1)), seed=rng
        )
        weight = float(rng.uniform(0.0, eps_max))
        dense = (1.0 - weight) * np.outer(phi, phi.conj()) + weight * sigma.matrix
        eps = 1.0 - float(np.vdot(phi, dense @ phi).real)
        eps = min(max(eps, 0.0), eps_max)
        eps_seen = max(eps_seen, eps)
        s_phi = _marginal_entropies(phi, (dim, dim))
        rho_left = partial_trace(dense, (dim, dim), [0])
        rho_right = partial_trace(dense, (dim, dim), [1])
        s_rho = (
            von_neumann_entropy(rho_left, validate=False),
            von_neumann_entropy(rho_right, validate=False),
        )
        base = 2.0 * math.sqrt(2.0 * eps)
        for side in (0, 1):
            slack = abs(s_rho[side] - s_phi[side]) - (base * math.log2(dim) + 2.0)
            max_slack = max(max_slack, slack)
            if slack > FP_TOL:
                violations += 1
        cross = abs(s_rho[0] - s_rho[1]) - (2.0 * base * math.log2(dim) + 4.0)
        max_slack = max(max_slack, cross)
        if cross > FP_TOL:
            violations += 1
        top = float(np.linalg.eigvalsh(dense)[-1])
        if top < 1.0 - eps - FP_TOL:
            violations += 1
    return TrialReport(trials, violations, max_slack, eps_seen, dim)


def check_mixing_bounds(trials: int = 200, dim: int = 4, seed=None) -> TrialReport:
    """Concavity sandwich for mixtures of up to four states.

    For weights w and components rho_i the mixture entropy must satisfy
    sum w_i S(rho_i) <= S(sum w_i rho_i) <= sum w_i S(rho_i) + H(w)
    with H the Shannon entropy of the weights.  epsilon_max records the
    largest H(w) drawn.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if dim < 2:
        raise ValueError(f"need dimension >= 2, got {dim}")
    rng = _as_rng(seed)
    violations = 0
    max_slack = -math.inf
    eps_max = 0.0
    for _ in range(trials):
        count = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(count))
        parts = [
            random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng)
            for _ in range(count)
        ]
        mixture = sum(w * part.matrix for w, part in zip(weights, parts))
        s_mix = von_neumann_entropy(mixture, validate=False)
        s_avg = sum(w * part.entropy() for w, part in zip(weights, parts))
        h_weights = float(-np.sum(weights * np.log2(weights)))
        eps_max = max(eps_max, h_weights)
        for slack in (s_avg - s_mix, s_mix - (s_avg + h_weights)):
            max_slack = max(max_slack, slack)
            if slack > FP_TOL:
                violations += 1
    return TrialReport(trials, violations, max_slack, eps_max, dim)

"""Retained-set analysis of the qubit erasure channel.

For n parallel erasure uses the receiver sees each subset of the input
qubits with a binomial weight, so output entropy and coherent information
reduce to sums over the 2^n marginal entropies of the input state.  Masks
encode retained sets: bit j set means qubit j reached the receiver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import KrausChannel, tensor_power, _apply_matrix, _environment_matrix
from .linalg import entropy_of_spectrum, partial_trace, von_neumann_entropy
from .states import DensityMatrix, maximally_mixed

PAIR_TOL = 1e-9


@dataclass(frozen=True)
class ErasureDecomposition:
    """Marginal entropy table of an n-qubit state, indexed by retained mask."""

    block_size: int
    p: float
    subset_entropies: tuple[float, ...]

    def entropy(self, mask: int) -> float:
        return self.subset_entropies[mask]


@dataclass(frozen=True)
class CapacityPoint:
    p: float
    block_size: int
    ic_per_use: float
    capacity_bound: float


@dataclass(frozen=True)
class IplusBoundReport:
    """Outcome of the retained-set subadditivity check on the I+ part."""

    iplus: float
    aggregate_bound: float
    aggregate_ok: bool
    pairs_checked: int
    pair_violations: int
    max_pair_slack: float
    witness: tuple[int, int] | None


def _require_qubits(rho: DensityMatrix, block_size: int) -> int:
    if block_size < 1:
        raise ValueError(f"block size must be at least 1, got {block_size}")
    if rho.dim != 2**block_size:
        raise ValueError(
            f"state dimension {rho.dim} does not match {block_size} qubits "
            f"(expected {2 ** block_size})"
        )
    return block_size


def erasure_decomposition(rho: DensityMatrix, p: float, block_size: int) -> ErasureDecomposition:
    """Compute every retained-subset marginal entropy once, for reuse."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p!r} outside [0, 1]")
    n = _require_qubits(rho, block_size)
    dims = (2,) * n
    table = []
    for mask in range(1 << n):
        keep = [j for j in range(n) if mask >> j & 1]
        sub = partial_trace(rho.matrix, dims, keep)
        table.append(von_neumann_entropy(sub, validate=False))
    return ErasureDecomposition(n, float(p), tuple(table))


def _weight(decomp: ErasureDecomposition, mask: int) -> float:
    kept = mask.bit_count()
    return decomp.p ** (decomp.block_size - kept) * (1.0 - decomp.p) ** kept


def erasure_coherent_info_block(rho: DensityMatrix, p: float, block_size: int) -> float:
    """Coherent information of block_size erasure uses via the subset sum.

    Equals sum over retained masks i of
    p^(n-|i|) (1-p)^|i| (S(rho_i) - S(rho_complement(i))) in bits.
    """
    decomp = erasure_decomposition(rho, p, block_size)
    return coherent_info_from_decomposition(decomp)


def coherent_info_from_decomposition(decomp: ErasureDecomposition) -> float:
    full = (1 << decomp.block_size) - 1
    total = 0.0
    for mask in range(full + 1):
        total += _weight(decomp, mask) * (
            decomp.entropy(mask) - decomp.entropy(full ^ mask)
        )
    return total


def erasure_output_entropy_block(rho: DensityMatrix, p: float, block_size: int) -> float:
    """Receiver entropy: weighted marginal entropies plus the flag entropy."""
    return output_entropy_from_decomposition(erasure_decomposition(rho, p, block_size))


def output_entropy_from_decomposition(decomp: ErasureDecomposition) -> float:
    total = 0.0
    mix = 0.0
    for mask in range(1 << decomp.block_size):
        w = _weight(decomp, mask)
        total += w * decomp.entropy(mask)
        if w > 0.0:
            mix -= w * math.log2(w)
    return total + mix


def iplus_iminus_split(decomp: ErasureDecomposition) -> tuple[float, float]:
    """Split the coherent information by erased count k <= n//2 versus above."""
    n = decomp.block_size
    full = (1 << n) - 1
    plus = 0.0
    minus = 0.0
    for mask in range(full + 1):
        erased = n - mask.bit_count()
        term = _weight(decomp, mask) * (
            decomp.entropy(mask) - decomp.entropy(full ^ mask)
        )
        if erased <= n // 2:
            plus += term
        else:
            minus += term
    return plus, minus


def _submasks_of_size(mask: int, size: int):
    sub = mask
    while True:
        if sub.bit_count() == size:
            yield sub
        if sub == 0:
            break
        sub = (sub - 1) & mask


def verify_iplus_bound(decomp: ErasureDecomposition) -> IplusBoundReport:
    """Check the subadditivity cap on the low-erasure half of the sum.

    For every retained set i with k = n - |i| <= n//2 and every k-subset
    jbar of i, marginal subadditivity forces S(rho_i) - S(rho_jbar) <= n - 2k.
    Aggregating over the binomial weights bounds I+ by
    sum_k C(n,k) p^k (1-p)^(n-k) (n - 2k).
    """
    n = decomp.block_size
    full = (1 << n) - 1
    pairs = 0
    violations = 0
    max_slack = -math.inf
    witness = None
    for mask in range(full + 1):
        k = n - mask.bit_count()
        if k > n // 2:
            continue
        cap = float(n - 2 * k)
        for inner in _submasks_of_size(mask, k):
            slack = decomp.entropy(mask) - decomp.entropy(inner) - cap
            pairs += 1
            if slack > max_slack:
                max_slack = slack
                witness = (mask, inner)
            if slack > PAIR_TOL:
                violations += 1
    plus, _ = iplus_iminus_split(decomp)
    aggregate = sum(
        math.comb(n, k)
        * decomp.p**k
        * (1.0 - decomp.p) ** (n - k)
        * (n - 2 * k)
        for k in range(n // 2 + 1)
    )
    aggregate_ok = plus <= aggregate + PAIR_TOL
    return IplusBoundReport(
        iplus=plus,
        aggregate_bound=float(aggregate),
        aggregate_ok=aggregate_ok,
        pairs_checked=pairs,
        pair_violations=violations,
        max_pair_slack=float(max_slack),
        witness=witness,
    )


def binomial_mean(n: int, p: float) -> float:
    """Mean of Binomial(n, p); tests compare against the explicit sum."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    return n * p


def half_sum_fraction(n: int, p: float) -> float:
    """(1/n) sum_{k<=n//2} C(n,k) p^k (1-p)^(n-k) k, which tends to p for p < 1/2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    total = 0.0
    for k in range(n // 2 + 1):
        total += math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * k
    return total / n


def capacity_curve(p_values, block_size: int) -> list[CapacityPoint]:
    """Coherent information per use of the flat input along a grid of p.

    The flat n-qubit input gives exactly n(1-2p) for n erasure uses, so
    ic_per_use traces 1-2p and capacity_bound records max(1-2p, 0).
    """
    flat = maximally_mixed(2**block_size)
    points = []
    for p in p_values:
        p = float(p)
        ic = erasure_coherent_info_block(flat, p, block_size) / block_size
        points.append(
            CapacityPoint(p, block_size, ic, max(1.0 - 2.0 * p, 0.0))
        )
    return points


def _coherent_info_raw(block: KrausChannel, matrix: np.ndarray) -> float:
    out = _apply_matrix(block, matrix)
    env = _environment_matrix(block, matrix)
    s_out = entropy_of_spectrum(np.clip(np.linalg.eigvalsh(out), 0.0, None))
    s_env = entropy_of_spectrum(np.clip(np.linalg.eigvalsh(env), 0.0, None))
    return s_out - s_env


def maximize_coherent_info(
    channel: KrausChannel,
    block_size: int,
    restarts: int,
    seed,
    include_flat_start: bool = True,
) -> tuple[DensityMatrix, float]:
    """Search input states for the best coherent information per use.

    States are parameterized as rho = M M^dag / Tr(M M^dag) with M a free
    complex matrix, and each restart runs a derivative-free simplex descent
    (200 iterations, function tolerance 1e-8).  The first restart starts
    from the flat state unless ``include_flat_start`` is off; the rest start
    from seeded Gaussian draws.  Returns the best state and its value.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    block = tensor_power(channel, block_size)
    d = block.in_dim
    size = d * d

    def objective(x: np.ndarray) -> float:
        m = (x[:size] + 1j * x[size:]).reshape(d, d)
        gram = m @ m.conj().T
        tr = float(np.trace(gram).real)
        if tr < 1e-12:
            return math.inf
        return -_coherent_info_raw(block, gram / tr) / block_size

    rng = np.random.default_rng(seed)
    starts = []
    if include_flat_start:
        starts.append(np.concatenate([np.eye(d).reshape(-1), np.zeros(size)]))
    while len(starts) < restarts:
        starts.append(rng.standard_normal(2 * size))
    best_x = None
    best_val = math.inf
    for x0 in starts:
        result = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": 200, "fatol": 1e-8, "xatol": 1e-6, "adaptive": True},
        )
        if result.fun < best_val:
            best_val = float(result.fun)
            best_x = result.x
    m = (best_x[:size] + 1j * best_x[size:]).reshape(d, d)
    gram = m @ m.conj().T
    rho = DensityMatrix(gram / float(np.trace(gram).real))
    return rho, -best_val

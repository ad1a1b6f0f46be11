"""Retained-set analysis of the qubit erasure channel.

For n parallel erasure uses the receiver sees each subset of the input
qubits with a binomial weight, so output entropy and coherent information
reduce to sums over the 2^n marginal entropies of the input state.  Masks
encode retained sets: bit j set means qubit j reached the receiver.  The
entropy table is p-free: it is traced top-down once per state (once per
``capacity_curve``), and each p weights it with one binomial vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _conjugate, tensor_power
from .linalg import entropy_of_spectrum, partial_trace, von_neumann_entropy
from .states import DensityMatrix, maximally_mixed

PAIR_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ErasureDecomposition:
    """One erasure probability p and the (shared, read-only) table of :func:`subset_entropies`."""

    block_size: int
    p: float
    subset_entropies: np.ndarray

    def entropy(self, mask: int) -> float:
        return float(self.subset_entropies[mask])


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


def _require_probability(p: float, what: str = "erasure probability") -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} {p!r} outside [0, 1]")
    return float(p)


def subset_entropies(rho: DensityMatrix, block_size: int) -> np.ndarray:
    """Read-only table of every retained-set marginal entropy in bits, indexed by mask.

    The full mask takes the state's stored spectrum.  Every other marginal is
    traced from a parent holding one more qubit, depth first, so only one
    marginal per size is alive at a time: a child drops a qubit below the one
    its parent dropped, which reaches each mask once.
    """
    n = _require_qubits(rho, block_size)
    table = np.empty(1 << n)
    table[-1] = rho.entropy()

    def descend(matrix: np.ndarray, qubits: list[int], mask: int, below: int) -> None:
        dims = (2,) * len(qubits)
        for pos, j in enumerate(qubits[:below]):
            sub = partial_trace(matrix, dims, [k for k in range(len(qubits)) if k != pos])
            child = mask & ~(1 << j)
            table[child] = von_neumann_entropy(sub, validate=False)
            descend(sub, qubits[:pos] + qubits[pos + 1:], child, pos)

    descend(rho.matrix, list(range(n)), (1 << n) - 1, n)
    table.flags.writeable = False
    return table


def erasure_decomposition(rho: DensityMatrix, p: float, block_size: int) -> ErasureDecomposition:
    """Pair the state's retained-set entropy table with the erasure probability p."""
    p = _require_probability(p)
    return ErasureDecomposition(block_size, p, subset_entropies(rho, block_size))


def _kept(n: int) -> np.ndarray:
    return np.array([mask.bit_count() for mask in range(1 << n)])


def _weights(n: int, p: float) -> np.ndarray:
    """Binomial weight p^(n-|i|) (1-p)^|i| of each retained mask i."""
    kept = _kept(n)
    return p ** (n - kept) * (1.0 - p) ** kept


def erasure_coherent_info_block(rho: DensityMatrix, p: float, block_size: int) -> float:
    """Coherent information of block_size erasure uses via the subset sum.

    Equals sum over retained masks i of
    p^(n-|i|) (1-p)^|i| (S(rho_i) - S(rho_complement(i))) in bits.
    """
    return coherent_info_from_decomposition(erasure_decomposition(rho, p, block_size))


def coherent_info_from_decomposition(decomp: ErasureDecomposition) -> float:
    s = decomp.subset_entropies  # the complement of mask i is index 2^n-1-i
    return float(_weights(decomp.block_size, decomp.p) @ (s - s[::-1]))


def erasure_output_entropy_block(rho: DensityMatrix, p: float, block_size: int) -> float:
    """Receiver entropy: weighted marginal entropies plus the flag entropy."""
    return output_entropy_from_decomposition(erasure_decomposition(rho, p, block_size))


def output_entropy_from_decomposition(decomp: ErasureDecomposition) -> float:
    w = _weights(decomp.block_size, decomp.p)
    return float(w @ decomp.subset_entropies + entropy_of_spectrum(w))


def iplus_iminus_split(decomp: ErasureDecomposition) -> tuple[float, float]:
    """Split the coherent information by erased count k <= n//2 versus above."""
    n, s = decomp.block_size, decomp.subset_entropies
    terms = _weights(n, decomp.p) * (s - s[::-1])
    low = n - _kept(n) <= n // 2
    return float(terms[low].sum()), float(terms[~low].sum())


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
    n, p = decomp.block_size, decomp.p
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
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * (n - 2 * k) for k in range(n // 2 + 1)
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
    _require_probability(p, "probability")
    return n * p


def half_sum_fraction(n: int, p: float) -> float:
    """(1/n) sum_{k<=n//2} C(n,k) p^k (1-p)^(n-k) k, which tends to p for p < 1/2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _require_probability(p, "probability")
    total = 0.0
    for k in range(n // 2 + 1):
        total += math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * k
    return total / n


def capacity_curve(p_values, block_size: int) -> list[CapacityPoint]:
    """Coherent information per use of the flat input along a grid of p.

    The flat n-qubit input gives exactly n(1-2p) for n erasure uses, so
    ic_per_use traces 1-2p and capacity_bound records max(1-2p, 0).
    """
    grid = [_require_probability(float(p)) for p in p_values]
    table = subset_entropies(maximally_mixed(2**block_size), block_size)
    points = []
    for p in grid:
        ic = coherent_info_from_decomposition(ErasureDecomposition(block_size, p, table))
        points.append(CapacityPoint(p, block_size, ic / block_size, max(1.0 - 2.0 * p, 0.0)))
    return points


# -Ic is 1-smooth relative to -S in nats (data processing), so H steps by 1/L = 1 nat.
ASCENT_STEP = math.log(2.0)
ASCENT_TOL = 1e-9
ASCENT_CAP = 500


def _neg_log2(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Entropy in bits of a PSD matrix and -log2 of it, taken as 0 on its kernel."""
    values, vectors = np.linalg.eigh(matrix)
    logs = -np.log2(np.where(values > 0.0, values, 1.0))
    return entropy_of_spectrum(values), (vectors * logs) @ vectors.conj().T


def _coherent_info_gradient(block: KrausChannel, matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Ic in bits of ``matrix`` through ``block`` and its gradient G, with Ic = Tr(G rho).

    G = N^dag(-log2 N(rho)) - N_c^dag(-log2 N_c(rho)): the complementary channel
    N_c has the Kraus stack with its first two axes swapped, and each adjoint map
    the conjugate transpose of its operators.
    """
    out, env = block.kraus, block.kraus.transpose(1, 0, 2)
    s_out, out_log = _neg_log2(_conjugate(out, matrix))
    s_env, env_log = _neg_log2(_conjugate(env, matrix))
    grad = _conjugate(out.conj().swapaxes(1, 2), out_log)
    grad -= _conjugate(env.conj().swapaxes(1, 2), env_log)
    return s_out - s_env, 0.5 * (grad + grad.conj().T)


def maximize_coherent_info(
    channel: KrausChannel,
    block_size: int,
    restarts: int,
    seed,
    include_flat_start: bool = True,
) -> tuple[DensityMatrix, float]:
    """Search input states for the best coherent information per use.

    Each restart is a mirror gradient ascent, rho = exp(H)/Tr exp(H) and H <- H + G,
    from H = 0 (unless ``include_flat_start`` is off) or a seeded Gaussian Hermitian H.
    It stops at a Frank-Wolfe gap lambda_max(G) - Tr(G rho) below 1e-9 bits, which
    certifies a maximum only where Ic is concave (erasure with p <= 1/2), or at 500
    steps.  The pure input |0...0> competes too, at Ic = 0 like every pure input.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    block = tensor_power(channel, block_size)
    d = block.in_dim
    rng = np.random.default_rng(seed)
    starts = [np.zeros((d, d), dtype=complex)] if include_flat_start else []
    while len(starts) < restarts:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        starts.append(0.5 * (g + g.conj().T))
    found = [(0.0, np.diag(np.eye(d)[0]))]  # the pure input |0...0>
    for h in starts:
        for _ in range(ASCENT_CAP):
            values, vectors = np.linalg.eigh(h)
            weights = np.exp(values - values[-1])
            rho = (vectors * (weights / weights.sum())) @ vectors.conj().T
            value, grad = _coherent_info_gradient(block, rho)
            if np.linalg.eigvalsh(grad)[-1] - value < ASCENT_TOL:
                break
            h = h + ASCENT_STEP * grad
        found.append((value, rho))
    best_val, best_rho = max(found, key=lambda item: item[0])
    return DensityMatrix(best_rho), best_val / block_size

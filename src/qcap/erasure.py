"""Retained-set analysis of the qubit erasure channel.

For n parallel erasure uses the receiver sees each subset of the input qubits with a
binomial weight, so output entropy and coherent information reduce to sums over the 2^n
marginals of the input state (mask bit j set: qubit j reached the receiver).  One depth-first
walk traces them: the p-free entropy table keeps their entropies, which one binomial vector
per p weights, and the erasure-only input search lifts their -log2 into the gradient of Ic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, erasure_channel
from .linalg import entropy_of_spectrum, partial_trace, von_neumann_entropy
from .states import DensityMatrix, maximally_mixed

PAIR_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ErasureDecomposition:
    """One erasure probability p and the (shared, read-only) table of :func:`subset_entropies`.

    The table has one entry per retained mask, so ``block_size`` is read from
    its length 2^n.  A p outside [0, 1], a table that is not 1-D of length 2^n
    with n >= 1, and a non-finite or negative entropy are refused.
    """

    p: float
    subset_entropies: np.ndarray

    def __post_init__(self):
        _require_probability(self.p)
        table = np.asarray(self.subset_entropies)
        if table.ndim != 1:
            raise ValueError(f"retained-set table has shape {table.shape}, expected one dimension")
        size = len(table)
        if size < 2 or size & (size - 1):
            raise ValueError(f"retained-set table has {size} entries, expected 2^n with n >= 1")
        bad = np.flatnonzero(~(np.isfinite(table) & (table >= 0.0)))
        if bad.size:
            raise ValueError(
                f"retained-set mask {bad[0]} holds {float(table[bad[0]])}, not a finite entropy >= 0"
            )

    @property
    def block_size(self) -> int:
        return len(self.subset_entropies).bit_length() - 1

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
    """Outcome of the retained-set subadditivity check on the I+ part.

    ``aggregate_ok`` is read from ``iplus`` and ``aggregate_bound``.
    """

    iplus: float
    aggregate_bound: float
    pairs_checked: int
    pair_violations: int
    max_pair_slack: float
    witness: tuple[int, int] | None

    @property
    def aggregate_ok(self) -> bool:
        return self.iplus <= self.aggregate_bound + PAIR_TOL


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


def _marginals(matrix: np.ndarray, qubits: list[int], below: int | None = None):
    """Yield (mask, marginal) for each proper subset of ``qubits``, the factors of ``matrix``.

    Depth first, each traced from a parent with one more qubit: a child drops a qubit below
    the one its parent dropped, so each mask comes once and one marginal per size is alive.
    """
    dims = (2,) * len(qubits)
    for pos in range(len(qubits) if below is None else below):
        sub = partial_trace(matrix, dims, [k for k in range(len(qubits)) if k != pos])
        rest = qubits[:pos] + qubits[pos + 1:]
        yield sum(1 << j for j in rest), sub
        yield from _marginals(sub, rest, pos)


def subset_entropies(rho: DensityMatrix, block_size: int) -> np.ndarray:
    """Read-only table of every retained-set marginal entropy in bits, indexed by mask."""
    n = _require_qubits(rho, block_size)
    table = np.empty(1 << n)
    table[-1] = rho.entropy()  # the full mask: the state's stored spectrum
    for mask, sub in _marginals(rho.matrix, list(range(n))):
        table[mask] = von_neumann_entropy(sub, validate=False)
    table.flags.writeable = False
    return table


def erasure_decomposition(rho: DensityMatrix, p: float, block_size: int) -> ErasureDecomposition:
    """Pair the state's retained-set entropy table with the erasure probability p."""
    p = _require_probability(p)
    return ErasureDecomposition(p, subset_entropies(rho, block_size))


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


def output_entropy_from_decomposition(decomp: ErasureDecomposition) -> float:
    """Receiver entropy: weighted marginal entropies plus the flag entropy."""
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
    return IplusBoundReport(
        iplus=plus,
        aggregate_bound=float(aggregate),
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
    """(1/n) sum_{k<=n//2} C(n,k) p^k (1-p)^(n-k) k, which tends to p for p < 1/2.

    Each term is formed in log space, so large n does not overflow.  For
    p < 1/2 the value is p minus the upper tail over k > n//2 (the full sum
    is n p), whose terms fall from the first one on; the tail stops once they
    underflow, so the value stays at rounding level from p for any n.  For
    p >= 1/2 the terms rise up to k = n//2, so the sum runs from there down
    and stops the same way.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _require_probability(p, "probability")
    if p in (0.0, 1.0):
        return 0.0  # only k = 0 or k = n > n//2 has weight
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)

    def term(k: int) -> float:
        log_comb = log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        return math.exp(log_comb + k * log_p + (n - k) * log_q) * k

    # the terms fall away from k = n//2, so the sum runs outward from there until they underflow
    upper = p < 0.5
    total = 0.0
    for k in range(n // 2 + 1, n + 1) if upper else range(n // 2, 0, -1):
        t = term(k)
        if t == 0.0:
            break
        total += t
    return p - total / n if upper else total / n


def capacity_curve(p_values, block_size: int) -> list[CapacityPoint]:
    """Coherent information per use of the flat input along a grid of p.

    The flat n-qubit input gives exactly n(1-2p) for n erasure uses, so
    ic_per_use traces 1-2p and capacity_bound records max(1-2p, 0).
    """
    grid = [_require_probability(float(p)) for p in p_values]
    table = subset_entropies(maximally_mixed(2**block_size), block_size)
    points = []
    for p in grid:
        ic = coherent_info_from_decomposition(ErasureDecomposition(p, table))
        points.append(CapacityPoint(p, block_size, ic / block_size, max(1.0 - 2.0 * p, 0.0)))
    return points


SEARCH_BLOCK_LIMIT = 6
ASCENT_TOL = 1e-9
ASCENT_CAP = 500


def _neg_log2(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Entropy in bits of a PSD matrix and -log2 of it, taken as 0 on its kernel."""
    values, vectors = np.linalg.eigh(matrix)
    logs = -np.log2(np.where(values > 0.0, values, 1.0))
    return entropy_of_spectrum(values), (vectors * logs) @ vectors.conj().T


def _lift(matrix: np.ndarray, mask: int, n: int) -> np.ndarray:
    """Adjoint of partial_trace: ``matrix`` on the qubits of ``mask``, the identity on the rest."""
    kept = [j for j in range(n) if mask >> j & 1]
    # matrix (x) I holds the kept qubits first; axes moves every qubit back to its place
    axes = np.argsort(kept + [j for j in range(n) if not mask >> j & 1])
    lifted = np.kron(matrix, np.eye(1 << n - len(kept))).reshape((2,) * 2 * n)
    return lifted.transpose(*axes, *(axes + n)).reshape(1 << n, -1)


def _coherent_info_gradient(matrix: np.ndarray, p: float, n: int) -> tuple[float, np.ndarray]:
    """Ic in bits of ``matrix`` through n erasure uses and its gradient G, with Ic = Tr(G rho).

    Over masks A, Ic = sum c(A) S(rho_A) and G = sum c(A) (-log2 rho_A) (x) I_Abar with
    c(A) = w(A) - w(Abar); each entropy's -1/ln 2 derivative term cancels, as sum c(A) = 0.
    """
    w = _weights(n, p)
    signed = w - w[::-1]
    value, grad = _neg_log2(matrix)
    value, grad = signed[-1] * value, signed[-1] * grad
    for mask, sub in _marginals(matrix, list(range(n))):
        entropy, neg_log = _neg_log2(sub)
        value += signed[mask] * entropy
        grad += signed[mask] * _lift(neg_log, mask, n)
    return float(value), 0.5 * (grad + grad.conj().T)


def maximize_coherent_info(
    channel: KrausChannel, block_size: int, restarts: int, seed
) -> tuple[DensityMatrix, float]:
    """Best Ic per use over inputs of block_size <= 6 uses of ``channel = erasure_channel(p)``.

    Each restart is a mirror ascent from a seeded Gaussian Hermitian H, rho = exp(H)/Tr exp(H),
    by H <- H + (ln 2 / L) G.  L = L_n(p), the sum of the positive c(A), makes -Ic smooth
    relative to -S (Lu, Freund and Nesterov 2018), so each step raises Ic.  It stops at a
    Frank-Wolfe gap lambda_max(G) - Ic below 1e-9 bits, a certificate where Ic is concave
    (p <= 1/2), or at 500 steps.  The pure input |0...0> competes too, at Ic = 0.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if not 1 <= block_size <= SEARCH_BLOCK_LIMIT:
        raise ValueError(f"block size {block_size} is outside the searched 1..{SEARCH_BLOCK_LIMIT}")
    ops = channel.kraus  # p read back from erasure_channel(p)'s stack, exact at 0, 1/2 and 1
    kept, erased = np.abs(ops[[0, 1], [0, 2], 0]) ** 2 if ops.shape == (3, 3, 2) else (0.0, 0.0)
    p = float(erased / (kept + erased)) if kept + erased > 0.0 else -1.0
    if not 0.0 <= p <= 1.0 or not np.allclose(ops, erasure_channel(p).kraus, rtol=0.0, atol=1e-12):
        raise ValueError(f"only erasure_channel(p) is searched; this {ops.shape} stack is not one")
    w = _weights(block_size, p)
    smooth = float(np.clip(w - w[::-1], 0.0, None).sum())  # L_n(p)
    d = 2**block_size
    rng = np.random.default_rng(seed)
    found = [(0.0, np.diag(np.eye(d)[0]))]  # the pure input |0...0>
    for _ in range(restarts):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        for _ in range(ASCENT_CAP):
            values, vectors = np.linalg.eigh(h)
            weights = np.exp(values - values[-1])
            rho = (vectors * (weights / weights.sum())) @ vectors.conj().T
            value, grad = _coherent_info_gradient(rho, p, block_size)
            if np.linalg.eigvalsh(grad)[-1] - value < ASCENT_TOL:
                break
            h = h + math.log(2.0) / smooth * grad  # L = 0 only at p = 1/2, where G = 0
        found.append((value, rho))
    best_val, best_rho = max(found, key=lambda item: item[0])
    return DensityMatrix(best_rho), best_val / block_size

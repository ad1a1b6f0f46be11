"""Retained-set analysis of the qubit erasure channel.

For n parallel erasure uses the receiver sees each subset of the input qubits with a
binomial weight, so output entropy and coherent information reduce to sums over the 2^n
marginals of the input state (mask bit j set: qubit j reached the receiver).  One depth-first
walk traces them: the p-free entropy table keeps their entropies, which one binomial vector
per p weights, and the erasure-only input search folds their -log2 into the gradient of Ic.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _erasure_probability
from .linalg import (
    _adjoint, _eigh, _eigvalsh, _hermitian, _log2, _read_only, _require_int, _require_probability,
    _scalar_or_stack, _windowed, entropy_of_spectrum, partial_trace,
)
from .states import DensityMatrix, _as_rng

PAIR_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ErasureDecomposition:
    """One erasure probability p and the (shared, read-only) table of :func:`subset_entropies`.

    The table has one entry per retained mask, so ``block_size`` is read from
    its length 2^n.  A p not in [0, 1], a table that is not 1-D of length 2^n
    with n >= 1, and a non-finite or negative entropy are refused.  The fields
    keep what was checked: p as a float and the table as a read-only float array.
    """

    p: float
    subset_entropies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _require_probability(self.p))
        table = np.asarray(self.subset_entropies, dtype=float)
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
        object.__setattr__(self, "subset_entropies", _read_only(table))

    @property
    def block_size(self) -> int:
        return len(self.subset_entropies).bit_length() - 1

    def entropy(self, mask: int) -> float:
        """Entropy of the marginal on retained mask ``mask``, one of 0..2^n - 1."""
        table = self.subset_entropies
        return float(table[_require_int(mask, "mask", 0, len(table) - 1)])


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


def _marginals(matrix: np.ndarray, qubits: list[int], below: int):
    """Yield (mask, marginal) for each proper subset of ``qubits``, the factors of ``matrix``,
    that keeps every qubit at position ``below`` and up; ``below = len(qubits)`` yields them all.

    Depth first, each traced from a parent with one more qubit: a child drops a qubit below
    the one its parent dropped, so each mask comes once and one marginal per size is alive.
    """
    dims = (2,) * len(qubits)
    for pos in range(below):
        sub = partial_trace(matrix, dims, [k for k in range(len(qubits)) if k != pos])
        rest = qubits[:pos] + qubits[pos + 1:]
        yield sum(1 << j for j in rest), sub
        yield from _marginals(sub, rest, pos)


def subset_entropies(rho: DensityMatrix, block_size: int) -> np.ndarray:
    """Read-only table of every retained-set marginal entropy in bits, indexed by mask."""
    n = _require_int(block_size, "block size", 1)
    if rho.dim != 2**n:
        raise ValueError(f"state dimension {rho.dim} does not match {n} qubits (expected {2**n})")
    if rho.eigenvalues[0] == rho.eigenvalues[-1]:
        return _kept(n)  # rho = I/d, whose table is read, not solved
    table = np.empty(1 << n)
    table[-1] = rho.entropy()  # the full mask: the state's stored spectrum
    for mask, sub in _marginals(rho.matrix, list(range(n)), n):
        table[mask] = entropy_of_spectrum(_eigvalsh(sub))
    return _read_only(table)


def erasure_decomposition(rho: DensityMatrix, p: float, block_size: int) -> ErasureDecomposition:
    """Pair the state's retained-set entropy table with the erasure probability p."""
    p = _require_probability(p)
    return ErasureDecomposition(p, subset_entropies(rho, block_size))


def _kept(n: int) -> np.ndarray:
    """Read-only |i| of each mask i: the flat state's table, its marginals flat on |i| qubits."""
    return _read_only(np.array([mask.bit_count() for mask in range(1 << n)], dtype=float))


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


def verify_iplus_bound(decomp: ErasureDecomposition) -> IplusBoundReport:
    """Check the subadditivity cap on the low-erasure half of the sum.

    For every retained set i with k = n - |i| <= n//2 and every k-subset
    jbar of i, marginal subadditivity forces S(rho_i) - S(rho_jbar) <= n - 2k.
    Each k reads one slack table: a row per set with k qubits erased in mask
    order, a column per k-qubit set largest first, and a pair where the column
    is a subset of the row.  At k = n/2 the set i is one of its own k-subsets;
    that pair has slack 0 whatever the state, so it is skipped, and the witness
    is always a real pair.  Of equal slacks the witness is the first set in mask
    order, then its largest subset.  Aggregating over the binomial weights
    bounds I+ by sum_k C(n,k) p^k (1-p)^(n-k) (n - 2k).
    """
    n, s = decomp.block_size, decomp.subset_entropies
    kept = _kept(n)
    pairs = violations = 0
    worst = []  # (slack, -i, jbar) of each table: their max keeps the tie rule across k
    for k in range(n // 2 + 1):
        sets, subsets = np.flatnonzero(kept == n - k), np.flatnonzero(kept == k)[::-1]
        pair = ((subsets & ~sets[:, None]) == 0) & (subsets != sets[:, None])
        slack = np.where(pair, s[sets, None] - s[subsets] - (n - 2 * k), -math.inf)
        pairs += int(pair.sum())
        violations += int((slack > PAIR_TOL).sum())
        i, j = np.unravel_index(np.argmax(slack), slack.shape)
        if pair[i, j]:
            worst.append((float(slack[i, j]), -int(sets[i]), int(subsets[j])))
    max_slack, minus_i, jbar = max(worst)  # k = 0 always pairs the full set with the empty one
    erased = n - kept
    low = erased <= n // 2
    plus, _ = iplus_iminus_split(decomp)
    aggregate = _weights(n, decomp.p)[low] @ (n - 2 * erased[low])
    return IplusBoundReport(
        iplus=plus,
        aggregate_bound=float(aggregate),
        pairs_checked=pairs,
        pair_violations=violations,
        max_pair_slack=max_slack,
        witness=(-minus_i, jbar),
    )


def binomial_mean(n: int, p: float) -> float:
    """Mean of Binomial(n, p); tests compare against the explicit sum."""
    n = _require_int(n, "n", 0)
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
    n = _require_int(n, "n", 1)
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
    ic_per_use traces 1-2p and capacity_bound records max(1-2p, 0).  The
    flat state's retained-set table is read from :func:`_kept`, with no state formed.
    """
    if isinstance(p_values, (str, bytes)) or not np.iterable(p_values):
        raise ValueError(f"p values must be a sequence of probabilities, got {p_values!r}")
    grid = [_require_probability(p) for p in p_values]
    n = _require_int(block_size, "block size", 1)
    table = _kept(n)
    points = []
    for p in grid:
        ic = coherent_info_from_decomposition(ErasureDecomposition(p, table))
        points.append(CapacityPoint(p, n, ic / n, max(1.0 - 2.0 * p, 0.0)))
    return points


SEARCH_BLOCK_LIMIT = 6
ASCENT_TOL = 1e-9
ASCENT_CAP = 500


def _neg_log2(values: np.ndarray, vectors: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Entropy in bits and -log2, 0 on the kernel, of each PSD matrix of a stack from its eigh."""
    return entropy_of_spectrum(values), (vectors * -_log2(values)[..., None, :]) @ _adjoint(vectors)


def _widen(matrix: np.ndarray, qubit: int) -> np.ndarray:
    """Adjoint of tracing out factor ``qubit``: each matrix of a stack with I_2 inserted there."""
    lead, d, left = matrix.shape[:-2], matrix.shape[-1], 1 << qubit
    blocks = matrix.reshape(lead + (left, 1, d // left, left, 1, d // left))
    return (blocks * np.eye(2).reshape(1, 2, 1, 1, 2, 1)).reshape(lead + (2 * d, 2 * d))


def _coherent_info_gradient(
    h: np.ndarray, p: float, n: int
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ic in bits of rho = exp(H)/Tr exp(H) through n erasure uses, its gradient G, rho, spectrum.

    Over masks A, Ic = sum c(A) S(rho_A) and G = sum c(A) (-log2 rho_A) (x) I_Abar with
    c(A) = w(A) - w(Abar), so Ic = Tr(G rho); each entropy's -1/ln 2 derivative term cancels,
    as sum c(A) = 0.  rho shares the eigenvectors of H, so one solve of H gives rho, its
    ascending spectrum, S(rho) and -log2 rho.  The walk traced A from its parent A | (A + 1)
    by dropping A's lowest unset bit b, so b, with every bit below it set, is that qubit's
    factor there.  Ascending, each term holds its children's when it is widened into its parent.
    Leading axes of ``h`` index a stack, and each member gets the figures it would get alone.
    """
    values, vectors = _eigh(h)
    weights = np.exp(values - values[..., -1:])
    spectrum = weights / weights.sum(-1, keepdims=True)
    rho = (vectors * spectrum[..., None, :]) @ _adjoint(vectors)
    w = _weights(n, p)
    signed = w - w[::-1]
    value, neg_log = _neg_log2(spectrum, vectors)
    value, terms = signed[-1] * value, {len(w) - 1: signed[-1] * neg_log}
    for mask, sub in _marginals(rho, list(range(n)), n):
        entropy, neg_log = _neg_log2(*_eigh(sub))
        value += signed[mask] * entropy
        terms[mask] = signed[mask] * neg_log
    for mask in range(len(w) - 1):
        parent = mask | (mask + 1)
        terms[parent] += _widen(terms.pop(mask), (parent ^ mask).bit_length() - 1)
    (grad,) = terms.values()  # the full mask, all others folded into it
    return _scalar_or_stack(value), _hermitian(grad), rho, spectrum


def maximize_coherent_info(
    channel: KrausChannel, block_size: int, restarts: int, seed
) -> tuple[DensityMatrix, float]:
    """Best Ic per use over inputs of block_size <= 6 uses of ``channel = erasure_channel(p)``.

    Each restart is a mirror ascent from a seeded Gaussian Hermitian H, rho = exp(H)/Tr exp(H),
    by H <- H + (ln 2 / L) G.  L = L_n(p), the sum of the positive c(A), makes -Ic smooth
    relative to -S (Lu, Freund and Nesterov 2018), so each step raises Ic.  It stops at a
    Frank-Wolfe gap lambda_max(G) - Ic below 1e-9 bits, a certificate where Ic is concave
    (p <= 1/2), or at 500 steps.  The pure input |0...0> competes too, at Ic = 0, and wins ties.
    The window engine ascends ``_WINDOW`` restarts at a time, each window one stack drawn by one
    call of the stream, moving those still going, so memory is O(_WINDOW 4^n) for any number of
    restarts: 52 MB at n = 4 with 2 000 (132 MB as one stack).  The best state keeps the spectrum
    s its last evaluation formed: V diag(s) V^dag, or the pure input, is not checked.
    """
    restarts = _require_int(restarts, "restarts", 1)
    n = _require_int(block_size, "block size", 1, SEARCH_BLOCK_LIMIT)
    p = _erasure_probability(channel.kraus)
    d, w, rng = 2**n, _weights(n, p), _as_rng(seed)
    smooth = float(np.clip(w - w[::-1], 0.0, None).sum())  # L_n(p)

    def ascend(window: list[int]) -> list[tuple]:
        """(Ic, last rho, its spectrum) of each restart of a window, ascended as one stack."""
        draws = rng.standard_normal((len(window), 2, d, d))  # each restart's real, then imag
        h = _hermitian(draws[:, 0] + 1j * draws[:, 1])
        ics, spectra = np.zeros(len(window)), np.zeros((len(window), d))
        states = np.zeros((len(window), d, d), dtype=complex)
        going = np.arange(len(window))
        for _ in range(ASCENT_CAP):
            value, grad, rho, spectrum = _coherent_info_gradient(h, p, n)
            ics[going], states[going], spectra[going] = value, rho, spectrum
            on = ~(_eigvalsh(grad)[:, -1] - value < ASCENT_TOL)
            if not on.any():  # at p = 1/2, G = 0 stops every restart before a step divides by L = 0
                break
            going, h = going[on], h[on] + math.log(2.0) / smooth * grad[on]
        return list(zip(ics, states, spectra))

    pure = (0.0, np.diag(np.eye(d, dtype=complex)[0]), np.eye(d)[-1])  # |0...0>, Ic = 0
    found = itertools.chain([pure], _windowed(range(restarts), lambda _: (), ascend))
    ic, rho, spectrum = max(found, key=lambda item: item[0])  # the first maximum wins ties
    return DensityMatrix._checked(rho.copy(), spectrum.copy(), (d,)), float(ic) / n

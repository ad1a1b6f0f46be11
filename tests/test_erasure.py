import dataclasses
import math

import numpy as np
import pytest

from qcap import erasure
from qcap.channels import apply_channel, compose, erasure_channel, tensor_power, unitary_channel
from qcap.erasure import (
    PAIR_TOL,
    ErasureDecomposition,
    _coherent_info_gradient,
    binomial_mean,
    capacity_curve,
    coherent_info_from_decomposition,
    erasure_coherent_info_block,
    erasure_decomposition,
    half_sum_fraction,
    iplus_iminus_split,
    maximize_coherent_info,
    output_entropy_from_decomposition,
    subset_entropies,
    verify_iplus_bound,
)
from qcap.functionals import coherent_information, entropy_exchange
from qcap.linalg import binary_entropy, partial_trace, von_neumann_entropy
from qcap.states import (
    DensityMatrix,
    maximally_mixed,
    random_density,
    random_pure_state,
)

from helpers import random_kraus_channel


def _random_block_state(n, rng, rank=None):
    d = 2**n
    if rank is None:
        rank = int(rng.integers(1, d + 1))
    return DensityMatrix(random_density(d, rank=rank, seed=rng).matrix, (2,) * n)


def test_decomposition_table_structure():
    rng = np.random.default_rng(3)
    rho = _random_block_state(3, rng)
    decomp = erasure_decomposition(rho, 0.3, 3)
    assert decomp.block_size == 3
    assert len(decomp.subset_entropies) == 8
    assert abs(decomp.entropy(0)) < 1e-12
    assert abs(decomp.entropy(7) - rho.entropy()) < 1e-10


def test_decomposition_pure_state_complement_symmetry():
    rng = np.random.default_rng(5)
    psi = random_pure_state(8, seed=rng)
    rho = DensityMatrix(psi.density().matrix, (2, 2, 2))
    decomp = erasure_decomposition(rho, 0.2, 3)
    for mask in range(8):
        assert abs(decomp.entropy(mask) - decomp.entropy(7 ^ mask)) < 1e-9


def test_decomposition_validation():
    rho = maximally_mixed(4, (2, 2))
    with pytest.raises(ValueError, match="outside"):
        erasure_decomposition(rho, 1.2, 2)
    with pytest.raises(ValueError, match="block size"):
        erasure_decomposition(rho, 0.2, 0)
    with pytest.raises(ValueError, match="does not match"):
        erasure_decomposition(rho, 0.2, 3)


def _table_states(n, rng):
    yield _random_block_state(n, rng)
    yield _random_block_state(n, rng)
    yield DensityMatrix(random_pure_state(2**n, seed=rng).density().matrix, (2,) * n)
    product = np.ones((1, 1))
    for _ in range(n):
        product = np.kron(product, random_density(2, rank=2, seed=rng).matrix)
    yield DensityMatrix(product, (2,) * n)


def test_subset_entropies_match_marginals_of_the_full_matrix():
    rng = np.random.default_rng(37)
    for n in range(1, 7):
        for rho in _table_states(n, rng):
            table = subset_entropies(rho, n)
            assert table.shape == (2**n,)
            for mask in range(2**n):
                keep = [j for j in range(n) if mask >> j & 1]
                marginal = partial_trace(rho.matrix, (2,) * n, keep)
                assert abs(table[mask] - von_neumann_entropy(marginal, validate=False)) < 1e-12


def test_subset_entropies_table_is_read_only():
    table = subset_entropies(maximally_mixed(8, (2, 2, 2)), 3)
    with pytest.raises(ValueError):
        table[0] = 1.0
    decomp = erasure_decomposition(maximally_mixed(4, (2, 2)), 0.3, 2)
    with pytest.raises(ValueError):
        decomp.subset_entropies[1] = 0.0


def test_subset_entropies_solve_each_proper_marginal_once(monkeypatch):
    rho = _random_block_state(4, np.random.default_rng(43))
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(matrix):
        solves.append(matrix.shape[-1])
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    subset_entropies(rho, 4)
    # the full mask reads the stored spectrum; each other mask is solved once
    assert sorted(solves) == sorted(2 ** bin(mask).count("1") for mask in range(15))


def test_capacity_curve_builds_one_table(monkeypatch):
    built = []

    def counted(rho, block_size):
        built.append(block_size)
        return subset_entropies(rho, block_size)

    monkeypatch.setattr(erasure, "subset_entropies", counted)
    points = capacity_curve(np.linspace(0.0, 1.0, 21), 3)
    assert len(points) == 21
    assert built == [3]


@pytest.mark.parametrize("p", [1.3, float("nan")])
def test_probability_checked_before_any_table(monkeypatch, p):
    def refuse(rho, block_size):
        raise AssertionError("table built for an invalid p")

    monkeypatch.setattr(erasure, "subset_entropies", refuse)
    with pytest.raises(ValueError, match="outside"):
        erasure_decomposition(maximally_mixed(4, (2, 2)), p, 2)
    with pytest.raises(ValueError, match="outside"):
        capacity_curve([0.2, p], 2)


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_decomposition_refuses_probability_outside_unit_interval(p):
    with pytest.raises(ValueError, match="erasure probability .* outside"):
        ErasureDecomposition(p, np.zeros(4))


@pytest.mark.parametrize("size", [1, 3, 6])
def test_decomposition_refuses_table_of_non_power_of_two_length(size):
    with pytest.raises(ValueError, match=f"table has {size} entries, expected 2\\^n"):
        ErasureDecomposition(0.25, np.zeros(size))


@pytest.mark.parametrize(
    "table, message",
    [
        (np.zeros((4, 4)), r"table has shape \(4, 4\), expected one dimension"),
        (np.full(4, np.nan), "mask 0 holds nan, not a finite entropy"),
        (np.array([0.0, 1.0, -3.0, 1.0]), "mask 2 holds -3.0, not a finite entropy"),
        (np.array([0.0, np.inf, 1.0, 1.0]), "mask 1 holds inf, not a finite entropy"),
    ],
    ids=["matrix", "nan", "negative", "inf"],
)
def test_decomposition_refuses_table_that_is_not_entropies(table, message):
    with pytest.raises(ValueError, match=message):
        ErasureDecomposition(0.25, table)


def test_decomposition_reads_block_size_from_table():
    decomp = erasure_decomposition(maximally_mixed(8, (2, 2, 2)), 0.25, 3)
    assert decomp.block_size == 3
    assert ErasureDecomposition(0.25, decomp.subset_entropies).block_size == 3
    assert ErasureDecomposition(0.5, np.zeros(2)).block_size == 1


def test_block_coherent_info_single_use_oracle():
    flat = maximally_mixed(2)
    assert abs(erasure_coherent_info_block(flat, 0.25, 1) - 0.5) < 1e-12
    report = coherent_information(flat, erasure_channel(0.25))
    assert abs(erasure_coherent_info_block(flat, 0.25, 1) - report.coherent_info) < 1e-10


def test_block_coherent_info_flat_state_closed_form():
    for n in (1, 2, 3):
        flat = maximally_mixed(2**n)
        for p in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0):
            got = erasure_coherent_info_block(flat, p, n)
            assert abs(got - n * (1.0 - 2.0 * p)) < 1e-12


def test_block_coherent_info_matches_brute_force():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        block = tensor_power(erasure_channel(0.3), n)
        for _ in range(4):
            rho = _random_block_state(n, rng)
            brute = coherent_information(rho.flattened(), block).coherent_info
            fast = erasure_coherent_info_block(rho, 0.3, n)
            assert abs(fast - brute) < 1e-8


def _output_entropy(rho, p, n):
    return output_entropy_from_decomposition(erasure_decomposition(rho, p, n))


def test_output_entropy_block_oracles():
    flat = maximally_mixed(2)
    got = _output_entropy(flat, 0.25, 1)
    assert abs(got - 1.5612781244591328) < 1e-10

    rng = np.random.default_rng(9)
    rho = _random_block_state(1, rng)
    assert abs(_output_entropy(rho, 0.0, 1) - rho.entropy()) < 1e-10
    assert abs(_output_entropy(rho, 1.0, 1)) < 1e-10
    for p in (0.2, 0.6):
        expected = binary_entropy(p) + (1.0 - p) * rho.entropy()
        assert abs(_output_entropy(rho, p, 1) - expected) < 1e-10


def test_output_entropy_block_matches_direct_channel_output():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        block = tensor_power(erasure_channel(0.35), n)
        rho = _random_block_state(n, rng)
        direct = apply_channel(block, rho.flattened()).entropy()
        fast = _output_entropy(rho, 0.35, n)
        assert abs(fast - direct) < 1e-8


def test_environment_entropy_is_complement_table():
    rng = np.random.default_rng(13)
    p = 0.3
    for n in (1, 2, 3):
        rho = _random_block_state(n, rng)
        block = tensor_power(erasure_channel(p), n)
        direct = entropy_exchange(rho.flattened(), block)
        decomp = erasure_decomposition(rho, p, n)
        full = (1 << n) - 1
        total = 0.0
        mix = 0.0
        for mask in range(full + 1):
            w = p ** (n - mask.bit_count()) * (1.0 - p) ** mask.bit_count()
            total += w * decomp.entropy(full ^ mask)
            if w > 0.0:
                mix -= w * math.log2(w)
        assert abs(direct - (total + mix)) < 1e-8


def test_iplus_iminus_split_single_use():
    rng = np.random.default_rng(17)
    rho = _random_block_state(1, rng)
    p = 0.3
    decomp = erasure_decomposition(rho, p, 1)
    plus, minus = iplus_iminus_split(decomp)
    s = rho.entropy()
    assert abs(plus - (1.0 - p) * s) < 1e-10
    assert abs(minus - (-p * s)) < 1e-10
    assert abs(plus + minus - coherent_info_from_decomposition(decomp)) < 1e-12


def test_iplus_iminus_split_reconstructs_total():
    rng = np.random.default_rng(19)
    for n in (2, 3, 4):
        rho = _random_block_state(n, rng)
        decomp = erasure_decomposition(rho, 0.4, n)
        plus, minus = iplus_iminus_split(decomp)
        total = coherent_info_from_decomposition(decomp)
        assert abs(plus + minus - total) < 1e-10


def test_iplus_iminus_split_matches_explicit_mask_loop():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4, 5):
        rho = _random_block_state(n, rng)
        p = float(rng.uniform())
        decomp = erasure_decomposition(rho, p, n)
        full = (1 << n) - 1
        plus = 0.0
        minus = 0.0
        for mask in range(full + 1):
            kept = mask.bit_count()
            term = p ** (n - kept) * (1.0 - p) ** kept * (
                decomp.entropy(mask) - decomp.entropy(full ^ mask)
            )
            if n - kept <= n // 2:
                plus += term
            else:
                minus += term
        got_plus, got_minus = iplus_iminus_split(decomp)
        assert abs(got_plus - plus) < 1e-12
        assert abs(got_minus - minus) < 1e-12


def test_iplus_iminus_split_lossless_has_no_minus_part():
    rng = np.random.default_rng(21)
    rho = _random_block_state(2, rng)
    decomp = erasure_decomposition(rho, 0.0, 2)
    plus, minus = iplus_iminus_split(decomp)
    assert abs(minus) < 1e-12
    assert abs(plus - rho.entropy()) < 1e-10


def test_verify_iplus_bound_flat_state_saturates():
    for n in (2, 3, 4):
        flat = maximally_mixed(2**n, (2,) * n)
        decomp = erasure_decomposition(flat, 0.3, n)
        report = verify_iplus_bound(decomp)
        assert report.pair_violations == 0
        assert report.aggregate_ok
        # every marginal of the flat state is flat, so each pair and the
        # aggregate land exactly on the subadditivity cap
        assert abs(report.max_pair_slack) < 1e-12
        assert abs(report.iplus - report.aggregate_bound) < 1e-12


def test_verify_iplus_bound_random_states():
    rng = np.random.default_rng(23)
    for n in (3, 4):
        for _ in range(5):
            rho = _random_block_state(n, rng)
            decomp = erasure_decomposition(rho, 0.25, n)
            report = verify_iplus_bound(decomp)
            assert report.pair_violations == 0
            assert report.aggregate_ok
            assert report.max_pair_slack <= 1e-9
            assert report.witness is not None
            assert report.pairs_checked > 0


def test_verify_iplus_bound_pure_product_slack():
    rng = np.random.default_rng(29)
    parts = [random_density(2, rank=1, seed=rng).matrix for _ in range(3)]
    joint = DensityMatrix(
        np.kron(np.kron(parts[0], parts[1]), parts[2]), (2, 2, 2)
    )
    decomp = erasure_decomposition(joint, 0.2, 3)
    report = verify_iplus_bound(decomp)
    assert report.pair_violations == 0
    # every marginal entropy vanishes, so the binding pairs are the
    # two-retained-one-erased ones at cap 1: slack exactly -1
    assert abs(report.max_pair_slack + 1.0) < 1e-9
    # one size-0 subset under the full mask plus two singletons under
    # each of the three two-element masks
    assert report.pairs_checked == 7
    assert report.aggregate_ok


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.49])
def test_verify_iplus_bound_on_optimized_states(n, p):
    best, _ = maximize_coherent_info(erasure_channel(p), n, restarts=5, seed=0)
    report = verify_iplus_bound(erasure_decomposition(best, p, n))
    assert report.pair_violations == 0
    assert report.aggregate_ok


def test_aggregate_ok_follows_iplus():
    flat = maximally_mixed(8, (2, 2, 2))
    report = verify_iplus_bound(erasure_decomposition(flat, 0.3, 3))
    cap = report.aggregate_bound + PAIR_TOL
    assert dataclasses.replace(report, iplus=cap).aggregate_ok
    assert not dataclasses.replace(report, iplus=cap + 1e-6).aggregate_ok


def test_binomial_mean_matches_explicit_sum():
    rng = np.random.default_rng(31)
    for n in range(0, 31):
        p = float(rng.uniform())
        explicit = sum(
            math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * k for k in range(n + 1)
        )
        assert abs(binomial_mean(n, p) - explicit) < 1e-12
    with pytest.raises(ValueError, match="n >= 0"):
        binomial_mean(-1, 0.5)
    with pytest.raises(ValueError, match="outside"):
        binomial_mean(3, 1.5)


def test_half_sum_fraction_values_and_trend():
    assert half_sum_fraction(10, 0.0) == 0.0
    got = half_sum_fraction(200, 0.3)
    assert abs(got - 0.3) < 2e-3
    for p in (0.1, 0.25, 0.3):
        near = abs(half_sum_fraction(200, p) - p)
        far = abs(half_sum_fraction(20, p) - p)
        assert near < far
    with pytest.raises(ValueError, match="n >= 1"):
        half_sum_fraction(0, 0.3)
    with pytest.raises(ValueError, match="outside"):
        half_sum_fraction(10, -0.2)
    # math.comb(n, k) as a float overflows from n = 1030; log-space terms do not
    for n in range(1, 201):
        for p in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            explicit = sum(
                math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * k for k in range(n // 2 + 1)
            )
            assert abs(half_sum_fraction(n, p) - explicit / n) < 1e-12
    # below p = 0.3 the n = 200 value already sits at rounding level
    for p in (0.3, 0.4, 0.45):
        at_200 = abs(half_sum_fraction(200, p) - p)
        for n in (2000, 10_000):
            got = half_sum_fraction(n, p)
            assert math.isfinite(got)
            assert abs(got - p) < at_200


def test_half_sum_fraction_stays_at_rounding_level_for_large_n():
    # the direct sum drifted 1.1e-12 from p at n = 1e4 and 5.7e-11 at n = 1e6
    for n in (10_000, 1_000_000):
        assert abs(half_sum_fraction(n, 0.1) - 0.1) <= 1e-14


def test_half_sum_fraction_is_a_quarter_at_one_half():
    # for even n, sum_{k<=n/2} C(n,k) k = n sum_{j<n/2} C(n-1,j) = n 2^(n-2), so the value is 1/4
    for n in (100, 10_000, 1_000_000):
        assert abs(half_sum_fraction(n, 0.5) - 0.25) < 1e-9


def test_half_sum_fraction_above_one_half_drops_only_underflowed_terms():
    # from p = 1/2 on the terms rise up to k = n//2, so the downward sum may stop at the first 0;
    # at n = 10^4 and p = 0.6 the top term is near 1e-89 and the low ones underflow
    for n in (1001, 10_000):
        for p in (0.5, 0.55, 0.6):
            log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
            full = math.fsum(
                math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                         + k * log_p + (n - k) * log_q) * k
                for k in range(1, n // 2 + 1)
            ) / n
            assert full > 0.0
            assert abs(half_sum_fraction(n, p) - full) <= 1e-12 * full


def test_capacity_curve_tracks_closed_form():
    grid = np.linspace(0.0, 1.0, 21)
    for n in (1, 2):
        points = capacity_curve(grid, n)
        assert len(points) == 21
        for p, point in zip(grid, points):
            assert point.block_size == n
            assert abs(point.ic_per_use - (1.0 - 2.0 * p)) < 1e-9
            assert point.capacity_bound == max(1.0 - 2.0 * float(p), 0.0)
    half = capacity_curve([0.5], 1)[0]
    assert half.ic_per_use == 0.0


def test_capacity_curve_rejects_bad_probability():
    with pytest.raises(ValueError, match="outside"):
        capacity_curve([0.2, 1.3], 1)


def test_maximize_coherent_info_reaches_erasure_optimum():
    chan = erasure_channel(0.25)
    rho, best = maximize_coherent_info(chan, 1, restarts=3, seed=0)
    assert best <= 0.5 + 1e-6
    assert best >= 0.5 - 1e-3
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-9


def test_maximize_coherent_info_random_starts_only():
    chan = erasure_channel(0.25)
    _, best = maximize_coherent_info(chan, 1, restarts=6, seed=1)
    assert best <= 0.5 + 1e-6
    assert best >= 0.5 - 1e-2


def test_maximize_coherent_info_deterministic_per_seed():
    chan = erasure_channel(0.4)
    a = maximize_coherent_info(chan, 1, restarts=2, seed=5)
    b = maximize_coherent_info(chan, 1, restarts=2, seed=5)
    assert a[1] == b[1]
    assert np.max(np.abs(a[0].matrix - b[0].matrix)) == 0.0


def test_maximize_coherent_info_validation():
    with pytest.raises(ValueError, match="restart"):
        maximize_coherent_info(erasure_channel(0.2), 1, restarts=0, seed=0)


@pytest.mark.parametrize(
    "channel, block_size, message",
    [
        # a random channel with the erasure stack's (3, 3, 2) shape
        (random_kraus_channel(2, 3, 3, np.random.default_rng(8)), 1, "erasure_channel"),
        (tensor_power(erasure_channel(0.3), 2), 1, "erasure_channel"),
        # erasure, then the phase gate on the kept qubit: p reads back as 0.3, the stack differs
        (compose(unitary_channel(np.diag([1.0, 1.0j, 1.0])), erasure_channel(0.3)), 1, "erasure_channel"),
        (erasure_channel(0.3), 7, "1..6"),
        (erasure_channel(0.3), 0, "1..6"),
    ],
    ids=["random-kraus", "tensor-power", "erasure-then-phase", "block-7", "block-0"],
)
def test_maximize_refuses_what_it_does_not_search(channel, block_size, message):
    with pytest.raises(ValueError, match=message):
        maximize_coherent_info(channel, block_size, restarts=1, seed=0)


@pytest.mark.parametrize("n", [1, 2, 3], ids=["erasure-1", "erasure-2", "erasure-3"])
def test_coherent_info_gradient_matches_finite_differences(n):
    # full-rank states only: on a singular rho_A the gradient is not defined, and the ascent
    # visits only exp(H)/Tr exp(H)
    rng = np.random.default_rng(21)
    d, block = 2**n, tensor_power(erasure_channel(0.3), n)
    rho = 0.5 * random_density(d, rank=d, seed=rng).matrix + 0.5 * np.eye(d) / d
    value, grad = _coherent_info_gradient(rho, 0.3, n)
    assert abs(value - coherent_information(DensityMatrix(rho), block).coherent_info) < 1e-10
    assert abs(value - np.trace(grad @ rho).real) < 1e-10
    step = 1e-5
    for _ in range(4):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = x + x.conj().T
        x -= np.trace(x) / d * np.eye(d)
        x /= np.linalg.norm(x)
        up = coherent_information(DensityMatrix(rho + step * x), block).coherent_info
        down = coherent_information(DensityMatrix(rho - step * x), block).coherent_info
        assert abs((up - down) / (2 * step) - np.trace(grad @ x).real) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_lift_is_adjoint_of_partial_trace(n):
    # Tr(lift(M) X) = Tr(M X_A) on every proper mask A, the qubit order included
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    for mask in range(1, (1 << n) - 1):
        kept = [j for j in range(n) if mask >> j & 1]
        m = rng.standard_normal((2 ** len(kept),) * 2) + 1j * rng.standard_normal((2 ** len(kept),) * 2)
        lifted = erasure._lift(m, mask, n)
        assert lifted.shape == (2**n, 2**n)
        expected = np.trace(m @ partial_trace(x, (2,) * n, kept))
        assert abs(np.trace(lifted @ x) - expected) <= 1e-12 * np.abs(m).sum() * np.abs(x).sum()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
def test_maximize_from_random_starts_reaches_one_minus_two_p(n, p):
    chan = erasure_channel(p)
    rho, best = maximize_coherent_info(chan, n, restarts=2, seed=n)
    target = 1.0 - 2.0 * p
    assert target - 1e-6 <= best <= target + 1e-9
    value, grad = _coherent_info_gradient(rho.matrix, p, n)
    assert np.linalg.eigvalsh(grad)[-1] - value <= 1e-6  # the Frank-Wolfe gap


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p, target", [(0.0, 1.0), (0.5, 0.0), (0.9, 0.0), (1.0, 0.0)])
def test_maximize_edge_probabilities_reach_closed_form(n, p, target):
    # p > 1/2 is antidegradable, so Ic <= 0 there and a pure input attains 0
    _, best = maximize_coherent_info(erasure_channel(p), n, restarts=3, seed=0)
    assert abs(best - target) <= 1e-6


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [0.6, 0.9, 1.0])
def test_maximize_one_restart_above_half_returns_zero(n, p):
    # for p > 1/2 every pure input attains the maximum 0, and the flat state is the minimum
    _, best = maximize_coherent_info(erasure_channel(p), n, restarts=1, seed=0)
    assert abs(best) <= 1e-6


def _recording_gradient(monkeypatch):
    values = []

    def recording(matrix, p, n):
        value, grad = _coherent_info_gradient(matrix, p, n)
        values.append(value)
        return value, grad

    monkeypatch.setattr(erasure, "_coherent_info_gradient", recording)
    return values


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.49, 0.7])
def test_every_ascent_step_raises_coherent_info(monkeypatch, n, p):
    # -Ic is L_n(p)-smooth relative to -S, so the mirror step ln 2 / L never lowers Ic
    values = _recording_gradient(monkeypatch)
    for seed in range(3):
        values.clear()
        maximize_coherent_info(erasure_channel(p), n, restarts=1, seed=seed)
        assert len(values) >= 2
        assert np.diff(values).min() >= -1e-12


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 0.49])
def test_one_use_restart_converges_in_one_step(monkeypatch, p):
    # at n = 1, Ic = (1 - 2p) S(rho) and L = 1 - 2p: one step lands on the flat state
    values = _recording_gradient(monkeypatch)
    _, best = maximize_coherent_info(erasure_channel(p), 1, restarts=20, seed=0)
    assert len(values) == 2 * 20
    assert abs(best - (1.0 - 2.0 * p)) <= 1e-12

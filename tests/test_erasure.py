import dataclasses
import functools
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from qcap import erasure, linalg
from qcap.channels import (
    CodingScheme,
    _erasure_probability,
    apply_channel,
    compose,
    erasure_channel,
    identity_channel,
    tensor_power,
    unitary_channel,
)
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
from qcap.linalg import _eigvalsh, binary_entropy, entropy_of_spectrum, partial_trace
from qcap.states import (
    DensityMatrix,
    maximally_mixed,
    random_density,
    random_pure_state,
    read_density_file,
    write_density_file,
)

from helpers import count_factorizations, density_rule_defects, random_kraus_channel


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
                assert abs(table[mask] - entropy_of_spectrum(_eigvalsh(marginal))) < 1e-12


def test_subset_entropies_table_is_read_only():
    table = subset_entropies(maximally_mixed(8, (2, 2, 2)), 3)
    with pytest.raises(ValueError):
        table[0] = 1.0
    decomp = erasure_decomposition(maximally_mixed(4, (2, 2)), 0.3, 2)
    with pytest.raises(ValueError):
        decomp.subset_entropies[1] = 0.0


def test_subset_entropies_solve_each_proper_marginal_once(monkeypatch):
    rho = _random_block_state(4, np.random.default_rng(43))
    solves = count_factorizations(monkeypatch, "eigvalsh")["eigvalsh"]
    subset_entropies(rho, 4)
    # the full mask reads the stored spectrum; each other mask is solved once
    sizes = [shape[-1] for shape in solves]
    assert sorted(sizes) == sorted(2 ** bin(mask).count("1") for mask in range(15))


def _curve_tables(monkeypatch, p_values, n):
    """The table of each decomposition ``capacity_curve`` builds, and the solves it makes."""
    tables = []

    def recorded(p, table, _real=erasure.ErasureDecomposition):
        tables.append(table)
        return _real(p, table)

    monkeypatch.setattr(erasure, "ErasureDecomposition", recorded)
    solves = count_factorizations(monkeypatch, "eigh", "eigvalsh")
    points = capacity_curve(p_values, n)
    monkeypatch.undo()
    assert len(points) == len(p_values)
    return tables, solves


def test_capacity_curve_builds_one_table(monkeypatch):
    tables, solves = _curve_tables(monkeypatch, np.linspace(0.0, 1.0, 21), 3)
    assert len(tables) == 21
    assert all(table is tables[0] for table in tables)
    assert not tables[0].flags.writeable
    assert solves == {"eigh": [], "eigvalsh": []}


@pytest.mark.parametrize("n", range(1, 10))
def test_capacity_curve_table_is_the_flat_states_bit_for_bit(monkeypatch, n):
    (table,), _ = _curve_tables(monkeypatch, [0.3], n)
    rho = maximally_mixed(2**n)
    solved = [
        entropy_of_spectrum(_eigvalsh(partial_trace(rho.matrix, (2,) * n, _qubits(mask, n))))
        for mask in range(2**n - 1)
    ]
    assert table.tobytes() == np.array(solved + [rho.entropy()]).tobytes()


def _qubits(mask, n):
    return [j for j in range(n) if mask >> j & 1]


def _gaussian(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _flat_from_file(path, n):
    write_density_file(path, DensityMatrix(np.eye(2**n, dtype=complex) / 2**n, (2,) * n))
    return read_density_file(path)


@pytest.mark.parametrize("n", range(1, 8))
def test_flat_spectrum_table_is_read_without_a_solve(monkeypatch, tmp_path, n):
    states = [maximally_mixed(2**n), _flat_from_file(tmp_path / "flat.txt", n)]
    solves = count_factorizations(monkeypatch, "eigh", "eigvalsh")
    for rho in states:
        table = subset_entropies(rho, n)
        assert table.tolist() == [bin(mask).count("1") for mask in range(2**n)]
        assert not table.flags.writeable
    assert solves == {"eigh": [], "eigvalsh": []}


@pytest.mark.parametrize("n", [1, 3, 5])
def test_nearly_flat_state_is_solved_mask_by_mask(monkeypatch, n):
    rng = np.random.default_rng(n)
    d = 2**n
    x = _gaussian(rng, d)
    x = x + x.conj().T
    x -= np.trace(x) / d * np.eye(d)
    rho = DensityMatrix(np.eye(d) / d + 1e-6 * x / np.abs(x).max(), (2,) * n)
    assert rho.eigenvalues[0] < rho.eigenvalues[-1]
    solves = count_factorizations(monkeypatch, "eigvalsh")["eigvalsh"]
    table = subset_entropies(rho, n)
    assert len(solves) == d - 1
    assert np.abs(table - [bin(mask).count("1") for mask in range(d)]).max() < 1e-6
    assert not table.flags.writeable


@pytest.mark.parametrize("n", [0, -1])
def test_capacity_curve_refuses_an_empty_block(n):
    with pytest.raises(ValueError, match=rf"^block size must be at least 1, got {n}$"):
        capacity_curve([0.2], n)


BLOCK_SIZE_CALLS = {
    "capacity_curve": lambda n: capacity_curve([0.1], n),
    "subset_entropies": lambda n: subset_entropies(maximally_mixed(4, (2, 2)), n),
    "erasure_decomposition": lambda n: erasure_decomposition(maximally_mixed(4, (2, 2)), 0.1, n),
    "maximize_coherent_info": lambda n: maximize_coherent_info(erasure_channel(0.2), n, 1, 0),
    "tensor_power": lambda n: tensor_power(erasure_channel(0.1), n),
    "CodingScheme": lambda n: CodingScheme(
        maximally_mixed(2), identity_channel(2), identity_channel(2), n
    ),
}


@pytest.mark.parametrize("call", sorted(BLOCK_SIZE_CALLS))
@pytest.mark.parametrize("n", [1.5, 2.0])
def test_non_integer_block_size_is_refused_by_name(call, n):
    with pytest.raises(ValueError, match=rf"^block size must be an integer, got {n}$"):
        BLOCK_SIZE_CALLS[call](n)


def test_numpy_integer_block_size_is_kept_as_int():
    (point,) = capacity_curve([0.1], np.int64(2))
    assert type(point.block_size) is int and type(point.ic_per_use) is float
    assert point == capacity_curve([0.1], 2)[0]
    assert erasure_decomposition(maximally_mixed(4, (2, 2)), 0.1, np.int64(2)).block_size == 2
    scheme = CodingScheme(maximally_mixed(2), identity_channel(2), identity_channel(2), np.int64(1))
    assert type(scheme.block_size) is int
    a = maximize_coherent_info(erasure_channel(0.2), np.int64(2), 1, 0)[1]
    assert a == maximize_coherent_info(erasure_channel(0.2), 2, 1, 0)[1]


@pytest.mark.parametrize("p", [1.3, float("nan")])
def test_probability_checked_before_any_table(monkeypatch, p):
    def refuse(*args):
        raise AssertionError("table built for an invalid p")

    monkeypatch.setattr(erasure, "subset_entropies", refuse)
    monkeypatch.setattr(erasure, "_kept", refuse)
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


def test_decomposition_keeps_the_checked_table():
    listed = ErasureDecomposition(0.2, [0.0, 1.0, 1.0, 2.0])
    assert listed.subset_entropies.dtype == float
    assert not listed.subset_entropies.flags.writeable
    flat = maximally_mixed(4, (2, 2))
    assert coherent_info_from_decomposition(listed) == coherent_info_from_decomposition(
        erasure_decomposition(flat, 0.2, 2)
    )
    table = np.array([0.0, 1.0, 1.0, 2.0])
    decomp = ErasureDecomposition(np.float64(0.2), table)
    assert type(decomp.p) is float
    with pytest.raises(ValueError, match="read-only"):
        decomp.subset_entropies[0] = 5.0
    # a view, not a copy: the caller's array is shared and stays writeable
    assert np.shares_memory(decomp.subset_entropies, table)
    table[0] = 0.0


def test_decomposition_entropy_refuses_a_mask_outside_its_table():
    decomp = ErasureDecomposition(0.25, [0.0, 1.0, 0.5, 2.0])
    assert decomp.entropy(np.int64(2)) == 0.5
    assert decomp.entropy(3) == 2.0
    # -1 would read the full mask from the end, and 4 or 2.0 would fail inside numpy
    for mask in (-1, 4):
        with pytest.raises(ValueError, match=rf"^mask {mask} is outside 0\.\.3$"):
            decomp.entropy(mask)
    with pytest.raises(ValueError, match=r"^mask must be an integer, got 2\.0$"):
        decomp.entropy(2.0)


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


@pytest.mark.parametrize("table", [np.array([0.0, 0.0, 0.0, 3.0]), [0, 0, 0, 3]],
                         ids=["array", "list"])
def test_verify_iplus_bound_counts_a_planted_pair_violation(table):
    # S(full) = 3 exceeds S(nothing) = 0 by more than the cap n - 2k = 2 of the
    # full mask with nothing erased: the pair (3, 0) breaks subadditivity by 1
    report = verify_iplus_bound(ErasureDecomposition(0.2, table))
    assert report.pair_violations == 1
    assert report.max_pair_slack == 1.0
    assert report.witness == (3, 0)
    # only the full mask's empty subset: each one-qubit mask's one singleton is itself
    assert report.pairs_checked == 1
    assert not report.aggregate_ok


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_iplus_bound_witness_is_a_real_pair_at_even_n(seed):
    # at n = 4 a two-qubit mask has k = n/2 and is its own k-subset; that pair has
    # slack exactly 0, so it is skipped, and the worst real pair sits below 0
    rng = np.random.default_rng(seed)
    decomp = erasure_decomposition(_random_block_state(4, rng), 0.25, 4)
    report = verify_iplus_bound(decomp)
    mask, inner = report.witness
    assert mask != inner
    assert inner & ~mask == 0 and inner.bit_count() == 4 - mask.bit_count()
    assert report.max_pair_slack < 0.0
    cap = 4 - 2 * inner.bit_count()
    assert report.max_pair_slack == decomp.entropy(mask) - decomp.entropy(inner) - cap
    # the full mask's one empty subset and each three-qubit mask's three singletons; a
    # two-qubit mask's one two-qubit subset is itself
    assert report.pairs_checked == 1 + 4 * 3
    assert report.pair_violations == 0


def _submasks_of_size(mask, size):
    sub = mask
    while True:
        if sub.bit_count() == size:
            yield sub
        if sub == 0:
            break
        sub = (sub - 1) & mask


def _iplus_reference(decomp):
    """The audit as one loop over every (set, subset) pair: sets in mask order, subsets largest first."""
    n = decomp.block_size
    entropies = decomp.subset_entropies.tolist()
    erased = n - erasure._kept(n)
    low = erased <= n // 2
    pairs = 0
    violations = 0
    max_slack = -math.inf
    witness = None
    for mask in np.flatnonzero(low).tolist():
        k = int(erased[mask])
        cap = float(n - 2 * k)
        for inner in _submasks_of_size(mask, k):
            if inner == mask:
                continue
            slack = entropies[mask] - entropies[inner] - cap
            pairs += 1
            if slack > max_slack:
                max_slack = slack
                witness = (mask, inner)
            if slack > PAIR_TOL:
                violations += 1
    plus, _ = iplus_iminus_split(decomp)
    aggregate = erasure._weights(n, decomp.p)[low] @ (n - 2 * erased[low])
    return erasure.IplusBoundReport(
        iplus=plus,
        aggregate_bound=float(aggregate),
        pairs_checked=pairs,
        pair_violations=violations,
        max_pair_slack=float(max_slack),
        witness=witness,
    )


def _assert_audit_matches_reference(decomp):
    report = verify_iplus_bound(decomp)
    assert report == _iplus_reference(decomp)
    assert [type(x) for x in report.witness] == [int, int]


@pytest.mark.parametrize("n", range(1, 8))
def test_verify_iplus_bound_matches_the_pair_loop_on_states(n):
    rng = np.random.default_rng(100 + n)
    for rank in (1, None):
        table = subset_entropies(_random_block_state(n, rng, rank), n)
        for p in (0.0, 0.1, 0.25, 0.49, 0.5, 0.75, 1.0):
            _assert_audit_matches_reference(ErasureDecomposition(p, table))


@pytest.mark.parametrize("n", range(1, 11))
def test_verify_iplus_bound_matches_the_pair_loop_on_tables(n):
    rng = np.random.default_rng(200 + n)
    flat = erasure._kept(n)  # every slack is 0, so the tie rule alone picks the witness
    halves = rng.integers(0, 2 * n + 1, 1 << n) / 2  # half-integer entropies, full of ties
    planted = flat.copy()  # one set above the cap of its pairs: from n = 3 on, one with k = 1
    planted[(1 << n) - 1 - (1 << (n // 2) if n >= 3 else 0)] += 0.5
    tables = [flat, halves, planted]
    if n >= 8:
        tables.append(rng.uniform(0.0, n, 1 << n))
    for table in tables:
        for p in (0.1, 0.49):
            _assert_audit_matches_reference(ErasureDecomposition(p, table))
    report = verify_iplus_bound(ErasureDecomposition(0.1, planted))
    assert report.pair_violations > 0 and report.max_pair_slack == 0.5


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
    with pytest.raises(ValueError, match=r"^n must be a non-negative integer, got -1$"):
        binomial_mean(-1, 0.5)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 10.5$"):
        binomial_mean(10.5, 0.1)
    assert binomial_mean(np.int64(10), 0.1) == 10 * 0.1
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
    with pytest.raises(ValueError, match=r"^n must be at least 1, got 0$"):
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


@pytest.mark.parametrize(
    "p_values, shown",
    [(0.5, "0.5"), (1, "1"), ("0.5", "'0.5'"), (None, "None"),
     (np.float64(0.5), "np.float64(0.5)"), (np.array(0.5), "array(0.5)")],
    ids=["float", "int", "string", "none", "numpy-scalar", "zero-d-array"],
)
def test_capacity_curve_refuses_p_values_that_are_not_a_sequence(p_values, shown):
    message = f"p values must be a sequence of probabilities, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        capacity_curve(p_values, 2)


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


def _log(rho):
    """H = ln rho of a full-rank state, so that exp(H)/Tr exp(H) is rho again."""
    values, vectors = np.linalg.eigh(rho)
    return (vectors * np.log(values)) @ vectors.conj().T


@pytest.mark.parametrize("n", [1, 2, 3], ids=["erasure-1", "erasure-2", "erasure-3"])
def test_coherent_info_gradient_matches_finite_differences(n):
    # full-rank states only: on a singular rho_A the gradient is not defined, and the ascent
    # visits only exp(H)/Tr exp(H)
    rng = np.random.default_rng(21)
    d, block = 2**n, tensor_power(erasure_channel(0.3), n)
    rho = 0.5 * random_density(d, rank=d, seed=rng).matrix + 0.5 * np.eye(d) / d
    value, grad, state, _ = _coherent_info_gradient(_log(rho), 0.3, n)
    assert np.abs(state - rho).max() < 1e-12
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


@pytest.mark.parametrize("n", range(1, 7))
def test_widen_is_adjoint_of_partial_trace(n):
    # Tr(widen(M, q) X) = Tr(M Tr_q X) at every factor position q of n qubits
    rng = np.random.default_rng(n)
    x = _gaussian(rng, 2**n)
    for qubit in range(n):
        m = _gaussian(rng, 2 ** (n - 1))
        widened = erasure._widen(m, qubit)
        assert widened.shape == (2**n, 2**n)
        assert np.array_equal(widened, _lift(m, 2**n - 1 - 2**qubit, n))
        expected = np.trace(m @ partial_trace(x, (2,) * n, [k for k in range(n) if k != qubit]))
        assert abs(np.trace(widened @ x) - expected) <= 1e-12 * np.abs(m).sum() * np.abs(x).sum()


def _lift(matrix, mask, n):
    """Adjoint of partial_trace in one step: ``matrix`` on the qubits of ``mask``, I on the rest."""
    kept = _qubits(mask, n)
    # matrix (x) I holds the kept qubits first; axes moves every qubit back to its place
    axes = np.argsort(kept + [j for j in range(n) if not mask >> j & 1])
    lifted = np.kron(matrix, np.eye(1 << n - len(kept))).reshape((2,) * 2 * n)
    return lifted.transpose(*axes, *(axes + n)).reshape(1 << n, -1)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("p", [0.1, 0.49, 0.75])
def test_folded_gradient_matches_each_term_lifted_alone(monkeypatch, n, p):
    # H is scaled so that every marginal is well conditioned, and the reference's direct
    # traces solve to the walk's -log2 within rounding
    rng = np.random.default_rng(n)
    d = 2**n
    g = _gaussian(rng, d)
    h = 0.5 * (g + g.conj().T) / np.sqrt(d)
    rho = erasure._coherent_info_gradient(h, p, n)[2]
    w = erasure._weights(n, p)
    ref = np.zeros((d, d), dtype=complex)
    for mask in range(d):
        marginal = partial_trace(rho, (2,) * n, _qubits(mask, n))
        _, neg_log = erasure._neg_log2(*np.linalg.eigh(marginal))
        ref += (w[mask] - w[-1 - mask]) * _lift(neg_log, mask, n)

    def refuse(*args):
        raise AssertionError("the gradient lifts a term with np.kron")

    monkeypatch.setattr(np, "kron", refuse)
    grad = erasure._coherent_info_gradient(h, p, n)[1]
    assert np.abs(grad - 0.5 * (ref + ref.conj().T)).max() <= 1e-12


_PAULIS = tuple(
    np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
)


@pytest.mark.parametrize("n", range(1, 9))
def test_retained_set_sum_matches_the_pauli_closed_form(n):
    # rho = (I + delta P)/2^n with P a Pauli string of weight t: each marginal holding P's
    # support has spectrum (1 +- delta)/d_A and every other is flat, so exactly, not only to
    # second order, Ic = n(1 - 2p) - ((1 - p)^t - p^t)(1 - h2((1 + delta)/2)), with no brute
    # force at any n; the solved table and the ascent's value (n <= 6) both meet it
    delta, x = 0.5, 0.75  # x = (1 + delta)/2
    curvature = 1.0 + x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x)  # 1 - h2(x)
    for t in range(1, n + 1):
        factors = [np.eye(2, dtype=complex)] * (n - t) + [_PAULIS[j % 3] for j in range(t)]
        pauli = functools.reduce(np.kron, factors)
        rho = DensityMatrix((np.eye(2**n) + delta * pauli) / 2**n)
        for p in (0.0, 0.1, 0.25, 0.49, 0.5, 0.75, 1.0):
            want = n * (1.0 - 2.0 * p) - ((1.0 - p) ** t - p**t) * curvature
            assert abs(erasure_coherent_info_block(rho, p, n) - want) <= 1e-12, (t, p)
            if n <= erasure.SEARCH_BLOCK_LIMIT:  # rho = exp(H)/Tr exp(H) for H = atanh(delta) P
                value = _coherent_info_gradient(math.atanh(delta) * pauli, p, n)[0]
                assert abs(value - want) <= 1e-12, (t, p)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
def test_maximize_from_random_starts_reaches_one_minus_two_p(n, p):
    chan = erasure_channel(p)
    rho, best = maximize_coherent_info(chan, n, restarts=2, seed=n)
    target = 1.0 - 2.0 * p
    assert target - 1e-6 <= best <= target + 1e-9
    value, grad, _, _ = _coherent_info_gradient(_log(rho.matrix), p, n)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [0.1, 0.25, 0.49, 0.75])
def test_search_winner_meets_the_density_rules_unchecked(n, p):
    # the winner is V diag(s) V^dag for a softmax spectrum s, or the pure input: finite,
    # Hermitian and of unit trace to rounding, far inside the 1e-9 it is no longer checked at
    rho, _ = maximize_coherent_info(erasure_channel(p), n, restarts=3, seed=n)
    finite, hermitian, trace = density_rule_defects(rho.matrix)
    assert finite and hermitian < 1e-15 and trace < 1e-13
    assert abs(rho.eigenvalues.sum() - 1.0) < 1e-13 and rho.eigenvalues[0] >= 0.0


def _recording_gradient(monkeypatch):
    """Record each evaluation call of a search as (Ic of each row, rows certified to stop)."""
    calls, eigvalsh = [], np.linalg.eigvalsh  # the recorder's own solves go uncounted

    def recording(h, p, n):
        value, grad, rho, spectrum = _coherent_info_gradient(h, p, n)
        calls.append((value, eigvalsh(grad)[:, -1] - value < erasure.ASCENT_TOL))
        return value, grad, rho, spectrum

    monkeypatch.setattr(erasure, "_coherent_info_gradient", recording)
    return calls


def _per_restart(calls):
    """Each restart's own Ic sequence from recorded calls.

    A call's rows are the restarts of its window still going, in restart order, and a row
    certified to stop is absent from the next call; once none is going, the next call is the
    next window's first, one row per restart.
    """
    runs, going = [], np.arange(0)
    for values, stops in calls:
        if not going.size:
            going = np.arange(len(runs), len(runs) + len(values))
            runs += [[] for _ in values]
        assert len(values) == len(going)
        for r, v in zip(going, values):
            runs[r].append(v)
        going = going[~stops]
    assert not going.size
    return runs


def _restart_loop_reference(channel, n, restarts, rng):
    """The search as one restart after another on single matrices: a test reference.

    Returns the best state's matrix and spectrum, the best Ic per use, and each restart's number
    of evaluations.  The pure input |0...0> at Ic = 0 wins ties, as Python's max keeps the first.
    """
    p = _erasure_probability(channel.kraus)  # as the search reads it, which may differ from p
    w = erasure._weights(n, p)
    smooth = float(np.clip(w - w[::-1], 0.0, None).sum())
    d = 2**n
    found, evaluations = [(0.0, np.diag(np.eye(d, dtype=complex)[0]), np.eye(d)[-1])], []
    for _ in range(restarts):
        g = _gaussian(rng, d)
        h = 0.5 * (g + g.conj().T)
        for count in range(1, erasure.ASCENT_CAP + 1):
            value, grad, rho, spectrum = _coherent_info_gradient(h, p, n)
            if np.linalg.eigvalsh(grad)[-1] - value < erasure.ASCENT_TOL:
                break
            h = h + math.log(2.0) / smooth * grad
        found.append((value, rho, spectrum))
        evaluations.append(count)
    best, rho, spectrum = max(found, key=lambda item: item[0])
    return rho, spectrum, best / n, evaluations


@pytest.mark.parametrize("restarts", [1, 3, 20])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.49, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_restart_stack_matches_one_restart_after_another(monkeypatch, n, p, restarts):
    # each window's stack draws the same stream and gives each restart the figures it would
    # get alone, and the fold over windows keeps the first maximum, at windows of 1 and 7 too
    chan = erasure_channel(p)
    ref_rng = np.random.default_rng(10 * n + restarts)
    matrix, spectrum, ref_best, _ = _restart_loop_reference(chan, n, restarts, ref_rng)
    ref_next = ref_rng.standard_normal()
    for window in (linalg._WINDOW, 1, 7):
        monkeypatch.setattr(linalg, "_WINDOW", window)
        rng = np.random.default_rng(10 * n + restarts)
        rho, best = maximize_coherent_info(chan, n, restarts, rng)
        assert best == ref_best and type(best) is float, window
        assert np.array_equal(rho.matrix, matrix) and np.array_equal(rho.eigenvalues, spectrum)
        assert rng.standard_normal() == ref_next, window


@pytest.mark.parametrize("n, p", [(1, 0.25), (2, 0.1), (3, 0.49), (2, 0.9)])
def test_search_evaluates_as_often_as_its_longest_restart(monkeypatch, n, p):
    # one call per ascent step serves every restart of a window still going, not one call
    # per restart; windows of 2 split the 5 restarts as 2, 2 and 1
    evaluations = _restart_loop_reference(erasure_channel(p), n, 5, np.random.default_rng(0))[-1]
    calls = _recording_gradient(monkeypatch)
    for window in (linalg._WINDOW, 2):
        monkeypatch.setattr(linalg, "_WINDOW", window)
        calls.clear()
        maximize_coherent_info(erasure_channel(p), n, restarts=5, seed=0)
        longest = [max(evaluations[i : i + window]) for i in range(0, 5, window)]
        assert len(calls) == sum(longest) < sum(evaluations), window
        assert [len(run) for run in _per_restart(calls)] == evaluations, window


def test_search_memory_is_one_window_whatever_the_restarts(monkeypatch):
    # 64 restarts in windows of 4 hold one window's stack at a time, so their traced peak
    # stays within 1.25x that of the same 16 windows run as searches of 4 restarts on one
    # stream; one stack of 64 peaks at about 3x.  Both sides make the same evaluations, each
    # of which grows the interpreter's tuple free lists a little, so that growth cancels
    monkeypatch.setattr(linalg, "_WINDOW", 4)
    chan = erasure_channel(0.49)

    def traced(run):
        gc.collect()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def by_window():
        rng = np.random.default_rng(0)
        for _ in range(16):
            maximize_coherent_info(chan, 3, 4, rng)

    maximize_coherent_info(chan, 3, 4, seed=0)  # first-call allocations are not the search's
    whole = traced(lambda: maximize_coherent_info(chan, 3, 64, np.random.default_rng(0)))
    assert whole <= 1.25 * traced(by_window)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.49, 0.7])
def test_every_ascent_step_raises_coherent_info(monkeypatch, n, p):
    # -Ic is L_n(p)-smooth relative to -S, so the mirror step ln 2 / L never lowers Ic
    calls = _recording_gradient(monkeypatch)
    for seed in range(3):
        calls.clear()
        maximize_coherent_info(erasure_channel(p), n, restarts=3, seed=seed)
        for values in _per_restart(calls):
            assert len(values) >= 2
            assert np.diff(values).min() >= -1e-12


@pytest.mark.parametrize("n, p", [(1, 0.25), (2, 0.25), (3, 0.49), (4, 0.49)])
def test_each_gradient_evaluation_solves_the_full_block_once(monkeypatch, n, p):
    # rho = exp(H)/Tr exp(H), S(rho) and -log2 rho all come from the one solve of H's stack
    evaluations = _restart_loop_reference(erasure_channel(p), n, 3, np.random.default_rng(0))[-1]
    calls = _recording_gradient(monkeypatch)
    solves = count_factorizations(monkeypatch, "eigh")["eigh"]
    maximize_coherent_info(erasure_channel(p), n, restarts=3, seed=0)
    d = 2**n
    assert [s for s in solves if s[-2:] == (d, d)] == [(len(v), d, d) for v, _ in calls]
    assert sum(len(v) for v, _ in calls) == sum(evaluations) > 0


@pytest.mark.parametrize("n, p", [(1, 0.25), (2, 0.25), (3, 0.49), (2, 0.9)])
def test_best_state_keeps_the_spectrum_of_its_last_evaluation(monkeypatch, n, p):
    # the returned eigenvalues are exp(H)/Tr exp(H)'s: no eigvalsh runs beyond one
    # Frank-Wolfe gap test per evaluation
    calls = _recording_gradient(monkeypatch)
    solves = count_factorizations(monkeypatch, "eigvalsh")["eigvalsh"]
    rho, _ = maximize_coherent_info(erasure_channel(p), n, restarts=5, seed=0)
    assert len(solves) == len(calls) > 0
    _check_returned_state(rho, n)


def test_pure_input_wins_with_its_known_spectrum(monkeypatch):
    # every restart reads Ic = -1 with a certified gap, so the pure |0...0> at Ic = 0 wins;
    # the restarts' states are NaN, which the returned state's check would refuse
    def below_pure(h, p, n):
        nan, grad = np.full(h.shape, np.nan), np.broadcast_to(-2.0 * np.eye(h.shape[-1]), h.shape)
        return -np.ones(len(h)), grad, nan, nan[..., 0]

    monkeypatch.setattr(erasure, "_coherent_info_gradient", below_pure)
    rho, best = maximize_coherent_info(erasure_channel(0.25), 2, restarts=3, seed=0)
    assert best == 0.0
    assert np.array_equal(rho.matrix, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(rho.eigenvalues, [0.0, 0.0, 0.0, 1.0])
    _check_returned_state(rho, 2)


def _check_returned_state(rho, n):
    assert np.abs(rho.eigenvalues - np.linalg.eigvalsh(rho.matrix)).max() <= 1e-12
    assert rho.dims == (2**n,) and rho.matrix.dtype == complex
    assert not (rho.matrix.flags.writeable or rho.eigenvalues.flags.writeable)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 0.49])
def test_one_use_restart_converges_in_one_step(monkeypatch, p):
    # at n = 1, Ic = (1 - 2p) S(rho) and L = 1 - 2p: one step lands on the flat state
    calls = _recording_gradient(monkeypatch)
    _, best = maximize_coherent_info(erasure_channel(p), 1, restarts=20, seed=0)
    assert [len(values) for values in _per_restart(calls)] == [2] * 20
    assert abs(best - (1.0 - 2.0 * p)) <= 1e-12

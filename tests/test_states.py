import numpy as np
import pytest

from qcap.linalg import TRACE_TOL, binary_entropy, trace_norm
from qcap.states import (
    DensityMatrix,
    PureState,
    _check_unit,
    _dot,
    _max_overlap_vector,
    _purification,
    _uhlmann,
    high_entropy_counterexample,
    maximally_mixed,
    purify,
    random_density,
    random_pure_state,
    random_unitary,
    read_density_file,
    write_density_file,
)

from helpers import (
    bell_vector,
    count_factorizations,
    counterexample_reference,
    density_rule_defects,
    fidelity,
    gaussian_unit_vector,
    wishart_gram,
)


def on_complement(psi, u):
    """Vector of (I x u) psi for a state whose first factor is the shared one."""
    return (psi.vector.reshape(psi.dims[0], -1) @ u.T).reshape(-1)


def max_overlap(rho):
    """The max-overlap purification of a two-factor state on (A, B, C), and l_max."""
    da, db = rho.dims
    vector, l_max = _max_overlap_vector(rho.matrix, da, db)
    return PureState(vector, (da, db, da + 1)), float(l_max)


def uhlmann(psi1, psi2):
    """Uhlmann isometry and marginal gap of two states sharing their first factor."""
    u, gap = _uhlmann(psi1.vector.reshape(psi1.dims[0], -1), psi2.vector.reshape(psi2.dims[0], -1))
    return u, float(gap)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="multiply"):
        DensityMatrix(np.eye(6, dtype=complex) / 6.0, (2, 2))


def test_density_matrix_factors_and_entropy():
    rho = maximally_mixed(4, (2, 2))
    assert rho.dim == 4
    assert rho.dims == (2, 2)
    assert abs(rho.entropy() - 2.0) < 1e-12
    assert rho.flattened().dims == (4,)
    with pytest.raises(ValueError, match=r"^factor index 2 is outside 0..1$"):
        rho.reduced([2])


@pytest.mark.parametrize("seed", [-1, np.int64(-7)])
def test_negative_seed_is_refused_by_name(seed):
    draws = [lambda: random_density(2, 2, seed), lambda: random_pure_state(2, seed),
             lambda: random_unitary(2, seed)]
    for draw in draws:
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {seed}$"):
            draw()


def test_reduced_keeps_original_factor_order():
    rng = np.random.default_rng(2)
    r1 = random_density(2, rank=2, seed=rng)
    r2 = random_density(3, rank=3, seed=rng)
    joint = DensityMatrix(np.kron(r1.matrix, r2.matrix), (2, 3))
    red = joint.reduced([1, 0])
    assert red.dims == (2, 3)
    assert np.max(np.abs(red.matrix - joint.matrix)) < 1e-12
    only = joint.reduced([1])
    assert only.dims == (3,)
    assert np.max(np.abs(only.matrix - r2.matrix)) < 1e-12


def test_density_matrix_arrays_are_read_only_views():
    m = np.eye(2, dtype=complex) / 2
    rho = DensityMatrix(m)
    for array in (rho.matrix, rho.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.9
    assert abs(rho.entropy() - 1.0) < 1e-12
    # a view, not a copy: the caller's array is shared and stays writeable
    assert np.shares_memory(rho.matrix, m)
    m[1, 1] = 0.5
    # a state wrapped with a known spectrum leaves both of the caller's arrays writeable
    values = np.full(2, 0.5)
    known = DensityMatrix._checked(m, values, (2,))
    assert np.shares_memory(known.eigenvalues, values) and values.flags.writeable
    assert not (known.matrix.flags.writeable or known.eigenvalues.flags.writeable)


@pytest.mark.parametrize("dims", [(2.5, 2), (2, 2.0)])
def test_non_integer_factor_dimension_is_refused_by_name(dims):
    bad = next(d for d in dims if isinstance(d, float))
    message = rf"^factor dimension must be an integer, got {bad}$"
    with pytest.raises(ValueError, match=message):
        DensityMatrix(np.eye(4) / 4, dims=dims)
    with pytest.raises(ValueError, match=message):
        PureState(np.full(4, 0.5), dims)
    with pytest.raises(ValueError, match=message):
        maximally_mixed(4, dims)


def test_numpy_integer_factor_dimensions_are_kept_as_int():
    rho = DensityMatrix(np.eye(4) / 4, dims=(np.int64(2), np.int32(2)))
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    assert rho.reduced([np.int64(1)]).dims == (2,)


def test_flattened_sets_one_factor_without_solving(monkeypatch):
    pair = DensityMatrix(random_density(4, rank=3, seed=8).matrix, (2, 2))
    solves = count_factorizations(monkeypatch, "eigh", "eigvalsh")
    flat = pair.flattened()
    assert solves == {"eigh": [], "eigvalsh": []}
    assert flat.eigenvalues is pair.eigenvalues
    assert flat.matrix is pair.matrix
    assert (flat.dims, pair.dims) == ((4,), (2, 2))
    for array in (flat.matrix, flat.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_maximally_mixed_keeps_the_solved_spectrum_without_a_solve(monkeypatch):
    dims = [2**j for j in range(11)] + [3, 5, 6, 7, 12, 100]
    solved = [DensityMatrix(np.eye(d, dtype=complex) / d).eigenvalues for d in dims]
    solves = count_factorizations(monkeypatch, "eigh", "eigvalsh")
    for d, ref in zip(dims, solved):
        rho = maximally_mixed(d)
        assert rho.eigenvalues.tobytes() == ref.tobytes()
        assert rho.matrix.tobytes() == (np.eye(d, dtype=complex) / d).tobytes()
    assert solves == {"eigh": [], "eigvalsh": []}
    assert maximally_mixed(6, (3, 2)).dims == (3, 2)
    with pytest.raises(ValueError, match="do not multiply to 4"):
        maximally_mixed(4, (3,))
    with pytest.raises(ValueError, match="^dim must be at least 1, got 0$"):
        maximally_mixed(0)


def _unit_factor(rng, d, r):
    f = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return f / np.linalg.norm(f)


@pytest.mark.parametrize(
    "d, r", [(6, 2), (6, 6), (6, 9), (1, 1), (5, 1), (16, 20), (16, 1), (1, 20), (11, 7)]
)
def test_from_factor_agrees_with_the_formed_matrix(d, r):
    f = _unit_factor(np.random.default_rng(10 * d + r), d, r)
    rho = DensityMatrix.from_factor(f)
    ref = DensityMatrix(f @ f.conj().T)
    assert np.array_equal(rho.matrix, ref.matrix)
    assert rho.eigenvalues.shape == (d,)
    assert np.all(np.diff(rho.eigenvalues) >= 0.0)
    assert np.abs(rho.eigenvalues - ref.eigenvalues).max() < 1e-12
    assert abs(rho.entropy() - ref.entropy()) < 1e-12
    assert rho.dims == (d,)


def test_from_factor_arrays_are_read_only():
    f = _unit_factor(np.random.default_rng(2), 4, 2)
    rho = DensityMatrix.from_factor(f)
    for array in (rho.matrix, rho.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    assert f.flags.writeable


def _message(build):
    with pytest.raises(ValueError) as caught:
        build()
    return str(caught.value)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_from_factor_rejects_what_the_constructor_rejects():
    f = _unit_factor(np.random.default_rng(3), 4, 2)
    nan = f.copy()
    nan[1, 0] = np.nan
    inf = f.copy()
    inf[2, 1] = np.inf
    for factor, dims, match in [
        (nan, None, "non-finite entry at row 0, column 1"),
        (inf, None, "non-finite entry"),
        (np.sqrt(2.0) * f, None, "density matrix trace 2"),
        (f, (3,), "do not multiply to 4"),
        (f, (2, 0, 2), "factor dimension must be at least 1, got 0"),
    ]:
        message = _message(lambda: DensityMatrix.from_factor(factor, dims))
        assert match in message
        assert message == _message(lambda: DensityMatrix(factor @ factor.conj().T, dims))
    with pytest.raises(ValueError, match="factor must be a matrix"):
        DensityMatrix.from_factor(np.ones(4) / 2.0)


def test_states_reject_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite entry at row 0, column 0"):
        DensityMatrix(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="non-finite entry at row 0, column 0"):
        DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="pure state has a non-finite entry at index 0"):
        PureState(np.array([np.nan, 1.0]))


def test_pure_state_validation_and_density():
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0], dtype=complex))
    psi = PureState(bell_vector(), (2, 2))
    rho = psi.density()
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    red = psi.reduced([1])
    assert np.max(np.abs(red.matrix - np.eye(2) / 2.0)) < 1e-12


@pytest.mark.parametrize("norm", [1.0 + 9e-10, 1.0 - 9e-10])
def test_pure_state_density_takes_every_norm_the_state_takes(norm):
    # PureState takes |v| within 1e-9 of 1, where |v|^2 is off by up to 2e-9: the density
    # and its marginals are formed from v / |v|, so they take every state PureState takes
    unit = random_pure_state(6, seed=1).vector
    psi = PureState(norm * unit, (2, 3))
    rho = psi.density()
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
    assert np.abs(rho.matrix - np.outer(unit, unit.conj())).max() < 1e-15
    for keep in ([0], [1]):
        assert abs(np.trace(psi.reduced(keep).matrix) - 1.0) < 1e-14


def test_purify_recovers_state():
    psi = purify(maximally_mixed(2))
    assert psi.dims == (2, 2)
    assert purify(maximally_mixed(6, (3, 2))).dims == (6, 3, 2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_density(3, rank=int(rng.integers(1, 4)), seed=rng)
        pur = purify(rho)
        back = pur.reduced([1])
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10


def test_purify_pure_input_stays_product():
    psi = random_pure_state(3, seed=1)
    pur = purify(psi.density())
    red = pur.reduced([0])
    top = float(np.linalg.eigvalsh(red.matrix).max())
    assert abs(top - 1.0) < 1e-10


def test_max_overlap_purification_noisy_bell():
    eps = 0.01
    bell = np.outer(bell_vector(), bell_vector().conj())
    rho = DensityMatrix((1.0 - eps) * bell + eps * np.eye(4) / 4.0, (2, 2))
    state, l_max = max_overlap(rho)
    assert abs(l_max - 0.9925) < 1e-12
    assert state.dims == (2, 2, 3)
    proj = np.kron(rho.matrix, np.diag([1.0, 0.0, 0.0]))
    overlap = float(np.real(state.vector.conj() @ proj @ state.vector))
    assert abs(overlap - 0.9925**2) < 1e-12
    assert abs(overlap - 0.98505625) < 1e-10


def test_max_overlap_purification_random_states():
    rng = np.random.default_rng(13)
    for dims in [(2, 2)] * 10 + [(3, 2), (2, 3)]:
        d = dims[0] * dims[1]
        raw = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        rho = DensityMatrix(raw.matrix, dims)
        state, l_max = max_overlap(rho)
        top = float(np.linalg.eigvalsh(rho.matrix).max())
        assert abs(l_max - top) < 1e-10
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12
        proj = np.kron(rho.matrix, np.diag(np.eye(dims[0] + 1)[0]))
        overlap = float(np.real(state.vector.conj() @ proj @ state.vector))
        assert abs(overlap - l_max**2) < 1e-10


def test_max_overlap_purification_marginal_gap_shrinks_with_purity():
    bell = np.outer(bell_vector(), bell_vector().conj())
    gaps = []
    for eps in (0.2, 0.02, 0.002):
        rho = DensityMatrix((1.0 - eps) * bell + eps * np.eye(4) / 4.0, (2, 2))
        state, _ = max_overlap(rho)
        back = state.reduced([0, 1])
        gaps.append(trace_norm(back.matrix - rho.matrix))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3


def test_purifications_refuse_eigenvalues_below_the_floor():
    # the square-root amplitudes are floored as a density's spectrum is: -1e-9 is refused,
    # -1e-11 reads as 0
    low = np.diag([1.0 + 1e-9, 0.0, 0.0, -1e-9]).astype(complex)
    message = r"^density matrix has negative eigenvalue -1\.000e-09 below the floor -1e-10"
    with pytest.raises(ValueError, match=message + "$"):
        _purification(low)
    with pytest.raises(ValueError, match=message + " at stack index 1$"):
        _purification(np.stack([np.eye(4) / 4.0, low]))
    with pytest.raises(ValueError, match=message + "$"):
        _max_overlap_vector(low, 2, 2)
    # each eigenvalue of rho passes, but the residual marginal tau sums two of them on A = 1
    residual = np.diag([1.0 + 2.7e-10, -0.9e-10, -0.9e-10, -0.9e-10]).astype(complex)
    with pytest.raises(ValueError, match=r"negative eigenvalue -1\.800e-10 below the floor"):
        _max_overlap_vector(residual, 2, 2)
    tiny = np.diag([1.0 + 1e-11, 0.0, 0.0, -1e-11]).astype(complex)
    vector = _purification(tiny)
    assert np.isfinite(vector).all() and abs(np.linalg.norm(vector) - 1.0) < 1e-10
    table, l_max = _max_overlap_vector(tiny, 2, 2)
    assert np.isfinite(table).all() and l_max == 1.0 + 1e-11


def test_max_overlap_purification_keeps_first_marginal():
    bell = np.outer(bell_vector(), bell_vector().conj())
    states = [
        DensityMatrix((1.0 - eps) * bell + eps * np.eye(4) / 4.0, (2, 2))
        for eps in (0.2, 0.02, 0.002)
    ]
    rng = np.random.default_rng(17)
    for i in range(10):
        raw = random_density(4, rank=1 + i % 4, seed=rng)
        states.append(DensityMatrix(raw.matrix, (2, 2)))
    states.append(DensityMatrix(random_density(6, rank=6, seed=rng).matrix, (3, 2)))
    for rho in states:
        state, _ = max_overlap(rho)
        gap = trace_norm(state.reduced([0]).matrix - rho.reduced([0]).matrix)
        assert gap < 1e-12


def test_relate_purifications_identity_case():
    rho = random_density(3, rank=3, seed=21)
    pur = purify(rho)
    u, gap = uhlmann(pur, pur)
    assert gap < 1e-8
    assert np.max(np.abs(u - np.eye(3))) < 1e-8


def test_relate_purifications_bell_pair_gives_bit_flip():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    psi1 = PureState(bell_vector(), (2, 2))
    flipped = np.kron(np.eye(2), sx) @ bell_vector()
    psi2 = PureState(flipped, (2, 2))
    u, gap = uhlmann(psi1, psi2)
    assert gap < 1e-8
    assert np.max(np.abs(u - sx)) < 1e-8


def test_relate_purifications_random_same_marginal():
    rng = np.random.default_rng(33)
    for _ in range(10):
        rho = random_density(3, rank=3, seed=rng)
        psi1 = purify(rho)
        w = random_unitary(3, seed=rng)
        psi2 = PureState(on_complement(psi1, w), psi1.dims)
        u, gap = uhlmann(psi1, psi2)
        assert gap < 1e-8
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9
        assert np.linalg.norm(on_complement(psi1, u) - psi2.vector) < 1e-7


def test_relate_purifications_isometry_case():
    rng = np.random.default_rng(35)
    rho = random_density(3, rank=3, seed=rng)
    psi1 = purify(rho)
    big = random_unitary(5, seed=rng)
    v = big[:, :3]
    psi2 = PureState(on_complement(psi1, v), (3, 5))
    u, gap = uhlmann(psi1, psi2)
    assert gap < 1e-8
    assert u.shape == (5, 3)
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9
    assert np.linalg.norm(on_complement(psi1, u) - psi2.vector) < 1e-7


def test_uhlmann_isometry_reports_marginal_mismatch():
    # the isometry is returned whatever the gap; the caller judges the gap
    psi1 = purify(random_density(3, rank=3, seed=1))
    psi2 = purify(random_density(3, rank=3, seed=2))
    _, gap = uhlmann(psi1, psi2)
    assert gap > 1e-3


def test_uhlmann_isometry_attains_fidelity_of_different_marginals():
    # Uhlmann: max over isometries U of |<b|(I x U)|a>|^2 is the fidelity of
    # the ref marginals; they differ here, so no U carries a onto b and only
    # the optimal U attains that fidelity
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = purify(random_density(3, rank=3, seed=rng))
        b = PureState(random_pure_state(15, seed=rng).vector, (3, 5))
        u, gap = uhlmann(a, b)
        assert gap > 1e-3
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10
        overlap = np.vdot(b.vector, on_complement(a, u))
        fid = fidelity(a.reduced([0]).matrix, b.reduced([0]).matrix)
        assert abs(abs(overlap) ** 2 - fid) < 1e-10


def test_random_density_properties():
    pure = random_density(4, rank=1, seed=0)
    top = float(np.linalg.eigvalsh(pure.matrix).max())
    assert abs(top - 1.0) < 1e-10
    a = random_density(3, rank=2, seed=123)
    b = random_density(3, rank=2, seed=123)
    assert np.max(np.abs(a.matrix - b.matrix)) == 0.0
    with pytest.raises(ValueError, match="rank"):
        random_density(3, rank=4, seed=0)
    with pytest.raises(ValueError, match="rank"):
        random_density(3, rank=0, seed=0)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 64])
def test_random_states_keep_the_bits_of_the_per_object_formulas(dim):
    # the stacked Gram and normalization kernels give the old one-object results bit for bit,
    # and leave the generator where the old draws left it
    for seed in range(100):
        for rank in sorted({1, max(dim // 2, 1), dim}):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            gram = wishart_gram(dim, rank, old)
            assert np.array_equal(random_density(dim, rank, new).matrix, gram / np.trace(gram).real)
            assert np.array_equal(random_pure_state(dim, new).vector, gaussian_unit_vector(dim, old))
            assert new.bit_generator.state == old.bit_generator.state


def test_random_unitary_is_unitary_and_deterministic():
    u = random_unitary(5, seed=8)
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10
    again = random_unitary(5, seed=8)
    assert np.max(np.abs(u - again)) == 0.0


def test_high_entropy_counterexample_values():
    psi = random_pure_state(8, seed=3)
    same = high_entropy_counterexample(psi, 0.0, 4)
    assert abs(same.entropy()) < 1e-10
    overlap = float(np.real(psi.vector.conj() @ same.matrix @ psi.vector))
    assert abs(overlap - 1.0) < 1e-10

    psi4 = random_pure_state(8, seed=4)
    rho = high_entropy_counterexample(psi4, 0.1, 4)
    expected = binary_entropy(0.1) + 0.1 * np.log2(4)
    assert abs(rho.entropy() - expected) < 1e-10
    assert abs(expected - 0.6689955935892812) < 1e-12
    fid = float(np.real(psi4.vector.conj() @ rho.matrix @ psi4.vector))
    assert abs(fid - 0.9) < 1e-10


@pytest.mark.parametrize("d, n", [(16, 4), (2048, 1024)])
def test_high_entropy_counterexample_spectrum(d, n):
    eps = 0.1
    rho = high_entropy_counterexample(random_pure_state(d, seed=d), eps, n)
    expected = np.concatenate([np.zeros(d - n - 1), np.full(n, eps / n), [1.0 - eps]])
    assert np.abs(rho.eigenvalues - expected).max() < 1e-12


@pytest.mark.parametrize(
    "d, n, eps, norm",
    [
        (2, 1, 0.0, 1.0),
        (2, 1, 0.9, 1.0),
        (2, 1, 1.0, 1.0),
        (5, 1, 0.9, 1.0 + 5e-10),
        (5, 1, 1.0, 1.0 - 5e-10),
        (16, 4, 0.1, 1.0 + 5e-10),
        (16, 15, 0.5, 1.0 - 5e-10),
        (64, 7, 0.3, 1.0),
        (64, 63, 0.999, 1.0),
        (256, 100, 0.05, 1.0 + 5e-10),
    ],
)
def test_high_entropy_counterexample_spectrum_matches_a_solve(monkeypatch, d, n, eps, norm):
    # eps / n can exceed 1 - eps, so the stored spectrum must be sorted; for a psi off unit
    # norm within the pure-state tolerance, psi / |psi| must still be the eigenvector of 1 - eps
    psi = PureState(norm * random_pure_state(d, seed=7 * d + n).vector)
    solves = count_factorizations(monkeypatch, "eigh", "eigvalsh", "svd")
    rho = high_entropy_counterexample(psi, eps, n)
    assert solves == {"eigh": [], "eigvalsh": [], "svd": []}
    monkeypatch.undo()
    assert np.all(np.diff(rho.eigenvalues) >= 0.0)
    assert np.abs(rho.eigenvalues - np.linalg.eigvalsh(rho.matrix)).max() < 1e-12
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
    unit = psi.vector / np.linalg.norm(psi.vector)
    assert np.abs(rho.matrix @ unit - (1.0 - eps) * unit).max() < 1e-14
    for array in (rho.matrix, rho.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_high_entropy_counterexample_matches_its_factor_form(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(8, 300))
    n = int(rng.integers(1, d))
    eps = float(rng.uniform())
    psi = random_pure_state(d, seed=rng)
    rho = high_entropy_counterexample(psi, eps, n)
    assert np.abs(rho.matrix - counterexample_reference(psi, eps, n)).max() < 1e-14
    assert rho.dims == (d,)


@pytest.mark.parametrize("d, n", [(2, 1), (16, 4), (256, 100), (2048, 1024)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_high_entropy_counterexample_meets_the_density_rules_unchecked(d, n, sign):
    # built from psi at the edge of PureState's norm tolerance, the state is finite,
    # Hermitian and of unit trace to rounding, far inside the 1e-9 it is no longer checked at
    vector = random_pure_state(d, seed=d).vector * (1.0 + sign * (TRACE_TOL - 1e-14))
    assert abs(np.linalg.norm(vector) - 1.0) > 0.99 * TRACE_TOL
    finite, hermitian, trace = density_rule_defects(
        high_entropy_counterexample(PureState(vector), 0.1, n).matrix
    )
    assert finite and hermitian < 1e-15 and trace < 1e-13


@pytest.mark.parametrize("d", [1, 3, 7, 100, 1000])
def test_maximally_mixed_meets_the_density_rules_unchecked(d):
    finite, hermitian, trace = density_rule_defects(maximally_mixed(d).matrix)
    assert finite and hermitian == 0.0 and trace < 1e-13


def test_high_entropy_counterexample_entropy_grows_without_bound():
    psi = random_pure_state(2048, seed=5)
    values = [
        high_entropy_counterexample(psi, 0.1, n).entropy() for n in (2, 64, 1024)
    ]
    assert values[0] < values[1] < values[2]
    assert abs(values[2] - (binary_entropy(0.1) + 1.0)) < 1e-10


def test_high_entropy_counterexample_validation():
    psi = random_pure_state(4, seed=6)
    with pytest.raises(ValueError, match="outside"):
        high_entropy_counterexample(psi, 1.5, 2)
    with pytest.raises(ValueError, match="orthogonal direction"):
        high_entropy_counterexample(psi, 0.1, 0)
    with pytest.raises(ValueError, match=r"^n \(orthogonal directions\) 4 is outside 1..3$"):
        high_entropy_counterexample(psi, 0.1, 4)
    # a one-dimensional psi leaves no orthogonal direction, so no n is valid
    message = r"^n \(orthogonal directions\) 1 is refused: no value is valid$"
    with pytest.raises(ValueError, match=message):
        high_entropy_counterexample(PureState(np.ones(1)), 0.1, 1)


def test_density_file_roundtrip(tmp_path):
    rng = np.random.default_rng(44)
    raw = random_density(4, rank=3, seed=rng)
    rho = DensityMatrix(raw.matrix, (2, 2))
    path = tmp_path / "state.txt"
    write_density_file(str(path), rho)
    back = read_density_file(str(path))
    assert back.dims == (2, 2)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


@pytest.mark.parametrize(
    "rho",
    [maximally_mixed(4, (2, 2)).reduced([]), random_density(4, rank=4, seed=9)],
    ids=["no-factors", "two-qubit"],
)
def test_every_written_state_reads_back_bit_for_bit(tmp_path, rho):
    path = tmp_path / "state.txt"
    write_density_file(str(path), rho)
    back = read_density_file(str(path))
    assert back.matrix.tobytes() == rho.matrix.tobytes()
    assert back.dims == (rho.dims or (1,))


def test_read_density_file_rejects_malformed_input(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("2 2\n1 0 0 0\n")
    with pytest.raises(ValueError, match="dims"):
        read_density_file(str(bad_header))

    short = tmp_path / "b.txt"
    short.write_text("dims 2\n1 0 0 0\n")
    with pytest.raises(ValueError, match="expected 8 numbers"):
        read_density_file(str(short))

    alpha = tmp_path / "c.txt"
    alpha.write_text("dims 2\n1 0 0 0 0 0 x 0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_density_file(str(alpha))

    unphysical = tmp_path / "d.txt"
    unphysical.write_text("dims 2\n1 0 0 0 0 0 1 0\n")
    with pytest.raises(ValueError, match="trace"):
        read_density_file(str(unphysical))


@pytest.mark.parametrize(
    "header, message",
    [
        ("dims a b", r"^unreadable dims line 'dims a b'$"),
        ("dims 2.5", r"^unreadable dims line 'dims 2.5'$"),
        ("dims", r"^dims line lists no factor dimensions$"),
        ("dims -2", r"^factor dimension must be at least 1, got -2$"),
        ("dims 2 -1", r"^factor dimension must be at least 1, got -1$"),
    ],
    ids=["letters", "float", "bare", "negative", "negative-second"],
)
def test_read_density_file_refuses_a_bad_dims_line(tmp_path, header, message):
    path = tmp_path / "state.txt"
    path.write_text(f"{header}\n0.5 0 0 0\n0 0 0.5 0\n")
    with pytest.raises(ValueError, match=message):
        read_density_file(str(path))


def test_trace_norm_zero_for_equal_marginals_sanity():
    rho = random_density(3, rank=3, seed=55)
    psi = purify(rho)
    sigma = psi.reduced([0])
    mirror = purify(sigma)
    back = mirror.reduced([0])
    assert trace_norm(back.matrix - sigma.matrix) < 1e-10


def test_stacked_state_cores_match_each_member_bit_for_bit():
    rng = np.random.default_rng(13)
    states = [random_density(6, rank=r, seed=rng) for r in (6, 3, 1, 6)]
    matrices = np.stack([rho.matrix for rho in states])
    for j, vector in enumerate(_purification(matrices)):
        assert np.array_equal(vector, _purification(states[j].matrix))
    vectors, l_max = _max_overlap_vector(matrices, 2, 3)
    for j, rho in enumerate(states):
        alone, top = _max_overlap_vector(rho.matrix, 2, 3)
        assert np.array_equal(vectors[j], alone) and l_max[j] == top
    # (ref, complement) tables with complements of 9 and 12
    v1 = vectors.reshape(4, 2, 9)
    v2 = rng.standard_normal((4, 2, 12)) + 1j * rng.standard_normal((4, 2, 12))
    u, gap = _uhlmann(v1, v2)
    for j in range(4):
        alone_u, alone_gap = _uhlmann(v1[j], v2[j])
        assert np.array_equal(u[j], alone_u) and gap[j] == alone_gap
    # the unit check's stacked norms round as np.vdot of each member
    for stack in (vectors, v2.reshape(4, -1)):
        norms = _dot(stack.conj(), stack).real
        assert [float(x) for x in norms] == [np.vdot(row, row).real for row in stack]


def test_stacked_unit_check_names_the_member():
    vectors = np.stack([random_pure_state(5, seed=s).vector for s in range(3)])
    _check_unit(vectors)
    vectors[1] *= 1.01
    with pytest.raises(ValueError, match=r"^pure state norm 1.01 deviates from 1 at stack index 1$"):
        _check_unit(vectors)
    vectors[0, 2] = np.inf
    with pytest.raises(ValueError, match=r"non-finite entry at index 2 at stack index 0$"):
        _check_unit(vectors)

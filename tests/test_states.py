import numpy as np
import pytest

from qcap.linalg import binary_entropy, trace_norm
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

from helpers import bell_vector, fidelity


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
    with pytest.raises(ValueError, match="out of range"):
        rho.reduced([2])


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


def test_flattened_sets_one_factor_without_solving(monkeypatch):
    pair = DensityMatrix(random_density(4, rank=3, seed=8).matrix, (2, 2))
    solves = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            solves.append(args[0].shape)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    flat = pair.flattened()
    assert solves == []
    assert flat.eigenvalues is pair.eigenvalues
    assert flat.matrix is pair.matrix
    assert (flat.dims, pair.dims) == ((4,), (2, 2))
    for array in (flat.matrix, flat.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def _unit_factor(rng, d, r):
    f = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return f / np.linalg.norm(f)


@pytest.mark.parametrize("d, r", [(6, 2), (6, 6), (6, 9), (1, 1), (5, 1)])
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


def test_from_factor_solves_the_gram_below_full_rank(monkeypatch):
    f = _unit_factor(np.random.default_rng(1), 8, 3)
    solves = []
    solver = np.linalg.eigvalsh

    def counted(m):
        solves.append(m.shape)
        return solver(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    DensityMatrix.from_factor(f, (2, 4))
    assert solves == [(3, 3)]


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
        (f, (2, 0, 2), "must be positive"),
    ]:
        message = _message(lambda: DensityMatrix.from_factor(factor, dims))
        assert match in message
        assert message == _message(lambda: DensityMatrix(factor @ factor.conj().T, dims))
    with pytest.raises(ValueError, match="factor must be a matrix"):
        DensityMatrix.from_factor(np.ones(4) / 2.0)


@pytest.mark.parametrize("shift, raises", [(1e-9, True), (1e-12, False)])
def test_from_factor_floors_the_gram_spectrum(monkeypatch, shift, raises):
    # rank one in a rank-two factor: the Gram spectrum is {0, 1}, moved down by the shift
    f = np.zeros((4, 2), dtype=complex)
    f[0, 0] = 1.0
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solver(m) - shift)
    if raises:
        with pytest.raises(ValueError, match="negative eigenvalue -1.000e-09 below the floor"):
            DensityMatrix.from_factor(f)
    else:
        values = DensityMatrix.from_factor(f).eigenvalues
        assert values.tolist() == [0.0, 0.0, 0.0, 1.0 - shift]


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
    with pytest.raises(ValueError, match="ambient dimension"):
        high_entropy_counterexample(psi, 0.1, 4)


def test_density_file_roundtrip(tmp_path):
    rng = np.random.default_rng(44)
    raw = random_density(4, rank=3, seed=rng)
    rho = DensityMatrix(raw.matrix, (2, 2))
    path = tmp_path / "state.txt"
    write_density_file(str(path), rho)
    back = read_density_file(str(path))
    assert back.dims == (2, 2)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


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

import itertools
from functools import reduce

import numpy as np
import pytest

from qcap.channels import (
    CodingScheme,
    KrausChannel,
    _branch_vectors,
    _check_kraus,
    _compose,
    _conjugate,
    _tensor_power,
    apply_channel,
    apply_to_subsystem,
    compose,
    environment_state,
    erasure_channel,
    identity_channel,
    tensor_power,
    unitary_channel,
)
from qcap.linalg import binary_entropy, von_neumann_entropy
from qcap.states import (
    DensityMatrix,
    PureState,
    maximally_mixed,
    random_density,
    random_pure_state,
    random_unitary,
)

from helpers import bell_vector, random_kraus_channel


def test_kraus_channel_validation():
    half = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel([half])
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel([])
    with pytest.raises(ValueError, match="shape"):
        KrausChannel((np.eye(2, dtype=complex), np.zeros((3, 2), dtype=complex)))
    # what has no length is refused by name, not by a TypeError from len()
    for ops, shown in ((5, "5"), (np.array(1.0), r"array\(1\.\)"), (None, "None")):
        with pytest.raises(ValueError, match=f"^Kraus operators must be a sequence, got {shown}$"):
            KrausChannel(ops)


def test_kraus_channel_rejects_non_finite_operator():
    ops = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    ops[1] = ops[1] * np.nan
    with pytest.raises(ValueError, match="Kraus operator 1 has a non-finite entry"):
        KrausChannel(ops)
    with pytest.raises(ValueError, match="Kraus operator 0 has a non-finite entry"):
        KrausChannel([[[np.nan, 0], [0, 1]]])


def test_kraus_is_one_read_only_stack():
    rng = np.random.default_rng(3)
    chan = random_kraus_channel(2, 3, 4, rng)
    assert isinstance(chan.kraus, np.ndarray)
    assert chan.kraus.shape == (4, 3, 2)
    assert chan.num_kraus == 4
    with pytest.raises(ValueError, match="read-only"):
        chan.kraus[0, 0, 0] = 1.0
    mine = np.array(chan.kraus)
    KrausChannel(mine)
    assert mine.flags.writeable


def test_kraus_channel_reads_dimensions_from_stack():
    ops = [np.zeros((3, 2), dtype=complex) for _ in range(2)]
    ops[0][0, 0] = ops[0][1, 1] = 1.0
    ops[1][2, 0] = 0.0
    chan = KrausChannel(ops[:1])
    assert chan.in_dim == 2
    assert chan.out_dim == 3
    assert chan.num_kraus == 1
    # an array with in != out != k, every dimension read from its shape
    stack = random_kraus_channel(2, 3, 4, np.random.default_rng(5)).kraus
    chan = KrausChannel(np.array(stack))
    assert (chan.num_kraus, chan.out_dim, chan.in_dim) == (4, 3, 2)
    assert KrausChannel(list(stack)).kraus.shape == (4, 3, 2)


def test_kraus_channel_shape_messages():
    lone = r"must be matrices, but entry 0 has shape \(2,\); wrap a single operator A as \[A\]"
    with pytest.raises(ValueError, match=lone):
        KrausChannel(np.eye(2))
    unequal = [np.eye(2), np.eye(2), np.zeros((3, 2))]
    with pytest.raises(ValueError, match=r"Kraus operator 2 has shape \(3, 2\), expected \(2, 2\)"):
        KrausChannel(unequal)


def test_identity_and_unitary_channels():
    rng = np.random.default_rng(1)
    rho = random_density(3, rank=3, seed=rng)
    same = apply_channel(identity_channel(3), rho)
    assert np.max(np.abs(same.matrix - rho.matrix)) < 1e-12
    u = random_unitary(3, seed=rng)
    rotated = apply_channel(unitary_channel(u), rho)
    assert np.max(np.abs(rotated.matrix - u @ rho.matrix @ u.conj().T)) < 1e-12


def test_erasure_channel_structure():
    chan = erasure_channel(0.3)
    assert chan.in_dim == 2
    assert chan.out_dim == 3
    total = sum(a.conj().T @ a for a in chan.kraus)
    assert np.max(np.abs(total - np.eye(2))) < 1e-12

    lossless = erasure_channel(0.0)
    rho = random_density(2, rank=2, seed=5)
    out = apply_channel(lossless, rho)
    assert np.max(np.abs(out.matrix[:2, :2] - rho.matrix)) < 1e-12
    assert np.max(np.abs(out.matrix[2, :])) < 1e-12

    total_loss = apply_channel(erasure_channel(1.0), rho)
    flag = np.zeros((3, 3), dtype=complex)
    flag[2, 2] = 1.0
    assert np.max(np.abs(total_loss.matrix - flag)) < 1e-12

    with pytest.raises(ValueError, match="outside"):
        erasure_channel(-0.1)
    with pytest.raises(ValueError, match="outside"):
        erasure_channel(1.1)


def test_erasure_channel_action_on_flat_state():
    out = apply_channel(erasure_channel(0.25), maximally_mixed(2))
    assert np.max(np.abs(out.matrix - np.diag([0.375, 0.375, 0.25]))) < 1e-12


def test_apply_channel_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match channel input"):
        apply_channel(erasure_channel(0.1), maximally_mixed(3))


def test_apply_to_subsystem_erasure_on_bell_half():
    p = 0.25
    psi = PureState(bell_vector(), (2, 2))
    out = apply_to_subsystem(erasure_channel(p), psi.density(), 1)
    assert out.dims == (2, 3)
    embed = np.zeros((3, 2), dtype=complex)
    embed[0, 0] = embed[1, 1] = 1.0
    lift = np.kron(np.eye(2, dtype=complex), embed)
    kept = lift @ psi.density().matrix @ lift.conj().T
    flag = np.zeros((3, 3), dtype=complex)
    flag[2, 2] = 1.0
    lost = np.kron(np.eye(2, dtype=complex) / 2.0, flag)
    expected = (1.0 - p) * kept + p * lost
    assert np.max(np.abs(out.matrix - expected)) < 1e-12


def test_apply_to_subsystem_full_erasure_decouples():
    psi = PureState(bell_vector(), (2, 2))
    out = apply_to_subsystem(erasure_channel(1.0), psi.density(), 1)
    red = out.reduced([0])
    assert np.max(np.abs(red.matrix - np.eye(2) / 2.0)) < 1e-12
    flag = out.reduced([1])
    assert abs(flag.matrix[2, 2] - 1.0) < 1e-12


def test_apply_to_subsystem_position_and_dimension_errors():
    rho = maximally_mixed(4, (2, 2))
    for factor in (2, -1):
        with pytest.raises(ValueError, match=f"^factor {factor} is outside 0..1$"):
            apply_to_subsystem(erasure_channel(0.1), rho, factor)
    with pytest.raises(ValueError, match="^factor must be an integer, got 0.0$"):
        apply_to_subsystem(erasure_channel(0.1), rho, 0.0)
    rho3 = maximally_mixed(6, (2, 3))
    with pytest.raises(ValueError, match="^factor 1 has dimension 3, channel expects 2$"):
        apply_to_subsystem(erasure_channel(0.1), rho3, 1)


def test_tensor_power_matches_sequential_application():
    chan = erasure_channel(0.3)
    rho = maximally_mixed(4, (2, 2))
    via_power = apply_channel(tensor_power(chan, 2), rho.flattened())
    step1 = apply_to_subsystem(chan, rho, 0)
    step2 = apply_to_subsystem(chan, step1, 1)
    assert np.max(np.abs(via_power.matrix - step2.matrix)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_power_stack_order_matches_explicit_kron(n):
    chan = random_kraus_channel(2, 3, 4, np.random.default_rng(37))
    expected = [reduce(np.kron, combo) for combo in itertools.product(chan.kraus, repeat=n)]
    power = tensor_power(chan, n)
    assert power.kraus.shape == (4**n, 3**n, 2**n)
    assert np.array_equal(power.kraus, np.stack(expected))


def test_tensor_power_trivial_and_guard():
    chan = erasure_channel(0.2)
    assert tensor_power(chan, 1) is chan
    with pytest.raises(ValueError, match="^block size must be at least 1, got 0$"):
        tensor_power(chan, 0)
    with pytest.raises(ValueError, match="limit"):
        tensor_power(chan, 7)


def test_compose_identity_is_neutral():
    rng = np.random.default_rng(7)
    chan = random_kraus_channel(2, 3, 2, rng)
    left = compose(identity_channel(3), chan)
    right = compose(chan, identity_channel(2))
    rho = random_density(2, rank=2, seed=rng)
    base = apply_channel(chan, rho).matrix
    assert np.max(np.abs(apply_channel(left, rho).matrix - base)) < 1e-12
    assert np.max(np.abs(apply_channel(right, rho).matrix - base)) < 1e-12


def test_compose_matches_sequential_action():
    rng = np.random.default_rng(11)
    inner = random_kraus_channel(2, 3, 3, rng)
    outer = random_kraus_channel(3, 2, 2, rng)
    rho = random_density(2, rank=2, seed=rng)
    combined = apply_channel(compose(outer, inner), rho)
    stepwise = apply_channel(outer, apply_channel(inner, rho).flattened())
    assert np.max(np.abs(combined.matrix - stepwise.matrix)) < 1e-10


def test_compose_stack_is_outer_major():
    rng = np.random.default_rng(43)
    inner = random_kraus_channel(2, 3, 4, rng)
    outer = random_kraus_channel(3, 5, 2, rng)
    both = compose(outer, inner)
    assert both.kraus.shape == (8, 5, 2)
    for i, j in itertools.product(range(2), range(4)):
        assert np.array_equal(both.kraus[i * inner.num_kraus + j], outer.kraus[i] @ inner.kraus[j])


def test_compose_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="cannot compose"):
        compose(erasure_channel(0.1), erasure_channel(0.1))


def test_environment_state_basics():
    rng = np.random.default_rng(13)
    rho = random_density(3, rank=3, seed=rng)
    u = random_unitary(3, seed=rng)
    w = environment_state(unitary_channel(u), rho)
    assert w.matrix.shape == (1, 1)
    assert abs(w.matrix[0, 0] - 1.0) < 1e-12
    assert abs(w.entropy()) < 1e-12


def test_environment_state_erasure_oracle():
    w = environment_state(erasure_channel(0.25), maximally_mixed(2))
    assert np.max(np.abs(w.matrix - np.diag([0.75, 0.125, 0.125]))) < 1e-12
    expected = 0.75 * np.log2(1 / 0.75) + 2 * 0.125 * np.log2(8.0)
    assert abs(w.entropy() - expected) < 1e-12


def _flag_erasure(q):
    """Qutrit kept with probability 1 - q, else replaced by the flag level 2."""
    ops = np.zeros((4, 3, 3), dtype=complex)
    ops[0] = np.sqrt(1.0 - q) * np.eye(3)
    ops[1:, 2, :] = np.sqrt(q) * np.eye(3)
    return KrausChannel(ops)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.49, 0.5])
def test_erasure_is_degradable(n, p):
    # for p <= 1/2 the environment, (1 - p) on a flag and p rho on two levels, is
    # the output erased again with q = (1 - 2p) / (1 - p), levels reindexed [2, 0, 1]
    q = (1.0 - 2.0 * p) / (1.0 - p)
    block = tensor_power(erasure_channel(p), n)
    degraded = compose(tensor_power(_flag_erasure(q), n), block)
    order = np.arange(3**n).reshape((3,) * n)[np.ix_(*[[2, 0, 1]] * n)].ravel()
    rng = np.random.default_rng(int(100 * p) + n)
    for _ in range(5):
        rho = random_density(2**n, rank=int(rng.integers(1, 2**n + 1)), seed=rng)
        env = environment_state(block, rho).matrix
        out = apply_channel(degraded, rho).matrix[np.ix_(order, order)]
        assert np.abs(env - out).max() < 1e-14


def test_environment_state_matches_explicit_traces():
    rng = np.random.default_rng(47)
    chan = random_kraus_channel(3, 2, 4, rng)
    rho = random_density(3, rank=3, seed=rng)
    expected = np.array(
        [[np.trace(a @ rho.matrix @ b.conj().T) for b in chan.kraus] for a in chan.kraus]
    )
    w = environment_state(chan, rho)
    assert w.dims == (4,)
    assert np.max(np.abs(w.matrix - expected)) < 1e-12


def test_environment_entropy_invariant_under_kraus_rotation():
    rng = np.random.default_rng(17)
    chan = random_kraus_channel(2, 3, 3, rng)
    big = random_unitary(5, seed=rng)
    v = big[:, :3]
    mixed_ops = [
        sum(v[j, k] * chan.kraus[k] for k in range(3)) for j in range(5)
    ]
    other = KrausChannel(mixed_ops)
    rho = random_density(2, rank=2, seed=rng)
    s1 = environment_state(chan, rho).entropy()
    s2 = environment_state(other, rho).entropy()
    assert abs(s1 - s2) < 1e-9
    out1 = apply_channel(chan, rho)
    out2 = apply_channel(other, rho)
    assert np.max(np.abs(out1.matrix - out2.matrix)) < 1e-10


def test_erasure_output_entropy_identity():
    rng = np.random.default_rng(19)
    for p in (0.0, 0.3, 0.7, 1.0):
        rho = random_density(2, rank=2, seed=rng)
        out = apply_channel(erasure_channel(p), rho)
        expected = binary_entropy(p) + (1.0 - p) * von_neumann_entropy(rho.matrix)
        assert abs(out.entropy() - expected) < 1e-9


def test_measure_environment_branches_unitary_single_branch():
    rng = np.random.default_rng(23)
    u = random_unitary(2, seed=rng)
    psi = PureState(bell_vector(), (2, 2))
    rows = _branch_vectors(unitary_channel(u).kraus, psi.vector, psi.dims, 1)
    assert rows.shape == (1, 4)
    prob = np.vdot(rows[0], rows[0]).real
    assert abs(prob - 1.0) < 1e-12
    expected = np.kron(np.eye(2, dtype=complex), u) @ psi.vector
    phase = np.vdot(rows[0] / np.sqrt(prob), expected)
    assert abs(abs(phase) - 1.0) < 1e-10


def test_measure_environment_branches_erasure_on_bell():
    # one branch per Kraus operator, each on (2, 3) with the erased factor resized
    p = 0.3
    psi = PureState(bell_vector(), (2, 2))
    rows = _branch_vectors(erasure_channel(p).kraus, psi.vector, psi.dims, 1)
    assert rows.shape == (3, 2 * 3)
    probs = np.einsum("ki,ki->k", rows.conj(), rows).real
    assert np.allclose(sorted(probs), [p / 2.0, p / 2.0, 1.0 - p], atol=1e-12)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_measure_environment_branches_reconstruct_output():
    rng = np.random.default_rng(29)
    chan = random_kraus_channel(2, 3, 3, rng)
    psi = PureState(bell_vector(), (2, 2))
    rows = _branch_vectors(chan.kraus, psi.vector, psi.dims, 1)
    mix = sum(np.outer(row, row.conj()) for row in rows)
    direct = apply_to_subsystem(chan, psi.density(), 1)
    assert np.max(np.abs(mix - direct.matrix)) < 1e-10


@pytest.mark.parametrize(
    "idx, in_dim, out_dim, num_kraus",
    [(0, 2, 3, 2), (1, 3, 2, 3), (2, 2, 4, 3)],
    ids=["a-2-3-2", "b-3-2-3", "c-2-4-3"],
)
def test_factor_kernel_on_each_factor(idx, in_dim, out_dim, num_kraus):
    rng = np.random.default_rng(41)
    dims = (2, 3, 2)
    chan = random_kraus_channel(in_dim, out_dim, num_kraus, rng)
    left = np.eye(int(np.prod(dims[:idx])), dtype=complex)
    right = np.eye(int(np.prod(dims[idx + 1 :])), dtype=complex)
    lifted = [np.kron(np.kron(left, a), right) for a in chan.kraus]
    new_dims = dims[:idx] + (out_dim,) + dims[idx + 1 :]

    rho = DensityMatrix(random_density(12, rank=12, seed=rng).matrix, dims)
    expected = sum(op @ rho.matrix @ op.conj().T for op in lifted)
    out = apply_to_subsystem(chan, rho, idx)
    assert out.dims == new_dims
    assert np.max(np.abs(out.matrix - expected)) < 1e-12

    psi = random_pure_state(12, rng, dims)
    expected = sum(np.outer(op @ psi.vector, (op @ psi.vector).conj()) for op in lifted)
    rows = _branch_vectors(chan.kraus, psi.vector, dims, idx)
    mix = sum(np.outer(row, row.conj()) for row in rows)
    assert rows.shape == (num_kraus, int(np.prod(new_dims)))
    assert np.max(np.abs(mix - expected)) < 1e-12


def test_coding_scheme_validation():
    source = maximally_mixed(2)
    with pytest.raises(ValueError, match="block size"):
        CodingScheme(source, identity_channel(2), identity_channel(2), 0)
    with pytest.raises(ValueError, match="encoder input dimension"):
        CodingScheme(source, identity_channel(3), identity_channel(2), 1)
    scheme = CodingScheme(source, identity_channel(2), identity_channel(2), 1)
    assert scheme.block_size == 1


def test_stacked_channel_cores_match_each_member_bit_for_bit():
    # each member of a stack gets exactly the single-channel result
    rng = np.random.default_rng(11)
    channels = [random_kraus_channel(2, 3, 2, rng) for _ in range(4)]
    kraus = np.stack([c.kraus for c in channels])
    states = [random_density(6, rank=6, seed=rng) for _ in range(4)]
    matrices = np.stack([rho.matrix for rho in states])
    for dims, idx in (((2, 3), 0), ((3, 2), 1), ((2,), 0)):
        size = int(np.prod(dims))
        stacked = _conjugate(kraus, matrices[:, :size, :size], dims, idx)
        for j, c in enumerate(channels):
            alone = _conjugate(c.kraus, matrices[j, :size, :size], dims, idx)
            assert np.array_equal(stacked[j], alone)
    square = np.stack([random_kraus_channel(2, 2, 3, rng).kraus for _ in range(3)])
    for j, ops in enumerate(_tensor_power(square, 2)):
        assert np.array_equal(ops, tensor_power(KrausChannel(square[j]), 2).kraus)
    outer = np.stack([random_kraus_channel(3, 2, 2, rng).kraus for _ in range(4)])
    for j, ops in enumerate(_compose(outer, kraus)):
        assert np.array_equal(ops, compose(KrausChannel(outer[j]), channels[j]).kraus)
    vectors = np.stack([random_pure_state(6, seed=rng).vector for _ in range(4)])
    for j, rows in enumerate(_branch_vectors(kraus, vectors, (3, 2), 1)):
        assert np.array_equal(rows, _branch_vectors(channels[j].kraus, vectors[j], (3, 2), 1))


def test_stacked_completeness_check_names_the_member():
    rng = np.random.default_rng(12)
    kraus = np.stack([random_kraus_channel(2, 2, 2, rng).kraus for _ in range(4)])
    _check_kraus(kraus)
    kraus[2] *= 1.001
    with pytest.raises(ValueError, match=r"violate completeness: .* at stack index 2$"):
        _check_kraus(kraus)
    kraus[1, 1, 0, 1] = np.nan
    message = r"^Kraus operator 1 has a non-finite entry at stack index 1$"
    with pytest.raises(ValueError, match=message):
        _check_kraus(kraus)

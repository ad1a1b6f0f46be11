import dataclasses
import itertools
import math

import numpy as np
import pytest

from qcap.channels import (
    CodingScheme,
    KrausChannel,
    _branch_vectors,
    apply_to_subsystem,
    compose,
    erasure_channel,
    identity_channel,
    tensor_power,
)
from qcap import elimination
from qcap.elimination import (
    BRANCH_CUTOFF,
    FIDELITY_SLACK,
    MARGINAL_GAP_TOL,
    eliminate_encoder,
    eliminate_encoders,
    random_demo_schemes,
)
from qcap.functionals import (
    PURIFICATION_METHOD,
    end_to_end_fidelity,
    entanglement_fidelity,
)
from qcap.states import (
    DensityMatrix,
    PureState,
    _max_overlap_vector,
    maximally_mixed,
    purify,
    random_density,
)


def test_trivial_scheme_eliminates_cleanly():
    source = maximally_mixed(2)
    scheme = CodingScheme(source, identity_channel(2), identity_channel(2), 1)
    instance = eliminate_encoder(scheme, identity_channel(2))
    assert instance.eps_in < 1e-12
    assert instance.branch_index == 0
    assert instance.eps_out <= 2.0 * instance.eps_in + FIDELITY_SLACK
    assert instance.entropy_gap < 1e-9
    assert not instance.flagged
    assert instance.fidelity_ok
    assert instance.entropy_ok
    assert instance.rho_prime.dim == 2
    assert np.max(np.abs(instance.rho_prime.matrix - source.matrix)) < 1e-9


def test_flagged_follows_marginal_gap():
    scheme = CodingScheme(maximally_mixed(2), identity_channel(2), identity_channel(2), 1)
    instance = eliminate_encoder(scheme, identity_channel(2))
    assert not dataclasses.replace(instance, marginal_gap=MARGINAL_GAP_TOL).flagged
    assert dataclasses.replace(instance, marginal_gap=2.0 * MARGINAL_GAP_TOL).flagged


def test_split_isometry_family_is_exact():
    scheme, channel = list(random_demo_schemes(1, seed=10))[0]
    instance = eliminate_encoder(scheme, channel)
    assert instance.eps_in < 1e-10
    assert instance.eps_out < 1e-7
    assert instance.marginal_gap < 1e-8
    assert not instance.flagged


def test_noisy_rotation_family_obeys_doubling():
    scheme, channel = list(random_demo_schemes(2, seed=10))[1]
    instance = eliminate_encoder(scheme, channel)
    assert 0.0 < instance.eps_in < 1.0 / 72.0
    assert instance.fidelity_ok
    assert instance.entropy_ok
    assert instance.eps_out <= 2.0 * instance.eps_in + FIDELITY_SLACK


def test_erasure_recovery_family_is_exact_and_near_doubling():
    # the one family whose eps_out/eps_in comes near 2: every instance must
    # be exact, unflagged and within the doubling bound
    for seed in (0, 1, 2):
        ratios = []
        for scheme, channel in list(random_demo_schemes(300, seed))[2::3]:
            instance = eliminate_encoder(scheme, channel)
            assert not instance.flagged
            assert instance.marginal_gap < 1e-12
            assert instance.fidelity_ok
            assert instance.entropy_ok
            ratios.append(instance.eps_out / instance.eps_in)
        assert max(ratios) > 1.9


def test_batch_of_demo_schemes_meets_contract():
    for scheme, channel in random_demo_schemes(15, seed=77):
        instance = eliminate_encoder(scheme, channel)
        assert instance.entropy_ok
        if not instance.flagged:
            assert instance.fidelity_ok


def test_tail_decoder_shapes_and_completeness():
    scheme, channel = list(random_demo_schemes(2, seed=4))[1]
    instance = eliminate_encoder(scheme, channel)
    tail = instance.tail_decoder
    block = tensor_power(channel, scheme.block_size)
    assert tail.in_dim == scheme.decoder.out_dim
    assert tail.out_dim == block.in_dim
    total = sum(k.conj().T @ k for k in tail.kraus)
    assert np.max(np.abs(total - np.eye(tail.in_dim))) < 1e-9


def _weak_damping_scheme(d, gamma, source):
    """Encoder A_0 = diag(1, sqrt(1-gamma), ...), A_k = sqrt(gamma)|0><k|, identity elsewhere."""
    ops = np.zeros((d, d, d), dtype=complex)
    ops[0] = np.diag([1.0] + [math.sqrt(1.0 - gamma)] * (d - 1))
    for k in range(1, d):
        ops[k, 0, k] = math.sqrt(gamma)
    scheme = CodingScheme(source, KrausChannel(ops), identity_channel(d), 1)
    return scheme, identity_channel(d)


def test_instance_numbers_are_reproducible_from_parts():
    _check_reproducible_from_parts(*list(random_demo_schemes(2, seed=21))[1])
    # a damping branch is no isometry, so rho_prime's spectrum moves off the source's
    damping = _weak_damping_scheme(3, 0.01, random_density(3, rank=3, seed=2))
    instance = _check_reproducible_from_parts(*damping)
    assert instance.entropy_gap > 1e-4
    assert instance.fidelity_ok and instance.entropy_ok and not instance.flagged


def _check_reproducible_from_parts(scheme, channel):
    instance = eliminate_encoder(scheme, channel)

    eps_in = 1.0 - end_to_end_fidelity(scheme, channel).value
    assert abs(instance.eps_in - eps_in) < 1e-12

    block = tensor_power(channel, scheme.block_size)
    decode_block = compose(scheme.decoder, block)
    redo = entanglement_fidelity(
        instance.rho_prime, compose(instance.tail_decoder, decode_block)
    )
    assert abs(instance.eps_out - (1.0 - redo.value)) < 1e-12

    gap = abs(scheme.source.entropy() - instance.rho_prime.entropy())
    assert abs(instance.entropy_gap - gap) < 1e-12

    d_src = scheme.source.dim
    bound = 2.0 * math.sqrt(2.0 * instance.eps_in) * math.log2(d_src) + 2.0
    assert abs(instance.entropy_bound - bound) < 1e-12
    return instance


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eps_out_matches_purification_route(seed):
    # 30 schemes cycle through all three demo families ten times each
    for scheme, channel in random_demo_schemes(30, seed):
        inst = eliminate_encoder(scheme, channel)
        chain = compose(
            inst.tail_decoder,
            compose(scheme.decoder, tensor_power(channel, scheme.block_size)),
        )
        redo = entanglement_fidelity(inst.rho_prime, chain, method=PURIFICATION_METHOD)
        assert abs(inst.eps_out - (1.0 - redo.value)) < 1e-10


def test_eps_out_is_stable_under_tiny_source_nudge():
    # the tail isometry must depend continuously on its inputs: a 1e-15
    # change of the source may not move eps_out by more than 1e-9
    rng = np.random.default_rng(5)
    rotations = list(random_demo_schemes(300, 0))[1::3]
    worst = 0.0
    for scheme, channel in rotations:
        d = scheme.source.dim
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = h + h.conj().T
        h -= np.trace(h) / d * np.eye(d)
        h *= 1e-15 / np.max(np.abs(h))
        nudged = dataclasses.replace(
            scheme, source=DensityMatrix(scheme.source.matrix + h)
        )
        base = eliminate_encoder(scheme, channel).eps_out
        moved = eliminate_encoder(nudged, channel).eps_out
        worst = max(worst, abs(moved - base))
    assert worst < 1e-9


def test_selected_branch_is_first_argmax():
    scheme, channel = list(random_demo_schemes(2, seed=33))[1]
    instance = eliminate_encoder(scheme, channel)

    source = scheme.source.flattened()
    phi = purify(source)
    block = tensor_power(channel, scheme.block_size)
    decode_block = compose(scheme.decoder, block)
    outs, fids = [], []
    for psi in _kept_branches(scheme.encoder, phi):
        outs.append(apply_to_subsystem(decode_block, psi.density(), 1))
        fids.append(float(np.real(phi.vector.conj() @ outs[-1].matrix @ phi.vector)))
    best = max(range(len(fids)), key=lambda i: (fids[i], -i))
    assert instance.branch_index == best
    # averaging: the best conditional fidelity is at least the overall one
    assert fids[best] >= 1.0 - instance.eps_in - 1e-10
    _, l_max = _max_overlap_vector(outs[best].matrix, *outs[best].dims)
    assert l_max**2 >= (1.0 - instance.eps_in) ** 2 - 1e-9


def _kept_branches(encoder, phi):
    """Normalized encoder branches of a purified source above ``BRANCH_CUTOFF``, in order."""
    kept = []
    for row in _branch_vectors(encoder.kraus, phi.vector, phi.dims, 1):
        prob = np.vdot(row, row).real
        if prob > BRANCH_CUTOFF:
            kept.append(PureState(row / math.sqrt(prob), (phi.dims[0], encoder.out_dim)))
    return kept


def _count_solves_and_decodes(monkeypatch, pairs):
    """eigvalsh calls and the stack shapes the decode block maps, for one elimination call."""
    decode = np.stack(
        [compose(scheme.decoder, tensor_power(channel, scheme.block_size)).kraus
         for scheme, channel in pairs]
    )
    solves, decodes = [], []
    eigvalsh, conjugate = np.linalg.eigvalsh, elimination._conjugate

    def counted_solve(matrix):
        solves.append(matrix.shape[:-2])
        return eigvalsh(matrix)

    def counted_conjugate(kraus, matrix, *args):
        if np.array_equal(kraus, decode):
            decodes.append(matrix.shape[:-2])
        return conjugate(kraus, matrix, *args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_solve)
    monkeypatch.setattr(elimination, "_conjugate", counted_conjugate)
    if len(pairs) == 1:
        eliminate_encoder(*pairs[0])
    else:
        list(eliminate_encoders(pairs))
    return solves, decodes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elimination_decodes_only_the_kept_branch(monkeypatch, seed):
    # three validations: the kept branch, its decoded output, rho_prime; the
    # decode block maps the kept branch alone, one per instance
    schemes = random_demo_schemes(30, seed)
    for pair in schemes:
        solves, decodes = _count_solves_and_decodes(monkeypatch, [pair])
        assert (len(solves), decodes) == (3, [(1,)])
    # the same three solves and one decode for a stack of 30 same-shape schemes
    stack = list(random_demo_schemes(90, seed))[0::3]
    solves, decodes = _count_solves_and_decodes(monkeypatch, stack)
    assert (solves, decodes) == ([(30,)] * 3, [(30,)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kept_branch_has_the_best_decoded_fidelity(seed):
    for scheme, channel in random_demo_schemes(30, seed):
        inst = eliminate_encoder(scheme, channel)
        phi = purify(scheme.source.flattened())
        decode_block = compose(scheme.decoder, tensor_power(channel, scheme.block_size))
        fids = []
        for psi in _kept_branches(scheme.encoder, phi):
            out = apply_to_subsystem(decode_block, psi.density(), 1)
            fids.append(float(np.vdot(phi.vector, out.matrix @ phi.vector).real))
        # split-isometry branches both decode to fidelity 1 up to rounding, so
        # the kept index is pinned only up to ties
        kept = fids[inst.branch_index]
        assert kept >= max(fids) - 1e-12
        assert kept >= 1.0 - inst.eps_in - 1e-10


def test_eliminate_encoder_rejects_poor_schemes():
    source = maximally_mixed(2)
    # decoder that dephases badly: fidelity 0.5 for the flat source
    z = np.diag([1.0, -1.0]).astype(complex)
    dephase = [np.eye(2, dtype=complex) / math.sqrt(2.0), z / math.sqrt(2.0)]
    from qcap.channels import KrausChannel

    noisy = KrausChannel(dephase)
    scheme = CodingScheme(source, identity_channel(2), noisy, 1)
    with pytest.raises(ValueError, match="validity window"):
        eliminate_encoder(scheme, identity_channel(2))


def _oversized_source_pair():
    # nearly pure three-level source: the lossy qubit bottleneck still
    # carries it faithfully, so the dimension precondition fires, not the
    # fidelity gate
    delta = 1e-4
    source = DensityMatrix(np.diag([1.0 - delta, delta / 2.0, delta / 2.0]).astype(complex))
    drop = np.zeros((2, 3), dtype=complex)
    drop[0, 0] = drop[1, 1] = 1.0
    rest = np.zeros((2, 3), dtype=complex)
    rest[0, 2] = 1.0
    encoder = KrausChannel([drop, rest])
    lift = np.zeros((3, 2), dtype=complex)
    lift[0, 0] = lift[1, 1] = 1.0
    decoder = KrausChannel([lift])
    return CodingScheme(source, encoder, decoder, 1), identity_channel(2)


def test_eliminate_encoder_rejects_oversized_source():
    with pytest.raises(ValueError, match="exceeds the channel input"):
        eliminate_encoder(*_oversized_source_pair())


def test_random_demo_schemes_are_valid_and_deterministic():
    first = list(random_demo_schemes(6, seed=9))
    again = list(random_demo_schemes(6, seed=9))
    assert len(first) == 6
    for (s1, c1), (s2, c2) in zip(first, again):
        for a, b in zip(s1.encoder.kraus, s2.encoder.kraus):
            assert np.max(np.abs(a - b)) == 0.0
        for a, b in zip(c1.kraus, c2.kraus):
            assert np.max(np.abs(a - b)) == 0.0
        fid = end_to_end_fidelity(s1, c1).value
        assert fid > 1.0 - 1.0 / 72.0

    # the count is checked at the call, and each scheme is drawn as it is taken
    with pytest.raises(ValueError, match="at least one scheme"):
        random_demo_schemes(0, seed=1)
    taken = itertools.islice(random_demo_schemes(10**9, seed=9), len(first))
    for (s1, _), (s2, _) in zip(first, taken):
        assert np.array_equal(s1.encoder.kraus, s2.encoder.kraus)


def test_rho_prime_feeds_channel_directly():
    scheme, channel = list(random_demo_schemes(1, seed=2))[0]
    instance = eliminate_encoder(scheme, channel)
    block = tensor_power(channel, scheme.block_size)
    assert instance.rho_prime.dim == block.in_dim
    direct = entanglement_fidelity(
        instance.rho_prime, compose(instance.tail_decoder, compose(scheme.decoder, block))
    )
    assert abs((1.0 - direct.value) - instance.eps_out) < 1e-12


@pytest.mark.parametrize("chunk", [elimination._CHUNK, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_batch_matches_one_at_a_time(monkeypatch, seed, chunk):
    # 60 schemes fall into five shape groups; a chunk of 7 splits each group
    monkeypatch.setattr(elimination, "_CHUNK", chunk)
    pairs = list(random_demo_schemes(60, seed))
    batch = list(eliminate_encoders(pairs))
    assert len(batch) == len(pairs)
    for (scheme, channel), got in zip(pairs, batch):
        alone = eliminate_encoder(scheme, channel)
        assert got.scheme is scheme
        assert (got.eps_in, got.entropy_bound, got.branch_index, got.flagged) == (
            alone.eps_in, alone.entropy_bound, alone.branch_index, alone.flagged
        )
        for field in ("eps_out", "entropy_gap", "marginal_gap"):
            assert abs(getattr(got, field) - getattr(alone, field)) <= 1e-12
        assert np.max(np.abs(got.rho_prime.matrix - alone.rho_prime.matrix)) <= 1e-12
        assert np.max(np.abs(got.tail_decoder.kraus - alone.tail_decoder.kraus)) <= 1e-12
        assert got.rho_prime.dims == alone.rho_prime.dims
        assert not got.rho_prime.matrix.flags.writeable
        assert not got.tail_decoder.kraus.flags.writeable


@pytest.mark.parametrize("window", [elimination._WINDOW, 6])
def test_stacked_check_names_the_failing_instance(monkeypatch, window):
    # instance 8 shares the erasure-recovery shape with 2, 5 and 11, but sends
    # its scheme through a half-erasing channel: stack index 2, input index 8;
    # a window of 6 puts it at position 2 of the second window
    monkeypatch.setattr(elimination, "_WINDOW", window)
    pairs = list(random_demo_schemes(12, 0))
    pairs[8] = (pairs[8][0], erasure_channel(0.5))
    with pytest.raises(ValueError, match=r"validity window.* at instance 8$"):
        list(eliminate_encoders(pairs))
    # a linalg check on the stack names the member by its input position: the
    # second split-isometry member is instance 3
    real = elimination.density_spectrum

    def doubled_second(m):
        m = m.copy()
        m[1] *= 2.0
        return real(m)

    with monkeypatch.context() as patch:
        patch.setattr(elimination, "density_spectrum", doubled_second)
        with pytest.raises(ValueError, match=r"trace 2.* deviates from 1 at instance 3$"):
            list(eliminate_encoders(random_demo_schemes(12, 0)))
    # a check on shapes alone names the first instance of its group
    pairs = list(random_demo_schemes(4, 0))
    pairs[3] = _oversized_source_pair()
    with pytest.raises(ValueError, match=r"exceeds the channel input.* at instance 3$"):
        list(eliminate_encoders(pairs))


def test_solves_per_chunk_do_not_grow_with_its_size(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args[0].shape[:-2])
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    erasure = list(random_demo_schemes(90, 3))[2::3]
    counts = []
    for size in (1, 2, 30):
        pairs = erasure[:size]
        calls.clear()
        list(eliminate_encoders(pairs))
        counts.append(len(calls))
        assert all(shape == (size,) for shape in calls)
    assert counts[0] == counts[1] == counts[2]


def test_eliminate_encoders_of_nothing_is_empty():
    assert list(eliminate_encoders([])) == []


def test_eliminated_reads_its_input_one_window_at_a_time():
    # an endless stream yields its first instances after one window is drawn
    drawn = []

    def endless():
        scheme, channel = list(random_demo_schemes(1, 0))[0]
        while True:
            drawn.append(None)
            yield scheme, channel

    first = list(itertools.islice(eliminate_encoders(endless()), 3))
    assert len(first) == 3
    assert len(drawn) == elimination._WINDOW


def test_branch_index_counts_only_kept_branches():
    # the zero operator's branch has probability 0: it is dropped, so the one
    # kept branch has index 0 among the kept, as _kept_branches lists them
    zero = np.zeros((2, 2), dtype=complex)
    encoder = KrausChannel([zero, np.eye(2, dtype=complex)])
    scheme = CodingScheme(maximally_mixed(2), encoder, identity_channel(2), 1)
    phi = purify(scheme.source.flattened())
    assert len(_kept_branches(encoder, phi)) == 1
    for instance in eliminate_encoders([(scheme, identity_channel(2))] * 3):
        assert instance.branch_index == 0
        assert instance.eps_out < 1e-12 and not instance.flagged


def test_two_channel_uses_eliminate_on_the_stacked_block():
    # a slightly bit-flipping qubit channel used twice carries a four-level
    # source; the block's Kraus products are formed and checked on the stack
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    channel = KrausChannel([math.sqrt(0.999) * np.eye(2), math.sqrt(0.001) * flip])
    for seed in range(3):
        source = random_density(4, rank=4, seed=seed)
        scheme = CodingScheme(source, identity_channel(4), identity_channel(4), 2)
        instance = _check_reproducible_from_parts(scheme, channel)
        assert 0.0 < instance.eps_in < 1.0 / 72.0
        assert instance.fidelity_ok and instance.entropy_ok and not instance.flagged

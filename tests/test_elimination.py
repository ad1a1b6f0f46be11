import dataclasses
import math

import numpy as np
import pytest

from qcap.channels import (
    CodingScheme,
    apply_to_subsystem,
    compose,
    identity_channel,
    measure_environment_branches,
    tensor_power,
)
from qcap import elimination
from qcap.elimination import (
    FIDELITY_SLACK,
    MARGINAL_GAP_TOL,
    eliminate_encoder,
    random_demo_schemes,
)
from qcap.functionals import (
    PURIFICATION_METHOD,
    end_to_end_fidelity,
    entanglement_fidelity,
)
from qcap.states import (
    DensityMatrix,
    max_overlap_purification,
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
    scheme, channel = random_demo_schemes(1, seed=10)[0]
    instance = eliminate_encoder(scheme, channel)
    assert instance.eps_in < 1e-10
    assert instance.eps_out < 1e-7
    assert instance.marginal_gap < 1e-8
    assert not instance.flagged


def test_noisy_rotation_family_obeys_doubling():
    scheme, channel = random_demo_schemes(2, seed=10)[1]
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
        for scheme, channel in random_demo_schemes(300, seed)[2::3]:
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
    scheme, channel = random_demo_schemes(2, seed=4)[1]
    instance = eliminate_encoder(scheme, channel)
    tail = instance.tail_decoder
    block = tensor_power(channel, scheme.block_size)
    assert tail.in_dim == scheme.decoder.out_dim
    assert tail.out_dim == block.in_dim
    total = sum(k.conj().T @ k for k in tail.kraus)
    assert np.max(np.abs(total - np.eye(tail.in_dim))) < 1e-9


def test_instance_numbers_are_reproducible_from_parts():
    scheme, channel = random_demo_schemes(2, seed=21)[1]
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
    rotations = random_demo_schemes(300, 0)[1::3]
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
    scheme, channel = random_demo_schemes(2, seed=33)[1]
    instance = eliminate_encoder(scheme, channel)

    source = scheme.source.flattened()
    phi = purify(source)
    block = tensor_power(channel, scheme.block_size)
    decode_block = compose(scheme.decoder, block)
    branches = measure_environment_branches(scheme.encoder, phi, 1)
    outs, fids = [], []
    for _, psi in branches:
        outs.append(apply_to_subsystem(decode_block, psi.density(), 1))
        fids.append(float(np.real(phi.vector.conj() @ outs[-1].matrix @ phi.vector)))
    best = max(range(len(fids)), key=lambda i: (fids[i], -i))
    assert instance.branch_index == best
    # averaging: the best conditional fidelity is at least the overall one
    assert fids[best] >= 1.0 - instance.eps_in - 1e-10
    _, l_max = max_overlap_purification(outs[best])
    assert l_max**2 >= (1.0 - instance.eps_in) ** 2 - 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elimination_decodes_only_the_kept_branch(monkeypatch, seed):
    # three validations per instance: the kept branch, its decoded output, rho_prime
    schemes = random_demo_schemes(30, seed)
    solves, decodes = [], []
    eigvalsh, decode = np.linalg.eigvalsh, elimination.apply_to_subsystem

    def counted_solve(matrix):
        solves.append(matrix.shape[-1])
        return eigvalsh(matrix)

    def counted_decode(*args):
        decodes.append(args[-1])
        return decode(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_solve)
    monkeypatch.setattr(elimination, "apply_to_subsystem", counted_decode)
    for scheme, channel in schemes:
        solves.clear()
        decodes.clear()
        eliminate_encoder(scheme, channel)
        assert (len(solves), decodes) == (3, [1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kept_branch_has_the_best_decoded_fidelity(seed):
    for scheme, channel in random_demo_schemes(30, seed):
        inst = eliminate_encoder(scheme, channel)
        phi = purify(scheme.source.flattened())
        decode_block = compose(scheme.decoder, tensor_power(channel, scheme.block_size))
        fids = []
        for _, psi in measure_environment_branches(scheme.encoder, phi, 1):
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


def test_eliminate_encoder_rejects_oversized_source():
    from qcap.channels import KrausChannel
    from qcap.states import DensityMatrix

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
    scheme = CodingScheme(source, encoder, decoder, 1)
    with pytest.raises(ValueError, match="exceeds the channel input"):
        eliminate_encoder(scheme, identity_channel(2))


def test_random_demo_schemes_are_valid_and_deterministic():
    first = random_demo_schemes(6, seed=9)
    again = random_demo_schemes(6, seed=9)
    assert len(first) == 6
    for (s1, c1), (s2, c2) in zip(first, again):
        for a, b in zip(s1.encoder.kraus, s2.encoder.kraus):
            assert np.max(np.abs(a - b)) == 0.0
        for a, b in zip(c1.kraus, c2.kraus):
            assert np.max(np.abs(a - b)) == 0.0
        fid = end_to_end_fidelity(s1, c1).value
        assert fid > 1.0 - 1.0 / 72.0

    with pytest.raises(ValueError, match="at least one scheme"):
        random_demo_schemes(0, seed=1)


def test_rho_prime_feeds_channel_directly():
    scheme, channel = random_demo_schemes(1, seed=2)[0]
    instance = eliminate_encoder(scheme, channel)
    block = tensor_power(channel, scheme.block_size)
    assert instance.rho_prime.dim == block.in_dim
    direct = entanglement_fidelity(
        instance.rho_prime, compose(instance.tail_decoder, compose(scheme.decoder, block))
    )
    assert abs((1.0 - direct.value) - instance.eps_out) < 1e-12

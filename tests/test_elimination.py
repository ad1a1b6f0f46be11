import dataclasses
import hashlib
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
from qcap import channels, cli, elimination, erasure, functionals, linalg, states
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

from helpers import count_factorizations, demo_scheme_reference


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


def test_noisy_rotation_shrinks_the_drift_until_faithful(monkeypatch):
    # the first reading of the first rotation stack calls its first member, scheme 1,
    # unfaithful: the loop halves that member's angle and reads it again, alone
    def infidelity(scheme, channel):
        return 1.0 - end_to_end_fidelity(scheme, channel).value

    seen, real = [], elimination._kraus_fidelities

    def first_reads_unfaithful(matrix, kraus):
        seen.append((matrix, kraus))
        fidelities = real(matrix, kraus)
        if len(seen) == 1:
            fidelities[0] = 0.98
        return fidelities

    monkeypatch.setattr(elimination, "_kraus_fidelities", first_reads_unfaithful)
    rng = np.random.default_rng(4)
    drawn = list(random_demo_schemes(30, rng))
    monkeypatch.undo()
    kept, channel = drawn[1]
    chain = compose(kept.decoder, compose(channel, kept.encoder)).kraus
    assert len(seen) >= 2 and len(seen[1][1]) == 1 and np.array_equal(seen[1][1][0], chain)
    assert infidelity(kept, channel) < 1.0 - real(*seen[0])[0]
    assert infidelity(kept, channel) <= 0.009
    # the loop draws nothing, so the generator is where an unpatched run leaves it, and
    # only the forced member's encoder differs from the unpatched draw
    plain = np.random.default_rng(4)
    unpatched = list(random_demo_schemes(30, plain))
    got, want = list(random_demo_schemes(30, rng)), list(random_demo_schemes(30, plain))
    for index, ((a, a_channel), (b, b_channel)) in enumerate(zip(drawn + got, unpatched + want)):
        assert np.array_equal(a.source.matrix, b.source.matrix)
        assert np.array_equal(a.encoder.kraus, b.encoder.kraus) == (index != 1)
        assert np.array_equal(a.decoder.kraus, b.decoder.kraus)
        assert np.array_equal(a_channel.kraus, b_channel.kraus)


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


def _count_solves_without_kraus_routes(monkeypatch, pairs):
    """eigvalsh stack shapes of one elimination call, made to fail on any Kraus-stack route."""
    solves = count_factorizations(monkeypatch, "eigvalsh")["eigvalsh"]

    def refused(*args):
        raise AssertionError("the elimination read a Kraus-stack route")

    assert not hasattr(functionals, "_chain") and not hasattr(elimination, "_chain")
    for module, name in ((channels, "_conjugate"), (functionals, "_kraus_fidelities"),
                         (elimination, "_kraus_fidelities")):
        monkeypatch.setattr(module, name, refused)
    list(eliminate_encoders(pairs))
    return [shape[:-2] for shape in solves]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elimination_decodes_only_the_kept_branch(monkeypatch, seed):
    # one eigvalsh validation, rho_prime's; eps_in, the scores, the kept branch's output and
    # eps_out come from the decoded branch table, with no chain Kraus stack and no adjoint map
    for name in ("_conjugate", "_projectors", "partial_trace"):
        assert not hasattr(elimination, name)
    pairs = list(random_demo_schemes(30, seed))  # drawn first: the drift loop scores fidelities
    stack = list(random_demo_schemes(90, seed))[0::3]
    for pair in pairs:
        assert _count_solves_without_kraus_routes(monkeypatch, [pair]) == [(1,)]
    # the same one solve for a stack of 30 same-shape schemes
    assert _count_solves_without_kraus_routes(monkeypatch, stack) == [(30,)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_object_is_checked_once(monkeypatch, seed):
    # what is exact by construction from checked parts is not checked again: the flat state,
    # the counterexample and the search winner bind no density check, and one elimination
    # checks two unit vectors, phi and the max-overlap purification; each kept branch is a
    # unit by its own norm and is checked once, as the unit trace of rho_prime
    assert not hasattr(states, "_check_density") and not hasattr(erasure, "_check_density")
    shapes, real = [], elimination._check_unit

    def counted(vectors):
        shapes.append(vectors.shape)
        return real(vectors)

    monkeypatch.setattr(elimination, "_check_unit", counted)
    pairs = list(random_demo_schemes(90, seed))
    for stack in (pairs[:1], pairs[1:2], pairs[2:3], pairs[0::3]):
        shapes.clear()
        elimination._eliminate_stack(stack)
        d_src = stack[0][0].source.dim
        assert shapes == [(len(stack), d_src * d_src), (len(stack), d_src * d_src * (d_src + 1))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kept_branch_units_meet_the_unit_rule_unchecked(monkeypatch, seed):
    # every branch above the cutoff, over its own norm, is a unit far inside the 1e-9
    # it is no longer checked at, and so is the kept one
    worst, real = [], elimination._kept_branch

    def recorded(branches, decoded, amps):
        probs = np.einsum("...i,...i->...", branches.conj(), branches).real
        kept = probs > BRANCH_CUTOFF
        units = branches[kept] / np.sqrt(probs[kept])[:, None]
        index, psi, rows = real(branches, decoded, amps)
        for vectors in (units, psi):
            assert np.isfinite(vectors).all()
            worst.append(np.abs(np.linalg.norm(vectors, axis=-1) - 1.0).max())
        return index, psi, rows

    monkeypatch.setattr(elimination, "_kept_branch", recorded)
    assert len(list(eliminate_encoders(random_demo_schemes(300, seed)))) == 300
    assert worst and max(worst) < 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exactly_decodable_rows_print_the_bare_entropy_bound(seed):
    # eps_in is a sum of squares, so an exactly decodable split-isometry scheme gives
    # rounding squared and the bound prints the paper's constant 2, not 2 + rounding
    instances = list(eliminate_encoders(random_demo_schemes(1000, seed)))
    for inst in instances[0::3]:
        assert 0.0 <= inst.eps_in < 1e-20
        assert cli._fmt(inst.entropy_bound) == "2.000000000"
    assert all(inst.eps_in > 1e-6 for inst in instances[1::3] + instances[2::3])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_entropy_bound_is_stable_under_tiny_source_nudge(seed):
    # a traceless 1e-15 change of every source moves no printed entropy bound
    rng = np.random.default_rng(100 + seed)
    pairs = list(random_demo_schemes(1000, seed))
    nudged = []
    for scheme, channel in pairs:
        d = scheme.source.dim
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = h + h.conj().T
        h -= np.trace(h) / d * np.eye(d)
        h *= 1e-15 / np.max(np.abs(h))
        source = DensityMatrix(scheme.source.matrix + h)
        nudged.append((dataclasses.replace(scheme, source=source), channel))
    printed = [
        [cli._fmt(inst.entropy_bound) for inst in eliminate_encoders(batch)]
        for batch in (pairs, nudged)
    ]
    assert printed[0] == printed[1]


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


def _oversized_source_pair(delta=1e-4):
    # nearly pure three-level source: the lossy qubit bottleneck still
    # carries it faithfully, so the dimension precondition fires, not the
    # fidelity gate; a large delta makes the scheme unfaithful too
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
    # the validity window is read first: an unfaithful oversized scheme is refused by it
    with pytest.raises(ValueError, match=r"^scheme infidelity 0\.2775 is outside the validity"):
        eliminate_encoder(*_oversized_source_pair(0.3))


@pytest.mark.parametrize(
    "encoder, decoder, channel, message",
    [
        (identity_channel(2), identity_channel(3), identity_channel(3),
         "channel input: encoder emits dimension 2, channel block expects 3"),
        (identity_channel(2), KrausChannel(elimination._RECOVERY), identity_channel(2),
         "decoder input: channel block emits dimension 2, decoder expects 3"),
        (identity_channel(2), KrausChannel([np.eye(3, 2)]), identity_channel(2),
         "decoder output: decoder emits dimension 3, source lives in 2"),
    ],
)
def test_eliminate_encoder_refuses_a_broken_chain(encoder, decoder, channel, message):
    scheme = CodingScheme(maximally_mixed(2), encoder, decoder, 1)
    with pytest.raises(ValueError) as caught:
        eliminate_encoder(scheme, channel)
    assert str(caught.value) == f"chain mismatch at {message} at instance 0"


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

    # the trial count is checked at the call, and each scheme is drawn as it is taken
    with pytest.raises(ValueError, match=r"^trials must be at least 1, got 0$"):
        random_demo_schemes(0, seed=1)
    taken = itertools.islice(random_demo_schemes(10**9, seed=9), len(first))
    for (s1, _), (s2, _) in zip(first, taken):
        assert np.array_equal(s1.encoder.kraus, s2.encoder.kraus)


# sha256 over the shape and bytes of every drawn array, scheme by scheme: the source matrix
# and eigenvalues, then the encoder, decoder and channel Kraus stacks.  They were taken by
# drawing and building each scheme alone, on numpy 2.4 with OpenBLAS; the stacked draw must
# give the same bits.  The counts straddle the window edge at 256.
_DRAW_COUNTS = (1, 2, 3, 255, 256, 257, 1000)
_DRAW_DIGESTS = {
    0: (
        "7e98c0ee0274432bff1f7e9ee55ee41e31231f8cde9f1c5c52b0b811b7463176",
        "0e3b020b225591706c0f8f3e4eda9625d02926d37c672862f611e700b7a00c9f",
        "c09e4f63bf70f589289c74c49fa53b53cff2a363881118dbdb832b66930f5503",
        "ad950b9f279c7b267f2eee8421ab367a1df640db07846884b82496d99079fff3",
        "bd84b471c9de252480312b41e10792ecf506f0512bd156bad3c88dad0b29d8e1",
        "d025e7ecbf070bf7bbbd56d2379a05709f4ba1aa349c63b3d9bdc24e1a7f841b",
        "d42d3a58491dee02d8acb7b75ad5cb1abca0fcd7773b53a93b9e7669b43a94e1",
    ),
    1: (
        "4b7818b572197b94cfeeeb48a018d87a453a9c7e549ecda9422da3fde18f2b27",
        "8d32a185d5c9c2c78043647a0b324757087ca5588c089f5c285b914ab6a55727",
        "cb0a74346d9a5b0c5bbe0810a7dbd4e540c39f06c1ab22ce797e030fd92a5bbe",
        "fd1684a8badf8ecd4987b1f290a4d85dbda1b8f2d61b203db671852ce8d93837",
        "8aae3d203054966d346f580c383b9dcdf54c60f81ae7222cd1da2ea2c6b4bf1a",
        "69a97a33bce0e1e070256415cbbb2fc40a7930a326ec8617d46e9d1df9227d37",
        "55b7a2f827e4439de74fdaf3dc7b6cd58c23b159d617818793c460b86347eed1",
    ),
    2: (
        "debfb7f7e2777e914062fdd64c1cd26360207af043e54d542871679aa819d7a7",
        "90b191662319f200b9e4bbc86a047dad9c0dd48baccde5da66895a184709c9fe",
        "2032fb2fd5bbf197d4856aa372ce4b771da84ca04c76fa92aa09e5cac242422d",
        "b75469ce4bcd5d02c8b5562fc99eab3d802c87da19ab138e7cf8a3b3d3bde718",
        "7a49f87428855571757332bb9e7067f74f7e47e2507624f0757c77d61d496c38",
        "9afe1e9a336d06409c6726026af89eccc813b5b2d9b5259eae87f1c5bd6da528",
        "425c7065bc4c4326442c278b2e77b3b31afb5638a2af0c6e96eddc514c485bd6",
    ),
    3: (
        "422ae1f15dd59666aab4c7876dce76c749efbc4045d50eb16d13b03042b76e15",
        "60a2632fa75825d924561f18f92fffb18e623f81593060316ccc40e4ac6478e0",
        "ea451e6d5265cd18e482bc7c9ba30899836725731b554e85ed16fda1591b46d8",
        "3d6157c063895b266918005ca7882d73a7b2cd8249457c5a6cfb7c3c7a8d10ce",
        "b0e0f3a4d5f3ee0bc4792e7355efab033cd7cccca61da76925dfea4ecefe8037",
        "90d40b62ac9fcf060802479a3b528295add9886b3e6c796efabddf102930b1a0",
        "8d26c0cde161df822ae43e7ddeb0487b00891693316fd8b5f4b2808775f14ab3",
    ),
    4: (
        "6de8389472460c7fa8c58e1bf1b5803f8269039b8371531078f50b94a6058541",
        "bff0e28de6cb34e84da5d70e134aa115373bba147fe4a0d418e63fb63ca4fda5",
        "67e82fbea8120ec7fbe451e13784cbb7ceb1dbc27817f313723e3d2ca646fd7f",
        "fb525e4d81faf99d52a1ff0e372be8eb0125e6ac159b467b9846d9f0191b44b2",
        "60f2b69d4e0964c5b4644b949a561e4520c6197d5c9c6ca66cc3a8abc73578d5",
        "15b6f8daf9764d1461633c759ac81091edb1bd11bee2ad0e1610a9252f808972",
        "59082fba3b344e6e6ad580eeeb1c13112a899a5f4b956e2c5fe8c9d25c75ae23",
    ),
}


def _draw_digest(count, seed):
    digest = hashlib.sha256()
    for scheme, channel in random_demo_schemes(count, seed):
        for array in (scheme.source.matrix, scheme.source.eigenvalues, scheme.encoder.kraus,
                      scheme.decoder.kraus, channel.kraus):
            digest.update(repr(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", range(5))
def test_demo_draws_keep_their_pinned_bits(monkeypatch, seed):
    # the stream does not depend on the window it is drawn and built in
    for window in (linalg._WINDOW, 7):
        monkeypatch.setattr(linalg, "_WINDOW", window)
        digests = tuple(_draw_digest(count, seed) for count in _DRAW_COUNTS)
        assert digests == _DRAW_DIGESTS[seed], window


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_demo_draws_match_drawing_each_scheme_alone(seed):
    # 300 schemes cross the window edge at 256; the stacked draw keeps every bit
    rng = np.random.default_rng(seed)
    for index, (scheme, channel) in enumerate(random_demo_schemes(300, seed)):
        want, want_channel = demo_scheme_reference(index, rng)
        assert np.array_equal(scheme.source.matrix, want.source.matrix)
        assert np.array_equal(scheme.source.eigenvalues, want.source.eigenvalues)
        assert np.array_equal(scheme.encoder.kraus, want.encoder.kraus)
        assert np.array_equal(scheme.decoder.kraus, want.decoder.kraus)
        assert np.array_equal(channel.kraus, want_channel.kraus)
        assert scheme.encoder.kraus.flags.c_contiguous and not channel.kraus.flags.writeable


class _ThreeLevelRotations(np.random.Generator):
    """A generator whose ``integers`` draws as usual but returns 3: every rotation is 3 x 3."""

    def integers(self, *args, **kwargs):
        super().integers(*args, **kwargs)
        return 3


def test_drawing_solves_once_per_stack(monkeypatch):
    # with every rotation three-level, three schemes and a full window fall into the same
    # three stacks, one per family, so they make the same factorizations on stacks of
    # 1 and of 85 or 86 members
    calls = count_factorizations(monkeypatch, "qr", "eigh", "eigvalsh")
    made = []
    for count in (3, linalg._WINDOW):
        for shapes in calls.values():
            shapes.clear()
        list(random_demo_schemes(count, _ThreeLevelRotations(np.random.PCG64(0))))
        made.append({name: [shape[1:] for shape in shapes] for name, shapes in calls.items()})
        sizes = {shape[0] for shapes in calls.values() for shape in shapes}
        assert sizes == ({1} if count == 3 else {85, 86})
    assert made[0] == made[1]
    assert sum(map(len, made[0].values())) == 9


def test_rho_prime_feeds_channel_directly():
    scheme, channel = list(random_demo_schemes(1, seed=2))[0]
    instance = eliminate_encoder(scheme, channel)
    block = tensor_power(channel, scheme.block_size)
    assert instance.rho_prime.dim == block.in_dim
    direct = entanglement_fidelity(
        instance.rho_prime, compose(instance.tail_decoder, compose(scheme.decoder, block))
    )
    assert abs((1.0 - direct.value) - instance.eps_out) < 1e-12


@pytest.mark.parametrize("window", [linalg._WINDOW, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_batch_matches_one_at_a_time(monkeypatch, seed, window):
    # 60 schemes fall into five shape groups; a window of 7 splits each group
    monkeypatch.setattr(linalg, "_WINDOW", window)
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


@pytest.mark.parametrize("window", [linalg._WINDOW, 6])
def test_stacked_check_names_the_failing_instance(monkeypatch, window):
    # instance 8 shares the erasure-recovery shape with 2, 5 and 11, but sends
    # its scheme through a half-erasing channel: stack index 2, input index 8;
    # a window of 6 puts it at position 2 of the second window
    monkeypatch.setattr(linalg, "_WINDOW", window)
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
    calls = count_factorizations(monkeypatch, "eigh", "eigvalsh", "svd")
    erasure = list(random_demo_schemes(90, 3))[2::3]
    counts = []
    for size in (1, 2, 30):
        pairs = erasure[:size]
        for shapes in calls.values():
            shapes.clear()
        list(eliminate_encoders(pairs))
        stacks = [shape[:-2] for shapes in calls.values() for shape in shapes]
        counts.append(len(stacks))
        assert all(stack == (size,) for stack in stacks)
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
    assert len(drawn) == linalg._WINDOW


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

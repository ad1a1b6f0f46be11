import numpy as np
import pytest

from qcap.channels import (
    CodingScheme,
    KrausChannel,
    compose,
    erasure_channel,
    identity_channel,
    tensor_power,
    unitary_channel,
)
from qcap.functionals import (
    KRAUS_METHOD,
    PURIFICATION_METHOD,
    coherent_information,
    end_to_end_fidelity,
    entanglement_fidelity,
    entropy_exchange,
)
from qcap.states import (
    DensityMatrix,
    maximally_mixed,
    random_density,
    random_pure_state,
    random_unitary,
)

from helpers import count_factorizations, random_kraus_channel


def test_entanglement_fidelity_identity_channel():
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = random_density(3, rank=int(rng.integers(1, 4)), seed=rng)
        report = entanglement_fidelity(rho, identity_channel(3))
        assert abs(report.value - 1.0) < 1e-12
        assert report.method == KRAUS_METHOD


def test_entanglement_fidelity_erasure_flat_state():
    for p in np.linspace(0.0, 1.0, 11):
        chan = erasure_channel(float(p))
        report = entanglement_fidelity(maximally_mixed(2), chan)
        other = entanglement_fidelity(maximally_mixed(2), chan, method=PURIFICATION_METHOD)
        assert abs(report.value - (1.0 - p)) < 1e-10
        assert abs(other.value - (1.0 - p)) < 1e-10


def test_entanglement_fidelity_methods_agree_on_random_pairs():
    rng = np.random.default_rng(7)
    cases = [(2, 3, 3), (3, 2, 3), (3, 3, 2), (2, 2, 4)]
    for in_dim, out_dim, num_kraus in cases:
        for _ in range(25):
            chan = random_kraus_channel(in_dim, out_dim, num_kraus, rng)
            rho = random_density(in_dim, rank=int(rng.integers(1, in_dim + 1)), seed=rng)
            a = entanglement_fidelity(rho, chan, method=KRAUS_METHOD)
            b = entanglement_fidelity(rho, chan, method=PURIFICATION_METHOD)
            assert abs(a.value - b.value) < 1e-10


def test_entanglement_fidelity_purification_route_and_report():
    rho = maximally_mixed(2)
    report = entanglement_fidelity(rho, erasure_channel(0.25), method=PURIFICATION_METHOD)
    other = entanglement_fidelity(rho, erasure_channel(0.25))
    assert report.method == PURIFICATION_METHOD
    assert abs(report.value - 0.75) < 1e-10
    assert abs(other.value - 0.75) < 1e-10


def test_purification_route_solves_only_the_purification(monkeypatch):
    # the overlap is read from the branches (I (x) A_k)|eta>: at 3 erasure uses, neither the
    # 64 x 64 density of eta nor the 216 x 216 output is formed, so neither is solved
    chan = tensor_power(erasure_channel(0.25), 3)
    rho = random_density(8, rank=5, seed=np.random.default_rng(4))
    expected = entanglement_fidelity(rho, chan).value
    solves = count_factorizations(monkeypatch, "eigh", "eigvalsh")
    value = entanglement_fidelity(rho, chan, method=PURIFICATION_METHOD).value
    assert solves == {"eigh": [(8, 8)], "eigvalsh": []}
    assert abs(value - expected) < 1e-12


def test_entanglement_fidelity_validation():
    with pytest.raises(ValueError, match="does not match channel input"):
        entanglement_fidelity(maximally_mixed(3), erasure_channel(0.1))
    with pytest.raises(ValueError, match="unknown entanglement fidelity method"):
        entanglement_fidelity(maximally_mixed(2), erasure_channel(0.1), method="guess")


def test_entropy_exchange_oracles():
    rng = np.random.default_rng(11)
    rho = random_density(2, rank=2, seed=rng)
    u = random_unitary(2, seed=rng)
    assert abs(entropy_exchange(rho, unitary_channel(u))) < 1e-12

    flat = maximally_mixed(2)
    s_env = entropy_exchange(flat, erasure_channel(0.25))
    assert abs(s_env - 1.0612781244591328) < 1e-10
    assert abs(entropy_exchange(flat, erasure_channel(0.5)) - 1.5) < 1e-12


def test_coherent_information_identity_gives_entropy():
    rng = np.random.default_rng(13)
    rho = random_density(4, rank=3, seed=rng)
    report = coherent_information(rho, identity_channel(4))
    assert abs(report.coherent_info - rho.entropy()) < 1e-10
    assert abs(report.env_entropy) < 1e-12


def test_coherent_information_erasure_oracle():
    report = coherent_information(maximally_mixed(2), erasure_channel(0.25))
    assert abs(report.output_entropy - 1.5612781244591328) < 1e-10
    assert abs(report.env_entropy - 1.0612781244591328) < 1e-10
    assert abs(report.coherent_info - 0.5) < 1e-10
    assert abs(
        report.coherent_info - (report.output_entropy - report.env_entropy)
    ) < 1e-12


def test_coherent_information_pure_input_vanishes():
    rng = np.random.default_rng(17)
    for _ in range(5):
        chan = random_kraus_channel(2, 3, 2, rng)
        rho = random_density(2, rank=1, seed=rng)
        report = coherent_information(rho, chan)
        assert abs(report.coherent_info) < 1e-9


def test_end_to_end_fidelity_trivial_chain():
    source = maximally_mixed(2)
    scheme = CodingScheme(source, identity_channel(2), identity_channel(2), 1)
    report = end_to_end_fidelity(scheme, identity_channel(2))
    assert abs(report.value - 1.0) < 1e-12


def test_end_to_end_fidelity_identity_codec_erasure():
    source = maximally_mixed(2)
    embed = np.zeros((3, 2), dtype=complex)
    embed[0, 0] = embed[1, 1] = 1.0
    decoder = KrausChannel(
        [embed.conj().T, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)]
    )
    scheme = CodingScheme(source, identity_channel(2), decoder, 1)
    for p in (0.0, 0.25, 0.6):
        report = end_to_end_fidelity(scheme, erasure_channel(p))
        composed = compose(decoder, erasure_channel(p))
        direct = entanglement_fidelity(source, composed)
        assert abs(report.value - direct.value) < 1e-12
        assert report.value >= 1.0 - p - 1e-12


def test_end_to_end_fidelity_isometric_encoder_oracle():
    rng = np.random.default_rng(19)
    source = maximally_mixed(2)
    big = random_unitary(4, seed=rng)
    v = big[:, :2]
    encoder = KrausChannel([v])
    decoder = KrausChannel([big.conj().T[:2], big.conj().T[2:]])
    scheme = CodingScheme(source, encoder, decoder, 1)
    report = end_to_end_fidelity(scheme, identity_channel(4))
    chain = compose(decoder, compose(identity_channel(4), encoder))
    other = entanglement_fidelity(source, chain, method=PURIFICATION_METHOD)
    assert abs(report.value - 1.0) < 1e-10
    assert abs(other.value - 1.0) < 1e-10


def test_end_to_end_fidelity_chain_mismatch_errors():
    source = maximally_mixed(2)
    with pytest.raises(ValueError, match="chain mismatch at channel input"):
        scheme = CodingScheme(source, identity_channel(2), identity_channel(2), 1)
        end_to_end_fidelity(scheme, identity_channel(3))
    with pytest.raises(ValueError, match="chain mismatch at decoder input"):
        scheme = CodingScheme(source, identity_channel(2), identity_channel(2), 1)
        end_to_end_fidelity(scheme, erasure_channel(0.1))
    with pytest.raises(ValueError, match="chain mismatch at decoder output"):
        scheme = CodingScheme(source, identity_channel(2), identity_channel(3), 1)
        end_to_end_fidelity(scheme, erasure_channel(0.1))


def test_recovery_decoder_cannot_raise_coherent_information():
    flat = maximally_mixed(2)
    chan = erasure_channel(0.25)
    plain = coherent_information(flat, chan)
    assert abs(plain.coherent_info - 0.5) < 1e-10

    keep = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    flagged = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
    recovery = KrausChannel([keep, flagged])
    recovered = coherent_information(flat, compose(recovery, chan))
    assert recovered.coherent_info < plain.coherent_info
    assert abs(recovered.coherent_info - 0.10552378886420966) < 1e-9
    assert abs(recovered.output_entropy - 0.9544340029249649) < 1e-9
    assert abs(recovered.env_entropy - 0.8489102140607553) < 1e-9


def test_coherent_information_data_processing_random_post_channels():
    rng = np.random.default_rng(23)
    flat = maximally_mixed(2)
    chan = erasure_channel(0.2)
    base = coherent_information(flat, chan).coherent_info
    for _ in range(10):
        post = random_kraus_channel(3, 3, 2, rng)
        downstream = coherent_information(flat, compose(post, chan)).coherent_info
        assert downstream <= base + 1e-9

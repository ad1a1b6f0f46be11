"""Property tests of the channel algebra and the capacity functionals.

Examples are drawn deterministically (``derandomize=True``) and no example
database is written, so every run checks the same cases.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from qcap.channels import compose, erasure_channel, tensor_power
from qcap.erasure import erasure_coherent_info_block
from qcap.functionals import PURIFICATION_METHOD, coherent_information, entanglement_fidelity
from qcap.states import random_density, random_pure_state

from helpers import random_kraus_channel

PROPERTY = settings(derandomize=True, max_examples=25, database=None, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(1, 3)


def _channel(rng, in_dim, out_dim, num_kraus):
    """Random channel, with enough Kraus operators for completeness to be possible."""
    return random_kraus_channel(in_dim, out_dim, max(num_kraus, -(-in_dim // out_dim)), rng)


def _state(rng, dim):
    return random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng)


def _completeness_defect(chan):
    flat = chan.kraus.reshape(-1, chan.in_dim)
    return np.max(np.abs(flat.conj().T @ flat - np.eye(chan.in_dim)))


@PROPERTY
@given(SEEDS, DIMS, DIMS, DIMS, DIMS, DIMS, st.integers(1, 3))
def test_completeness_survives_compose_and_tensor_power(seed, d0, d1, d2, k1, k2, n):
    rng = np.random.default_rng(seed)
    inner = _channel(rng, d0, d1, k1)
    outer = _channel(rng, d1, d2, k2)
    assert _completeness_defect(compose(outer, inner)) < 1e-9
    assert _completeness_defect(tensor_power(inner, n)) < 1e-9


@PROPERTY
@given(SEEDS, DIMS, DIMS, DIMS, DIMS, DIMS)
def test_coherent_information_obeys_data_processing(seed, d0, d1, d2, k1, k2):
    rng = np.random.default_rng(seed)
    inner = _channel(rng, d0, d1, k1)
    outer = _channel(rng, d1, d2, k2)
    rho = _state(rng, d0)
    before = coherent_information(rho, inner).coherent_info
    after = coherent_information(rho, compose(outer, inner)).coherent_info
    assert after <= before + 1e-9


@PROPERTY
@given(SEEDS, DIMS, DIMS, DIMS)
def test_entanglement_fidelity_routes_agree(seed, d0, d1, k):
    rng = np.random.default_rng(seed)
    chan = _channel(rng, d0, d1, k)
    rho = _state(rng, d0)
    report = entanglement_fidelity(rho, chan)
    other = entanglement_fidelity(rho, chan, method=PURIFICATION_METHOD)
    assert abs(report.value - other.value) < 1e-10


@PROPERTY
@given(SEEDS, st.integers(1, 3), st.floats(0.0, 1.0))
def test_erasure_subset_sum_matches_brute_force(seed, n, p):
    rho = _state(np.random.default_rng(seed), 2**n)
    brute = coherent_information(rho, tensor_power(erasure_channel(p), n)).coherent_info
    assert abs(erasure_coherent_info_block(rho, p, n) - brute) < 1e-8


@PROPERTY
@given(SEEDS, st.lists(st.integers(1, 5), min_size=3, max_size=3, unique=True))
@example(0, [3, 2, 5])
def test_coherent_information_of_pure_input_vanishes(seed, shape):
    # the output and the environment of a pure input purify each other
    in_dim, out_dim, num_kraus = shape
    assume(out_dim * num_kraus >= in_dim)
    rng = np.random.default_rng(seed)
    chan = random_kraus_channel(in_dim, out_dim, num_kraus, rng)
    psi = random_pure_state(in_dim, rng)
    assert abs(coherent_information(psi.density(), chan).coherent_info) < 1e-10

"""Properties of the channel algebra and the capacity functionals over seeded shape grids.

Each test sweeps every small shape, dimension 1 included at each position,
with a fixed numpy seed, so every run checks the same cases.
"""
import itertools
from functools import reduce

import numpy as np

from qcap.channels import apply_channel, apply_to_subsystem, compose, erasure_channel, tensor_power
from qcap.erasure import erasure_coherent_info_block
from qcap.functionals import PURIFICATION_METHOD, coherent_information, entanglement_fidelity
from qcap.states import DensityMatrix, random_density, random_pure_state

from helpers import random_kraus_channel

DIMS = range(1, 4)


def _state(rng, dim, dims=None):
    """Random density matrix of random rank in 1..dim."""
    rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng)
    return rho if dims is None else DensityMatrix(rho.matrix, dims)


def _completeness_defect(chan):
    """Largest entry of sum_k A_k^dag A_k - I, computed apart from the channel's own check."""
    flat = chan.kraus.reshape(-1, chan.in_dim)
    return np.max(np.abs(flat.conj().T @ flat - np.eye(chan.in_dim)))


def test_completeness_survives_compose_and_tensor_power():
    rng = np.random.default_rng(29)
    # every shape (d0, d1, d2, k_inner, k_outer) with entries in 1..3
    for d0, d1, d2, k1, k2 in itertools.product(DIMS, repeat=5):
        inner = random_kraus_channel(d0, d1, k1, rng)
        outer = random_kraus_channel(d1, d2, k2, rng)
        both = compose(outer, inner)
        assert _completeness_defect(both) < 1e-9
        rho = _state(rng, d0)
        stepwise = apply_channel(outer, apply_channel(inner, rho))
        assert np.max(np.abs(apply_channel(both, rho).matrix - stepwise.matrix)) < 1e-10
    for in_dim, out_dim, num_kraus in itertools.product(DIMS, repeat=3):
        chan = random_kraus_channel(in_dim, out_dim, num_kraus, rng)
        for n in (1, 2, 3):
            power = tensor_power(chan, n)
            assert _completeness_defect(power) < 1e-9
            rho = _state(rng, in_dim**n, (in_dim,) * n)
            stepwise = reduce(lambda state, i: apply_to_subsystem(chan, state, i), range(n), rho)
            via_power = apply_channel(power, rho.flattened())
            assert np.max(np.abs(via_power.matrix - stepwise.matrix)) < 1e-10


def test_coherent_information_obeys_data_processing():
    rng = np.random.default_rng(31)
    for d0, d1, d2, k1, k2 in itertools.product(DIMS, repeat=5):
        inner = random_kraus_channel(d0, d1, k1, rng)
        outer = random_kraus_channel(d1, d2, k2, rng)
        rho = _state(rng, d0)
        before = coherent_information(rho, inner).coherent_info
        after = coherent_information(rho, compose(outer, inner)).coherent_info
        assert after <= before + 1e-9


def test_entanglement_fidelity_routes_agree():
    rng = np.random.default_rng(37)
    for in_dim, out_dim, num_kraus in itertools.product(DIMS, repeat=3):
        for _ in range(3):
            chan = random_kraus_channel(in_dim, out_dim, num_kraus, rng)
            rho = _state(rng, in_dim)
            report = entanglement_fidelity(rho, chan)
            other = entanglement_fidelity(rho, chan, method=PURIFICATION_METHOD)
            assert abs(report.value - other.value) < 1e-10


def test_erasure_subset_sum_matches_brute_force():
    # the end points and one random p, over the same random-rank states
    for p in (0.0, 1.0, float(np.random.default_rng(8).random())):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            block = tensor_power(erasure_channel(p), n)
            for _ in range(4):
                rho = _state(rng, 2**n)
                brute = coherent_information(rho, block).coherent_info
                assert abs(erasure_coherent_info_block(rho, p, n) - brute) < 1e-8


def test_coherent_information_of_pure_input_vanishes():
    # the output and the environment of a pure input purify each other
    rng = np.random.default_rng(43)
    shapes = [s for s in itertools.permutations(range(1, 6), 3) if s[1] * s[2] >= s[0]]
    assert (3, 2, 5) in shapes
    for in_dim, out_dim, num_kraus in shapes:
        chan = random_kraus_channel(in_dim, out_dim, num_kraus, rng)
        psi = random_pure_state(in_dim, rng)
        assert abs(coherent_information(psi.density(), chan).coherent_info) < 1e-10

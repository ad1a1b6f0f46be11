"""Acceptance checks, one test per headline guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints a short summary when it passes.
"""

import math

import numpy as np

from qcap.channels import erasure_channel, tensor_power
from qcap.continuity import (
    check_fannes,
    check_mixed_overlap_continuity,
    check_mixing_bounds,
    check_pure_overlap_continuity,
)
from qcap.elimination import eliminate_encoder, random_demo_schemes
from qcap.erasure import (
    binomial_mean,
    capacity_curve,
    erasure_coherent_info_block,
    half_sum_fraction,
    maximize_coherent_info,
)
from qcap.functionals import (
    KRAUS_METHOD,
    PURIFICATION_METHOD,
    coherent_information,
    entanglement_fidelity,
)
from qcap.linalg import binary_entropy
from qcap.states import (
    DensityMatrix,
    high_entropy_counterexample,
    maximally_mixed,
    random_density,
    random_pure_state,
)

from helpers import random_kraus_channel


def test_criterion_1_erasure_capacity_value():
    grid = [i / 20.0 for i in range(21)]
    worst = 0.0
    for n in (1, 2, 3, 4):
        flat = maximally_mixed(2**n)
        for p in grid:
            per_use = erasure_coherent_info_block(flat, p, n) / n
            worst = max(worst, abs(per_use - (1.0 - 2.0 * p)))
            assert abs(per_use - (1.0 - 2.0 * p)) < 1e-9
        for point in capacity_curve(grid, n):
            assert point.capacity_bound == max(1.0 - 2.0 * point.p, 0.0)
    print(f"criterion 1: PASS (flat-input rate = 1-2p, worst gap {worst:.2e})")


def test_criterion_2_block_formula_matches_brute_force():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (1, 2, 3):
        for p in (0.1, 0.3, 0.49):
            block = tensor_power(erasure_channel(p), n)
            for _ in range(100):
                d = 2**n
                rho = DensityMatrix(
                    random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng).matrix,
                    (2,) * n,
                )
                fast = erasure_coherent_info_block(rho, p, n)
                brute = coherent_information(rho.flattened(), block).coherent_info
                worst = max(worst, abs(fast - brute))
                assert abs(fast - brute) < 1e-8
    print(f"criterion 2: PASS (900 state/p pairs, worst gap {worst:.2e})")


def test_criterion_3_maximizer_consistency():
    for p in (0.1, 0.25, 0.4):
        _, best = maximize_coherent_info(erasure_channel(p), 1, restarts=20, seed=0)
        target = 1.0 - 2.0 * p
        assert best <= target + 1e-6
        assert best >= target - 1e-3
    print("criterion 3: PASS (single-use optimum within [-1e-3, +1e-6] of 1-2p)")


def test_criterion_4_encoder_elimination_suite():
    fidelity_violations = 0
    entropy_violations = 0
    flagged = 0
    for scheme, channel in random_demo_schemes(100, seed=2718):
        inst = eliminate_encoder(scheme, channel)
        flagged += inst.flagged
        fidelity_violations += not inst.fidelity_ok
        entropy_violations += not inst.entropy_ok
    assert fidelity_violations == 0
    assert entropy_violations == 0
    assert flagged == 0
    print(
        "criterion 4: PASS (100 instances, 0 fidelity violations, "
        "0 entropy violations, 0 flagged)"
    )


def test_criterion_5_entropy_bound_suites():
    suites = (
        ("fannes", check_fannes),
        ("pure overlap", check_pure_overlap_continuity),
        ("mixed overlap", check_mixed_overlap_continuity),
        ("mixing", check_mixing_bounds),
    )
    for name, check in suites:
        report = check(trials=10_000, dim=4, seed=99)
        assert report.violations == 0, name
        assert report.passed
    print("criterion 5: PASS (4 suites x 10^4 trials at d=4, 0 violations)")


def test_criterion_6_fidelity_route_agreement():
    rng = np.random.default_rng(31415)
    shapes = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3), (4, 4, 2)]
    worst = 0.0
    for count in range(1000):
        in_dim, out_dim, num_kraus = shapes[count % len(shapes)]
        chan = random_kraus_channel(in_dim, out_dim, num_kraus, rng)
        rho = random_density(in_dim, rank=int(rng.integers(1, in_dim + 1)), seed=rng)
        a = entanglement_fidelity(rho, chan, method=KRAUS_METHOD).value
        b = entanglement_fidelity(rho, chan, method=PURIFICATION_METHOD).value
        worst = max(worst, abs(a - b))
        assert abs(a - b) < 1e-10
    flat = maximally_mixed(2)
    for p in [i / 20.0 for i in range(21)]:
        value = entanglement_fidelity(flat, erasure_channel(p)).value
        assert abs(value - (1.0 - p)) < 1e-10
    print(f"criterion 6: PASS (10^3 route pairs, worst gap {worst:.2e})")


def test_criterion_7_binomial_properties():
    rng = np.random.default_rng(300)
    for n in range(0, 31):
        for p in (0.1, 0.5, float(rng.uniform())):
            explicit = sum(
                math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * k
                for k in range(n + 1)
            )
            assert abs(binomial_mean(n, p) - explicit) < 1e-12
    assert abs(half_sum_fraction(200, 0.3) - 0.3) < 2e-3
    for p in (0.1, 0.25, 0.3):
        assert abs(half_sum_fraction(200, p) - p) < abs(half_sum_fraction(20, p) - p)
    print("criterion 7: PASS (mean identity to 1e-12, half-sum fraction -> p)")


def test_criterion_8_high_entropy_counterexample():
    for n, ambient in ((4, 16), (1024, 2048)):
        psi = random_pure_state(ambient, seed=n)
        rho = high_entropy_counterexample(psi, 0.1, n)
        expected = binary_entropy(0.1) + 0.1 * math.log2(n)
        assert abs(rho.entropy() - expected) < 1e-10
        fid = float(np.real(psi.vector.conj() @ rho.matrix @ psi.vector))
        assert abs(fid - 0.9) < 1e-10
    print("criterion 8: PASS (entropy H2(0.1) + 0.1 log2 n, fidelity 0.9)")

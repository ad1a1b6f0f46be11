import math

import numpy as np
import pytest

from qcap.linalg import (
    binary_entropy,
    bw_overlap,
    density_spectrum,
    entropy_of_spectrum,
    partial_trace,
    trace_norm,
    uhlmann_fidelity,
    von_neumann_entropy,
)
from qcap.states import random_density, random_pure_state, random_unitary

from helpers import bell_vector


def test_partial_trace_bell_marginals():
    rho = np.outer(bell_vector(), bell_vector().conj())
    for keep in ([0], [1]):
        red = partial_trace(rho, (2, 2), keep)
        assert np.max(np.abs(red - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    r1 = random_density(2, rank=2, seed=rng).matrix
    r2 = random_density(3, rank=3, seed=rng).matrix
    joint = np.kron(r1, r2)
    assert np.max(np.abs(partial_trace(joint, (2, 3), [0]) - r1)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, (2, 3), [1]) - r2)) < 1e-12


def test_partial_trace_schmidt_entropies_match():
    rng = np.random.default_rng(17)
    for _ in range(10):
        psi = random_pure_state(12, seed=rng).vector
        rho = np.outer(psi, psi.conj())
        left = partial_trace(rho, (3, 4), [0])
        right = partial_trace(rho, (3, 4), [1])
        s_left = von_neumann_entropy(left)
        s_right = von_neumann_entropy(right)
        assert abs(s_left - s_right) < 1e-9


def test_partial_trace_preserves_trace_and_handles_empty_keep():
    rng = np.random.default_rng(23)
    rho = random_density(6, rank=6, seed=rng).matrix
    red = partial_trace(rho, (2, 3), [1])
    assert abs(np.trace(red) - 1.0) < 1e-12
    full = partial_trace(rho, (2, 3), [])
    assert full.shape == (1, 1)
    assert abs(full[0, 0] - 1.0) < 1e-12


def test_partial_trace_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6) / 6.0, (2, 2), [0])


def test_trace_norm_basics():
    assert trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    assert abs(trace_norm(np.diag([0.5, -0.5]).astype(complex)) - 1.0) < 1e-12


def test_trace_norm_fidelity_bound_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(50):
        r1 = random_density(3, rank=3, seed=rng).matrix
        r2 = random_density(3, rank=2, seed=rng).matrix
        dist = trace_norm(r1 - r2)
        fid = uhlmann_fidelity(r1, r2)
        assert dist <= 2.0 * math.sqrt(max(1.0 - fid, 0.0)) + 1e-10


def test_trace_norm_commuting_pair_overlap_bound():
    rng = np.random.default_rng(31)
    for _ in range(200):
        v = random_unitary(4, seed=rng)
        lam1 = rng.dirichlet(np.ones(4))
        lam2 = rng.dirichlet(np.ones(4))
        r1 = (v * lam1) @ v.conj().T
        r2 = (v * lam2) @ v.conj().T
        dist = trace_norm(r1 - r2)
        bound = 2.0 * math.sqrt(max(1.0 - bw_overlap(lam1, lam2), 0.0))
        assert dist <= bound + 1e-10


def test_von_neumann_entropy_values():
    psi = random_pure_state(4, seed=7).vector
    pure = np.outer(psi, psi.conj())
    assert abs(von_neumann_entropy(pure)) < 1e-10
    assert abs(von_neumann_entropy(np.eye(2, dtype=complex) / 2.0) - 1.0) < 1e-12
    rho = np.diag([0.75, 0.25]).astype(complex)
    assert abs(von_neumann_entropy(rho) - binary_entropy(0.25)) < 1e-12
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-12


def test_von_neumann_entropy_unitary_invariance():
    rng = np.random.default_rng(41)
    for _ in range(10):
        rho = random_density(4, rank=3, seed=rng).matrix
        u = random_unitary(4, seed=rng)
        rotated = u @ rho @ u.conj().T
        assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) < 1e-9


def test_von_neumann_entropy_rejects_invalid_input():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        von_neumann_entropy(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


def test_entropy_of_spectrum_ignores_zeros():
    assert abs(entropy_of_spectrum(np.array([0.5, 0.5, 0.0]))) == 1.0
    assert entropy_of_spectrum(np.array([1.0, 0.0])) == 0.0


def test_binary_entropy_values_and_validation():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_uhlmann_fidelity_extremes():
    rng = np.random.default_rng(43)
    rho = random_density(3, rank=2, seed=rng).matrix
    assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-9
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    assert uhlmann_fidelity(e0, e1) < 1e-12


def test_uhlmann_fidelity_pure_state_reduction():
    rng = np.random.default_rng(47)
    for _ in range(20):
        psi = random_pure_state(4, seed=rng).vector
        proj = np.outer(psi, psi.conj())
        rho = random_density(4, rank=4, seed=rng).matrix
        direct = float(np.real(psi.conj() @ rho @ psi))
        # the PSD square root amplifies eigenvalue noise near rank
        # deficiency, so agreement is a few 1e-8 rather than machine level
        assert abs(uhlmann_fidelity(proj, rho) - direct) < 5e-7


def test_uhlmann_fidelity_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        uhlmann_fidelity(np.eye(2) / 2.0, np.eye(3) / 3.0)


@pytest.mark.parametrize(
    "bad, reason",
    [
        (np.eye(2), "trace"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
    ],
)
def test_uhlmann_fidelity_rejects_non_density_input(bad, reason):
    flat = np.eye(2) / 2.0
    with pytest.raises(ValueError, match=f"first argument: density matrix .*{reason}"):
        uhlmann_fidelity(bad, flat)
    with pytest.raises(ValueError, match=f"second argument: density matrix .*{reason}"):
        uhlmann_fidelity(flat, bad)


def test_bw_overlap_values():
    lam = np.array([0.6, 0.4])
    assert abs(bw_overlap(lam, lam) - 1.0) < 1e-12
    assert bw_overlap(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    got = bw_overlap(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert abs(got - 0.5) < 1e-12


def test_bw_overlap_dominates_fidelity_on_sorted_spectra():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        r1 = random_density(4, rank=int(rng.integers(1, 5)), seed=rng)
        r2 = random_density(4, rank=int(rng.integers(1, 5)), seed=rng)
        lam1 = np.sort(np.linalg.eigvalsh(r1.matrix))[::-1]
        lam2 = np.sort(np.linalg.eigvalsh(r2.matrix))[::-1]
        lam1 = np.clip(lam1, 0.0, None)
        lam2 = np.clip(lam2, 0.0, None)
        fid = uhlmann_fidelity(r1.matrix, r2.matrix)
        assert bw_overlap(lam1, lam2) >= fid - 1e-9


def test_bw_overlap_rejects_bad_input():
    with pytest.raises(ValueError):
        bw_overlap(np.array([0.5, 0.5]), np.array([1.0]))
    with pytest.raises(ValueError, match="first spectrum has a non-finite entry"):
        bw_overlap([np.nan, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="second spectrum has a non-finite entry"):
        bw_overlap([0.5, 0.5], [np.inf, 0.0])


def _valid_stack(count, dim, seed):
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, dim + 1, size=count)
    return np.array([random_density(dim, rank=int(r), seed=rng).matrix for r in ranks])


@pytest.mark.parametrize(
    "single, message",
    [
        (
            np.array([[0.5, 1e-6], [0.0, 0.5]]),
            r"density matrix is not Hermitian: max deviation 1\.000e-06",
        ),
        (np.diag([1.0, 0.5]), r"density matrix trace 1\.5\+0j deviates from 1"),
        (
            np.diag([1.0 + 1e-9, -1e-9]),
            r"density matrix has negative eigenvalue -1\.000e-09 below the floor -1e-10",
        ),
        (
            np.array([[0.5, 0.0], [np.nan, 0.5]]),
            r"density matrix has a non-finite entry at row 1, column 0",
        ),
    ],
    ids=["non-hermitian", "trace", "negative-eigenvalue", "non-finite"],
)
def test_density_spectrum_names_the_bad_stack_member(single, message):
    with pytest.raises(ValueError, match=message + "$"):
        density_spectrum(single)
    stack = _valid_stack(5, 2, seed=3)
    stack[3] = single
    with pytest.raises(ValueError, match=message + " at stack index 3$"):
        density_spectrum(stack)
    with pytest.raises(ValueError, match=message + " at stack index 3$"):
        von_neumann_entropy(stack)
    grid = np.concatenate([stack, stack[:1]]).reshape(2, 3, 2, 2)
    with pytest.raises(ValueError, match=message + r" at stack index \(1, 0\)$"):
        density_spectrum(grid)


def _flat_with_defect(d, row, col, size):
    m = np.eye(d, dtype=complex) / d
    m[row, col] = size
    return m


def test_hermiticity_defect_found_in_the_last_row_panel():
    # 300 rows span two 256-row panels; the only asymmetric pair lies in the second
    d = 300
    m = _flat_with_defect(d, 280, 299, 1e-6)
    assert np.abs(m - m.conj().T).max() == 1e-6
    message = r"^density matrix is not Hermitian: max deviation 1\.000e-06$"
    with pytest.raises(ValueError, match=message):
        density_spectrum(m)
    # member 1 deviates below the tolerance; 2 and 3 fail, and the first failure is named
    stack = np.array(
        [
            np.eye(d) / d,
            _flat_with_defect(d, 3, 7, 5e-10),
            _flat_with_defect(d, 290, 260, 2e-6),
            _flat_with_defect(d, 1, 0, 3e-6),
        ]
    )
    with pytest.raises(
        ValueError,
        match=r"^density matrix is not Hermitian: max deviation 2\.000e-06 at stack index 2$",
    ):
        density_spectrum(stack)
    assert density_spectrum(stack[:2]).shape == (2, d)


def test_density_spectrum_of_a_single_matrix_is_unchanged():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 5, 16):
        rho = random_density(dim, rank=max(1, dim // 2), seed=rng).matrix
        expected = np.clip(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)), 0.0, None)
        values = density_spectrum(rho)
        assert values.shape == (dim,)
        assert np.array_equal(values, expected)
        entropy = von_neumann_entropy(rho)
        assert type(entropy) is float
        positive = expected[expected > 0.0]
        assert abs(entropy - float(abs(-(positive * np.log2(positive)).sum()))) < 1e-14


def test_stacked_kernels_match_a_loop_of_single_calls():
    rng = np.random.default_rng(7)
    dims = (2, 3)
    stack = _valid_stack(12, 6, seed=8).reshape(3, 4, 6, 6)
    other = _valid_stack(12, 6, seed=9).reshape(3, 4, 6, 6)
    flat, flat_other = stack.reshape(12, 6, 6), other.reshape(12, 6, 6)
    for keep in ([0], [1], [0, 1], []):
        reduced = partial_trace(stack, dims, keep).reshape(12, -1)
        for k in range(12):
            single = partial_trace(flat[k], dims, keep).reshape(-1)
            assert np.max(np.abs(reduced[k] - single)) < 1e-14
    norms = trace_norm(stack - other).reshape(12)
    entropies = von_neumann_entropy(stack).reshape(12)
    unchecked = von_neumann_entropy(stack, validate=False).reshape(12)
    spectra = density_spectrum(stack).reshape(12, 6)
    for k in range(12):
        assert abs(norms[k] - trace_norm(flat[k] - flat_other[k])) < 1e-14
        assert abs(entropies[k] - von_neumann_entropy(flat[k])) < 1e-14
        assert abs(unchecked[k] - von_neumann_entropy(flat[k], validate=False)) < 1e-14
        assert abs(entropy_of_spectrum(spectra)[k] - entropy_of_spectrum(spectra[k])) < 1e-14
    assert type(trace_norm(flat[0])) is float
    assert trace_norm(np.zeros((3, 0, 0))).shape == (3,)
    assert entropy_of_spectrum(rng.dirichlet(np.ones(4), size=(2, 5))).shape == (2, 5)

import math

import numpy as np
import pytest

from qcap import cli, continuity
from qcap.continuity import (
    FP_TOL,
    MIXED_EPS_CAP,
    PURE_EPS_CAP,
    check_fannes,
    check_mixed_overlap_continuity,
    check_mixing_bounds,
    check_pure_overlap_continuity,
)
from qcap.linalg import (
    _eigvalsh,
    density_spectrum,
    entropy_of_spectrum,
    partial_trace,
    trace_norm,
    von_neumann_entropy,
)
from qcap.states import (
    _normalized,
    _unit_trace,
    _wishart_grams,
    random_density,
    random_pure_state,
    random_unitary,
)

from helpers import count_factorizations, gaussian_unit_vector, wishart_gram


def test_fannes_check_passes():
    for seed in (0, 7):
        report = check_fannes(trials=300, dim=6, seed=seed)
        assert report.trials == 300
        assert report.dim == 6
        assert report.violations == 0
        assert report.passed
        assert report.max_slack <= 0.0
        assert 0.0 < report.epsilon_max < 1.0 / 3.0


def test_fannes_check_other_dimensions():
    for dim in (2, 4):
        report = check_fannes(trials=150, dim=dim, seed=3)
        assert report.violations == 0
        assert report.dim == dim


def test_pure_overlap_check_passes():
    for seed in (1, 11):
        report = check_pure_overlap_continuity(trials=300, dim=4, seed=seed)
        assert report.violations == 0
        assert report.passed
        assert report.max_slack <= 0.0
        assert 0.0 < report.epsilon_max <= PURE_EPS_CAP


def test_mixed_overlap_check_passes():
    for seed in (2, 13):
        report = check_mixed_overlap_continuity(trials=300, dim=4, seed=seed)
        assert report.violations == 0
        assert report.passed
        assert report.max_slack <= 0.0
        assert 0.0 < report.epsilon_max <= MIXED_EPS_CAP


def test_mixing_check_passes():
    for seed in (4, 17):
        report = check_mixing_bounds(trials=300, dim=4, seed=seed)
        assert report.violations == 0
        assert report.passed
        assert report.max_slack <= 0.0


def test_checks_are_deterministic_per_seed():
    makers = (
        lambda s: check_fannes(trials=60, dim=4, seed=s),
        lambda s: check_pure_overlap_continuity(trials=60, dim=4, seed=s),
        lambda s: check_mixed_overlap_continuity(trials=60, dim=4, seed=s),
        lambda s: check_mixing_bounds(trials=60, dim=4, seed=s),
    )
    for make in makers:
        a = make(42)
        b = make(42)
        assert a.max_slack == b.max_slack
        assert a.epsilon_max == b.epsilon_max
        assert a.violations == b.violations


def test_check_validation_errors():
    with pytest.raises(ValueError, match="trial"):
        check_fannes(trials=0)
    with pytest.raises(ValueError, match="dimension"):
        check_fannes(dim=1)
    with pytest.raises(ValueError, match="trial"):
        check_pure_overlap_continuity(trials=-3)
    with pytest.raises(ValueError, match="dimension"):
        check_mixing_bounds(dim=0)


def test_mixing_sandwich_saturates_at_orthogonal_equal_mixture():
    parts = [np.zeros((4, 4), dtype=complex) for _ in range(4)]
    for i, m in enumerate(parts):
        m[i, i] = 1.0
    mix = sum(0.25 * m for m in parts)
    s_mix = von_neumann_entropy(mix)
    avg = 0.0
    assert abs(s_mix - (avg + 2.0)) < 1e-12


def test_mixing_sandwich_lower_edge_for_identical_parts():
    rho = random_density(4, rank=3, seed=9).matrix
    mix = 0.3 * rho + 0.7 * rho
    assert abs(von_neumann_entropy(mix) - von_neumann_entropy(rho)) < 1e-12


def test_mixing_sandwich_generic_case_by_hand():
    rng = np.random.default_rng(19)
    weights = rng.dirichlet(np.ones(3))
    parts = [random_density(4, rank=2, seed=rng).matrix for _ in range(3)]
    mix = sum(w * m for w, m in zip(weights, parts))
    s_mix = von_neumann_entropy(mix)
    avg = sum(w * von_neumann_entropy(m) for w, m in zip(weights, parts))
    h_w = float(-(weights * np.log2(weights)).sum())
    assert avg - 1e-10 <= s_mix <= avg + h_w + 1e-10


def test_fannes_bound_direct_on_rotated_pair():
    # small unitary kick: check the strong bound directly on one pair
    rng = np.random.default_rng(23)
    rho = random_density(4, rank=4, seed=rng).matrix
    u = random_unitary(4, seed=rng)
    t = 0.02
    kicked = (1.0 - t) * rho + t * (u @ rho @ u.conj().T)
    from qcap.linalg import trace_norm

    dist = trace_norm(rho - kicked)
    assert dist < 1.0 / 3.0
    gap = abs(von_neumann_entropy(rho) - von_neumann_entropy(kicked))
    bound = dist * np.log2(4) - dist * np.log2(dist) if dist > 0 else 0.0
    assert gap <= bound + 1e-9


# Per-trial reference for the batched suites: one loop iteration per trial,
# with one random_density / partial_trace / trace_norm / eigensolve
# call per state, drawing in the suites' RNG call order.  Each returns, per
# trial, the slacks in the order the suite checks them and the trial's epsilon.


def _reference_marginal_entropies(vec, dims):
    dense = np.outer(vec, vec.conj())
    return tuple(
        entropy_of_spectrum(_eigvalsh(partial_trace(dense, dims, [k]))) for k in (0, 1)
    )


def _reference_fannes(trials, dim, seed):
    rng = np.random.default_rng(seed)
    records, halvings = [], 0
    for _ in range(trials):
        rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng)
        sigma = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng)
        t_mix = float(rng.uniform(0.0, 0.22))
        other = (1.0 - t_mix) * rho.matrix + t_mix * sigma.matrix
        dist = trace_norm(rho.matrix - other)
        while dist >= 1.0 / 3.0:
            halvings += 1
            t_mix /= 2.0
            other = (1.0 - t_mix) * rho.matrix + t_mix * sigma.matrix
            dist = trace_norm(rho.matrix - other)
        diff = abs(rho.entropy() - entropy_of_spectrum(_eigvalsh(other)))
        eta = -dist * math.log2(dist) if dist > 0.0 else 0.0
        bounds = (dist * math.log2(dim) + eta, dist * math.log2(dim) + 1.0)
        records.append(([diff - b for b in bounds], dist))
    return records, halvings


def _reference_pure_overlap(trials, dim, seed):
    rng = np.random.default_rng(seed)
    total_dim = dim * dim
    records = []
    for _ in range(trials):
        psi = random_pure_state(total_dim, seed=rng).vector
        raw = rng.standard_normal(total_dim) + 1j * rng.standard_normal(total_dim)
        raw -= np.vdot(psi, raw) * psi
        chi = raw / np.linalg.norm(raw)
        eps = float(rng.uniform(0.0, PURE_EPS_CAP))
        other = math.sqrt(1.0 - eps) * psi + math.sqrt(eps) * chi
        s_first = _reference_marginal_entropies(psi, (dim, dim))
        s_second = _reference_marginal_entropies(other, (dim, dim))
        bound = 2.0 * math.sqrt(eps) * math.log2(dim) + 1.0
        records.append(([abs(s_first[k] - s_second[k]) - bound for k in (0, 1)], eps))
    return records, 0


def _reference_mixed_overlap(trials, dim, seed):
    rng = np.random.default_rng(seed)
    total_dim = dim * dim
    records = []
    for _ in range(trials):
        phi = random_pure_state(total_dim, seed=rng).vector
        sigma = random_density(total_dim, rank=int(rng.integers(1, total_dim + 1)), seed=rng)
        weight = float(rng.uniform(0.0, continuity.MIXED_EPS_CAP))
        dense = (1.0 - weight) * np.outer(phi, phi.conj()) + weight * sigma.matrix
        eps = weight * (1.0 - float(np.vdot(phi, sigma.matrix @ phi).real))
        # eps is the deficit 1 - <phi|rho|phi>, and the lemma's side condition holds by the
        # Rayleigh quotient: both are checked here, on every drawn trial, and not in the suite;
        # 1 - <phi|rho|phi> cancels against 1, so it carries a few ulps of 1
        assert abs(1.0 - float(np.vdot(phi, dense @ phi).real) - eps) <= 8 * np.finfo(float).eps
        assert float(np.linalg.eigvalsh(dense)[-1]) >= 1.0 - eps - FP_TOL
        s_phi = _reference_marginal_entropies(phi, (dim, dim))
        s_rho = tuple(
            entropy_of_spectrum(_eigvalsh(partial_trace(dense, (dim, dim), [k])))
            for k in (0, 1)
        )
        base = 2.0 * math.sqrt(2.0 * eps)
        slacks = [abs(s_rho[k] - s_phi[k]) - (base * math.log2(dim) + 2.0) for k in (0, 1)]
        slacks.append(abs(s_rho[0] - s_rho[1]) - (2.0 * base * math.log2(dim) + 4.0))
        records.append((slacks, eps))
    return records, 0


def _reference_mixing(trials, dim, seed):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(trials):
        count = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(count))
        parts = [
            random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng)
            for _ in range(count)
        ]
        mixture = sum(w * part.matrix for w, part in zip(weights, parts))
        s_mix = entropy_of_spectrum(_eigvalsh(mixture))
        s_avg = sum(w * part.entropy() for w, part in zip(weights, parts))
        h_weights = float(-np.sum(weights * np.log2(weights)))
        records.append(([s_avg - s_mix, s_mix - (s_avg + h_weights)], h_weights))
    return records, 0


def _reference_report(records, trials):
    violations, max_slack, worst, eps_max = 0, -math.inf, 0, 0.0
    for index, (slacks, eps) in enumerate(records[:trials]):
        for slack in slacks:
            if slack > max_slack:
                max_slack, worst = slack, index
            violations += int(slack > FP_TOL)
        eps_max = max(eps_max, eps)
    return violations, max_slack, worst, eps_max


SUITES = {
    "fannes": (check_fannes, _reference_fannes),
    "pure-overlap": (check_pure_overlap_continuity, _reference_pure_overlap),
    "mixed-overlap": (check_mixed_overlap_continuity, _reference_mixed_overlap),
    "mixing": (check_mixing_bounds, _reference_mixing),
}


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_batched_suites_match_per_trial_reference(suite, dim):
    check, reference = SUITES[suite]
    for seed, counts in ((0, (1, 63, 65, 1000)), (1, (1, 63, 65)), (2, (1, 63, 65))):
        records, halvings = reference(max(counts), dim, seed)
        for trials in counts:
            report = check(trials=trials, dim=dim, seed=seed)
            violations, max_slack, worst, eps_max = _reference_report(records, trials)
            assert report.trials == trials
            assert report.dim == dim
            assert report.violations == violations
            assert abs(report.max_slack - max_slack) <= 1e-12
            assert abs(report.epsilon_max - eps_max) <= 1e-12
            assert report.worst_trial == worst
        if suite == "fannes" and seed == 0:
            # the shrink loop is exercised on this seed
            assert halvings > 0


def test_fannes_solves_each_trace_distance_once(monkeypatch):
    # seed 0 halves some mixing weights (see the per-trial reference above); the
    # distance is halved with them, never solved again.  The suite's two Hermitian
    # solves of its own are those of rho - sigma and of the mixture; the checks of
    # rho solve in linalg
    solved = []
    real = continuity._eigvalsh

    def counted(matrix):
        solved.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(continuity, "_eigvalsh", counted)
    report = check_fannes(trials=1000, dim=6, seed=0)
    assert sum(solved) == 2 * report.trials == 2000


@pytest.mark.parametrize(
    "suite, per_trial",
    [("fannes", 2), ("pure-overlap", 2), ("mixed-overlap", 3), ("mixing", 2)],
)
def test_violations_are_counted_per_inequality(monkeypatch, suite, per_trial):
    monkeypatch.setattr(continuity, "FP_TOL", -math.inf)
    check, _ = SUITES[suite]
    for trials in (1, 70):
        report = check(trials=trials, dim=3, seed=4)
        assert report.violations == per_trial * trials
        assert not report.passed


def test_a_nan_slack_is_a_violation(monkeypatch, capsys):
    # a NaN slack is not at most FP_TOL, so each of lemma1's two slacks per trial counts
    monkeypatch.setattr(
        continuity, "_pure_marginal_entropy", lambda vectors, dim: np.full(vectors.shape[:-1], np.nan)
    )
    report = check_pure_overlap_continuity(trials=100, dim=3, seed=0)
    assert report.violations == 200
    assert not report.passed
    assert cli.main(["lemma-check", "lemma1", "--trials", "100", "--seed", "0"]) == 2
    assert capsys.readouterr().out.splitlines()[1].startswith("lemma1,100,200,")


def test_a_nan_slack_is_the_worst_slack_and_its_witness(monkeypatch, capsys):
    # trial 69 is row 5 of the second chunk; its NaN ranks above every finite slack
    real, chunks = continuity._pure_marginal_entropy, []

    def nan_at_trial_69(vectors, dim):
        s = real(vectors, dim)
        chunks.append(None)
        if len(chunks) == 2:
            s[69 - continuity._CHUNK] = np.nan
        return s

    monkeypatch.setattr(continuity, "_pure_marginal_entropy", nan_at_trial_69)
    report = check_pure_overlap_continuity(trials=100, dim=3, seed=0)
    assert (report.violations, report.worst_trial) == (2, 69)
    assert math.isnan(report.max_slack)
    chunks.clear()
    assert cli.main(["lemma-check", "lemma1", "--trials", "100", "--seed", "0"]) == 2
    assert capsys.readouterr().out.splitlines()[1] == "lemma1,100,2,nan"


def test_mixed_overlap_never_solves_the_joint_state(monkeypatch):
    # the side condition lambda_max(rho) >= 1 - eps holds by construction (the per-trial
    # reference checks it); the suite solves only the dim x dim marginals
    solves = count_factorizations(monkeypatch, "eigh", "eigvalsh")
    check_mixed_overlap_continuity(trials=130, dim=4, seed=0)
    shapes = solves["eigh"] + solves["eigvalsh"]
    assert shapes and all(shape[-2:] == (4, 4) for shape in shapes)


def test_mixed_overlap_epsilon_keeps_its_digits_at_tiny_weights(monkeypatch):
    # eps = w (1 - <phi|sigma|phi>) is formed without cancelling against 1, so a weight
    # of 1e-12 keeps eps to rounding; 1 - <phi|rho|phi> would be off in the fifth digit
    monkeypatch.setattr(continuity, "MIXED_EPS_CAP", 1e-12)
    report = check_mixed_overlap_continuity(trials=500, dim=4, seed=0)
    records, _ = _reference_mixed_overlap(500, 4, 0)
    replayed = max(eps for _, eps in records)
    assert 0.0 < replayed < 1e-12
    assert abs(report.epsilon_max - replayed) <= 1e-12 * replayed


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_report_fields_are_plain_numbers_and_worst_trial_replays(suite):
    check, _ = SUITES[suite]
    report = check(trials=150, dim=4, seed=6)
    for name, kind in (
        ("trials", int), ("violations", int), ("max_slack", float),
        ("epsilon_max", float), ("dim", int), ("worst_trial", int),
    ):
        assert type(getattr(report, name)) is kind, name
    assert 0 <= report.worst_trial < report.trials
    # a run of the same seed that stops at the witness ends on the same slack
    replay = check(trials=report.worst_trial + 1, dim=4, seed=6)
    assert replay.worst_trial == report.worst_trial
    assert abs(replay.max_slack - report.max_slack) <= 1e-12


@pytest.mark.parametrize("dim", [6, 16])
def test_drawn_sigma_chunks_are_density_matrices(dim):
    # fannes (dim 6) uses sigma, and lemma2 (dim 16 = 4 x 4) its factor, without validating them
    for seed in range(3):
        rng = np.random.default_rng(seed)
        ranks = [1 + i % dim for i in range(continuity._CHUNK)]
        raw = np.zeros((continuity._CHUNK, 2, dim, dim))
        for row, r in zip(raw, ranks):
            continuity._gram_factor(row, r, rng)
        sigma = _unit_trace(_wishart_grams(raw))
        spectra = density_spectrum(sigma)
        assert spectra.shape == (continuity._CHUNK, dim)
        assert np.all(np.count_nonzero(spectra > 1e-12, axis=-1) == ranks)


# The per-trial draws the suites made before they drew raw Gaussians only, each
# returning its trial's matrices, unit vectors and numbers in draw order, and the
# same objects built on the stack from the suites' new draws.


def _per_trial_fannes(rng, dim):
    rho = wishart_gram(dim, int(rng.integers(1, dim + 1)), rng)
    sigma = wishart_gram(dim, int(rng.integers(1, dim + 1)), rng)
    return rho, sigma, rng.uniform(0.0, 0.22)


def _per_trial_pure_overlap(rng, dim):
    psi = gaussian_unit_vector(dim * dim, rng)
    raw = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    return psi, raw, rng.uniform(0.0, PURE_EPS_CAP)


def _per_trial_mixed_overlap(rng, dim):
    phi = gaussian_unit_vector(dim * dim, rng)
    sigma = wishart_gram(dim * dim, int(rng.integers(1, dim * dim + 1)), rng)
    return phi, sigma, rng.uniform(0.0, MIXED_EPS_CAP)


def _per_trial_mixing(rng, dim):
    count = int(rng.integers(2, 5))
    weights = np.zeros(4)
    weights[:count] = rng.dirichlet(np.ones(count))
    parts = np.zeros((4, dim, dim), dtype=complex)
    for i in range(count):
        parts[i] = wishart_gram(dim, int(rng.integers(1, dim + 1)), rng)
    return weights, parts


def _stacked_pure_overlap(normals, eps):
    psi = _normalized(normals[:, 0] + 1j * normals[:, 1])
    return psi, normals[:, 2] + 1j * normals[:, 3], eps


def _stacked_mixed_overlap(phi, sigma, weight):
    phi = _normalized(phi[:, 0] + 1j * phi[:, 1])
    return phi, _wishart_grams(sigma), weight


DRAWS = {
    "fannes": (
        _per_trial_fannes,
        lambda rho, sigma, t: (_wishart_grams(rho), _wishart_grams(sigma), t),
    ),
    "pure-overlap": (_per_trial_pure_overlap, _stacked_pure_overlap),
    "mixed-overlap": (_per_trial_mixed_overlap, _stacked_mixed_overlap),
    "mixing": (
        _per_trial_mixing,
        lambda weights, parts, count: (continuity._flat_dirichlet(weights), _wishart_grams(parts)),
    ),
}


def _suite_draw(monkeypatch, suite, dim):
    """The per-trial row shapes and the one-trial draw that the suite hands to ``_run``."""
    captured = {}
    monkeypatch.setattr(
        continuity,
        "_run",
        lambda trials, dim, seed, rows, draw, measure: captured.update(rows=rows, draw=draw),
    )
    SUITES[suite][0](trials=1, dim=dim, seed=0)
    return captured["rows"], captured["draw"]


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("suite", sorted(DRAWS))
def test_raw_draws_keep_the_per_trial_stream(monkeypatch, suite, dim):
    # worst_trial replays seed for seed only if the generator calls keep their order
    per_trial, stacked = DRAWS[suite]
    rows, draw = _suite_draw(monkeypatch, suite, dim)
    for seed in (0, 5):
        for trials in (1, 63, 65):
            old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            old = [per_trial(old_rng, dim) for _ in range(trials)]
            new = continuity._drawn(new_rng, trials, rows, draw)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            built = stacked(*new)
            for before, after in zip(zip(*old), built):
                before = np.array(before)
                assert after.shape == before.shape
                assert np.abs(after - before).max() <= 1e-13 * np.abs(before).max()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mixing_weights_are_rng_dirichlet_bit_for_bit(k):
    # the suite draws k standard exponentials into a zero-padded row and scales them as
    # numpy's flat Dirichlet does; a change inside numpy's dirichlet would show here, not
    # as a replay that drifts
    for seed in range(100):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            padded = np.zeros((1, continuity._MAX_PARTS))
            ours.standard_exponential(out=padded[0, :k])
            expected = numpys.dirichlet(np.ones(k))
            assert ours.bit_generator.state == numpys.bit_generator.state
            assert np.array_equal(continuity._flat_dirichlet(padded)[0, :k], expected)
            assert np.array_equal(continuity._flat_dirichlet(padded[:, :k])[0], expected)

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcap.channels import erasure_channel, identity_channel
from qcap.continuity import (
    check_fannes,
    check_mixed_overlap_continuity,
    check_mixing_bounds,
    check_pure_overlap_continuity,
)
from qcap.elimination import random_demo_schemes
from qcap.erasure import (
    ErasureDecomposition,
    binomial_mean,
    capacity_curve,
    erasure_decomposition,
    half_sum_fraction,
    maximize_coherent_info,
)
from qcap.linalg import (
    _adjoint,
    _eigh,
    _eigvalsh,
    _hermitian,
    _read_only,
    _require_int,
    binary_entropy,
    density_spectrum,
    entropy_of_spectrum,
    partial_trace,
    trace_norm,
    von_neumann_entropy,
)
from qcap.states import (
    DensityMatrix,
    high_entropy_counterexample,
    maximally_mixed,
    random_density,
    random_pure_state,
    random_unitary,
)

from helpers import bell_vector, fidelity


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


def test_partial_trace_refuses_non_integer_dimensions_and_indices():
    flat = np.eye(4) / 4.0
    with pytest.raises(ValueError, match=r"^factor dimension must be an integer, got 2.9$"):
        partial_trace(flat, (2.9, 2), [0])
    for keep, bad in (([0.5], "0.5"), ([1, 0.0], "0.0")):
        with pytest.raises(ValueError, match=rf"^factor index must be an integer, got {bad}$"):
            partial_trace(flat, (2, 2), keep)
    for keep, bad in (([2], 2), ([0, -1], -1)):
        with pytest.raises(ValueError, match=rf"^factor index {bad} is outside 0..1$"):
            partial_trace(flat, (2, 2), keep)
    # numpy integers are integers
    red = partial_trace(flat, (np.int64(2), 2), [np.int64(0)])
    assert np.array_equal(red, np.eye(2) / 2.0)


@pytest.mark.parametrize("dims, bad", [((-2, -2), -2), ((0, 4), 0), ((4, 0), 0), ((-1, -4), -1)])
def test_partial_trace_refuses_a_factor_dimension_below_one(dims, bad):
    with pytest.raises(ValueError, match=rf"^factor dimension must be at least 1, got {bad}$"):
        partial_trace(np.eye(4) / 4.0, dims, [0])


def test_input_rules_have_one_owner():
    # the integer and probability rules live in linalg alone, the CLI bounds no
    # input by hand, and linalg's window engine is the one place that groups a
    # window and reads a stream in windows, with no second batch size
    src = Path(__file__).resolve().parents[1] / "src" / "qcap"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "_check_block_size" not in text, path.name
        assert "out of range for" not in text, path.name
        if path.name != "linalg.py":
            copies = ("outside [0, 1]", "operator.index", "need at least", ">= 1, got",
                      "must be positive", "too small")
            for copy in copies:
                assert copy not in text, (path.name, copy)
            assert not re.search(r"if \w+ < [0-9]:\s+raise", text), path.name
        if path.name == "cli.py":
            assert not re.search(r"\[0, 1\]|0(\.0)? <=|<= 1(\.0)?\b", text)
            n_bound = r"args\.n [<>]|[<>]=? args\.n|<= MAX_BLOCK_SIZE|block sizes 1"
            assert not re.search(n_bound, text)
        if path.name == "elimination.py":
            assert "_CHUNK" not in text and "_demo_window" not in text
        if path.name == "linalg.py":
            # one window-and-group engine serves the elimination, the demo draws and the restarts
            assert text.count("setdefault(") == 1 and text.count("_WINDOW))") == 1
        else:
            assert "islice(" not in text, path.name


# the range clamps that stay outside linalg, each one line, by module
RANGE_CLAMPS = {
    # the positive part that forms L_n(p), not a repair
    "erasure.py": "np.clip(w - w[::-1], 0.0, None)",
}


# every wrap that skips the constructor's check, by module: the wrap's line (an alias
# counts) and a line of the same module holding the check, or the exact construction,
# it relies on; a wrap is trusted only for data checked by the caller or exact by
# construction from checked inputs
TRUSTED_WRAPS = {
    "states.py": [
        # I/dim and its spectrum, all 1/dim, are exact
        ("DensityMatrix._checked(np.eye(dim, dtype=complex) / dim, np.full(dim, 1.0 / dim)",
         "_require_int(dim, \"dim\", 1)"),
        # the Wishart stack passed density_spectrum
        ("DensityMatrix._checked(m[j], spectrum[j], (m.shape[-1],))",
         "spectrum = density_spectrum(m)"),
        # H D H^dag from the checked psi, with D's diagonal as its spectrum
        ("DensityMatrix._checked(m, np.sort(diag), psi.dims)", "m[np.diag_indices(d)] += diag"),
    ],
    "erasure.py": [
        # V diag(s) V^dag for the softmax spectrum s, or the pure input |0...0>
        ("DensityMatrix._checked(rho.copy(), spectrum.copy(), (d,))",
         "rho = (vectors * spectrum[..., None, :]) @ _adjoint(vectors)"),
    ],
    "elimination.py": [
        ("rho_prime=DensityMatrix._checked(rho_prime[j], prime_spectrum[j], (d_in,))",
         "prime_spectrum = density_spectrum(rho_prime)"),
        # the tail comes from LAPACK's SVD, so it is checked
        ("tail_decoder=KrausChannel._checked(tail[j])", "_check_kraus(tail)"),
        # the demo's encoder, decoder and channel stacks, each checked once
        ("wrap = KrausChannel._checked", "_check_kraus(ops)"),
    ],
}
TRUSTED_WRAP = re.compile(r"\b(?:DensityMatrix|KrausChannel)\._checked\b")


def _untrusted_wraps(module: str, text: str) -> list[str]:
    """Wrap lines of ``module`` not listed in ``TRUSTED_WRAPS``, or listed without their check."""
    listed = TRUSTED_WRAPS.get(module, [])
    found = [line.strip() for line in text.splitlines() if TRUSTED_WRAP.search(line)]
    bad = [line for line in found if sum(site in line for site, _ in listed) != 1]
    bad += [site for site, check in listed if check not in text]
    return bad + ([] if len(found) == len(listed) else [f"{len(found)} wraps, {len(listed)} listed"])


# a spelling, outside linalg, of an array rule linalg owns: the adjoint (_adjoint), the
# Hermitian part (_hermitian) and the read-only view (_read_only), or a second owner of one
ARRAY_RULE_COPY = re.compile(
    r"\.conj\(\)\.(?:T\b|swapaxes\(|transpose\()|\.T\.conj\(\)|flags\.writeable"
    r"|\((\w+) \+ (?:\1\.conj\(\)|_adjoint\(\1\))|def _(?:adjoint|hermitian|read_only)\b"
)
SRC = Path(__file__).resolve().parents[1] / "src" / "qcap"

# numpy's Hermitian eigensolvers read one triangle of their input; linalg's _eigh and
# _eigvalsh are their only callers, each solving the Hermitian part
EIGENSOLVE = re.compile(r"np\.linalg\.eig(?:vals)?h\b")
EIGENSOLVE_OWNERS = {"_eigh": ["np.linalg.eigh"], "_eigvalsh": ["np.linalg.eigvalsh"]}


def _stray_eigensolves(module: str, text: str) -> list[str]:
    """First lines of the top-level statements of ``module`` that call numpy's solvers unowned."""
    stray = []
    for chunk in re.split(r"\n(?=\S)", text):
        name = re.match(r"def (\w+)\(", chunk)
        owner = name.group(1) if module == "linalg.py" and name else None
        if EIGENSOLVE.findall(chunk) != EIGENSOLVE_OWNERS.get(owner, []):
            stray.append(chunk.split("\n", 1)[0])
    return stray


def test_each_numerical_repair_has_one_owner():
    # linalg owns the eigenvalue floor (_floored), the zero-weight log (_log2) and the array
    # rules; outside it there is no masked log, no min/max clamp, np.clip only at the named
    # range clamps, and no adjoint, Hermitian part or read-only flag spelled by hand; every
    # eigensolve, in linalg too, goes through _eigh or _eigvalsh
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert _stray_eigensolves(path.name, text) == [], path.name
        if path.name == "linalg.py":
            assert "np.linalg.eigh(_hermitian(m))" in text
            assert "np.linalg.eigvalsh(_hermitian(m))" in text
            continue
        assert "np.log2(np.where(" not in text, path.name
        assert "min(max(" not in text, path.name
        clamp = RANGE_CLAMPS.get(path.name)
        assert text.count("np.clip(") == (0 if clamp is None else 1), path.name
        assert clamp is None or clamp in text, path.name
        assert ARRAY_RULE_COPY.search(text) is None, (path.name, ARRAY_RULE_COPY.search(text))


def test_every_trusted_wrap_names_what_it_trusts():
    for path in sorted(SRC.glob("*.py")):
        assert _untrusted_wraps(path.name, path.read_text()) == [], path.name


@pytest.mark.parametrize(
    "module, edit",
    [
        ("functionals.py", lambda text: text + "\n    return KrausChannel._checked(total)\n"),
        ("states.py", lambda text: text + "\n    wrap = DensityMatrix._checked\n"),
        ("elimination.py", lambda text: text.replace("    _check_kraus(tail)\n", "")),
        ("states.py", lambda text: text.replace("spectrum = density_spectrum(m)", "spectrum = None")),
    ],
    ids=["functionals-new-wrap", "states-alias", "elimination-tail-check", "states-spectrum"],
)
def test_the_trusted_wrap_guard_finds_an_unlisted_wrap(module, edit):
    text = (SRC / module).read_text()
    assert _untrusted_wraps(module, text) == []
    assert _untrusted_wraps(module, edit(text)) != []


@pytest.mark.parametrize(
    "module, copy",
    [
        ("erasure.py", "        h = 0.5 * (g + g.conj().T)"),
        ("erasure.py", "    return float(value), 0.5 * (grad + _adjoint(grad)), rho, spectrum"),
        ("erasure.py", "    rho = (vectors * spectrum) @ vectors.conj().T"),
        ("states.py", "    tau = matrix - head @ head.conj().swapaxes(-1, -2)"),
        ("states.py", "        m.flags.writeable = eigenvalues.flags.writeable = False"),
        ("states.py", "    return g @ g.T.conj()"),
        ("elimination.py", "def _adjoint(stack):\n    return np.conj(stack).swapaxes(-1, -2)"),
        ("elimination.py", "    y = decode.conj().transpose(0, 1, 3, 2)"),
        ("channels.py", "def _read_only(ops):\n    return ops.view()"),
        ("channels.py", "    ops.flags.writeable = False"),
    ],
    ids=["erasure-hermitian", "erasure-hermitian-adjoint", "erasure-conj-T", "states-swapaxes",
         "states-writeable", "states-T-conj", "elimination-def-adjoint",
         "elimination-transpose", "channels-def-read-only", "channels-writeable"],
)
def test_the_array_rule_guard_finds_a_planted_copy(module, copy):
    text = (SRC / module).read_text()
    assert ARRAY_RULE_COPY.search(text) is None
    assert ARRAY_RULE_COPY.search(text + "\n\n" + copy + "\n") is not None


@pytest.mark.parametrize(
    "module, copy",
    [
        ("states.py", "    values, vectors = np.linalg.eigh(tau)"),
        ("states.py", "def _purification(matrix):\n    return np.linalg.eigh(matrix)"),
        ("erasure.py", "        entropy, neg_log = _neg_log2(*np.linalg.eigh(sub))"),
        ("erasure.py", "            if np.linalg.eigvalsh(grad)[-1] - value < ASCENT_TOL:"),
        ("elimination.py", "    values, vectors = np.linalg.eigh(generators)"),
        ("continuity.py", "        top = np.linalg.eigvalsh(dense)[:, -1]"),
        ("linalg.py", "    return _floored(np.linalg.eigvalsh(m))"),
        ("linalg.py", "def _eigvalsh_raw(m):\n    return np.linalg.eigvalsh(m)"),
    ],
    ids=["states-tau", "states-def", "erasure-marginal", "erasure-gap", "elimination-rotations",
         "continuity-lemma2", "linalg-spectrum", "linalg-second-owner"],
)
def test_the_eigensolve_guard_finds_a_planted_copy(module, copy):
    text = (SRC / module).read_text()
    assert _stray_eigensolves(module, text) == []
    assert _stray_eigensolves(module, text + "\n\n" + copy + "\n") != []


def test_array_rules_keep_their_arithmetic_bit_for_bit():
    rng = np.random.default_rng(29)
    stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    for m in stack:
        assert _adjoint(m).tobytes() == m.conj().T.tobytes()
        assert _hermitian(m).tobytes() == (0.5 * (m + m.conj().T)).tobytes()
    for j, part in enumerate(_hermitian(stack)):
        assert part.tobytes() == _hermitian(stack[j]).tobytes()
    assert _adjoint(stack[:, :2]).shape == (3, 5, 2)
    # on exactly Hermitian input the solve owners are numpy's solvers bit for bit: a
    # Hermitian part, an ascent step h + c g of two, and a stack
    h, g = _hermitian(stack[0]), _hermitian(stack[1])
    for m in (h, h + 0.37 * g, _hermitian(stack)):
        values, vectors = np.linalg.eigh(m)
        assert _eigh(m)[0].tobytes() == values.tobytes()
        assert _eigh(m)[1].tobytes() == vectors.tobytes()
        assert _eigvalsh(m).tobytes() == np.linalg.eigvalsh(m).tobytes()
    # where the triangles disagree, the owners solve the Hermitian part, not the lower triangle
    raw = stack[2]
    assert _eigvalsh(raw).tobytes() == np.linalg.eigvalsh(_hermitian(raw)).tobytes()
    assert not np.allclose(_eigvalsh(raw), np.linalg.eigvalsh(raw))
    view = _read_only(stack)
    assert np.shares_memory(view, stack) and stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        view[0, 0, 0] = 1.0


def test_hermitian_part_holds_one_temporary_and_writes_no_input():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    tracemalloc.start()
    try:
        _hermitian(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m.nbytes
    # the sum is halved in place on a conjugate copy, for real input too: bit for bit the
    # formula, NaN, inf and signed zeros included, and a read-only input is never written
    special = rng.standard_normal((2, 4, 4))
    special[0, 0, 1], special[0, 1, 2], special[1, 3, 0], special[1, 2, 2] = np.nan, np.inf, -0.0, 0.0
    mixed = special.astype(complex)
    mixed.imag = special[::-1]
    for raw in (special, mixed):
        with np.errstate(invalid="ignore"):
            expected = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
            got = _hermitian(_read_only(raw))
        assert got.dtype == raw.dtype and got.tobytes() == expected.tobytes()


def test_zero_weight_log_gives_fannes_eta_bit_for_bit():
    t = np.concatenate([[0.0, 1e-300, 1e-12, 0.25, 1.0 / 3.0, 0.5, 1.0],
                        np.random.default_rng(5).random(1000) / 3.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(t > 0.0, -t * np.log2(t), 0.0)
    # + 0.0 reads -0.0 as 0.0; no other bit may move
    assert (entropy_of_spectrum(t[:, None]) + 0.0).tobytes() == (eta + 0.0).tobytes()


def test_integer_rule_messages():
    assert _require_int(np.int64(3), "trials") == 3
    assert type(_require_int(np.int64(3), "trials", 1, 5)) is int
    assert _require_int(-7, "offset") == -7
    cases = [
        ((2.0, "trials", 1), "trials must be an integer, got 2.0"),
        (("2", "trials"), "trials must be an integer, got '2'"),
        ((0, "trials", 1), "trials must be at least 1, got 0"),
        ((1, "dimension", 2), "dimension must be at least 2, got 1"),
        ((-1, "seed", 0), "seed must be a non-negative integer, got -1"),
        ((7, "block size", 1, 6), "block size 7 is outside 1..6"),
        ((0, "block size", 1, 6), "block size 0 is outside 1..6"),
        ((1, "n", 1, 0), "n 1 is refused: no value is valid"),
        ((0, "factor index", 0, -1), "factor index 0 is refused: no value is valid"),
        ((True, "block size", 1), "block size must be an integer, got True"),
        ((False, "seed", 0), "seed must be an integer, got False"),
        ((np.True_, "trials", 1), "trials must be an integer, got np.True_"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _require_int(*args)


def _report(check, **sizes):
    report = check(**{"trials": 2, "seed": 0, **sizes})
    return report.trials, report.dim, report.violations


def _kinds(value):
    if isinstance(value, (tuple, list)):
        return tuple(_kinds(v) for v in value)
    return type(value)


_PSI = random_pure_state(4, seed=6)

# every count, dimension and seed a public call takes: the call on one value,
# the name its refusal starts with, the least value it takes, and a value it takes
COUNT_RULES = {
    "check_fannes-trials": (lambda v: _report(check_fannes, trials=v), "trials", 1, 2),
    "check_fannes-dim": (lambda v: _report(check_fannes, dim=v), "dimension", 2, 3),
    "lemma1-trials": (lambda v: _report(check_pure_overlap_continuity, trials=v), "trials", 1, 2),
    "lemma1-dim": (
        lambda v: _report(check_pure_overlap_continuity, dim=v), "local dimension", 2, 2
    ),
    "lemma2-trials": (lambda v: _report(check_mixed_overlap_continuity, trials=v), "trials", 1, 2),
    "lemma2-dim": (
        lambda v: _report(check_mixed_overlap_continuity, dim=v), "local dimension", 2, 2
    ),
    "mixing-trials": (lambda v: _report(check_mixing_bounds, trials=v), "trials", 1, 2),
    "mixing-dim": (lambda v: _report(check_mixing_bounds, dim=v), "dimension", 2, 2),
    "random_demo_schemes-count": (lambda v: len(list(random_demo_schemes(v, 0))), "trials", 1, 2),
    "maximize_coherent_info-restarts": (
        lambda v: maximize_coherent_info(erasure_channel(0.25), 1, v, 0)[1], "restarts", 1, 1
    ),
    "half_sum_fraction-n": (lambda v: half_sum_fraction(v, 0.3), "n", 1, 5),
    "binomial_mean-n": (lambda v: binomial_mean(v, 0.5), "n", 0, 3),
    "random_density-rank": (lambda v: random_density(3, v, 0).eigenvalues.tolist(), "rank", 1, 2),
    "random_density-dim": (lambda v: random_density(v, 1, 0).dims, "dim", 1, 3),
    "high_entropy_counterexample-n": (
        lambda v: high_entropy_counterexample(_PSI, 0.1, v).eigenvalues.tolist(), "n", 1, 2
    ),
    "maximally_mixed-dim": (lambda v: maximally_mixed(v).dims, "dim", 1, 2),
    "random_unitary-dim": (lambda v: random_unitary(v, 0).tolist(), "dim", 1, 2),
    "random_pure_state-dim": (lambda v: random_pure_state(v, 0).vector.tolist(), "dim", 1, 2),
    "identity_channel-dim": (lambda v: identity_channel(v).kraus.shape, "dim", 1, 2),
    "seed": (lambda v: random_density(2, 2, v).eigenvalues.tolist(), "seed", 0, 3),
}


@pytest.mark.parametrize("call, name, least, good", COUNT_RULES.values(), ids=COUNT_RULES)
def test_every_count_is_an_integer_from_its_least(call, name, least, good):
    for bad in (2.0, least - 1):
        with pytest.raises(ValueError, match=rf"^({name}) "):
            call(bad)
    # a numpy integer is read as the Python int: the same result, of the same types
    got, want = call(np.int64(good)), call(good)
    assert got == want
    assert _kinds(got) == _kinds(want)


PROBABILITY_RULES = {
    "erasure_channel": (erasure_channel, "erasure probability"),
    "ErasureDecomposition": (lambda p: ErasureDecomposition(p, np.zeros(4)), "erasure probability"),
    "erasure_decomposition": (
        lambda p: erasure_decomposition(maximally_mixed(4, (2, 2)), p, 2), "erasure probability"
    ),
    "capacity_curve": (lambda p: capacity_curve([p], 2), "erasure probability"),
    "binary_entropy": (binary_entropy, "binary entropy argument"),
    "binomial_mean": (lambda p: binomial_mean(3, p), "probability"),
    "half_sum_fraction": (lambda p: half_sum_fraction(3, p), "probability"),
    "high_entropy_counterexample": (
        lambda p: high_entropy_counterexample(random_pure_state(4, seed=1), p, 2), "mixing weight"
    ),
}


@pytest.mark.parametrize("call, name", PROBABILITY_RULES.values(), ids=PROBABILITY_RULES)
def test_every_probability_is_a_real_number(call, name):
    bad = [("0.5", "'0.5'"), (None, "None"), (0.5 + 0j, "(0.5+0j)"),
           (np.array([0.1, 0.2]), "array([0.1, 0.2])"), (True, "True"), (False, "False"),
           (np.True_, "np.True_")]
    for value, shown in bad:
        message = f"{name} must be a real number, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    for good in (0, 1, 0.25, np.float64(0.25), np.float32(0.5)):
        call(good)
    with pytest.raises(ValueError, match=f"^{name} 1.5 outside \\[0, 1\\]$"):
        call(1.5)


def test_trace_norm_basics():
    assert trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    assert abs(trace_norm(np.diag([0.5, -0.5]).astype(complex)) - 1.0) < 1e-12


def test_trace_norm_fidelity_bound_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(50):
        r1 = random_density(3, rank=3, seed=rng).matrix
        r2 = random_density(3, rank=2, seed=rng).matrix
        dist = trace_norm(r1 - r2)
        fid = fidelity(r1, r2)
        assert dist <= 2.0 * math.sqrt(max(1.0 - fid, 0.0)) + 1e-10


def test_trace_norm_commuting_pair_overlap_bound():
    # states sharing eigenvectors are as far apart as their spectra
    rng = np.random.default_rng(31)
    for _ in range(200):
        v = random_unitary(4, seed=rng)
        lam1 = rng.dirichlet(np.ones(4))
        lam2 = rng.dirichlet(np.ones(4))
        r1 = (v * lam1) @ v.conj().T
        r2 = (v * lam2) @ v.conj().T
        assert abs(trace_norm(r1 - r2) - np.abs(lam1 - lam2).sum()) < 1e-12


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


@pytest.mark.parametrize("shape", [(2, 3), (4,), (3, 2, 3), ()])
def test_a_density_that_is_not_square_is_refused_by_its_shape(shape):
    # the density check owns the square rule; DensityMatrix adds only that it takes one matrix
    m = np.ones(shape, dtype=complex)
    message = rf"^density matrix must be square, got shape {re.escape(str(shape))}$"
    for call in (von_neumann_entropy, density_spectrum, DensityMatrix):
        with pytest.raises(ValueError, match=message):
            call(m)
    with pytest.raises(ValueError, match=r"^density matrix must be square, got shape \(2, 2, 2\)$"):
        DensityMatrix(np.stack([np.eye(2) / 2.0] * 2))
    assert density_spectrum(np.stack([np.eye(2) / 2.0] * 2)).shape == (2, 2)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (3, 2, 3), ()])
def test_unchecked_entropy_refuses_a_shape_that_is_not_square(shape):
    # validate=False skips the density check but not the shape rule: numpy's own
    # broadcast or axis errors never reach the caller
    message = rf"^density matrix must be square, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        von_neumann_entropy(np.ones(shape, dtype=complex), validate=False)
    assert von_neumann_entropy(np.stack([np.eye(2) / 2.0] * 3), validate=False).shape == (3,)


def test_entropy_of_spectrum_ignores_zeros():
    assert abs(entropy_of_spectrum(np.array([0.5, 0.5, 0.0]))) == 1.0
    assert entropy_of_spectrum(np.array([1.0, 0.0])) == 0.0


def test_unchecked_entropy_gives_negative_eigenvalues_no_weight():
    # unchecked entropies of spectra down to -1e-12 read as those of the spectra clamped at 0
    rng = np.random.default_rng(12)
    spectra = rng.dirichlet(np.ones(4), size=(2, 3))
    spectra[0, :, 0] = [-1e-12, -3e-13, 0.0]
    spectra[1, :, :2] = [-1e-12, -1e-16]
    # the first row is diagonal, so its eigenvalues are exact; the second is rotated
    rotations = np.stack([np.eye(4), random_unitary(4, seed=rng)])[:, None]
    stack = (rotations * spectra[..., None, :]) @ rotations.conj().swapaxes(-1, -2)
    m = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    values = np.linalg.eigvalsh(m)
    assert values.min() < -5e-13
    clamped = entropy_of_spectrum(np.clip(values, 0.0, None))
    assert von_neumann_entropy(stack, validate=False).tobytes() == clamped.tobytes()
    assert von_neumann_entropy(stack[0, 2], validate=False) == float(clamped[0, 2])


def test_binary_entropy_values_and_validation():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


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
    # 300 rows span two 256-row tiles; the only asymmetric pair lies in the last diagonal tile
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


def _not_hermitian(m):
    """The message of a Hermiticity failure, its deviation read off the whole d x d matrix."""
    return f"density matrix is not Hermitian: max deviation {np.abs(m - m.conj().T).max():.3e}"


@pytest.mark.parametrize("d", [300, 2048])
@pytest.mark.parametrize(
    "big, small",
    [
        (lambda d: (5, d - 1), lambda d: (d - 1, 9)),
        (lambda d: (d - 1, 5), lambda d: (9, d - 1)),
        (lambda d: (255, 256), lambda d: (3, 7)),
        (lambda d: (256, 255), lambda d: (d - 2, d - 40)),
    ],
    ids=["above", "below", "above-at-tile-edge", "below-at-tile-edge"],
)
def test_hermiticity_defect_is_the_largest_over_every_tile(d, big, small):
    # entry deviations are symmetric in (i, j), so tiles on and above the diagonal see them all
    m = np.eye(d, dtype=complex) / d
    m[big(d)] = 3.217e-6 + 1.9e-6j
    m[small(d)] = 2.5e-6
    expected = _not_hermitian(m)
    assert expected.endswith("3.736e-06")
    with pytest.raises(ValueError) as caught:
        density_spectrum(m)
    assert str(caught.value) == expected
    if d == 300:
        stack = np.array([np.eye(d) / d, _flat_with_defect(d, *small(d), 1e-10), m])
        with pytest.raises(ValueError) as caught:
            density_spectrum(stack)
        assert str(caught.value) == expected + " at stack index 2"


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

"""Shared construction helpers for the test suite."""

import math

import numpy as np

from qcap.channels import CodingScheme, KrausChannel, compose, erasure_channel, unitary_channel
from qcap.functionals import end_to_end_fidelity
from qcap.states import random_density, random_unitary


def random_kraus_channel(in_dim, out_dim, num_kraus, rng) -> KrausChannel:
    """Random channel from a Haar-ish isometry split into Kraus blocks.

    A complex Gaussian (out_dim * num_kraus) x in_dim matrix is
    orthonormalized by QR; slicing the isometry into num_kraus stacked
    out_dim x in_dim blocks gives operators satisfying completeness by
    construction.  num_kraus is raised to ceil(in_dim / out_dim), the
    fewest operators completeness allows.
    """
    num_kraus = max(num_kraus, -(-in_dim // out_dim))
    rows = out_dim * num_kraus
    g = rng.standard_normal((rows, in_dim)) + 1j * rng.standard_normal((rows, in_dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.real(np.diagonal(r)))
    ops = [q[k * out_dim : (k + 1) * out_dim] for k in range(num_kraus)]
    return KrausChannel(ops)


def bell_vector() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Unvalidated Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, a test reference."""
    values, vectors = np.linalg.eigh(a)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    inner = np.linalg.eigvalsh(root @ b @ root)
    return float(np.sqrt(np.clip(inner, 0.0, None)).sum()) ** 2


def wishart_gram(dim, rank, rng) -> np.ndarray:
    """G G^dag for a dim x rank complex Gaussian G, real part drawn first: a test reference."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def gaussian_unit_vector(dim, rng) -> np.ndarray:
    """Complex Gaussian vector divided by ``np.linalg.norm``: a test reference."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def counterexample_reference(psi, eps, n) -> np.ndarray:
    """rho = F F^dag of ``high_entropy_counterexample`` formed from its factor: a test reference.

    F = [sqrt(1 - eps) psi | sqrt(eps / n) H[:, cols]], with H the Householder
    reflection of psi itself, not of psi / |psi|.
    """
    v = psi.vector
    k = int(np.argmax(np.abs(v)))
    w = v.copy()
    w[k] += v[k] / abs(v[k])
    cols = [j for j in range(n + 1) if j != k][:n]
    factor = np.empty((psi.dim, n + 1), dtype=complex)
    factor[:, 0] = math.sqrt(1.0 - eps) * v
    others = factor[:, 1:]
    np.outer(w, (-2.0 / np.vdot(w, w).real) * w[cols].conj(), out=others)
    others[cols, np.arange(n)] += 1.0
    others *= math.sqrt(eps / n)
    return factor @ factor.conj().T


def density_rule_defects(m) -> tuple[bool, float, float]:
    """Whether ``m`` is finite, its max Hermiticity defect and its trace defect.

    These are the rules ``qcap.linalg._check_density`` holds within 1e-9; a state built
    exactly from checked inputs should meet them at rounding level.
    """
    return bool(np.isfinite(m).all()), float(np.abs(m - m.conj().T).max()), abs(np.trace(m) - 1.0)


def count_factorizations(monkeypatch, *names) -> dict[str, list[tuple[int, ...]]]:
    """Record the argument shape of each call of the named ``np.linalg`` factorizations.

    Returns one list per name, filled in call order while the patch holds.
    """
    calls = {name: [] for name in names}
    for name in names:

        def counted(matrix, *args, _real=getattr(np.linalg, name), _calls=calls[name], **kwargs):
            _calls.append(np.shape(matrix))
            return _real(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def demo_scheme_reference(index, rng):
    """Scheme ``index`` of ``random_demo_schemes``, drawn and built alone: a test reference."""
    if index % 3 == 0:  # split isometry
        basis = random_unitary(4, rng)
        first, second = basis[:, :2], basis[:, 2:]
        weight = rng.uniform(0.2, 0.8)
        encoder = KrausChannel([math.sqrt(weight) * first, math.sqrt(1.0 - weight) * second])
        rotation = random_unitary(4, rng)
        undo = rotation.conj().T
        decoder = KrausChannel([first.conj().T @ undo, second.conj().T @ undo])
        source = random_density(2, rank=2, seed=rng)
        return CodingScheme(source, encoder, decoder, 1), unitary_channel(rotation)
    if index % 3 == 2:  # erasure recovery
        p = rng.uniform(0.001, 0.005)
        encoder = unitary_channel(random_unitary(2, rng))
        recover = KrausChannel([[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 0]]])
        decoder = compose(unitary_channel(encoder.kraus[0].conj().T), recover)
        source = random_density(2, rank=2, seed=rng)
        return CodingScheme(source, encoder, decoder, 1), erasure_channel(p)
    dim = int(rng.integers(2, 5))  # noisy rotation
    source = random_density(dim, rank=dim, seed=rng)
    angle = rng.uniform(0.05, 0.15)
    herm = _unit_hermitian(rng, dim)
    weight = rng.uniform(0.25, 0.45)
    main = random_unitary(dim, rng)
    noise_angle, noise_rate = rng.uniform(0.01, 0.03), rng.uniform(0.001, 0.004)
    wobble = main @ _rotation(noise_angle * _unit_hermitian(rng, dim))
    channel = KrausChannel([math.sqrt(1.0 - noise_rate) * main, math.sqrt(noise_rate) * wobble])
    decoder = unitary_channel(main.conj().T)
    while True:
        drift = math.sqrt(weight) * _rotation(angle * herm)
        encoder = KrausChannel([math.sqrt(1.0 - weight) * np.eye(dim), drift])
        scheme = CodingScheme(source, encoder, decoder, 1)
        if 1.0 - end_to_end_fidelity(scheme, channel).value <= 0.009:
            return scheme, channel
        angle *= 0.5


def _unit_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = g + g.conj().T
    return g / np.linalg.norm(g, 2)


def _rotation(generator):
    """exp(i generator) of a Hermitian matrix."""
    values, vectors = np.linalg.eigh(generator)
    return (vectors * np.exp(1j * values)) @ vectors.conj().T

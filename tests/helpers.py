"""Shared construction helpers for the test suite."""

import numpy as np

from qcap.channels import KrausChannel


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

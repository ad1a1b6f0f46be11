"""Dense linear algebra helpers shared by the whole package.

All entropies are in bits (logarithms base 2).  Matrices are plain numpy
arrays; the typed wrappers live in :mod:`qcap.states`.  Every layer imports
this module, so it owns the integer and probability input rules, the
shared array rules (the adjoint, the Hermitian part, the read-only view)
and the eigensolve: ``_eigh`` and ``_eigvalsh`` solve the Hermitian part.
``von_neumann_entropy`` always checks its input; the package's own densities,
built as such, are read as ``entropy_of_spectrum(_eigvalsh(m))``.
Its window engine ``_windowed`` batches every lazy stack, the elimination,
the demo draws and the input search's restarts, ``_WINDOW`` items at a time.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from typing import Iterable, Iterator

import numpy as np

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-10
_WINDOW = 256


def _require_int(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` as a Python int, refused by ``what`` unless it is an integer in least..most.

    2.0 and True are not integers.  A bound left as None is not checked; ``most``
    is only given with ``least``; ``most < least`` leaves no value valid.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if most is not None and not least <= n <= most:
        span = f"outside {least}..{most}" if least <= most else "refused: no value is valid"
        raise ValueError(f"{what} {n} is {span}")
    if least is not None and n < least:
        bound = "a non-negative integer" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {n}")
    return n


def _require_probability(p: float, what: str = "erasure probability") -> float:
    """``p`` as a float, refused by ``what`` unless a real number in [0, 1], not NaN or a bool."""
    if not isinstance(p, numbers.Real) or isinstance(p, bool):
        raise ValueError(f"{what} must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} {p!r} outside [0, 1]")
    return float(p)


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes: each matrix of a stack alike."""
    return m.conj().swapaxes(-1, -2)


def _hermitian(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag) / 2 of each matrix of a stack, summed and halved in place."""
    h = np.conjugate(m.swapaxes(-1, -2), order="C")  # a new array for any dtype: m is not written
    h += m
    h *= 0.5
    return h


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian part of each matrix of a stack."""
    return np.linalg.eigh(_hermitian(m))


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix of a stack."""
    return np.linalg.eigvalsh(_hermitian(m))


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; the caller's array keeps its own flag."""
    a = a.view()
    a.flags.writeable = False
    return a


def _scalar_or_stack(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


class _MemberError(ValueError):
    """A check that failed on one member of a stack.

    The message is ``reason`` plus the member's stack index ``where``; a
    single matrix has ``where == ()`` and no suffix.  A caller that stacked
    its own items can read both fields and name the item instead.
    """

    def __init__(self, reason: str, where: tuple[int, ...]):
        note = "" if not where else f" at stack index {where[0] if len(where) == 1 else where}"
        super().__init__(reason + note)
        self.reason, self.where = reason, where


def _first_failure(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first flagged stack member, or None when nothing is flagged.

    ``bad`` holds one flag per member of a stack; a single matrix has a 0-d
    flag and the index ``()``.
    """
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _windowed(items, key, run) -> Iterator:
    """``run`` on each same-``key`` group of ``_WINDOW`` stream items, yielded in input order.

    A stream of any length holds one window, and a group is one call.  An error
    names an item as ``instance`` by its stream position: a failed member check
    (:class:`_MemberError`) its member, any other its group's first.
    """
    stream, start = iter(items), 0
    while window := list(itertools.islice(stream, _WINDOW)):
        groups: dict[tuple, list[int]] = {}
        for i, item in enumerate(window):
            groups.setdefault(key(item), []).append(i)
        for members in groups.values():
            try:
                done = run([window[i] for i in members])
            except _MemberError as exc:
                where = start + members[exc.where[0]]
                raise ValueError(f"{exc.reason} at instance {where}") from None
            except ValueError as exc:
                raise ValueError(f"{exc} at instance {start + members[0]}") from None
            for i, result in zip(members, done):
                window[i] = result
        yield from window
        start += len(window)


def partial_trace(matrix: np.ndarray, dims: Iterable[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` lists the factor dimensions left to right, ``keep`` the factor
    indices to retain (original order is preserved).  An empty keep set
    returns the 1x1 matrix holding the trace.  Leading axes of ``matrix``
    index a stack of matrices, each reduced alike.
    """
    dims = tuple(_require_int(d, "factor dimension", 1) for d in dims)
    n = len(dims)
    keep = sorted({_require_int(k, "factor index", 0, n - 1) for k in keep})
    m = np.asarray(matrix, dtype=complex)
    total = math.prod(dims)
    if m.shape[-2:] != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match factor dimensions {dims}"
        )
    lead = m.shape[:-2]
    if not keep:
        return np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    reshaped = m.reshape(lead + dims + dims)
    row = list(range(n))
    col = [k + n if k in set(keep) else k for k in range(n)]
    out = [k for k in keep] + [k + n for k in keep]
    reduced = np.einsum(reshaped, [Ellipsis] + row + col, [Ellipsis] + out)
    kept_dim = math.prod(dims[k] for k in keep)
    return np.ascontiguousarray(reduced.reshape(lead + (kept_dim, kept_dim)))


def trace_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; for Hermitian input this is sum |eigenvalue|.

    Leading axes index a stack of matrices, giving one norm per member.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return _scalar_or_stack(np.zeros(m.shape[:-2]))
    return _scalar_or_stack(np.linalg.svd(m, compute_uv=False).sum(-1))


def _log2(values: np.ndarray) -> np.ndarray:
    """log2 of each entry, 0 where an entry is not positive: a zero weight adds nothing."""
    return np.log2(np.where(values > 0.0, values, 1.0))


def entropy_of_spectrum(values: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in bits of a nonnegative eigenvalue vector.

    Entries that are not positive contribute nothing.  Leading axes index a
    stack of spectra, giving one entropy per member.
    """
    values = np.asarray(values, dtype=float)
    return _scalar_or_stack(np.abs((values * _log2(values)).sum(-1)))


def _check_density(m: np.ndarray) -> None:
    """Raise unless each matrix of the stack is square, finite, Hermitian and of unit trace.

    Hermiticity is read as max |m_ij - conj(m_ji)| in one pass over one contiguous copy
    of the adjoint, spelled as in ``_hermitian``, less ``m`` in place: the peak holds that
    copy and its moduli.  That is enough: every check is followed by a solve of the same
    stack's Hermitian part, which holds that part and LAPACK's working copy of it.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    bad = ~np.isfinite(m)
    where = _first_failure(bad.any(axis=(-2, -1)))
    if where is not None:
        i, j = np.argwhere(bad[where])[0]
        raise _MemberError(f"density matrix has a non-finite entry at row {i}, column {j}", where)
    defect = np.conjugate(m.swapaxes(-1, -2), order="C")
    defect -= m  # |conj(m_ji) - m_ij|, equal to |m_ij - conj(m_ji)| bit for bit
    defect = np.abs(defect).max(axis=(-2, -1), initial=0.0)
    where = _first_failure(defect > HERMITICITY_TOL)
    if where is not None:
        raise _MemberError(
            f"density matrix is not Hermitian: max deviation {defect[where]:.3e}", where
        )
    tr = m.trace(axis1=-2, axis2=-1)
    where = _first_failure(abs(tr - 1.0) > TRACE_TOL)
    if where is not None:
        raise _MemberError(f"density matrix trace {complex(tr[where]):.12g} deviates from 1", where)


def _floored(values: np.ndarray) -> np.ndarray:
    """Ascending spectra with small negative eigenvalues set to zero; raise below the floor."""
    lowest = values[..., 0]
    where = _first_failure(lowest < EIGENVALUE_FLOOR)
    if where is not None:
        raise _MemberError(
            f"density matrix has negative eigenvalue {float(lowest[where]):.3e} "
            f"below the floor {EIGENVALUE_FLOOR:.0e}",
            where,
        )
    return np.clip(values, 0.0, None)


def density_spectrum(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix and return its eigenvalues, clamped at zero.

    The input must be finite, Hermitian within 1e-9, have unit trace within 1e-9,
    and eigenvalues above -1e-10; the eigenvalues come from one solve of the
    Hermitian part, ascending, with small negative ones set to zero.

    Leading axes index a stack of matrices, checked and solved in one
    call; an error names the first failing member by its stack index.
    """
    m = np.asarray(rho, dtype=complex)
    _check_density(m)
    return _floored(_eigvalsh(m))


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits, -Tr(rho log2 rho), of a density matrix.

    The input is checked and solved by :func:`density_spectrum`.  Leading axes
    index a stack of matrices, giving one entropy per member.
    """
    return entropy_of_spectrum(density_spectrum(rho))


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x) on [0, 1], 0 at the endpoints."""
    x = _require_probability(x, "binary entropy argument")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))

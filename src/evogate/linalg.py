"""Dense complex linear algebra for small parametrized unitaries.

Everything operates on plain numpy arrays with ``complex128`` entries.
Matrices have shape ``(..., d, d)``; leading axes broadcast, so a whole
population of parameter vectors can be turned into unitaries in a single
call.  All functions are pure and never mutate their inputs.

The floats are part of the contract: stored fitness values are re-scored
exactly, so a rewrite of a function on the fitness path must keep every
bit.  Keep contractions as ``np.einsum``, which sums term by term in index
order; numpy's complex ``*`` ufunc and ``@`` round differently on general
complex matrices.  On the fitness path keep the batch axis last and
contiguous in those contractions: on a strided view einsum silently loops
over the length-d axis instead of the batch, about 4x slower.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "generator_stack",
    "su2_closed_form",
    "unitary_from_params",
]

_EPS = np.finfo(float).eps


@lru_cache(maxsize=None)
def generator_stack(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis of dimension d as one read-only
    ``(d*d-1, d, d)`` array of traceless Hermitian matrices.

    Ordering: the symmetric pair matrices ``|j><k| + |k><j|`` for ``j < k``
    in lexicographic order, then the antisymmetric pairs
    ``-i|j><k| + i|k><j|`` in the same order, then the diagonal matrices
    ``sqrt(2/(l(l+1))) * (sum_{m<l} |m><m| - l|l><l|)`` for ``l = 1..d-1``.
    For ``d = 2`` this is exactly ``[sigma_x, sigma_y, sigma_z]``, and
    ``Tr(s_a s_b) = 2 delta_ab`` throughout.  ``d`` must be at least 2.
    """
    if d < 2:
        raise ValueError(f"generator basis needs dimension >= 2, got {d}")
    mats = []
    # symmetric off-diagonal pairs, lexicographic in (j, k), then the
    # antisymmetric pairs in the same order
    for upper, lower in ((1.0, 1.0), (-1.0j, 1.0j)):
        for j, k in ((j, k) for j in range(d) for k in range(j + 1, d)):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = upper
            m[k, j] = lower
            mats.append(m)
    # diagonal matrices, one per leading block size
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        scale = np.sqrt(2.0 / (l * (l + 1)))
        for i in range(l):
            m[i, i] = scale
        m[l, l] = -l * scale
        mats.append(m)
    stack = np.stack(mats)
    stack.flags.writeable = False
    return stack


def unitary_from_params(p: np.ndarray, d: int) -> np.ndarray:
    """Unitary exp(-i sum_k p_k s_k) over the generator basis of dimension d.

    The Hermitian combination is diagonalized and exponentiated on its
    spectrum, which is exact up to rounding for these small dense matrices.
    ``p`` may carry leading batch axes: shape ``(..., d*d-1)`` produces
    ``(..., d, d)``.

    Raises
    ------
    ValueError
        If the trailing axis of ``p`` is not ``d*d - 1``.
    numpy.linalg.LinAlgError
        If the eigensolver fails to converge (a ``ValueError`` subclass).
    """
    p = np.asarray(p, dtype=float)
    n = d * d - 1
    if p.shape[-1] != n:
        raise ValueError(f"expected {n} parameters for dimension {d}, got {p.shape[-1]}")
    sig = generator_stack(d)
    h = np.einsum("...k,kij->...ij", p, sig)
    w, v = np.linalg.eigh(h)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * w), v.conj())


def su2_closed_form(p: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 unitary cos(T) I - i sin(T) (n . sigma) for T = |p|.

    ``n = p / |p|``; the zero vector maps to the identity.  Agrees with
    :func:`unitary_from_params` at ``d = 2`` to machine precision and is the
    fast path used inside optimization loops.  Accepts leading batch axes.

    The arithmetic is pinned, because every fitness in a run goes through
    it: ``T`` is ``sqrt`` of the sum of squares added left to right, as
    ``np.linalg.norm`` computes it; ``sin(T)/T`` is ``np.sinc(T/pi)``
    written out; and each entry is one real product ``f*p_k`` (or
    ``cos T``) written straight into the real or imaginary half, which
    equals the complex expression ``c - 1j*f*p_z`` and its kin (the
    imaginary unit times a real contributes an exact zero to the real part).
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError(f"expected 3 parameters, got {p.shape[-1]}")
    pp = p * p
    theta = np.sqrt((pp[..., 0] + pp[..., 1]) + pp[..., 2])
    x = np.pi * (theta / np.pi)
    x = np.where(x, x, _EPS)  # sin(x)/x -> 1 at 0, as np.sinc does it
    f = np.sin(x) / x
    fp = f[..., None] * p  # f*px, f*py, f*pz
    u = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
    # w: the entries as (re, im) float pairs, u00 u01 u10 u11 in turn; an
    # imaginary part is 0 -/+ f*p_k as in the complex expression, so an
    # exactly-zero one keeps its +0
    w = u.reshape(p.shape[:-1] + (4,)).view(float)
    w[..., 0:7:6] = np.cos(theta)[..., None]  # re u00, re u11
    np.subtract(0.0, fp[..., 2], out=w[..., 1])  # im u00
    np.negative(fp[..., 1], out=w[..., 2])  # re u01
    np.subtract(0.0, fp[..., 0], out=w[..., 3])  # im u01
    w[..., 4] = fp[..., 1]  # re u10
    w[..., 5] = w[..., 3]  # im u10
    np.add(0.0, fp[..., 2], out=w[..., 7])  # im u11
    return u


"""Post-run analysis: rotation geometry, superposition balance, ensemble
statistics, and the run-time-versus-accuracy exponential fit.

Products that reach an output file are ``np.einsum`` contractions, as on the
fitness path: ``@`` and ``np.linalg.norm`` go through BLAS, whose bits depend
on the kernel OpenBLAS picks for the CPU.  Tolerance checks may keep them.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .linalg import generator_stack

__all__ = [
    "BlochDecomposition",
    "FitResult",
    "PreparedState",
    "bloch_decompose",
    "ensemble_stats",
    "fit_exponential",
    "hold_last",
    "prepared_state",
    "quantile_bins",
]

DEGENERATE_SIN = 1e-9
DEGENERATE_AMPLITUDE = 1e-12
# Gauss-Newton iterations before fit_exponential gives up unconverged
FIT_MAX_ITER = 200


@dataclass(frozen=True)
class BlochDecomposition:
    """A 2x2 unitary as cos(theta) I - i sin(theta) (axis . sigma).

    The rotation moves Bloch vectors by ``2 * theta`` about ``axis``.
    ``residual`` is the max-norm gap between the reconstruction and the
    phase-stripped input; ``degenerate`` marks near-zero rotations where the
    axis is conventional (0, 0, 1).
    """

    theta: float
    axis: np.ndarray
    residual: float
    degenerate: bool


@dataclass(frozen=True)
class PreparedState:
    """Polar form of a qubit state: alpha |0> + e^{i phi} sqrt(1-alpha^2) |1>.

    ``degenerate`` marks states on a pole, where the relative phase is
    meaningless and reported as 0.
    """

    alpha: float
    phi: float
    degenerate: bool


@dataclass(frozen=True)
class FitResult:
    """Parameters of q = a * exp(-b * eps) + c with linearized standard errors."""

    a: float
    b: float
    c: float
    a_err: float
    b_err: float
    c_err: float
    rss: float
    converged: bool
    n_iter: int

    @property
    def identified(self) -> bool:
        """Whether the data pin down a decay: ``b > 0``, all three standard
        errors finite and ``b_err < b``.  A converged fit can still fail
        this, e.g. on data whose eps spread is too narrow to resolve ``b``."""
        errs = (self.a_err, self.b_err, self.c_err)
        return (self.b > 0 and all(math.isfinite(e) for e in errs)
                and self.b_err < self.b)


def _check_unitary_2x2(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10:  # NaN fails too
        raise ValueError("matrix is not unitary within tolerance")
    return u


def bloch_decompose(u: np.ndarray) -> BlochDecomposition:
    """Rotation angle and axis of a 2x2 unitary, ignoring global phase.

    The phase is stripped with the principal square root of the determinant;
    the angle is folded into [0, pi] with the axis sign absorbing the rest.
    """
    u = _check_unitary_2x2(u)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / np.sqrt(det)
    cos_t = min(1.0, max(-1.0, float((su[0, 0] + su[1, 1]).real) / 2.0))
    theta = math.acos(cos_t)
    sin_t = math.sin(theta)
    sigma = generator_stack(2)
    if sin_t > DEGENERATE_SIN:
        traces = np.einsum("ij,kji->k", su, sigma)
        axis = -traces.imag / (2.0 * sin_t)
        axis = axis / math.sqrt(np.einsum("k,k->", axis, axis))
        degenerate = False
    else:
        axis = np.array([0.0, 0.0, 1.0])
        degenerate = True
    recon = cos_t * np.eye(2) - 1j * sin_t * np.einsum("k,kij->ij", axis, sigma)
    residual = float(np.max(np.abs(recon - su)))
    return BlochDecomposition(theta=theta, axis=axis, residual=residual, degenerate=degenerate)


def prepared_state(u1: np.ndarray, psi_in: np.ndarray) -> PreparedState:
    """Polar form of the state the first unitary prepares from ``psi_in``."""
    u1 = _check_unitary_2x2(u1)
    psi = np.asarray(psi_in, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"expected a qubit state, got shape {psi.shape}")
    s = np.einsum("ij,j->i", u1, psi)
    a0 = abs(s[0])
    a1 = abs(s[1])
    alpha = min(a0, 1.0)
    if a0 < DEGENERATE_AMPLITUDE or a1 < DEGENERATE_AMPLITUDE:
        return PreparedState(alpha=alpha, phi=0.0, degenerate=True)
    raw = math.atan2(s[1].imag, s[1].real) - math.atan2(s[0].imag, s[0].real)
    phi = math.pi - (math.pi - raw) % (2.0 * math.pi)  # wrap into (-pi, pi]
    return PreparedState(alpha=alpha, phi=phi, degenerate=False)


def hold_last(series: np.ndarray, horizon: int) -> np.ndarray:
    """Extend a per-generation series to ``horizon`` entries by repeating the
    final value (a terminated run keeps reporting its settled fitness)."""
    s = np.asarray(series, dtype=float)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if s.size >= horizon:
        return s[:horizon].copy()
    return np.concatenate([s, np.full(horizon - s.size, s[-1])])


def ensemble_stats(records, horizon: int = 0):
    """Per-generation ``(mean, std, counts)`` of the runs' mean-fitness
    curves, indexed from generation 1.

    With ``horizon`` 0 a run drops out after its last generation:
    ``counts[g]`` is the number of runs that lasted at least ``g+1``
    generations, and each generation reduces its values in sorted order, so
    the statistics are permutation-invariant in the record order bit for
    bit.  With ``horizon`` > 0 every run holds its last value out to
    ``horizon`` generations (:func:`hold_last`) and counts once per row.
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one run record")
    if horizon > 0:
        m = np.stack([hold_last(r.mean_fitness, horizon) for r in records])
        return m.mean(axis=0), m.std(axis=0), np.full(horizon, len(records), dtype=np.int64)
    g_max = max(r.q_c for r in records)
    mean = np.empty(g_max)
    std = np.empty(g_max)
    counts = np.empty(g_max, dtype=np.int64)
    for g in range(g_max):
        vals = np.sort([r.mean_fitness[g] for r in records if r.q_c > g])
        counts[g] = vals.size
        mean[g] = vals.mean()
        std[g] = vals.std()
    return mean, std, counts


def _points(eps, q) -> tuple[np.ndarray, np.ndarray]:
    """``(eps, q)`` as float arrays, checked to be 1-d and of equal length."""
    eps, q = np.asarray(eps, dtype=float), np.asarray(q, dtype=float)
    if eps.shape != q.shape or eps.ndim != 1:
        raise ValueError("eps and q must be 1-d arrays of equal length")
    return eps, q


def quantile_bins(eps: np.ndarray, q: np.ndarray, n_bins: int = 20):
    """Bin (eps, q) points into equal-count bins by eps and return bin means.

    Bin sizes differ by at most one; empty bins (when ``n_bins`` exceeds the
    point count) are dropped.
    """
    eps, q = _points(eps, q)
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    chunks = [c for c in np.array_split(np.argsort(eps, kind="stable"), n_bins) if c.size]
    return np.array([eps[c].mean() for c in chunks]), np.array([q[c].mean() for c in chunks])


def fit_exponential(eps, q) -> FitResult:
    """Least-squares fit of q = a * exp(-b * eps) + c by damped Gauss-Newton.

    Initialization: ``c0`` slightly below the smallest q, then a log-linear
    regression of ``log(q - c0)`` on eps for ``(a0, b0)``.  Damping starts
    at 1e-3, grows tenfold when a step increases the residual and shrinks
    tenfold when it decreases; iteration stops when the relative residual
    change drops below 1e-10 (or the residual hits the rounding floor).
    The start and each accepted point are linearized once: one decay, one
    Jacobian and its normal equations serve every damped step from the
    point and, at the solution, the standard errors.  A runaway trial step
    is rejected silently, by its non-finite residual.  Singular normal
    equations or the iteration cap yield a non-converged result, not an error.
    """
    eps, q = _points(eps, q)
    if eps.size < 4:
        raise ValueError(f"need at least 4 points, got {eps.size}")
    if np.any(eps < 0):
        raise ValueError("eps values must be non-negative")
    if np.all(eps == eps[0]):
        raise ValueError("eps values must not all be equal")

    margin = max(0.05 * (q.max() - q.min()), 1e-6)
    c0 = q.min() - margin
    slope, intercept = np.polyfit(eps, np.log(q - c0), 1)
    params = np.array([math.exp(intercept), -slope, c0])

    def score(p):  # a runaway point scores a non-finite rss, with no float warning
        with np.errstate(over="ignore", invalid="ignore"):
            decay = np.exp(-p[1] * eps)
            r = q - (p[0] * decay + p[2])
            return decay, r, float(r @ r)

    def linearize(p, decay, r):  # the normal equations J^T J, J^T r at p
        jac = np.column_stack([decay, -p[0] * eps * decay, np.ones_like(eps)])
        return jac.T @ jac, jac.T @ r

    decay, r, rss = score(params)
    normal, grad = linearize(params, decay, r)
    floor = eps.size * (1e-13 * max(1.0, float(np.max(np.abs(q))))) ** 2
    lam = 1e-3
    converged = rss <= floor
    n_iter = 0
    singular = False
    while not converged and n_iter < FIT_MAX_ITER:
        n_iter += 1
        damped = normal + lam * np.diag(np.diag(normal))
        try:
            step = np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError:
            singular = True
            break
        trial = params + step
        decay_trial, r_trial, rss_trial = score(trial)
        if not np.isfinite(rss_trial) or rss_trial > rss:
            lam *= 10.0
            continue
        rel_change = abs(rss - rss_trial) / max(rss, 1e-300)
        params, decay, r, rss = trial, decay_trial, r_trial, rss_trial
        normal, grad = linearize(params, decay, r)
        lam /= 10.0
        if rel_change < 1e-10 or rss <= floor:
            converged = True

    errs = (math.nan, math.nan, math.nan)
    if not singular:
        with suppress(np.linalg.LinAlgError):
            diag = np.diag(rss / (eps.size - 3) * np.linalg.inv(normal))
            if np.all(diag >= 0):
                errs = tuple(float(math.sqrt(v)) for v in diag)
    a, b, c = (float(v) for v in params)
    return FitResult(a=a, b=b, c=c, a_err=errs[0], b_err=errs[1], c_err=errs[2],
                     rss=rss, converged=bool(converged), n_iter=n_iter)

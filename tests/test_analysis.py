import dataclasses
import math

import numpy as np
import pytest

from evogate import linalg
from evogate.analysis import (
    bloch_decompose,
    ensemble_stats,
    fit_exponential,
    hold_last,
    prepared_state,
    quantile_bins,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
KET0 = np.array([1.0, 0.0], dtype=complex)
SIGMA = linalg.generator_stack(2)


class StubRecord:
    def __init__(self, mean_fitness, q_c):
        self.mean_fitness = np.asarray(mean_fitness, dtype=float)
        self.q_c = q_c


# ------------------------------------------------------- bloch decomposition

def test_bloch_hadamard():
    b = bloch_decompose(HADAMARD)
    assert abs(b.theta - math.pi / 2) <= 1e-12
    assert np.max(np.abs(b.axis - np.array([1, 0, 1]) / np.sqrt(2))) <= 1e-12
    assert b.residual <= 1e-12
    assert not b.degenerate


def test_bloch_identity_is_degenerate():
    b = bloch_decompose(np.eye(2))
    assert b.theta == 0.0
    assert np.array_equal(b.axis, [0.0, 0.0, 1.0])
    assert b.degenerate
    assert b.residual <= 1e-12


def test_bloch_round_trip():
    rng = np.random.default_rng(12)
    p = rng.uniform(-np.pi, np.pi, size=(10_000, 3))
    us = linalg.su2_closed_form(p)
    worst_residual = 0.0
    for i, u in enumerate(us):
        b = bloch_decompose(u)
        worst_residual = max(worst_residual, b.residual)
        assert abs(np.linalg.norm(b.axis) - 1.0) <= 1e-12
        if i % 37 == 0:  # full phase-restored reconstruction on a subsample
            recon = math.cos(b.theta) * np.eye(2) - 1j * math.sin(b.theta) * np.einsum(
                "k,kij->ij", b.axis, SIGMA
            )
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            assert np.max(np.abs(np.sqrt(det) * recon - u)) <= 1e-10
    assert worst_residual <= 1e-10


def test_bloch_recovers_angle_and_axis():
    rng = np.random.default_rng(13)
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        theta = rng.uniform(0.05, math.pi - 0.05)
        b = bloch_decompose(linalg.su2_closed_form(theta * direction))
        assert abs(b.theta - theta) <= 1e-9
        assert np.max(np.abs(b.axis - direction)) <= 1e-9


def test_bloch_rejects_non_unitary():
    with pytest.raises(ValueError):
        bloch_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        bloch_decompose(np.eye(3))


def test_nan_matrix_is_not_unitary():
    # a NaN entry must fail the unitarity check, not pass it as "not above tol"
    u = np.array([[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not unitary"):
        bloch_decompose(u)
    with pytest.raises(ValueError, match="not unitary"):
        prepared_state(u, KET0)


def test_analysis_takes_the_task_unitarity_tolerance():
    # a defect between 1e-12 (a task's oracles) and 1e-10 passed here once
    u = HADAMARD * (1.0 + 1e-11)
    assert 1e-12 < np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10
    with pytest.raises(ValueError, match="not unitary"):
        bloch_decompose(u)
    with pytest.raises(ValueError, match="not unitary"):
        prepared_state(u, KET0)


# ------------------------------------------------------------ prepared state

@pytest.mark.parametrize("psi", [[2.0, 0.0], [0.6, 0.6], [math.nan, 0.0]])
def test_prepared_state_rejects_a_state_that_is_not_normalized(psi):
    # these once came back as alpha = 1, 0.6 and nan, with no error
    with pytest.raises(ValueError, match="must be normalized"):
        prepared_state(np.eye(2), np.array(psi))


def test_prepared_state_identity_is_degenerate():
    ps = prepared_state(np.eye(2), KET0)
    assert ps.alpha == 1.0
    assert ps.phi == 0.0
    assert ps.degenerate


def test_prepared_state_hadamard():
    ps = prepared_state(HADAMARD, KET0)
    assert abs(ps.alpha - 1 / math.sqrt(2)) <= 1e-12
    assert ps.phi == 0.0
    assert not ps.degenerate


def test_prepared_state_phase_wraps_to_pi():
    # amplitudes (1, -1)/sqrt(2) carry relative phase exactly pi, not -pi
    u = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
    ps = prepared_state(u, KET0)
    assert ps.phi == math.pi


def test_prepared_state_global_phase_invariance():
    rng = np.random.default_rng(14)
    for _ in range(100):
        u = linalg.su2_closed_form(rng.uniform(-np.pi, np.pi, size=3))
        ps = prepared_state(u, KET0)
        shifted = prepared_state(np.exp(1j * rng.uniform(0, 2 * np.pi)) * u, KET0)
        assert abs(ps.alpha - shifted.alpha) <= 1e-12
        if not ps.degenerate:
            delta = abs(ps.phi - shifted.phi)
            assert min(delta, 2 * math.pi - delta) <= 1e-12


def test_prepared_state_reconstructs_amplitudes():
    rng = np.random.default_rng(15)
    for _ in range(100):
        u = linalg.su2_closed_form(rng.uniform(-np.pi, np.pi, size=3))
        ps = prepared_state(u, KET0)
        if ps.degenerate:
            continue
        rebuilt = np.array([ps.alpha, math.sqrt(1 - ps.alpha**2) * np.exp(1j * ps.phi)])
        actual = u @ KET0
        phase = actual[0] / abs(actual[0])
        assert np.max(np.abs(rebuilt * phase - actual)) <= 1e-10


# -------------------------------------------------------- ensemble statistics

def test_hold_last():
    assert np.array_equal(hold_last([0.2, 0.5], 5), [0.2, 0.5, 0.5, 0.5, 0.5])
    assert np.array_equal(hold_last([0.2, 0.5, 0.9], 2), [0.2, 0.5])
    with pytest.raises(ValueError):
        hold_last([0.2], 0)


def test_ensemble_stats_single_run_holds_last_to_the_horizon():
    rec = StubRecord([0.3, 0.6, 0.8], 3)
    mean, std, counts = ensemble_stats([rec], horizon=5)
    assert np.array_equal(mean, [0.3, 0.6, 0.8, 0.8, 0.8])
    assert np.array_equal(std, np.zeros(5))
    assert np.array_equal(counts, [1, 1, 1, 1, 1])


def test_ensemble_stats_single_run():
    rec = StubRecord([0.3, 0.6, 0.8], 3)
    mean, std, counts = ensemble_stats([rec])
    assert np.array_equal(mean, rec.mean_fitness)
    assert np.array_equal(std, np.zeros(3))
    assert np.array_equal(counts, [1, 1, 1])


def test_ensemble_stats_dropout():
    short = StubRecord([0.2, 0.4, 0.6], 3)
    long = StubRecord([0.4, 0.6, 0.8, 0.9, 1.0], 5)
    mean, std, counts = ensemble_stats([short, long])
    assert np.array_equal(counts, [2, 2, 2, 1, 1])
    assert np.allclose(mean, [0.3, 0.5, 0.7, 0.9, 1.0])
    assert np.allclose(std[:3], [0.1, 0.1, 0.1])
    assert np.array_equal(std[3:], [0.0, 0.0])


def test_ensemble_stats_permutation_invariant():
    rng = np.random.default_rng(16)
    recs = [
        StubRecord(np.sort(rng.uniform(0, 1, size=n)), n)
        for n in rng.integers(2, 12, size=20)
    ]
    forward = ensemble_stats(recs)
    backward = ensemble_stats(recs[::-1])
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)


def test_ensemble_stats_rejects_empty():
    with pytest.raises(ValueError):
        ensemble_stats([])


def test_quantile_bins():
    eps = np.array([0.1, 0.2, 0.3, 0.4])
    q = np.array([10.0, 20.0, 30.0, 40.0])
    eb, qb = quantile_bins(eps, q, n_bins=2)
    assert np.allclose(eb, [0.15, 0.35])
    assert np.allclose(qb, [15.0, 35.0])
    # more bins than points: every point becomes its own bin, empties dropped
    eb, qb = quantile_bins(eps, q, n_bins=10)
    assert np.array_equal(eb, eps)
    assert np.array_equal(qb, q)
    with pytest.raises(ValueError):
        quantile_bins(eps, q, n_bins=0)
    with pytest.raises(ValueError, match="equal length"):
        quantile_bins(eps, q[:3])


# --------------------------------------------------------------- curve fit

TRUE = (16.0, 22.0, 15.0)


def model(eps, a=TRUE[0], b=TRUE[1], c=TRUE[2]):
    return a * np.exp(-b * eps) + c


def test_fit_recovers_exact_model():
    eps = np.linspace(0.0, 0.2, 25)
    fit = fit_exponential(eps, model(eps))
    assert fit.converged
    assert abs(fit.a - TRUE[0]) / TRUE[0] <= 1e-6
    assert abs(fit.b - TRUE[1]) / TRUE[1] <= 1e-6
    assert abs(fit.c - TRUE[2]) / TRUE[2] <= 1e-6


def test_fit_noise_coverage():
    # recovered parameters sit within their reported standard errors
    rng = np.random.default_rng(7)
    eps = np.linspace(0.0, 0.2, 25)
    within2 = np.zeros(3)
    within3 = np.zeros(3)
    n_converged = 0
    for _ in range(100):
        fit = fit_exponential(eps, model(eps) + rng.normal(0.0, 0.3, eps.size))
        if not fit.converged:
            continue
        n_converged += 1
        est = np.array([fit.a, fit.b, fit.c])
        err = np.array([fit.a_err, fit.b_err, fit.c_err])
        within2 += np.abs(est - TRUE) <= 2 * err
        within3 += np.abs(est - TRUE) <= 3 * err
    assert n_converged >= 95
    assert np.all(within2 >= 0.80 * n_converged)
    assert np.all(within3 >= 0.95 * n_converged)


def test_fit_flags_unidentifiable_data():
    eps = np.array([1e-8, 2e-8, 3e-8, 4e-8])
    q = np.array([20.0, 17.0, 23.0, 19.0])
    fit = fit_exponential(eps, q)  # must not raise
    assert not fit.converged
    assert not fit.identified


def test_fit_rejects_a_runaway_step_without_a_float_warning():
    # the 20-bin table of `sweep --npop 100 --seeds 20 --base-seed 3000281`:
    # damped trial steps from its start overflow exp(-b * eps); the project's
    # error::RuntimeWarning filter turns any such warning into a failure
    eps = np.array([3.76e-08, 9.27e-07, 1.42e-06, 1.71e-06, 2.52e-06, 9.22e-06, 9.54e-06,
                    1.16e-05, 2.91e-05, 2.98e-05, 6.09e-05, 8.44e-05, 9.92e-05, 0.000218,
                    0.000272, 0.000563, 0.00124, 0.00222, 0.00344, 0.00448])
    q = np.array([21, 25, 28, 24, 28, 20, 21, 18, 20, 18, 17, 26, 28, 23, 19, 19, 21, 23,
                  22, 22], dtype=float)
    fit = fit_exponential(eps, q)
    assert not fit.identified
    assert math.isfinite(fit.rss)


def test_fit_identified():
    eps = np.linspace(0.0, 0.2, 25)
    clean = fit_exponential(eps, model(eps))
    assert clean.identified
    # a rising curve fits exactly, but b < 0 is no decay
    rising = fit_exponential(eps, model(eps, b=-5.0))
    assert rising.converged and abs(rising.b + 5.0) <= 1e-6
    assert not rising.identified
    assert not dataclasses.replace(clean, b=0.0).identified
    for name in ("a_err", "b_err", "c_err"):
        assert not dataclasses.replace(clean, **{name: math.nan}).identified
    assert not dataclasses.replace(clean, c_err=math.inf).identified
    assert not dataclasses.replace(clean, b_err=clean.b).identified
    assert dataclasses.replace(clean, b_err=0.99 * clean.b).identified


def test_fit_precondition_errors():
    with pytest.raises(ValueError):
        fit_exponential([0.0, 0.1, 0.2], [1.0, 2.0, 3.0])  # too few points
    with pytest.raises(ValueError):
        fit_exponential([-0.1, 0.1, 0.2, 0.3], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        fit_exponential([0.1, 0.1, 0.1, 0.1], [1.0, 2.0, 3.0, 4.0])

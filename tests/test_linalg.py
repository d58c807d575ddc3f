import numpy as np
import pytest

from evogate import linalg

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_d2_generators_are_pauli_matrices():
    gx, gy, gz = linalg.generator_stack(2)
    assert np.array_equal(gx, SX)
    assert np.array_equal(gy, SY)
    assert np.array_equal(gz, SZ)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_generator_trace_orthogonality(d):
    gens = linalg.generator_stack(d)
    assert len(gens) == d * d - 1
    for i, a in enumerate(gens):
        assert abs(np.trace(a)) <= 1e-15
        assert np.max(np.abs(a - a.conj().T)) == 0.0
        for j, b in enumerate(gens):
            expected = 2.0 if i == j else 0.0
            assert abs(np.trace(a @ b) - expected) <= 1e-13


def test_d3_has_eight_generators():
    gens = linalg.generator_stack(3)
    assert len(gens) == 8
    gram = np.array([[np.trace(a @ b).real for b in gens] for a in gens])
    assert np.max(np.abs(gram - 2.0 * np.eye(8))) <= 1e-13


@pytest.mark.parametrize("d", [0, 1])
def test_generators_reject_small_dimension(d):
    with pytest.raises(ValueError):
        linalg.generator_stack(d)


def test_unitary_zero_params_is_identity():
    for d in (2, 3, 4):
        u = linalg.unitary_from_params(np.zeros(d * d - 1), d)
        assert np.max(np.abs(u - np.eye(d))) <= 1e-14


def test_unitary_hadamard_point():
    p = (np.pi / 2) * np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    u = linalg.unitary_from_params(p, 2)
    assert np.max(np.abs(u - (-1j) * HADAMARD)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_unitarity_for_random_params(d):
    rng = np.random.default_rng(11)
    p = rng.uniform(-np.pi, np.pi, size=(500, d * d - 1))
    u = linalg.unitary_from_params(p, d)
    defect = u @ u.conj().swapaxes(-1, -2) - np.eye(d)
    assert np.max(np.abs(defect)) <= 1e-12


def test_unitary_rejects_wrong_length():
    with pytest.raises(ValueError):
        linalg.unitary_from_params(np.zeros(4), 2)
    with pytest.raises(ValueError, match="expected 3 parameters, got 4"):
        linalg.su2_closed_form(np.zeros((5, 4)))


def test_su2_closed_form_matches_eigendecomposition():
    rng = np.random.default_rng(3)
    p = rng.uniform(-np.pi, np.pi, size=(10_000, 3))
    assert np.max(np.abs(linalg.su2_closed_form(p) - linalg.unitary_from_params(p, 2))) <= 1e-12


def test_su2_special_angles():
    assert np.array_equal(linalg.su2_closed_form(np.zeros(3)), np.eye(2))
    u = linalg.su2_closed_form(np.array([np.pi, 0.0, 0.0]))
    assert np.max(np.abs(u + np.eye(2))) <= 1e-12


def _reference_su2(p):
    """su2_closed_form as first written, through complex temporaries."""
    p = np.asarray(p, dtype=float)
    theta = np.linalg.norm(p, axis=-1)
    f = np.sinc(theta / np.pi)
    c = np.cos(theta)
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    u = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * f * pz
    u[..., 0, 1] = -f * py - 1j * f * px
    u[..., 1, 0] = f * py - 1j * f * px
    u[..., 1, 1] = c + 1j * f * pz
    return u


def test_su2_closed_form_matches_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for shape in [(3,), (1, 3), (11, 2, 3), (400, 2, 3)]:
        p = rng.uniform(-2 * np.pi, 2 * np.pi, size=shape)
        got = linalg.su2_closed_form(p)
        assert got.shape == shape[:-1] + (2, 2)
        assert np.array_equal(got.view(np.uint64), _reference_su2(p).view(np.uint64))
    transposed = rng.uniform(-4.0, 4.0, size=(3, 9)).T  # not C-contiguous
    assert np.array_equal(linalg.su2_closed_form(transposed), _reference_su2(transposed))
    # the zero vector (the sin(x)/x limit) bit for bit, and |p| = k pi by value
    zero = np.zeros(3)
    assert np.array_equal(linalg.su2_closed_form(zero).view(np.uint64),
                          _reference_su2(zero).view(np.uint64))
    k_pi = np.array([[np.pi, 0.0, 0.0], [0.0, -2 * np.pi, 0.0], [0.0, 0.0, 3 * np.pi],
                     np.pi / np.sqrt(3) * np.ones(3)])
    assert np.array_equal(linalg.su2_closed_form(k_pi), _reference_su2(k_pi))


def test_eigensolver_failure_is_reported(monkeypatch):
    def explode(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", explode)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.unitary_from_params(np.zeros(3), 2)


"""Dense linear algebra helpers: coercion, predicates, eigendecomposition."""

import numpy as np
import pytest

from nrqae.linalg import (
    cmat,
    eig_dense,
    frob_norm,
    is_hermitian,
    square,
)


def test_cmat_rejects_non_2d():
    with pytest.raises(ValueError):
        cmat([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cmat(np.zeros((2, 2, 2)))


def test_square_rejects_rectangular():
    with pytest.raises(ValueError):
        square(np.zeros((2, 3)))


def test_hermitian_and_unitary_predicates():
    rng = np.random.default_rng(23)
    for _ in range(25):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        assert is_hermitian(h)
        assert not is_hermitian(h + 1e-6 * 1j * np.eye(4))


def test_eig_dense_reconstructs_action():
    # A v_i = w_i v_i for every returned pair, on generic dense matrices.
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        spec = eig_dense(a)
        for i in range(d):
            v = spec.eigenvectors[:, i]
            assert np.linalg.norm(a @ v - spec.eigenvalues[i] * v) < 1e-8
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_eig_dense_ordering():
    """Descending modulus, then ascending phase mod 2 pi on ties."""
    a = np.diag([1.0, -1.0, 1j, 0.5])
    spec = eig_dense(a)
    mags = np.abs(spec.eigenvalues)
    assert np.all(np.diff(mags) <= 1e-12)
    # the three unit-modulus values come out phase ordered: 1, i, -1
    assert np.allclose(spec.eigenvalues[:3], [1.0, 1j, -1.0], atol=1e-12)
    assert abs(spec.eigenvalues[3] - 0.5) < 1e-12


def test_eig_dense_rejects_non_square():
    with pytest.raises(ValueError):
        eig_dense(np.zeros((3, 4)))


def test_frob_norm():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert abs(frob_norm(a) - np.linalg.norm(a)) < 1e-12
    assert frob_norm(np.zeros((3, 3))) == 0.0

"""Hankel lifting and subspace-split properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elaa_doa.subspace import (
    default_pencil,
    hankel,
    max_sources,
    split_subspaces,
    stacked_subspace,
)


def _exponentials(m, freqs, amps, seed=None):
    rng = np.random.default_rng(seed)
    n = np.arange(m)
    y = np.zeros(m, dtype=complex)
    for f, a in zip(freqs, amps):
        y = y + a * np.exp(2j * np.pi * f * n)
    if seed is not None:
        y = y + 0.0 * rng.standard_normal(m)
    return y


def test_hankel_layout():
    h = hankel(np.arange(6), pencil=2)
    assert h.shape == (3, 4)
    # entry [i, j] = y[i + j]
    expected = np.array([[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5]])
    assert np.array_equal(h, expected)


def test_hankel_matches_scipy_and_is_a_copy():
    import scipy.linalg

    rng = np.random.default_rng(8)
    for m in (2, 5, 16):
        y = rng.normal(size=m) + 1j * rng.normal(size=m)
        for pencil in range(1, m):
            h = hankel(y, pencil)
            assert h.dtype == y.dtype
            assert np.array_equal(h, scipy.linalg.hankel(y[: pencil + 1], y[pencil:]))
            h[0, 0] = 0.0
            assert y[0] != 0.0


def test_hankel_pencil_bounds():
    with pytest.raises(ValueError):
        hankel(np.arange(4), pencil=0)
    with pytest.raises(ValueError):
        hankel(np.arange(4), pencil=4)


complex_vec = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=6,
    max_size=12,
)


@given(a=complex_vec, b=complex_vec)
def test_hankel_linearity(a, b):
    m = min(len(a), len(b))
    a, b = np.array(a[:m]), np.array(b[:m])
    p = m // 2
    assert np.allclose(hankel(a + b, p), hankel(a, p) + hankel(b, p))
    assert np.allclose(hankel(2.5 * a, p), 2.5 * hankel(a, p))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hankel_exact_rank(k):
    freqs = [-0.31, 0.07, 0.22][:k]
    y = _exponentials(16, freqs, [1.0] * k)
    s = np.linalg.svd(hankel(y, 8), compute_uv=False)
    assert s[k - 1] > 1e-6
    assert np.all(s[k:] < 1e-10 * s[0])


def test_subspace_orthonormality():
    y = _exponentials(16, [0.11, -0.2], [1.0, 0.7])
    sub = split_subspaces(hankel(y, 8), 2)
    n_rows = sub.signal.shape[0]
    assert sub.signal.shape == (n_rows, 2)
    assert sub.noise.shape == (n_rows, n_rows - 2)
    eye = np.eye(2)
    assert np.allclose(sub.signal.conj().T @ sub.signal, eye, atol=1e-12)
    assert np.allclose(
        sub.noise.conj().T @ sub.noise, np.eye(n_rows - 2), atol=1e-12
    )
    assert np.allclose(sub.signal.conj().T @ sub.noise, 0.0, atol=1e-12)


def test_split_subspaces_source_count_bounds():
    h = hankel(np.arange(10, dtype=complex), 4)
    with pytest.raises(ValueError):
        split_subspaces(h, 0)
    with pytest.raises(ValueError):
        split_subspaces(h, 5)


def test_stacked_subspace_spans_both_blocks():
    y1 = _exponentials(16, [0.13], [1.0])
    y2 = 1j * y1
    sub = stacked_subspace(y1, y2, pencil=8, num_sources=1)
    assert sub.signal.shape == (18, 1)
    # noiseless stack is rank one, so the residual singular values vanish
    assert np.all(sub.singular_values[1:] < 1e-10 * sub.singular_values[0])


def test_default_pencil():
    assert default_pencil(16) == 8
    assert default_pencil(7) == 3


def test_max_sources_is_both_pencil_limits_at_the_default_pencil():
    # the spec's Hankel noise dimension, min(p + 1, m - p) - 1, and ESPRIT's
    # fine selection with one noise column, min(p + 1, m - p - 1)
    for m in range(2, 65):
        p = default_pencil(m)
        assert max_sources(m) == min(p + 1, m - p) - 1 == min(p + 1, m - p - 1), m

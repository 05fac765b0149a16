"""The Gaussian profiles' scaling step against the forms it replaces."""

import numpy as np
import pytest

from relbell.distributions import _PATTERN_ROWS, _gaussian


def column_form(rng, mean, sigma, n):
    """Each column scaled and shifted in place, one strided pass each."""
    p = rng.standard_normal((n, 3))
    for column, s, m in zip(p.T, sigma, mean):
        column *= s
        column += m
    return p


def broadcast_form(rng, mean, sigma, n):
    return np.asarray(mean) + np.asarray(sigma) * rng.standard_normal((n, 3))


COMPONENTS = {
    "unequal": ((0.9, -0.2, 0.05), (0.04, 0.01, 0.3)),
    "zero_spread": ((1.5, 0.0, -2.0), (0.0, 0.0, 0.0)),
    "negative_scale": ((-0.3, 0.7, 0.0), (-0.5, 0.02, -1.0)),
    "huge": ((1e300, -3e299, 0.0), (2e300, 0.0, 1e300)),
}


@pytest.mark.parametrize("n", [
    0, 1, 7, _PATTERN_ROWS - 1, _PATTERN_ROWS, _PATTERN_ROWS + 1, 511, 512, 513, 8192, 65536, 100003,
])
@pytest.mark.parametrize("components", COMPONENTS.values(), ids=COMPONENTS.keys())
def test_gaussian_keeps_the_bytes_of_both_reference_forms(n, components):
    mean, sigma = components
    draws = _gaussian(np.random.Generator(np.random.Philox(11)), mean, sigma, n)
    assert draws.shape == (n, 3) and draws.flags.c_contiguous
    with np.errstate(over="ignore", invalid="ignore"):
        for form in (column_form, broadcast_form):
            reference = form(np.random.Generator(np.random.Philox(11)), mean, sigma, n)
            assert draws.tobytes() == reference.tobytes(), form.__name__


def test_gaussian_continues_one_stream():
    """Consecutive draws take the generator's normals in order, as one
    draw of their total does."""
    mean, sigma = COMPONENTS["unequal"]
    rng = np.random.Generator(np.random.Philox(3))
    blocks = [_gaussian(rng, mean, sigma, n) for n in (300, 128, 5)]
    whole = column_form(np.random.Generator(np.random.Philox(3)), mean, sigma, 433)
    assert np.concatenate(blocks).tobytes() == whole.tobytes()

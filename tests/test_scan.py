"""The 1-D search oracles that the boundary tests compare against."""

import pytest

from search import bisect_root, golden_section_max


def test_golden_section_finds_parabola_peak():
    x, fx = golden_section_max(lambda t: -(t - 0.3) ** 2 + 2.0, 0.0, 1.0, tol=1e-12)
    assert abs(x - 0.3) < 1e-6
    assert abs(fx - 2.0) < 1e-12


def test_golden_section_endpoint_maximum():
    x, fx = golden_section_max(lambda t: t, 0.0, 1.0, tol=1e-10)
    assert abs(x - 1.0) < 1e-8


def test_bisect_root_linear():
    assert abs(bisect_root(lambda t: t - 0.125, 0.0, 1.0, tol=1e-12) - 0.125) < 1e-10


def test_bisect_root_requires_sign_change():
    with pytest.raises(ValueError, match="sign change"):
        bisect_root(lambda t: t + 1.0, 0.0, 1.0)

import math

import pytest

from fillperm.hyperbolic import (
    edge_length,
    inj_radius_lower,
    lambda_g,
    lambda_limit,
    m_g,
    max_coincident,
    min_pair_length,
    report,
)


def edge_length_oracle(g: int) -> float:
    """Independent side length via cosh(len/2) = sqrt(2) cos(pi/n)."""
    if g < 2:
        raise ValueError("perimeter defined for g >= 2")
    n = 8 * g - 4
    return 2.0 * math.acosh(math.sqrt(2.0) * math.cos(math.pi / n))


# The polygon area by angle deficit, an oracle of the Gauss-Bonnet tests.
def polygon_area(g: int) -> float:
    """Area of the regular right-angled (8g-4)-gon by angle deficit."""
    n = 8 * g - 4
    return (n - 2) * math.pi - n * (math.pi / 2.0)


def polygon_area_coefficient(g: int) -> int:
    """The exact multiple of pi in the polygon area: (n-2) - n/2 = 4g-4."""
    n = 8 * g - 4
    return (n - 2) - n // 2


def test_m3_value():
    assert m_g(3) == pytest.approx(34.5497, abs=1e-3)
    assert edge_length(3) == pytest.approx(1.72748, abs=1e-4)


def test_m3_alternate_closed_form():
    # edge of the regular right-angled 20-gon via the exact cosine value
    alt = math.acosh(2.0 * (0.5 + math.sqrt(5 / 8 + math.sqrt(5) / 8)))
    assert abs(m_g(3) / 20 - alt) < 1e-12


def test_edge_length_oracle_agreement():
    # cosh of the half edge equals sqrt(2) cos(pi/n): a half-angle
    # identity, so the two routes must agree to rounding error
    for g in range(2, 51):
        assert abs(edge_length(g) - edge_length_oracle(g)) < 1e-12


def test_edge_length_monotone_increasing():
    values = [edge_length(g) for g in range(3, 1001)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_edge_length_limit():
    assert edge_length(10**6) == pytest.approx(math.acosh(3.0), abs=1e-6)
    assert math.acosh(3.0) == pytest.approx(1.76275, abs=1e-5)


def test_gauss_bonnet_area():
    for g in range(2, 51):
        assert polygon_area_coefficient(g) == 4 * g - 4
        assert abs(polygon_area(g) - 2 * math.pi * (2 * g - 2)) < 1e-12


def test_lambda_values():
    assert lambda_g(3) == pytest.approx(0.33560, abs=1e-4)
    with pytest.raises(ValueError):
        lambda_g(2)


def test_lambda_monotone_decreasing():
    samples = [3, 4, 5, 7, 10, 20, 50, 100, 1000, 10**4, 10**5, 10**6]
    values = [lambda_g(g) for g in samples]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lambda_limit():
    assert lambda_limit() == math.acosh(9.0 / math.sqrt(73.0))
    assert abs(lambda_g(10**6) - lambda_limit()) < 1e-5
    assert lambda_g(10**6) > lambda_limit()


def test_inj_radius_is_half_the_systole_bound():
    assert inj_radius_lower() == pytest.approx(0.5 * lambda_limit(), abs=0)
    assert inj_radius_lower() == pytest.approx(0.16262, abs=1e-4)


def test_max_coincident():
    assert max_coincident(3) == 168
    assert max_coincident(2) == 84


def test_min_pair_length():
    assert min_pair_length(3) == pytest.approx(17.2748, abs=1e-3)
    assert min_pair_length(3) == m_g(3) / 2


def test_report_flags_quoted_value():
    rep = report(3)
    assert rep.lambda_g is not None
    assert rep.systole_lower == pytest.approx(0.3253, abs=1e-4)
    assert rep.inj_radius_lower == pytest.approx(rep.systole_lower / 2, abs=0)
    assert "0.3253" in rep.quoted_value_note
    rep2 = report(2)
    assert rep2.lambda_g is None


def test_domain_errors():
    with pytest.raises(ValueError):
        m_g(1)
    with pytest.raises(ValueError):
        report(1)

import math

import pytest

from lifshitz.constants import (C_LIGHT, HBAR, K_BOLTZMANN, TWO_LN2_MINUS_1,
                                ZETA3, ev_to_rad_per_s, matsubara_frequency)


def test_si_values():
    assert HBAR == pytest.approx(1.054571817e-34, rel=1e-9)
    assert C_LIGHT == 299792458.0
    assert K_BOLTZMANN == 1.380649e-23


def test_zeta3():
    # Riemann zeta(3), checked against a direct partial sum plus tail
    n = 200
    partial = sum(1.0 / k ** 3 for k in range(1, n + 1))
    tail = 1.0 / (2.0 * n ** 2) - 1.0 / (2.0 * n ** 3) + 1.0 / (4.0 * n ** 4)
    assert abs(ZETA3 - (partial + tail)) < 1e-9


def test_two_ln2_minus_1():
    assert TWO_LN2_MINUS_1 == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)


def test_ev_conversion():
    # 1 eV corresponds to e/hbar rad/s
    assert ev_to_rad_per_s(1.0) == pytest.approx(1.6021766e-19 / 1.05457182e-34, rel=1e-7)
    assert ev_to_rad_per_s(9.03) == pytest.approx(9.03 * ev_to_rad_per_s(1.0))


def test_matsubara_frequency():
    zeta1 = matsubara_frequency(1, 300.0)
    assert zeta1 == pytest.approx(2.0 * math.pi * K_BOLTZMANN * 300.0 / HBAR)
    # the per-kelvin per-index rate is about 8.2254e11 rad/(s K)
    assert zeta1 / 300.0 == pytest.approx(8.2254e11, rel=1e-4)
    assert matsubara_frequency(0, 300.0) == 0.0
    assert matsubara_frequency(7, 100.0) == pytest.approx(7 * matsubara_frequency(1, 100.0))


def test_ev_conversion_rejects_negative():
    with pytest.raises(ValueError):
        ev_to_rad_per_s(-1.0)


def test_matsubara_rejects_bad_input():
    with pytest.raises(ValueError):
        matsubara_frequency(1, 0.0)
    with pytest.raises(ValueError):
        matsubara_frequency(-1, 300.0)

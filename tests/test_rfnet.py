from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cryomux import rfnet
from cryomux.errors import ClampWarning, InputError, SingularNetworkError

RNG = np.random.default_rng(20260822)


def _random_passive_abcd(grid, rng):
    """Random cascade of series/shunt RLC elements (reciprocal by build)."""
    nets = []
    for _ in range(rng.integers(1, 5)):
        kind = rng.choice(["resistor", "inductor", "capacitor"])
        placement = rng.choice(["series", "shunt"])
        scale = {"resistor": 30.0, "inductor": 2e-9, "capacitor": 1e-13}[kind]
        value = float(scale * rng.uniform(0.1, 3.0))
        nets.append(rfnet.lumped(grid, kind, value, placement))
    return rfnet.cascade(*nets)


def test_grid_validation():
    with pytest.raises(InputError):
        rfnet.FrequencyGrid(np.array([]))
    with pytest.raises(InputError):
        rfnet.FrequencyGrid(np.array([1e9, 1e9]))
    with pytest.raises(InputError):
        rfnet.FrequencyGrid(np.array([-1e9, 1e9]))
    g = rfnet.FrequencyGrid(np.array([5e9]))
    assert len(g) == 1


def test_grid_is_immutable():
    g = rfnet.FrequencyGrid(np.array([1e9, 2e9]))
    with pytest.raises(ValueError):
        g.points[0] = 5e9


def test_series_inductor_oracle():
    # 450 pH at 6 GHz: Z = j*2*pi*6e9*450e-12 = j*16.9646 ohm,
    # |S21| = 2/|2 + Z/50| = 2/sqrt(4 + 0.33929201^2) = 0.98591345
    grid = rfnet.FrequencyGrid(np.array([6e9]))
    net = rfnet.lumped(grid, "inductor", 450e-12, "series")
    smat = rfnet.abcd_to_s(net)
    assert_allclose(abs(smat.s21[0]), 0.98591345, atol=1e-7)
    assert_allclose(net.b[0], 1j * 16.9646003, atol=1e-6)


def test_shunt_conductance_oracle():
    # y = 1/7 S: S21 = 2/(2 + 50/7) = 14/64 = 0.21875 exactly
    grid = rfnet.FrequencyGrid(np.array([1e9]))
    net = rfnet.shunt_element(grid, 1.0 / 7.0)
    smat = rfnet.abcd_to_s(net)
    assert_allclose(smat.s21[0], 0.21875, rtol=1e-12)


def test_attenuator_halves_power():
    grid = rfnet.FrequencyGrid(np.array([4e9, 6e9, 8e9]))
    smat = rfnet.attenuator(grid, 3.01)
    assert_allclose(np.abs(smat.s21) ** 2, 0.5, atol=1e-3)
    assert np.all(smat.s11 == 0.0)
    with pytest.raises(InputError):
        rfnet.attenuator(grid, -1.0)


def test_element_determinants_are_unity():
    grid = rfnet.FrequencyGrid(np.linspace(4e9, 8e9, 31))
    for net in (
        rfnet.series_element(grid, 10.0 + 3j),
        rfnet.shunt_element(grid, 0.02 - 0.004j),
        rfnet.lumped(grid, "inductor", 450e-12, "series"),
        rfnet.lumped(grid, "capacitor", 25e-15, "shunt"),
    ):
        assert_allclose(net.determinant(), 1.0, atol=1e-12)


def test_cascade_preserves_reciprocity_and_associativity():
    grid = rfnet.FrequencyGrid(np.linspace(4e9, 8e9, 17))
    for _ in range(20):
        x = _random_passive_abcd(grid, RNG)
        y = _random_passive_abcd(grid, RNG)
        z = _random_passive_abcd(grid, RNG)
        assert_allclose(rfnet.cascade(x, y, z).determinant(), 1.0, rtol=1e-10, atol=1e-10)
        left = rfnet.cascade(rfnet.cascade(x, y), z)
        right = rfnet.cascade(x, rfnet.cascade(y, z))
        assert_allclose(left.m, right.m, rtol=1e-12, atol=1e-20)


def test_cascade_grid_mismatch():
    g1 = rfnet.FrequencyGrid(np.linspace(4e9, 8e9, 5))
    g2 = rfnet.FrequencyGrid(np.linspace(4e9, 8e9, 6))
    with pytest.raises(InputError):
        rfnet.cascade(rfnet.series_element(g1, 1.0), rfnet.series_element(g2, 1.0))


def test_abcd_s_round_trip():
    grid = rfnet.FrequencyGrid(np.linspace(4e9, 8e9, 25))
    for _ in range(20):
        net = _random_passive_abcd(grid, RNG)
        back = rfnet.s_to_abcd(rfnet.abcd_to_s(net))
        assert_allclose(back.m, net.m, rtol=1e-10, atol=1e-10)


def test_lossless_reactive_network_conserves_power():
    grid = rfnet.FrequencyGrid(np.linspace(4e9, 8e9, 25))
    net = rfnet.cascade(
        rfnet.lumped(grid, "inductor", 450e-12, "series"),
        rfnet.lumped(grid, "capacitor", 40e-15, "shunt"),
        rfnet.lumped(grid, "inductor", 1.1e-9, "series"),
    )
    smat = rfnet.abcd_to_s(net)
    assert_allclose(np.abs(smat.s11) ** 2 + np.abs(smat.s21) ** 2, 1.0, atol=1e-10)
    # reciprocity carries through the conversion as well
    assert_allclose(smat.s12, smat.s21, rtol=1e-12)


def test_nonpositive_lumped_value_rejected():
    grid = rfnet.FrequencyGrid(np.array([6e9]))
    for bad in (0.0, -1e-12):
        with pytest.raises(InputError):
            rfnet.lumped(grid, "capacitor", bad, "series")


def test_degenerate_capacitor_is_clamped_not_nan():
    # 1e-25 F at 6 GHz gives |Z| = 2.65e14 ohm, past the clamp limit
    grid = rfnet.FrequencyGrid(np.array([6e9]))
    with pytest.warns(ClampWarning):
        net = rfnet.lumped(grid, "capacitor", 1e-25, "series")
    assert np.all(np.isfinite(net.m))
    assert abs(net.b[0]) == rfnet.DEGENERATE_LIMIT
    # the resulting transmission is essentially an open, not an error
    smat = rfnet.abcd_to_s(net)
    assert abs(smat.s21[0]) < 1e-9


def test_s_to_abcd_rejects_zero_transmission():
    grid = rfnet.FrequencyGrid(np.array([5e9]))
    s = np.zeros((1, 2, 2), dtype=complex)
    s[:, 0, 0] = 1.0
    s[:, 1, 1] = 1.0
    with pytest.raises(SingularNetworkError):
        rfnet.s_to_abcd(rfnet.SMatrix(grid, s))


def test_attenuator_db_survives_abcd_round_trip():
    grid = rfnet.FrequencyGrid(np.linspace(4e9, 8e9, 9))
    for db in (0.7, 6.0, 20.0):
        as_abcd = rfnet.s_to_abcd(rfnet.attenuator(grid, db))
        back = rfnet.abcd_to_s(as_abcd)
        assert_allclose(20.0 * np.log10(np.abs(back.s21)), -db, atol=1e-9)


def test_resistive_series_oracle():
    # series 50 ohm: S21 = 2/3, S11 = 1/3
    grid = rfnet.FrequencyGrid(np.array([5e9]))
    smat = rfnet.abcd_to_s(rfnet.series_element(grid, 50.0))
    assert_allclose(smat.s21[0], 2.0 / 3.0, rtol=1e-12)
    assert_allclose(smat.s11[0], 1.0 / 3.0, rtol=1e-12)

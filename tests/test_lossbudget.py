from __future__ import annotations

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cryomux import lossbudget
from cryomux.errors import BudgetError, InputError
from cryomux.lossbudget import (
    LossComponent,
    Region,
    RegionEnergySplit,
    TlsModel,
    budget_total,
    extract_tan_delta,
    load_component_table,
    qi_inverse,
    weighted_participation,
)

RNG = np.random.default_rng(20260822)


def single_component_model(pd=8.34e-5, n_c=1.0, beta=0.5, q0=1e6):
    comp = LossComponent("effective_tls", 1.0, pd, n_c=n_c, beta=beta)
    return TlsModel((comp,), q0)


# ---------------------------------------------------------------- tls model

def test_qi_inverse_unsaturated_oracle():
    model = single_component_model()
    loss = qi_inverse(model, 0.0)
    assert_allclose(loss, 8.44e-5, rtol=1e-12)
    assert_allclose(1.0 / loss, 1.1848e4, rtol=1e-4)


def test_qi_inverse_saturated_oracle():
    model = single_component_model()
    loss = qi_inverse(model, 1e6)
    # TLS term falls to 8.34e-5/sqrt(1 + 1e6) = 8.3400e-8
    assert_allclose(loss - 1e-6, 8.34e-5 / np.sqrt(1.0 + 1e6), rtol=1e-12)
    assert_allclose(1.0 / loss, 9.23e5, rtol=1e-3)


def test_qi_inverse_monotone_and_limits():
    for _ in range(20):
        comps = tuple(
            LossComponent(
                f"c{k}",
                participation=RNG.uniform(0.0, 1.0),
                tan_delta=10.0 ** RNG.uniform(-8.0, -4.0),
                n_c=10.0 ** RNG.uniform(-2.0, 3.0),
                beta=RNG.uniform(0.4, 1.0),
            )
            for k in range(RNG.integers(1, 4))
        )
        model = TlsModel(comps, q0=10.0 ** RNG.uniform(5.0, 8.0))
        n = np.logspace(-3.0, 9.0, 200)
        loss = qi_inverse(model, n)
        assert np.all(np.diff(loss) <= 0.0)
        unsaturated = sum(c.unsaturated_loss for c in comps) + 1.0 / model.q0
        assert_allclose(qi_inverse(model, 0.0), unsaturated, rtol=1e-12)
        n_deep = 1e15 * max(c.n_c for c in comps)
        assert abs(qi_inverse(model, n_deep) - 1.0 / model.q0) < 1e-9


def test_component_validation():
    with pytest.raises(InputError):
        LossComponent("bad", 1.2, 1e-6)
    with pytest.raises(InputError):
        LossComponent("bad", 0.5, -1e-6)
    with pytest.raises(InputError):
        LossComponent("bad", 0.5, 1e-6, n_c=0.0)
    with pytest.raises(InputError):
        LossComponent("bad", 0.5, 1e-6, beta=1.5)
    with pytest.raises(InputError):
        TlsModel((), q0=np.inf)


# ---------------------------------------------------------------- budget

def test_budget_bundled_table_arithmetic():
    table = load_component_table()
    assert set(table) == {"hf_stripped", "native_oxide", "sinx_capped", "standard_si"}
    for name, comps in table.items():
        result = budget_total(comps)
        assert_allclose(
            result.total_loss,
            sum(c.participation * c.tan_delta for c in comps),
            rtol=1e-15,
        )
        assert_allclose(result.q_factor, 1.0 / result.total_loss, rtol=1e-15)
        assert len(result.per_component) == len(comps)


def test_budget_accepts_bare_pairs():
    result = budget_total([(0.917, 2.6e-7), (6.0e-5, 1.0e-3), (1.2e-4, 1.7e-3)])
    assert_allclose(result.total_loss, 5.0242e-7, rtol=1e-4)
    assert_allclose(result.q_factor, 1.990e6, rtol=1e-3)


def test_budget_with_background_q():
    result = budget_total([(0.5, 1e-6)], q0=1e6)
    assert_allclose(result.total_loss, 5e-7 + 1e-6, rtol=1e-15)


def test_budget_zero_component_contributes_nothing():
    with_zero = budget_total([(0.917, 2.6e-7), (0.0, 1.0e-3)])
    without = budget_total([(0.917, 2.6e-7)])
    assert with_zero.total_loss == without.total_loss


def test_budget_all_zero_is_flagged():
    with pytest.raises(BudgetError):
        budget_total([(0.0, 1e-3), (0.5, 0.0)])


def test_budget_without_finite_q_is_flagged():
    # 1/1e-320 overflows; an infinite or NaN total has no quality factor either
    for components in (
        [(1.0, 1e-320)],
        [(1.0, math.inf)],
        [(0.0, math.inf)],
        [(1.0, 1e308), (1.0, 1e308)],
    ):
        with pytest.raises(BudgetError, match="no finite quality factor"):
            budget_total(components)


# ---------------------------------------------------------------- extraction

def test_extract_capping_nitride_tangent():
    tan = extract_tan_delta(2.0e5, 0.0021, other_losses=2.4e-7)
    assert_allclose(tan, (5.0e-6 - 2.4e-7) / 0.0021, rtol=1e-12)
    assert_allclose(tan, 2.27e-3, rtol=2e-3)


def test_extract_substrate_tangent():
    tan = extract_tan_delta(1.2e4, 0.917, other_losses=0.0)
    assert_allclose(tan, 9.09e-5, rtol=2e-3)


def test_extract_boundary_and_inconsistency():
    with pytest.raises(BudgetError):
        extract_tan_delta(1e6, 0.5, other_losses=1e-6)
    with pytest.raises(BudgetError):
        extract_tan_delta(1e6, 0.5, other_losses=2e-6)


def test_extract_budget_round_trip():
    for _ in range(20):
        base = budget_total(
            [(RNG.uniform(0.1, 0.9), 10.0 ** RNG.uniform(-8.0, -5.0))]
        )
        participation = RNG.uniform(1e-4, 0.05)
        tan_delta = 10.0 ** RNG.uniform(-4.0, -2.0)
        extended = budget_total(
            [(participation, tan_delta)], q0=1.0 / base.total_loss
        )
        recovered = extract_tan_delta(
            1.0 / extended.total_loss, participation, other_losses=base.total_loss
        )
        assert_allclose(recovered, tan_delta, rtol=1e-12)


# ---------------------------------------------------------------- regions

def layout_split(pr_cap=(1.0, 0.0, 0.0)):
    names = ("capacitor", "inductor", "remainder")
    fractions = (0.781, 0.169, 0.051)
    regions = tuple(
        Region(n, f, {"substrate_oxide": p})
        for n, f, p in zip(names, fractions, pr_cap)
    )
    return RegionEnergySplit(regions)


def test_weighted_participation_fractions():
    split = layout_split()
    assert_allclose(weighted_participation(split, "substrate_oxide"), 0.781, rtol=1e-15)


def test_weighted_participation_uniform_and_zero():
    fractions = (0.78, 0.17, 0.05)
    regions = tuple(
        Region(n, f, {"sub": 0.42, "zero": 0.0})
        for n, f in zip(("a", "b", "c"), fractions)
    )
    split = RegionEnergySplit(regions)
    assert_allclose(weighted_participation(split, "sub"), 0.42, rtol=1e-12)
    assert weighted_participation(split, "zero") == 0.0


def test_weighted_participation_linear_and_order_free():
    fractions = (0.5, 0.3, 0.2)
    pr = (0.1, 0.7, 0.2)
    regions = [
        Region(n, f, {"d": p}) for n, f, p in zip(("a", "b", "c"), fractions, pr)
    ]
    forward = weighted_participation(RegionEnergySplit(tuple(regions)), "d")
    shuffled = weighted_participation(
        RegionEnergySplit((regions[2], regions[0], regions[1])), "d"
    )
    assert_allclose(forward, shuffled, rtol=1e-15)
    doubled = [
        Region(n, f, {"d": 2.0 * p}) for n, f, p in zip(("a", "b", "c"), fractions, pr)
    ]
    assert_allclose(
        weighted_participation(RegionEnergySplit(tuple(doubled)), "d"),
        2.0 * forward,
        rtol=1e-15,
    )


def test_region_sum_and_missing_key_rejected():
    with pytest.raises(InputError):
        RegionEnergySplit((Region("a", 0.5, {}), Region("b", 0.4, {})))
    split = layout_split()
    with pytest.raises(InputError):
        weighted_participation(split, "unknown_dielectric")


# ---------------------------------------------------------------- table io

def test_component_table_rejects_bad_version(tmp_path):
    bad = tmp_path / "components.json"
    bad.write_text(json.dumps({"format_version": 2, "samples": {}}))
    with pytest.raises(InputError, match="format_version"):
        load_component_table(str(bad))


def test_component_table_rejects_bad_rows(tmp_path):
    bad = tmp_path / "components.json"
    bad.write_text(
        json.dumps(
            {
                "format_version": 1,
                "samples": {"s": {"components": [{"name": "x"}]}},
            }
        )
    )
    with pytest.raises(InputError, match="bad component row"):
        load_component_table(str(bad))


def test_component_table_rejects_non_object_top_level(tmp_path):
    for text in ("[1, 2]", "3", "null"):
        bad = tmp_path / "components.json"
        bad.write_text(text)
        with pytest.raises(InputError, match="top level must be a JSON object"):
            load_component_table(str(bad))


def test_component_table_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        load_component_table("/nonexistent/components.json")

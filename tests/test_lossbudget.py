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
    TlsModel,
    budget_total,
    load_component_table,
    loss_components,
    qi_inverse,
    qi_inverse_with_slope,
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


def components(*pairs):
    """LossComponents from (participation, tan_delta) pairs, named by position."""
    return [LossComponent(f"component_{j}", p, t) for j, (p, t) in enumerate(pairs)]


def test_budget_sums_components():
    result = budget_total(components((0.917, 2.6e-7), (6.0e-5, 1.0e-3), (1.2e-4, 1.7e-3)))
    assert_allclose(result.total_loss, 5.0242e-7, rtol=1e-4)
    assert_allclose(result.q_factor, 1.990e6, rtol=1e-3)


def test_budget_zero_component_contributes_nothing():
    with_zero = budget_total(components((0.917, 2.6e-7), (0.0, 1.0e-3)))
    without = budget_total(components((0.917, 2.6e-7)))
    assert with_zero.total_loss == without.total_loss


def test_budget_all_zero_is_flagged():
    with pytest.raises(BudgetError):
        budget_total(components((0.0, 1e-3), (0.5, 0.0)))


def test_budget_without_finite_q_is_flagged():
    # 1/1e-320 overflows; an infinite or NaN total has no quality factor either
    for pairs in (
        [(1.0, 1e-320)],
        [(1.0, math.inf)],
        [(0.0, math.inf)],
        [(1.0, 1e308), (1.0, 1e308)],
    ):
        with pytest.raises(BudgetError, match="no finite quality factor"):
            budget_total(components(*pairs))


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


def test_loss_component_rows_share_defaults_and_reject_unknown_keys():
    rows = [
        {"name": "oxide", "participation": 0.1, "tan_delta": 1e-3, "n_c": 5.0, "beta": 0.3},
        {"participation": 0.9, "tan_delta": 2e-7},
    ]
    built = loss_components(rows, "here")
    assert built == (
        LossComponent("oxide", 0.1, 1e-3, 5.0, 0.3),
        LossComponent("component_1", 0.9, 2e-7, lossbudget.N_C_DEFAULT, lossbudget.BETA_DEFAULT),
    )
    with pytest.raises(InputError, match=r"here: bad component row 1: unknown keys \['nc'\]"):
        loss_components([rows[0], dict(rows[1], nc=3.0)], "here")
    with pytest.raises(InputError, match="here: bad component row 0: expected an object"):
        loss_components([[0.9, 2e-7]], "here")
    with pytest.raises(InputError, match="here: components must be a list"):
        loss_components({"participation": 0.9}, "here")


def test_qi_inverse_slope_matches_a_central_difference():
    model = TlsModel(
        (
            LossComponent("a", 0.7, 3e-4, n_c=2.0, beta=0.5),
            LossComponent("b", 0.2, 1e-3, n_c=300.0, beta=0.9),
        ),
        q0=1e7,
    )
    n = np.geomspace(1e-3, 1e7, 41)
    h = 1e-5
    numeric = (qi_inverse(model, n * math.exp(h)) - qi_inverse(model, n * math.exp(-h))) / (2 * h)
    # the difference quotient carries about eps*qi_inverse/h = 1e-15 of rounding
    loss, slope = qi_inverse_with_slope(model, n)
    assert np.array_equal(loss, qi_inverse(model, n))
    assert_allclose(slope, numeric, rtol=1e-8, atol=1e-14)
    assert np.all(slope < 0.0)


def test_component_table_rejects_non_object_top_level(tmp_path):
    for text in ("[1, 2]", "3", "null"):
        bad = tmp_path / "components.json"
        bad.write_text(text)
        with pytest.raises(InputError, match="top level must be a JSON object"):
            load_component_table(str(bad))


def test_component_table_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        load_component_table("/nonexistent/components.json")

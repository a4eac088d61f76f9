"""Published closed-form expressions and the engine-vs-closed-form diff."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from steercrit import (
    DIFF_SLOTS,
    FAMILY_QUBIT_XZ,
    FAMILY_QUTRIT_B1B2,
    ClosedFormError,
    InferredMoments,
    closed_form_report,
    closed_forms_for,
    diff_rows,
    family_observables,
    family_state,
    find_threshold,
    full_moments,
    qubit_closed_forms,
    qutrit_closed_forms,
    write_diff_csv,
)

GOLDEN = (math.sqrt(5) - 1) / 2


def _engine(family, p):
    return full_moments(family_state(family, p), *family_observables(family))


def test_qubit_pins_at_p0():
    cf = qubit_closed_forms(0.0)
    assert cf.var_inf_b1 == pytest.approx(0.25, abs=1e-15)
    assert cf.var_inf_b2 == pytest.approx(0.25, abs=1e-15)
    assert cf.abs_mean_inf_commutator == pytest.approx(0.0, abs=1e-15)
    assert cf.product_of_means_inf == pytest.approx(-1 / 16, abs=1e-15)


def test_qubit_pins_at_p1():
    cf = qubit_closed_forms(1.0)
    assert cf.var_inf_b1 == pytest.approx(0.0, abs=1e-15)
    assert cf.abs_mean_inf_commutator == pytest.approx(0.5, abs=1e-15)
    assert cf.sq_mean_inf_b1 == pytest.approx(0.25, abs=1e-15)
    assert cf.product_of_means_inf == pytest.approx(
        (1 - 2 * math.sqrt(2) - 1) / 16, abs=1e-15
    )
    assert cf.g1 == pytest.approx(1.0, abs=1e-15)


def test_qutrit_pins():
    p = 0.6
    cf = qutrit_closed_forms(p)
    assert cf.var_inf_b1 == pytest.approx((2 / 3) * (1 - p * p), abs=1e-15)
    assert cf.var_inf_b2 == pytest.approx((1 / 3) * (1 - p * p), abs=1e-15)
    assert cf.abs_mean_inf_commutator == pytest.approx(p / math.sqrt(27), abs=1e-15)
    assert cf.sq_mean_inf_b1 == pytest.approx(2 * p * p / 27, abs=1e-15)
    assert cf.sq_mean_inf_b2 == pytest.approx(p * p / 27, abs=1e-15)
    assert cf.product_of_means_inf == pytest.approx(-p * p / 36, abs=1e-15)


def test_closed_forms_reject_bad_inputs():
    with pytest.raises(ClosedFormError):
        qubit_closed_forms(1.3)
    with pytest.raises(ClosedFormError):
        qutrit_closed_forms(-0.1)
    with pytest.raises(ClosedFormError):
        closed_forms_for("unknown-family", 0.5)
    with pytest.raises(ClosedFormError, match="got 1.5"):
        closed_forms_for(FAMILY_QUBIT_XZ, [0.5, 1.5, 2.0])


def test_closed_forms_on_a_grid_match_each_float():
    grid = np.linspace(0.0, 1.0, 7)
    for family in (FAMILY_QUBIT_XZ, FAMILY_QUTRIT_B1B2):
        batch = closed_forms_for(family, grid)
        for i, p in enumerate(grid.tolist()):
            single = closed_forms_for(family, p)
            assert all(type(v) is float for v in vars(single).values())
            assert batch.row(i).as_dict() == single.as_dict()


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_to_moments_is_a_valid_record():
    # the closed forms are InferredMoments, which check their own consistency
    m = qubit_closed_forms(0.42)
    assert isinstance(m, InferredMoments)
    assert m.var_inf_b1 == m.var_min_b1
    assert m.g1 == pytest.approx(0.42, abs=1e-15)
    # both families derive their unpublished slots by one rule, bit for bit,
    # at a float p and on a grid of p
    grid = [0.0, -0.0, 1.0, 0.42, 0.5, 0.9]
    for family in (FAMILY_QUBIT_XZ, FAMILY_QUTRIT_B1B2):
        for p in (*grid, grid):
            m = closed_forms_for(family, p)
            where = (family, p)
            assert _bits(m.var_min_b1) == _bits(m.var_inf_b1), where
            assert _bits(m.var_min_b2) == _bits(m.var_inf_b2), where
            assert _bits(m.g1) == _bits(m.g2) == _bits(p), where
            b0 = m.sq_mean_inf_b1 + m.sq_mean_inf_b2 - 2 * m.product_of_means_inf
            assert _bits(m.sq_mean_inf_b0) == _bits(b0), where
            # +0.0 even at p = -0.0
            assert _bits(m.mean_inf_anticommutator) == _bits(np.zeros_like(p, float)), where


def test_report_flags_flip_across_qubit_threshold():
    assert not closed_form_report(FAMILY_QUBIT_XZ, 0.50).violated
    assert closed_form_report(FAMILY_QUBIT_XZ, 0.60).violated


def test_report_flags_flip_across_qutrit_threshold():
    assert not closed_form_report(FAMILY_QUTRIT_B1B2, 0.900).violated
    assert closed_form_report(FAMILY_QUTRIT_B1B2, 0.905).violated


def test_report_mode_and_descriptor():
    report = closed_form_report(FAMILY_QUBIT_XZ, 0.5, criterion="hur")
    assert report.mode == "paper-closed-form"
    assert report.criterion == "hur"
    assert "p=0.5" in report.state_descriptor


def test_closed_form_thresholds():
    r2 = find_threshold("isotropic", 2, criterion="srur", mode="paper-closed-form")
    assert r2.p_star == pytest.approx(0.5609215764722647, abs=1e-8)
    r3 = find_threshold("isotropic", 3, criterion="srur", mode="paper-closed-form")
    assert r3.p_star == pytest.approx(0.900093482183842, abs=1e-8)
    h2 = find_threshold("isotropic", 2, criterion="hur", mode="paper-closed-form")
    assert h2.p_star == pytest.approx(GOLDEN, abs=1e-8)
    h3 = find_threshold("isotropic", 3, criterion="hur", mode="paper-closed-form")
    assert h3.p_star == pytest.approx(0.9031327675352692, abs=1e-8)


def test_diff_report_surfaces_qubit_product_discrepancy():
    rows = diff_rows(FAMILY_QUBIT_XZ, 0.0, _engine(FAMILY_QUBIT_XZ, 0.0))
    assert rows
    assert [row.slot for row in rows] == list(DIFF_SLOTS)
    by_slot = {row.slot: row for row in rows}
    product = by_slot["product_of_means_inf"]
    assert product.engine_value == pytest.approx(0.0, abs=1e-12)
    assert product.paper_value == -1 / 16
    assert product.abs_diff == 0.0625
    # the variance slots agree between engine and closed forms
    assert by_slot["var_inf_b1"].abs_diff < 1e-12
    assert by_slot["var_inf_b2"].abs_diff < 1e-12


def test_diff_report_qutrit_commutator_scale():
    p = 0.9
    rows = {
        row.slot: row
        for row in diff_rows(FAMILY_QUTRIT_B1B2, p, _engine(FAMILY_QUTRIT_B1B2, p))
    }
    # engine: sum_a |<B3>_a| = 2 sqrt(2) p / 3; closed form: p / sqrt(27)
    assert rows["abs_mean_inf_commutator"].engine_value == pytest.approx(
        2 * math.sqrt(2) * p / 3, abs=1e-12
    )
    assert rows["abs_mean_inf_commutator"].paper_value == pytest.approx(
        p / math.sqrt(27), abs=1e-15
    )
    assert rows["var_inf_b1"].abs_diff < 1e-12
    assert rows["sq_mean_inf_b1"].abs_diff == pytest.approx(
        2 * p * p / 3 - 2 * p * p / 27, abs=1e-12
    )


def test_diff_csv_format():
    buf = io.StringIO()
    write_diff_csv(buf, diff_rows(FAMILY_QUBIT_XZ, 0.0, _engine(FAMILY_QUBIT_XZ, 0.0)))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p,slot,engine_value,paper_value,abs_diff"
    assert len(lines) == 1 + len(DIFF_SLOTS)
    product_line = [ln for ln in lines if "product_of_means_inf" in ln][0]
    assert product_line == "0,product_of_means_inf,0,-0.0625,0.0625"

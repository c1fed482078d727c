import numpy as np
import pytest

import crisscross as cc
import crisscross.counterexample as ce
from crisscross.counterexample import MODEL1, MODEL2


@pytest.fixture(scope="module")
def report():
    return cc.verify_counterexample()


def test_observed_laws_agree_in_every_pattern(report):
    for pattern, diff in report.max_abs_discrepancy.items():
        assert diff < 1e-6, f"pattern {pattern}: discrepancy {diff}"
    assert report.observed_laws_match


def test_target_laws_differ(report):
    v1, v2 = report.target_law_variances
    assert v1 == pytest.approx(1.0, abs=1e-12)
    assert v2 == pytest.approx(6.0 / 5.0, abs=1e-12)


def test_complete_pattern_pointwise_at_unit():
    x = y = 1.0
    d1 = MODEL1.p_y(y) * MODEL1.p_x_given_y(x, y) * MODEL1.p_rx1(y) * MODEL1.p_ry1(x, 1)
    d2 = MODEL2.p_y(y) * MODEL2.p_x_given_y(x, y) * MODEL2.p_rx1(y) * MODEL2.p_ry1(x, 1)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_both_missing_masses_agree(report):
    assert report.max_abs_discrepancy["00"] < 1e-6


def test_selection_probabilities_are_valid():
    x = np.linspace(-20, 22, 401)
    y = np.linspace(-20, 22, 401)
    for model in (MODEL1, MODEL2):
        for vals in (model.p_rx1(y), model.p_ry1(x, 1), model.p_ry1(x, 0)):
            assert np.all((vals >= 0) & (vals <= 1))


def test_grid_precondition_enforced():
    with pytest.raises(cc.DomainError):
        cc.verify_counterexample(step=0.2)
    for step in (0.0, -0.01, float("nan")):
        with pytest.raises(cc.DomainError, match="grid step"):
            cc.verify_counterexample(step=step)


def test_rule_matches_adaptive_quadrature():
    """scipy's adaptive quad, which the fixed rule replaced, as the reference
    for the integrated objects at a few grid points, the edges included."""
    from scipy.integrate import quad

    def integral(f):
        return quad(f, ce._INT_LO, ce._INT_HI, epsabs=1e-15, epsrel=1e-12, limit=200)[0]

    grid = np.array([-8.0, -2.5, 1.0, 4.0, 10.0])
    for m in (MODEL1, MODEL2):
        d10 = [integral(lambda y: m.p_y(y) * m.p_x_given_y(x, y) * m.p_rx1(y))
               * (1.0 - m.p_ry1(x, 1)) for x in grid]
        d01 = [m.p_y(y) * (1.0 - m.p_rx1(y))
               * integral(lambda x: m.p_x_given_y(x, y) * m.p_ry1(x, 0)) for y in grid]
        m00 = integral(lambda y: m.p_y(y) * (1.0 - m.p_rx1(y)) * integral(
            lambda x: m.p_x_given_y(x, y) * (1.0 - m.p_ry1(x, 0))))
        got = ce._integrals(m, grid, *ce._rule(1.0))
        np.testing.assert_allclose(got[:-1], d10 + d01 + [m00], rtol=1e-9, atol=1e-20)


def test_too_coarse_rule_raises(monkeypatch):
    # two nodes per panel: the rule and its half-width refinement differ
    # by about 1.6e-6, above the bound of 1e-6
    monkeypatch.setattr(ce, "_NODES_PER_PANEL", 2)
    with pytest.raises(cc.NumericalError, match="quadrature did not converge"):
        cc.verify_counterexample()

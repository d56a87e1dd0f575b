import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from symevol.averaged import _chi3_paper_coeffs
from symevol.model import ModelParams
from symevol.resonance import (RESONANCES, _chi2_coeffs, _growth_verdict, _to_float, classify_11,
                               locate_12_first, locate_12_second, locate_13,
                               verify_stability_numerically)


def test_resonance_table_consistency():
    slow = np.array([0.5, 0.1, 0.4, 0.2, 0.0])
    for omega, entry in RESONANCES.items():
        assert entry.default_system in entry.systems
        p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=omega, epsilon=0.1, n=2)
        others = [p.replace(omega=w) for w in RESONANCES if w != omega]
        for equations in entry.systems.values():
            assert np.all(np.isfinite(equations.at(p)(0.0, slow)))
            for q in others:
                with pytest.raises(ValueError):
                    equations.at(q)(0.0, slow)


def test_report_values_are_normal_floats_or_zero():
    # a true zero and the smallest normal float are kept; a non-zero value
    # below it, subnormal or rounding to 0.0, is a ValueError
    tiny = sys.float_info.min
    assert _to_float(Fraction(0)) == 0.0 and _to_float(0.0) == 0.0
    assert _to_float(Fraction(tiny)) == tiny and _to_float(-tiny) == -tiny
    for x in (Fraction(1, 10**320), -Fraction(1, 10**320), Fraction(1, 10**400), tiny / 2):
        with pytest.raises(ValueError, match="underflows a float"):
            _to_float(x)


def test_locate_12_first_energy_surface():
    m = locate_12_first(0.25)
    assert m.exists
    assert float(m.amplitude_ratio) == 8.0
    assert m.r2_sq == pytest.approx(1.0 / 24.0, abs=1e-15)
    assert m.r1_sq == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m.angles == (0.0, math.pi)
    assert math.pi / 2 not in m.angles
    assert m.size_order == 0 and m.timescale_order == 1


def test_locate_12_first_exact_or_float():
    # an int or Fraction E0 gives every value exactly, a float E0 every value as a float
    m = locate_12_first(1)
    assert (m.amplitude_ratio, m.r1_sq, m.r2_sq) == (Fraction(8), Fraction(4, 3), Fraction(1, 6))
    assert all(type(v) is Fraction for v in (m.amplitude_ratio, m.r1_sq, m.r2_sq))
    assert locate_12_first(Fraction(1, 4)).r2_sq == Fraction(1, 24)
    m = locate_12_first(1.0)
    assert all(type(v) is float for v in (m.amplitude_ratio, m.r1_sq, m.r2_sq))
    assert (m.amplitude_ratio, m.r2_sq) == (8.0, 1.0 / 6)


def test_locate_12_first_empty_and_invalid():
    assert not locate_12_first(0.0).exists
    with pytest.raises(ValueError):
        locate_12_first(-1.0)


def test_locate_12_second_exact_ratio():
    m = locate_12_second(1, 1)
    assert m.exists
    assert m.amplitude_ratio == Fraction(91, 24)
    assert m.size_order == 1 and m.timescale_order == 3
    assert m.angle_stability == {0.0: "stable", math.pi: "unstable"}
    mf = locate_12_second(1.0, 1.0)
    assert abs(mf.amplitude_ratio - 91.0 / 24.0) < 1e-10


def test_locate_12_second_none_cases():
    assert not locate_12_second(0, 1).exists
    assert not locate_12_second(1, 0).exists
    degenerate = locate_12_second(0, 0)
    assert not degenerate.exists and degenerate.degenerate


def test_locate_12_second_ratio_is_a_root():
    # the chi2 drift eps^2*(c_u*r1^2 + c_w*r2^2) at eps = 0.1 vanishes at the ratio
    m = locate_12_second(1.0, 1.0)
    c_u, c_w = _chi2_coeffs(1.0, 1.0)
    r1 = math.sqrt(float(m.amplitude_ratio))
    assert abs(0.1**2 * (c_u * r1 * r1 + c_w)) < 1e-10


def test_locate_12_second_none_means_fixed_sign():
    # when no manifold is reported the drift keeps one sign on the
    # positive quadrant (checked at extreme amplitude ratios)
    for a1, a2 in ((0, 1), (1, 0), (2, 1), (-1, 3)):
        m = locate_12_second(a1, a2)
        c_u, c_w = _chi2_coeffs(float(a1), float(a2))
        vals = [c_u * r1 * r1 + c_w * r2 * r2 for r1, r2 in ((1e3, 1.0), (1.0, 1e3))]
        if m.exists:
            assert vals[0] * vals[1] < 0.0
        elif not m.degenerate:
            assert vals[0] * vals[1] > 0.0


def test_locate_13_ratio_and_root():
    m = locate_13(1, 1)
    assert m.exists
    assert m.amplitude_ratio == Fraction(1401, 976)
    assert m.size_order == 2 and m.timescale_order == 4
    # the paper's chi3 drift -eps^2*(c_u*r1^2 - c_w*r2^2) at eps = 0.1 vanishes there
    c_u, c_w = _chi3_paper_coeffs(1.0, 1.0)
    r1 = math.sqrt(float(m.amplitude_ratio))
    assert abs(-0.1**2 * (c_u * r1 * r1 - c_w)) < 1e-10


def test_locate_13_none_cases():
    assert not locate_13(0, 1).exists
    deg = locate_13(0, 0)
    assert not deg.exists and deg.degenerate


def test_classify_11_parameter_zero():
    modes = {r.mode: r for r in classify_11(0, 1)}
    assert modes["q1-normal-mode"].stable is False
    assert modes["q2-normal-mode"].stable is False
    assert modes["in-phase"].exists and modes["in-phase"].stable is True
    assert modes["out-of-phase"].exists and modes["out-of-phase"].stable is True


def test_classify_11_parameter_one():
    modes = {r.mode: r for r in classify_11(3, 1)}
    assert modes["q1-normal-mode"].stable is True
    assert modes["q2-normal-mode"].stable is True
    assert not modes["in-phase"].exists
    assert not modes["out-of-phase"].exists


def test_classify_11_boundary():
    # parameter exactly 2/15: a1/(3*a2) with a1 = 2, a2 = 5
    modes = {r.mode: r for r in classify_11(2, 5)}
    assert modes["q1-normal-mode"].stable == "boundary"
    assert modes["out-of-phase"].stable == "boundary"
    assert modes["q2-normal-mode"].stable is False  # 2/15 inside (-1/3, 1/3)


def test_classify_11_scale_invariance():
    for lam in (2, 5):
        a = classify_11(1, 4)
        b = classify_11(lam * 1, lam * 4)
        for ra, rb in zip(a, b):
            assert (ra.exists, ra.stable) == (rb.exists, rb.stable)


def test_classify_11_rejects_a2_zero():
    with pytest.raises(ValueError):
        classify_11(1, 0)


def test_verify_q1_mode_unstable_at_zero():
    report = [r for r in classify_11(0.0, 1.0) if r.mode == "q1-normal-mode"][0]
    assert verify_stability_numerically(report, E0=1.0, epsilon=0.1) == "consistent"


def test_verify_in_phase_stable_at_zero():
    report = [r for r in classify_11(0.0, 1.0) if r.mode == "in-phase"][0]
    assert verify_stability_numerically(report, E0=1.0, epsilon=0.1) == "consistent"


# a perturbation bounded (grown under 10-fold), in between, or grown (over
# 30-fold) is consistent with a claim of stable, of unstable, or neither; a
# boundary claim, or none, is indeterminate at any growth
@pytest.mark.parametrize("growth, claim, verdict", [
    (5.0, True, "consistent"), (20.0, True, "indeterminate"), (40.0, True, "inconsistent"),
    (5.0, False, "inconsistent"), (20.0, False, "indeterminate"), (40.0, False, "consistent"),
    *((growth, claim, "indeterminate") for claim in ("boundary", None)
      for growth in (5.0, 20.0, 40.0))])
def test_growth_verdict_by_claim(growth, claim, verdict):
    assert _growth_verdict(growth, claim) == verdict


@pytest.mark.parametrize("E0, epsilon", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0)])
def test_verify_rejects_non_positive_energy_or_epsilon(E0, epsilon):
    # the horizon 50/(epsilon^2 E0) needs both positive; epsilon = 0, which
    # ModelParams accepts, is refused before the division
    for report in classify_11(0.0, 1.0):
        with pytest.raises(ValueError, match="need (E0|epsilon) > 0"):
            verify_stability_numerically(report, E0=E0, epsilon=epsilon)

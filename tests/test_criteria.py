from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planefit.criteria import (
    Criterion,
    _ordered_median,
    evaluate,
    evaluate_rcentrum,
    is_monotone,
    preset,
)


def crit(lam, p=1):
    return Criterion(np.asarray(lam, dtype=float), Fraction(p))


def test_sum_is_order_free():
    assert evaluate(crit([1, 1, 1]), [3.0, 1.0, 2.0]) == pytest.approx(6.0)


def test_max_of_squares():
    assert evaluate(crit([0, 0, 1], 2), [3.0, 1.0, 2.0]) == pytest.approx(9.0)


def test_third_smallest_squared():
    c = crit([0, 0, 1, 0, 0], 2)
    assert evaluate(c, [5.0, 1.0, 3.0, 2.0, 4.0]) == pytest.approx(9.0)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate(crit([1, 1]), [1.0, 2.0, 3.0])


def test_negative_residual_rejected():
    with pytest.raises(ValueError):
        evaluate(crit([1, 1]), [1.0, -0.5])


def test_criterion_needs_positive_weight():
    with pytest.raises(ValueError):
        Criterion(np.zeros(3))
    with pytest.raises(ValueError):
        Criterion(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        Criterion(np.ones(3), Fraction(1, 2))


# r-centrum identity ---------------------------------------------------------


def test_rcentrum_constant_weights():
    c = crit([1, 1, 1])
    eps = [0.5, 2.0, 1.0]
    assert evaluate_rcentrum(c, eps) == pytest.approx(evaluate(c, eps), rel=1e-12)


def test_rcentrum_max_by_hand():
    # n=3, lam=(0,0,1): telescoping leaves exactly the largest residual
    c = crit([0, 0, 1])
    eps = [0.3, 0.9, 0.7]
    assert evaluate_rcentrum(c, eps) == pytest.approx(0.9, rel=1e-12)


@given(
    st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8),
    st.lists(st.floats(0.0, 9.0), min_size=1, max_size=8),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)]),
)
@settings(max_examples=150, deadline=None)
def test_rcentrum_equals_evaluate(lams, eps, p):
    n = min(len(lams), len(eps))
    lam = np.array(lams[:n])
    if not lam.any():
        lam[0] = 1.0
    c = Criterion(lam, p)
    vals = np.array(eps[:n])
    a = evaluate(c, vals)
    b = evaluate_rcentrum(c, vals)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 2), Fraction(2)])
def test_ordered_median_rows_equal_rcentrum(rng, p):
    # one block of rows, with ties and zeros, under every preset's weight shape
    n = 9
    block = np.round(rng.random((50, n)) * 4.0, 1)
    block[:10, :4] = 0.0
    shapes = [preset(name, n).lam for name in ("SUM", "MAX", "MED", "kC", "AkC", "LMS")]
    shapes += [preset("LQS", n, r=3).lam, preset("LTS", n, alpha=0.5).lam,
               preset("kC", n, K=2).lam, preset("AkC", n, K=7).lam]
    for lam in shapes:
        values = _ordered_median(block, lam, p)
        assert values.shape == (block.shape[0],)
        for row, value in zip(block, values):
            assert value == pytest.approx(evaluate_rcentrum(Criterion(lam, p), row),
                                          rel=1e-12, abs=1e-12)


# presets --------------------------------------------------------------------


def test_preset_lms_indicator_position():
    c = preset("LMS", 47)
    assert c.p == 2
    assert np.flatnonzero(c.lam).tolist() == [22]  # the 23rd position


def test_preset_lts_leading_ones():
    c = preset("LTS", 47, alpha=0.5)
    assert c.p == 2
    assert c.lam[:24].tolist() == [1.0] * 24
    assert not c.lam[24:].any()


def test_preset_kc_trailing_ones():
    c = preset("kC", 47, K=int(0.75 * 47))
    assert int(c.lam.sum()) == 12
    assert c.lam[-12:].all() and not c.lam[:-12].any()


def test_preset_akc_leading_ones():
    c = preset("AkC", 47, K=23)
    assert c.lam[:23].all() and not c.lam[23:].any()
    assert c.p == 1


def test_preset_med_position():
    c = preset("MED", 47)
    assert np.flatnonzero(c.lam).tolist() == [23]  # ceil(47/2) = 24th slot


def test_preset_15sum():
    c = preset("1.5SUM", 5)
    assert c.p == Fraction(3, 2)
    assert c.lam.tolist() == [1.0] * 5


def test_preset_rejects_bad_params():
    with pytest.raises(ValueError):
        preset("LTS", 10, alpha=0.0)
    with pytest.raises(ValueError):
        preset("LQS", 10, r=11)
    with pytest.raises(ValueError):
        preset("NOPE", 10)


def test_is_monotone():
    assert is_monotone(preset("SUM", 5))
    assert is_monotone(preset("MAX", 5))
    assert is_monotone(preset("kC", 5, K=2))
    assert not is_monotone(preset("AkC", 5, K=2))
    assert not is_monotone(preset("MED", 5))
    assert not is_monotone(preset("LQS", 5, r=3))


# invariants -----------------------------------------------------------------


@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=10), st.randoms())
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(eps, rand):
    n = len(eps)
    lam = np.linspace(0.0, 1.0, n) ** 2
    lam[-1] = 1.0
    c = Criterion(lam, Fraction(2))
    shuffled = list(eps)
    rand.shuffle(shuffled)
    assert evaluate(c, shuffled) == evaluate(c, eps)


def test_componentwise_monotonicity(rng):
    for _ in range(50):
        n = 6
        lam = np.abs(rng.normal(size=n))
        lam[0] = max(lam[0], 1e-3)
        c = Criterion(lam, Fraction(2))
        eps = np.abs(rng.normal(size=n))
        bigger = eps + np.abs(rng.normal(size=n)) * 0.5
        assert evaluate(c, bigger) >= evaluate(c, eps) - 1e-12


def test_homogeneity(rng):
    for p in (Fraction(1), Fraction(3, 2), Fraction(2)):
        c = Criterion(np.array([0.2, 0.0, 1.0, 3.0]), p)
        eps = np.abs(rng.normal(size=4))
        for t in (0.0, 0.37, 2.0):
            want = t ** float(p) * evaluate(c, eps)
            assert evaluate(c, t * eps) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_tie_robustness():
    c = Criterion(np.array([0.1, 0.5, 2.0]), Fraction(1))
    assert evaluate(c, [1.0, 1.0, 0.5]) == evaluate(c, [0.5, 1.0, 1.0])

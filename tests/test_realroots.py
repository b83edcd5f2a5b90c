"""Exact real-root counting, isolation, and the interlacing certificates."""
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from reference_impl import refine_by_counting, verify_conjecture_by_resorting

from lstirling import realroots
from lstirling.algebra import Poly
from lstirling.gamma import gamma_poly
from lstirling.realroots import (
    ConjectureResult,
    RootCertificate,
    _sign_at,
    count_roots,
    expected_pattern,
    isolate_roots,
    q_poly,
    refine_interval,
    sturm_chain,
    verify_conjecture,
)


def _poly_with_roots(*roots):
    p = Poly((1,))
    for r in roots:
        p = p * Poly((-r, 1))
    return p


# -- counting -----------------------------------------------------------------


def test_sturm_chain_counts_roots_of_a_quadratic():
    chain = sturm_chain(Poly((-2, 0, 1)))  # x^2 - 2
    assert count_roots(chain) == 2
    assert count_roots(chain, 0, 2) == 1
    assert count_roots(chain, -2, 0) == 1
    assert count_roots(chain, 2, None) == 0


def test_count_roots_interval_is_open_left_closed_right():
    chain = sturm_chain(_poly_with_roots(1, 2, 3))
    assert count_roots(chain, 1, 3) == 2  # root at the left endpoint excluded
    assert count_roots(chain, 0, 3) == 3
    assert count_roots(chain, 0, 1) == 1  # root at the right endpoint included
    assert count_roots(chain, 3, None) == 0
    assert count_roots(chain, None, 0) == 0
    assert count_roots(chain) == 3


def test_count_roots_handles_rational_roots_at_endpoints():
    chain = sturm_chain(_poly_with_roots(Fraction(1, 2), Fraction(3, 2)))
    assert count_roots(chain, Fraction(1, 2), 2) == 1
    assert count_roots(chain, 0, Fraction(3, 2)) == 2
    assert count_roots(chain, 0.5, 1.5) == 1  # float endpoints count at their exact values


def test_count_roots_rejects_an_endpoint_on_a_repeated_root():
    # (x-1)^2 (x+2): every chain element vanishes at the double root 1
    chain = sturm_chain(_poly_with_roots(1, 1, -2))
    with pytest.raises(ValueError, match="repeated root"):
        count_roots(chain, 0, 1)
    with pytest.raises(ValueError, match="repeated root"):
        count_roots(chain, 1, 3)
    # the simple root -2 is an ordinary endpoint, and 1 counts once
    assert count_roots(chain, -2, 3) == 1
    assert count_roots(chain, -3, -2) == 1
    assert count_roots(chain, -3, 3) == 2


def test_no_real_roots():
    chain = sturm_chain(Poly((1, 0, 1)))  # x^2 + 1
    assert count_roots(chain) == 0


# -- the integer kernel against a plain Fraction reference ---------------------


def _ref_eval(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _ref_rem(a, b):
    # euclidean remainder over Fractions, coefficient lists constant first
    a = list(a)
    while len(a) >= len(b):
        t = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= t * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _ref_sturm(cs):
    """The textbook Sturm sequence p, p', -rem, ... as Fraction coefficient lists."""
    seq = [[Fraction(c) for c in cs]]
    d = [i * c for i, c in enumerate(seq[0]) if i >= 1]
    if d:
        seq.append(d)
        while True:
            r = _ref_rem(seq[-2], seq[-1])
            if not r:
                break
            seq.append([-c for c in r])
    return seq


def _ref_count(seq, a, b):
    # V(a) - V(b) with zero signs dropped counts the roots in (a, b] of a
    # square-free p, endpoints that are roots included
    def var(x):
        signs = [v > 0 for v in (_ref_eval(s, x) for s in seq) if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return var(a) - var(b)


_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def _square_free(draw):
    """A square-free polynomial of degree 1..8 with rational coefficients.

    Half the draws are multiplied by (x - r) for a rational r, so that
    counts meet endpoints that are roots; r comes back with the polynomial.
    """
    root = draw(st.none() | _rationals)
    top = 7 if root is None else 6
    cs = draw(st.lists(_rationals, min_size=1, max_size=top + 1))
    cs.append(draw(_rationals.filter(lambda c: c != 0)))
    if root is not None:
        cs = [lo - root * hi for lo, hi in zip([0] + cs, cs + [0])]
    seq = _ref_sturm(cs)
    assume(len(seq[-1]) == 1)
    return cs, seq, root


@given(_square_free())
def test_sturm_chain_is_a_positive_multiple_of_the_fraction_chain(case):
    cs, seq, _ = case
    chain = sturm_chain(Poly(cs))
    assert len(chain) == len(seq)
    for elem, ref in zip(chain, seq):
        assert all(isinstance(c, int) for c in elem.coeffs)
        ratio = Fraction(elem.leading()) / ref[-1]
        assert ratio > 0
        assert list(elem.coeffs) == [c * ratio for c in ref]


@given(_square_free(), st.lists(_rationals, min_size=1, max_size=5))
def test_sign_at_agrees_with_fraction_horner(case, points):
    cs, seq, root = case
    chain = sturm_chain(Poly(cs))
    for x in points + ([] if root is None else [root]):
        for elem, ref in zip(chain, seq):
            v = _ref_eval(ref, x)
            assert _sign_at(elem, x) == (v > 0) - (v < 0)


@given(_square_free(), _rationals, _rationals)
def test_count_roots_agrees_with_the_reference_count(case, a, b):
    cs, seq, root = case
    if root is not None:
        a = root  # an endpoint on a root exercises the half-open rule
    assume(a != b)
    a, b = min(a, b), max(a, b)
    chain = sturm_chain(Poly(cs))
    assert count_roots(chain, a, b) == _ref_count(seq, a, b)


# -- isolation ------------------------------------------------------------------


def test_isolate_roots_produces_disjoint_single_root_intervals():
    p = _poly_with_roots(1, 2, 3)
    chain, intervals = isolate_roots(p)
    assert len(intervals) == 3
    for (lo, hi), root in zip(intervals, (1, 2, 3)):
        assert lo < root <= hi
        assert count_roots(chain, lo, hi) == 1
    for (_, hi), (lo2, _) in zip(intervals, intervals[1:]):
        assert hi <= lo2


def test_isolate_roots_handles_roots_hit_by_bisection_midpoints():
    p = _poly_with_roots(-1, 0, 1)
    chain, intervals = isolate_roots(p)
    assert len(intervals) == 3
    for (lo, hi), root in zip(intervals, (-1, 0, 1)):
        assert lo < root <= hi


def test_isolate_roots_on_rootless_and_constant_inputs():
    _, intervals = isolate_roots(Poly((1, 0, 1)))
    assert intervals == []
    _, intervals = isolate_roots(Poly((5,)))
    assert intervals == []


def test_isolate_roots_rejects_repeated_roots_and_zero():
    with pytest.raises(ValueError):
        isolate_roots(Poly((0, 0, 1)))  # x^2
    # (x-1)^2 (x+2)^3 shares (x-1)(x+2)^2 with its derivative
    p = Poly((-1, 1)) * Poly((-1, 1)) * Poly((2, 1)) * Poly((2, 1)) * Poly((2, 1))
    with pytest.raises(ValueError, match="gcd degree 3"):
        isolate_roots(p)
    with pytest.raises(ValueError):
        isolate_roots(Poly(()))


def test_refine_interval_halves_and_keeps_the_root():
    p = _poly_with_roots(1, 2, 3)
    chain, intervals = isolate_roots(p)
    iv = intervals[1]
    for _ in range(10):
        iv = refine_interval(chain[0], iv)
        assert count_roots(chain, iv[0], iv[1]) == 1
    assert iv[1] - iv[0] < Fraction(1, 100)
    assert iv[0] < 2 <= iv[1]


def test_refine_interval_boxes_a_root_at_the_midpoint():
    # x(x - 4) on (-1, 1): the midpoint 0 is the root
    p = _poly_with_roots(0, 4)
    iv = (Fraction(-1), Fraction(1))
    assert refine_interval(p, iv) == (Fraction(-1, 2), Fraction(1, 2))
    assert refine_by_counting(sturm_chain(p), iv) == (Fraction(-1, 2), Fraction(1, 2))


@given(_square_free())
def test_refine_interval_agrees_with_refinement_by_counting(case):
    cs, _, _ = case
    chain, intervals = isolate_roots(Poly(cs))
    for iv in intervals:
        for _ in range(12):
            by_sign = refine_interval(chain[0], iv)
            assert by_sign == refine_by_counting(chain, iv)
            iv = by_sign


# -- certificate inputs ------------------------------------------------------------


def test_q_poly_strips_the_exact_zero_multiplicity():
    assert q_poly(1) == Poly((1,))
    assert q_poly(2) == Poly((1, 8, 10))
    for k in range(1, 7):
        g = gamma_poly(k)
        assert q_poly(k) * Poly((0,) * (k + 2) + (1,)) == g
    with pytest.raises(ValueError):
        q_poly(0)


def test_certificates_report_all_roots_real_with_sign_changes():
    for k in range(2, 7):
        res = verify_conjecture(k)
        for cert in (res.lower, res.upper):
            assert cert.square_free
            assert cert.all_real
            assert len(cert.intervals) == cert.degree
            p = q_poly(cert.k).to_fractions()
            for lo, hi in cert.intervals:
                assert lo < 0  # every root is negative
                va, vb = p.eval(lo), p.eval(hi)
                assert va != 0 and vb != 0
                assert (va < 0) != (vb < 0)  # exactly one simple root inside


# -- the merged-order statement ------------------------------------------------------


def test_expected_pattern_shape():
    assert expected_pattern(1) == ["s", "s"]
    assert expected_pattern(2) == ["s", "r", "s", "s", "r", "s"]
    assert len(expected_pattern(5)) == (2 * 5 - 2) + (2 * 6 - 2)


def test_degenerate_case_is_vacuous():
    res = verify_conjecture(1)
    assert res.verdict == "vacuous"
    assert res.pattern == "s s"
    assert res.ok


def test_first_nontrivial_case():
    res = verify_conjecture(2)
    assert res.verdict == "true"
    assert res.pattern == "s r s s r s"
    assert res.pattern == res.expected_pattern
    assert res.ok


def test_certified_range_of_cases():
    for k in range(3, 7):
        res = verify_conjecture(k)
        assert res.verdict == "true", res.note
        assert res.pattern == res.expected_pattern


def test_merge_agrees_with_the_resorting_reference():
    for k in range(1, 9):
        assert verify_conjecture(k).to_json_dict() == verify_conjecture_by_resorting(k).to_json_dict()


def test_exhausted_budget_is_inconclusive_and_keeps_the_isolating_intervals(monkeypatch):
    monkeypatch.setattr(realroots, "REFINE_CAP", 0)
    res = verify_conjecture(3)
    assert res.verdict == "inconclusive"
    assert res.pattern == ""
    assert "budget" in res.note
    assert res.lower.intervals == isolate_roots(q_poly(3))[1]
    assert res.upper.intervals == isolate_roots(q_poly(4))[1]
    assert res.to_json_dict() == verify_conjecture_by_resorting(3).to_json_dict()


@pytest.mark.parametrize("cap", [1, 2, 4, 8])
def test_small_budgets_agree_with_the_resorting_reference(monkeypatch, cap):
    # a cap near the bisections a root needs counts them per root exactly
    monkeypatch.setattr(realroots, "REFINE_CAP", cap)
    for k in range(1, 7):
        assert verify_conjecture(k).to_json_dict() == verify_conjecture_by_resorting(k).to_json_dict()


def test_invalid_k_is_rejected():
    with pytest.raises(ValueError):
        verify_conjecture(0)


def test_result_serialization_shape():
    res = verify_conjecture(2)
    doc = res.to_json_dict()
    assert doc["k"] == 2
    assert doc["verdict"] == "true"
    assert doc["pattern"] == "s r s s r s"
    assert doc["lower"]["degree"] == 2
    assert doc["upper"]["degree"] == 4
    assert doc["lower"]["all_real"] and doc["upper"]["all_real"]
    for iv in doc["lower"]["intervals"] + doc["upper"]["intervals"]:
        (lon, lod), (hin, hid) = iv
        assert lod > 0 and hid > 0
        assert Fraction(lon, lod) < Fraction(hin, hid)


def test_certificate_dataclass_flags():
    cert = RootCertificate(3, 4, True, [(Fraction(0), Fraction(1))] * 4)
    assert cert.all_real
    assert not RootCertificate(3, 4, True, []).all_real
    assert not RootCertificate(3, 4, False, []).all_real
    assert isinstance(verify_conjecture(1), ConjectureResult)

"""The interlacing certificates, and the Sturm-chain oracle they are checked against.

Root counting and isolation by Sturm chains live in `reference_impl`, where
they are the oracle; the first half of this file tests that oracle against a
plain Fraction reference, the second half tests `realroots` against it.
"""
from dataclasses import field, make_dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from reference_impl import (
    _sign_by_terms,
    count_roots,
    isolate_roots,
    refine_by_counting,
    sturm_chain,
    verify_conjecture_by_resorting,
)

from lstirling import realroots
from lstirling.algebra import Poly
from lstirling.gamma import gamma_poly
from lstirling.realroots import (
    ConjectureResult,
    RootCertificate,
    _sign_at,
    conjecture_results,
    expected_pattern,
    q_poly,
    refine_interval,
)


def _rational(interval):
    """An interval of a certificate, its endpoint pairs read as Fractions."""
    return tuple(Fraction(*end) for end in interval)


def _dyadic(interval):
    """An interval of Fraction endpoints as a certificate holds it, pairs of ints."""
    return tuple((end.numerator, end.denominator) for end in interval)


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
        ratio = Fraction(elem.coeffs[-1]) / ref[-1]
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


@given(_square_free(), st.lists(_rationals, min_size=1, max_size=5))
def test_the_oracles_term_by_term_sign_agrees_with_fraction_horner(case, points):
    # the Sturm oracle reads every sign through its own evaluator, not _sign_at
    cs, seq, root = case
    chain = sturm_chain(Poly(cs))
    for x in points + ([] if root is None else [root]):
        for elem, ref in zip(chain, seq):
            v = _ref_eval(ref, x)
            assert _sign_by_terms(elem, x) == (v > 0) - (v < 0)
    assert _sign_by_terms(Poly(), points[0]) == 0


@given(_square_free(), _rationals, _rationals)
def test_count_roots_agrees_with_the_reference_count(case, a, b):
    cs, seq, root = case
    if root is not None:
        a = root  # an endpoint on a root exercises the half-open rule
    assume(a != b)
    a, b = min(a, b), max(a, b)
    chain = sturm_chain(Poly(cs))
    assert count_roots(chain, a, b) == _ref_count(seq, a, b)


# -- the induction's int kernel against the general rational path -------------------

_int_coeffs = st.lists(st.integers(-60, 60), max_size=9)


@st.composite
def _dyadic_points(draw):
    """A reduced (numerator, denominator) pair with a power-of-two denominator."""
    x = Fraction(draw(st.integers(-(2**12), 2**12)), 2 ** draw(st.integers(0, 12)))
    return x.numerator, x.denominator


@given(_int_coeffs, _dyadic_points(), st.booleans())
def test_the_shift_evaluator_agrees_with_sign_at_at_dyadic_points(cs, x, root_at_x):
    # the zero polynomial is the empty list, and a factor den*t - num puts a root at x
    p = Poly(cs) * Poly((-x[0], x[1])) if root_at_x else Poly(cs)
    assert realroots._dyadic_sign(p.coeffs, x) == _sign_at(p, Fraction(*x))
    if root_at_x:
        assert realroots._dyadic_sign(p.coeffs, x) == 0
    assert realroots._dyadic_sign((), x) == _sign_at(Poly(()), Fraction(*x)) == 0


@given(_int_coeffs, _dyadic_points(), _dyadic_points(), st.booleans())
def test_the_kernel_bisection_agrees_with_refine_interval(cs, a, b, root_at_mid):
    assume(a != b)
    lo, hi = sorted((a, b), key=lambda end: Fraction(*end))
    p = Poly(cs)
    if root_at_mid:
        mid = (Fraction(*lo) + Fraction(*hi)) / 2
        p = (p or Poly((1,))) * Poly((-mid.numerator, mid.denominator))
    got = realroots._bisect(p.coeffs, (lo, hi))
    # the same interval, and each endpoint the reduced pair of its Fraction
    assert got == _dyadic(refine_interval(p, _rational((lo, hi))))


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


@pytest.mark.parametrize(
    "lo,hi,want",
    [(-2, 0, (Fraction(-3, 2), Fraction(-1, 2))), (-3, 0, (Fraction(-3, 2), 0)), (-5, 1, (-2, 1))],
)
def test_refine_interval_gives_int_and_fraction_endpoints_one_exact_interval(lo, hi, want):
    # the root -1 of 1 + x is the midpoint of (-2, 0) and is bisected towards otherwise
    p = Poly((1, 1))
    got = refine_interval(p, (lo, hi))
    assert got == refine_interval(p, (Fraction(lo), Fraction(hi))) == want
    assert not any(isinstance(end, float) for end in got)


@pytest.mark.parametrize("interval", [(1.0, 2), ("1", 2), (None, 2), (True, 2), (-2, 0.5), None, (-2, 0, 1)])
def test_refine_interval_rejects_an_interval_that_is_not_two_exact_endpoints(interval):
    with pytest.raises(ValueError, match="refine_interval"):
        refine_interval(Poly((1, 1)), interval)


@pytest.mark.parametrize("bad", [None, (1, 1), [1, 1], 3])
def test_refine_interval_rejects_a_p_that_is_not_a_poly(bad):
    with pytest.raises(ValueError, match="refine_interval: p must be a Poly"):
        refine_interval(bad, (-1, 0))


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


def test_q_poly_refuses_a_gamma_poly_of_the_wrong_zero_multiplicity(monkeypatch):
    # gamma_2 shifted up by one power of x: q_2 would silently gain a factor x
    monkeypatch.setattr(realroots, "gamma_poly", lambda k: Poly((0,) * (k + 3) + (1, 8, 10)))
    with pytest.raises(ArithmeticError, match="q_poly: x=0 multiplicity is 5 for k=2, expected 4"):
        q_poly(2)


def test_q_poly_strips_the_exact_zero_multiplicity():
    assert q_poly(1) == Poly((1,))
    assert q_poly(2) == Poly((1, 8, 10))
    for k in range(1, 7):
        g = gamma_poly(k)
        assert q_poly(k) * Poly((0,) * (k + 2) + (1,)) == g
    for bad in (0, 2.5, True, "3", None):
        with pytest.raises(ValueError):
            q_poly(bad)


def test_certificates_report_all_roots_real_with_sign_changes():
    for res in list(conjecture_results(6))[1:]:
        for cert in (res.lower, res.upper):
            assert cert.square_free
            assert cert.all_real
            assert len(cert.intervals) == cert.degree
            p = Poly(map(Fraction, q_poly(cert.k).coeffs))
            for lo, hi in map(_rational, cert.intervals):
                assert lo < 0  # every root is negative
                va, vb = p.eval(lo), p.eval(hi)
                assert va != 0 and vb != 0
                assert (va < 0) != (vb < 0)  # exactly one simple root inside


# -- the merged-order statement ------------------------------------------------------


def test_expected_pattern_shape():
    assert expected_pattern(1) == ["s", "s"]
    assert expected_pattern(2) == ["s", "r", "s", "s", "r", "s"]
    assert len(expected_pattern(5)) == (2 * 5 - 2) + (2 * 6 - 2)


@pytest.mark.parametrize("bad", [0, -1])
def test_expected_pattern_rejects_a_k_with_no_pattern(bad):
    # a non-int k is a case of test_index_only_functions_reject_a_non_int_with_value_error
    with pytest.raises(ValueError, match="expected_pattern"):
        expected_pattern(bad)


def test_degenerate_case_is_vacuous():
    (res,) = conjecture_results(1)
    assert res.verdict == "vacuous"
    assert res.pattern == "s s"
    assert res.ok


def test_first_nontrivial_case():
    _, res = conjecture_results(2)
    assert res.verdict == "true"
    assert res.pattern == "s r s s r s"
    assert res.pattern == res.expected_pattern
    assert res.ok


def test_certified_range_of_cases():
    for res in list(conjecture_results(6))[2:]:
        assert res.verdict == "true", res.note
        assert res.pattern == res.expected_pattern


def test_merge_agrees_with_the_resorting_reference():
    # the merged order by induction against isolation, refinement and
    # re-sorting on Sturm chains, at every k the CLI accepts
    for res in conjecture_results(16):
        ref = verify_conjecture_by_resorting(res.k)
        assert (res.verdict, res.pattern) == (ref.verdict, ref.pattern), res.k
        assert res.pattern == res.expected_pattern == ref.expected_pattern


def test_every_certified_interval_holds_one_root_by_the_sturm_count():
    # all results are drawn first, so a later step that changed an earlier
    # certificate's intervals would show here
    results = list(conjecture_results(16))
    chains = {q: sturm_chain(q_poly(q)) for q in range(1, 18)}
    for res in results:
        for cert in (res.lower, res.upper):
            assert cert.all_real and len(cert.intervals) == cert.degree
            chain = chains[cert.k]
            assert count_roots(chain) == cert.degree
            for lo, hi in map(_rational, cert.intervals):
                assert -1 <= lo < hi <= 0
                assert count_roots(chain, lo, hi) == 1, (res.k, cert.k, lo, hi)


def test_each_result_hands_its_upper_certificate_to_the_next():
    results = list(conjecture_results(6))
    assert [r.k for r in results] == [1, 2, 3, 4, 5, 6]
    for res, nxt in zip(results, results[1:]):
        # the certificate of q_{k+1} is the one step k+1 refines
        assert res.upper.k == nxt.lower.k and res.upper.degree == nxt.lower.degree


def test_exhausted_budget_is_inconclusive_and_keeps_the_isolating_intervals(monkeypatch):
    # the intervals (-1, -1/2), (-1/2, 0) that certify q_2 touch -1, each
    # other and 0, so every gap of step 2 starts empty and needs a bisection,
    # which cap 0 forbids
    monkeypatch.setattr(realroots, "REFINE_CAP", 0)
    first, res, after = conjecture_results(3)
    assert first.verdict == "vacuous"
    half = Fraction(-1, 2)
    assert list(map(_rational, first.upper.intervals)) == [(Fraction(-1), half), (half, Fraction(0))]
    assert res.verdict == "inconclusive"
    assert res.pattern == ""
    assert "budget" in res.note
    assert res.lower.intervals == first.upper.intervals and res.lower.all_real
    assert not res.upper.square_free and res.upper.intervals == [] and not res.upper.all_real
    assert after.verdict == "inconclusive" and after.note == "q_3 was not certified"
    assert not after.lower.all_real and not after.upper.all_real


def test_a_gap_whose_endpoint_moved_is_checked_again():
    # gap 0 first shows the one sign change of p_s at -15/16; the failing
    # middle gap then bisects its wider neighbour (-7/8, -1/2), whose left
    # end moves to -11/16 past the root -3/4 of p_s, so gap 0 holds two
    # roots and no sign change.  A step that did not check gap 0 again would
    # go on to split the middle gap and report a certificate missing one
    # sign change; no refinement of (-7/8, -1/2) around -13/20 mends gap 0
    p_r = Poly((13, 20)) * Poly((3, 16))
    p_s = Poly((15, 16)) * Poly((3, 4)) * Poly((9, 16)) * Poly((3, 10)) * Poly((1, 16))
    ivs = [_dyadic(iv) for iv in [(Fraction(-7, 8), Fraction(-1, 2)), (Fraction(-1, 4), Fraction(-1, 8))]]
    assert realroots._step(2, p_r, ivs, p_s) is None


def _bisections_per_interval(monkeypatch):
    """Wrap the induction's bisection; map each interval it returns to the bisections behind it."""
    done = {}
    seen = [0]
    bisect = realroots._bisect

    def counting(cs, interval):
        out = bisect(cs, interval)
        done[(id(cs), out)] = done.pop((id(cs), interval), 0) + 1
        seen[0] = max(seen[0], done[(id(cs), out)])
        return out

    monkeypatch.setattr(realroots, "_bisect", counting)
    return seen


@pytest.mark.parametrize("cap", [1, 2, 4, 8])
def test_small_budgets_agree_with_the_resorting_reference(monkeypatch, cap):
    # under any cap the induction proves a prefix of k = 1..6 and is
    # inconclusive after it; what it proves agrees with the reference, and no
    # interval of q_k takes more than cap bisections in its step
    refs = [verify_conjecture_by_resorting(k) for k in range(1, 7)]
    monkeypatch.setattr(realroots, "REFINE_CAP", cap)
    most = _bisections_per_interval(monkeypatch)
    verdicts = []
    for res, ref in zip(conjecture_results(6), refs):
        verdicts.append(res.verdict)
        if res.ok:
            assert (res.verdict, res.pattern) == (ref.verdict, ref.pattern)
    proved = verdicts.count("vacuous") + verdicts.count("true")
    assert verdicts[proved:] == ["inconclusive"] * (6 - proved)
    assert most[0] <= cap


def test_refine_cap_counts_bisections_per_interval_exactly(monkeypatch):
    # the least cap that proves k = 1..6 is the most bisections any interval
    # took at the default cap, and one less is inconclusive
    most = _bisections_per_interval(monkeypatch)
    assert all(r.ok for r in conjecture_results(6))
    need = most[0]
    assert 1 <= need < realroots.REFINE_CAP
    monkeypatch.setattr(realroots, "REFINE_CAP", need)
    assert all(r.ok for r in conjecture_results(6))
    monkeypatch.setattr(realroots, "REFINE_CAP", need - 1)
    assert conjecture_results(6).__next__().ok
    assert not all(r.ok for r in conjecture_results(6))


def test_invalid_k_is_rejected():
    # the argument is checked when conjecture_results is called, not when iterated
    for bad in (0, -1, 2.5, "3", True, None):
        with pytest.raises(ValueError):
            conjecture_results(bad)


def test_result_serialization_shape():
    _, res = conjecture_results(2)
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
    assert isinstance(next(conjecture_results(1)), ConjectureResult)


def test_result_classes_compare_and_print_as_dataclasses():
    # the dataclasses they used to be, rebuilt with the same names and fields
    cert_dc = make_dataclass("RootCertificate", ["k", "degree", "square_free", "intervals"])
    result_dc = make_dataclass(
        "ConjectureResult",
        ["k", "lower", "upper", "pattern", "expected_pattern", "verdict", ("note", object, field(default=None))],
    )
    _, res, third = conjecture_results(3)
    lower = cert_dc(res.lower.k, res.lower.degree, res.lower.square_free, res.lower.intervals)
    upper = cert_dc(res.upper.k, res.upper.degree, res.upper.square_free, res.upper.intervals)
    assert repr(res.lower) == repr(lower)
    assert repr(res) == repr(result_dc(2, lower, upper, res.pattern, res.expected_pattern, res.verdict))
    assert res == list(conjecture_results(2))[1] and res != third
    assert res.lower != lower  # a different class, as between two dataclasses
    assert res.lower == RootCertificate(2, 2, True, list(res.lower.intervals))
    assert res.lower != RootCertificate(2, 2, False, list(res.lower.intervals))
    assert ConjectureResult(1, res.lower, res.upper, "", "", "true") != ConjectureResult(
        1, res.lower, res.upper, "", "", "true", "note"
    )
    for obj in (res, res.lower):
        assert obj.__hash__ is None  # unhashable, like a dataclass with eq and not frozen
        assert not hasattr(obj, "__dict__")

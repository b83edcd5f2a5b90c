"""End-to-end acceptance checks.

Each test prints exactly one summary line (run with ``pytest -s`` to see them
all) and fails loudly if its exact-arithmetic sweep finds any disagreement or
overruns its time budget.
"""
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from lstirling import gamma, grammar, triangles
from lstirling.algebra import Poly
from lstirling.cli import main
from lstirling.codes import enumerate_codes, phi, phi_inverse
from lstirling.gamma import (
    closed_forms,
    gamma_poly,
    lc_expansion,
    ls_binomial_expansion,
    ls_nested_sum,
)
from lstirling.grammar import (
    FormalPoly,
    Letter,
    derive,
    js_grammar,
)
from lstirling.partitions import enumerate_partitions, js_brute
from lstirling.realroots import conjecture_results, q_poly, refine_interval
from lstirling.triangles import js, lc, ls, ls_explicit

FIXTURES = Path(__file__).parent / "fixtures"


def _report(num, label, failures, elapsed, limit=None):
    status = "PASS" if not failures else "FAIL"
    budget = f", budget {limit:.0f}s" if limit else ""
    detail = "" if not failures else f" [{failures[0]}]"
    print(f"ACCEPTANCE {num:02d} {status}: {label} ({elapsed:.2f}s{budget}){detail}")
    assert not failures, failures[0]
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, budget {limit}s"


def test_01_three_route_agreement():
    start = time.monotonic()
    failures = []
    for n in range(26):
        for k in range(n + 1):
            if ls_explicit(n, k) != ls(n, k):
                failures.append(f"explicit sum differs at n={n}, k={k}")
    # the product for k checked up to x^(25-k), k = 1..25; its coefficient of
    # x^(n-k) is the vertical recurrence's ls(n, k), so this covers that route
    for res in triangles._vertical_gf_sweep(25):
        if not res:
            failures.append(res.detail)
    _report(1, "three computation routes agree for n<=25", failures, time.monotonic() - start, 5)


def test_02_horizontal_identities():
    start = time.monotonic()
    failures = []
    for sweep in (
        triangles._horizontal_sweep(25, triangles.ls_triangle, lambda i: i * (i + 1)),
        triangles._horizontal_sweep(15, triangles.js_triangle, lambda i: Poly((i * i, i))),
        triangles._jc_product_sweep(15),
    ):
        failures += [res.detail for res in sweep if not res]
    _report(
        2,
        "basis-change identities hold (integer n<=25, bivariate n<=15)",
        failures,
        time.monotonic() - start,
        10,
    )


def test_03_bijection_round_trips():
    start = time.monotonic()
    failures = []
    for n in range(1, 7):
        counts: dict = {}
        for p in enumerate_partitions(n):
            code = phi_inverse(p)
            if phi(code) != p:
                failures.append(f"partition round trip failed: {p.render()}")
                break
            counts[len(p.boxes)] = counts.get(len(p.boxes), 0) + 1
        expected = {k: ls(n, k) for k in range(1, n + 1)}
        if counts != expected:
            failures.append(f"block histogram at n={n}: {counts} != {expected}")
        if n == 4 and counts != {1: 8, 2: 52, 3: 20, 4: 1}:
            failures.append("row-four block counts changed")
        for code in enumerate_codes(n):
            if phi_inverse(phi(code)) != code:
                failures.append(f"code round trip failed at n={n}")
                break
    _report(3, "partition/code bijection round-trips for n<=6", failures, time.monotonic() - start, 30)


def test_04_near_diagonal_anchor_identities():
    start = time.monotonic()
    failures = []
    for n in range(41):
        if ls(n + 1, n) != 2 * comb(n + 2, 3):
            failures.append(f"first subdiagonal differs at n={n}")
        if ls(n + 2, n) != 40 * comb(n + 3, 6) + 32 * comb(n + 3, 5) + 4 * comb(n + 3, 4):
            failures.append(f"second subdiagonal differs at n={n}")
        third = 8 * (
            280 * comb(n + 4, 9)
            + 448 * comb(n + 4, 8)
            + 219 * comb(n + 4, 7)
            + 34 * comb(n + 4, 6)
            + comb(n + 4, 5)
        )
        if ls(n + 3, n) != third:
            failures.append(f"third subdiagonal differs at n={n}")
    _report(4, "three near-diagonal binomial forms hold for n<=40", failures, time.monotonic() - start)


def test_05_binomial_basis_expansion_three_ways():
    start = time.monotonic()
    failures = []
    for k in range(1, 9):
        for n in range(1, 41):
            expansion = ls_binomial_expansion(n, k)
            if expansion != ls(n + k, n):
                failures.append(f"expansion differs from triangle at n={n}, k={k}")
            if expansion != ls_nested_sum(n, k):
                failures.append(f"nested sum differs at n={n}, k={k}")
    for k, p in enumerate(gamma._ode_polys(10)):
        if p != gamma_poly(k):
            failures.append(f"differential and integer recurrences differ at k={k}")
    _report(5, "coefficient expansion = triangle = nested sum (k<=8, n<=40)", failures, time.monotonic() - start)


def test_06_first_kind_expansion():
    start = time.monotonic()
    failures = []
    for k in range(1, 7):
        for n in range(k + 1, 31):
            if lc_expansion(n, k) != lc(n - 1, n - k - 1):
                failures.append(f"first-kind expansion differs at n={n}, k={k}")
    _report(6, "first-kind expansion matches its triangle (k<=6, n<=30)", failures, time.monotonic() - start)


def test_07_closed_forms_and_reference_sequences(capsys):
    start = time.monotonic()
    failures = []
    res = closed_forms(12)
    if not res:
        failures.append(res.detail)
    for seq, bfile in (("A025035", "b025035.txt"), ("A006472", "b006472.txt")):
        rc = main(["oeis", seq, "--source", str(FIXTURES / bfile), "--count", "12"])
        if rc != 0:
            failures.append(f"{seq} cross-check exited {rc}")
    capsys.readouterr()
    _report(7, "closed forms (k<=12) and both reference sequences match", failures, time.monotonic() - start)


def test_08_grammar_identities():
    start = time.monotonic()
    failures = []
    sweeps = {
        "set-partition": grammar._stirling2_sweep,
        "cycle": grammar._stirling1_sweep,
        "second-kind bivariate": grammar._js_sweep,
        "first-kind bivariate": grammar._jc_sweep,
    }
    for name, sweep in sweeps.items():
        res = next((r for r in sweep(10) if not r), None)
        if res is not None:
            failures.append(f"{name} grammar differs: {res.detail}")
    g = js_grammar()
    rendered = derive(g, derive(g, FormalPoly.letter(Letter("a", 0)))).render()
    if rendered != "a_2 b c^2 + (1+z) a_1 c":
        failures.append(f"second derivative rendered as {rendered!r}")
    _report(8, "four grammar identities hold for n<=10", failures, time.monotonic() - start, 60)


def test_09_zero_box_statistic():
    start = time.monotonic()
    failures = []
    for n in range(1, 7):
        for k in range(n + 1):
            if js_brute(n, k) != js(n, k):
                failures.append(f"statistic polynomial differs at n={n}, k={k}")
    _report(9, "zero-box statistic matches the bivariate triangle for n<=6", failures, time.monotonic() - start)


def test_10_interlacing_certificates():
    start = time.monotonic()
    failures = []
    results = list(conjecture_results(8))
    for res in results[1:]:
        if res.verdict != "true":
            failures.append(f"k={res.k} verdict {res.verdict}: {res.note}")
        elif res.pattern != res.expected_pattern:
            failures.append(f"k={res.k} pattern {res.pattern}")

    # the k=2 merged roots, refined and compared against their decimal reading
    res = results[1]
    if res.pattern != "s r s s r s":
        failures.append(f"k=2 pattern {res.pattern}")
    merged = sorted([(iv, 2) for iv in res.lower.intervals] + [(iv, 3) for iv in res.upper.intervals])
    stated = [
        Fraction(-83, 100),
        Fraction(-645, 1000),
        Fraction(-525, 1000),
        Fraction(-23, 100),
        Fraction(-155, 1000),
        Fraction(-37, 1000),
    ]
    for approx, (iv, k) in zip(stated, merged):
        while iv[1] - iv[0] > Fraction(1, 512):
            iv = refine_interval(q_poly(k), iv)
        if not (iv[0] - Fraction(1, 50) <= approx <= iv[1] + Fraction(1, 50)):
            failures.append(f"stated root {float(approx)} outside certified interval {iv}")
    _report(10, "interlacing certificates for 2<=k<=8 with k=2 root locations", failures, time.monotonic() - start, 600)

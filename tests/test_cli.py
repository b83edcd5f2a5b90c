"""Command-line interface: formats, exit codes, and the b-file cross-check."""
import contextlib
import csv
import hashlib
import http.client
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import urllib.request
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_impl import gamma_csv_by_csv_writer, table_csv_by_csv_writer, table_json_by_json_dumps

from lstirling import CheckResult, cli, codes, gamma, grammar, partitions, triangles
from lstirling.algebra import Poly
from lstirling.cli import CACHE_ENV, FETCH_TIMEOUT_S, TABLE_CAPS, BFileError, main, parse_bfile
from lstirling.partitions import LSPartition

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parents[1] / "src")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- table -----------------------------------------------------------------------


def test_table_csv_integer_family(capsys):
    rc, out, _ = run(capsys, "table", "--family", "ls", "--nmax", "4")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "value"]
    cells = {(int(n), int(k)): v for n, k, v in rows[1:]}
    assert cells[(4, 2)] == "52"
    assert cells[(0, 0)] == "1"
    assert len(cells) == 15


def test_table_csv_polynomial_family_uses_json_cells(capsys):
    rc, out, _ = run(capsys, "table", "--family", "js", "--nmax", "3")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    cells = {(int(n), int(k)): v for n, k, v in rows[1:]}
    assert json.loads(cells[(3, 2)]) == [5, 3]
    assert json.loads(cells[(3, 1)]) == [1, 2, 1]


def test_table_json_document(capsys):
    rc, out, _ = run(capsys, "table", "--family", "ls", "--nmax", "4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["family"] == "ls"
    assert doc["rows"][4] == [0, 8, 52, 20, 1]


def test_table_writes_to_file(capsys, tmp_path):
    target = tmp_path / "ls.csv"
    rc, out, _ = run(capsys, "table", "--family", "ls", "--nmax", "3", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert "3,2,8" in target.read_text()


@pytest.mark.parametrize(
    "argv",
    [["table", "--family", "ls", "--nmax", "3"], ["gamma", "--kmax", "3"], ["conjecture", "--kmax", "2"]],
    ids=["table", "gamma", "conjecture"],
)
def test_unwritable_output_is_an_io_error_naming_the_path_given(capsys, tmp_path, argv):
    # the file is written through a temporary one beside it, which the message does not name
    target = tmp_path / "no" / "x.csv"
    rc, _, err = run(capsys, *argv, "--out", str(target))
    assert rc == 3
    assert err == f"cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("family", sorted(TABLE_CAPS))
def test_table_csv_matches_csv_writer_at_the_cap(capsys, tmp_path, family):
    nmax = str(TABLE_CAPS[family])
    want = table_csv_by_csv_writer(family, TABLE_CAPS[family])
    rc, out, _ = run(capsys, "table", "--family", family, "--nmax", nmax)
    assert rc == 0
    assert out.encode() == want.encode()
    if family in ("js", "jc"):
        # one coefficient is a bare [c]; the zero polynomial is []
        assert "\r\n0,0,[1]\r\n" in out and "\r\n1,0,[]\r\n" in out
    target = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "table", "--family", family, "--nmax", nmax, "--out", str(target))
    assert (rc, out) == (0, "")
    assert target.read_bytes() == want.encode()
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("family", sorted(TABLE_CAPS))
@pytest.mark.parametrize("nmax", [0, 1, 7, "cap"])
def test_table_json_matches_one_json_dumps(capsys, tmp_path, family, nmax):
    nmax = TABLE_CAPS[family] if nmax == "cap" else nmax
    want = table_json_by_json_dumps(family, nmax).encode()
    argv = ["table", "--family", family, "--nmax", str(nmax), "--format", "json"]
    rc, out, _ = run(capsys, *argv)
    assert (rc, out.encode()) == (0, want)
    target = tmp_path / "table.json"
    rc, out, _ = run(capsys, *argv, "--out", str(target))
    assert (rc, out) == (0, "")
    assert target.read_bytes() == want
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("family", sorted(TABLE_CAPS))
def test_table_json_yields_one_triangle_row_per_chunk(family):
    rows, poly = getattr(triangles, f"{family}_triangle").rows(7), family in ("js", "jc")
    chunks = list(cli._table_json(rows, poly, 7, family))
    assert len(chunks) == 7 + 3
    assert chunks[0] == f'{{"family": "{family}", "nmax": 7, "rows": [' and chunks[-1] == "]}\n"
    doc = json.loads(table_json_by_json_dumps(family, 7))
    for n, chunk in enumerate(chunks[1:-1]):
        assert json.loads(chunk.removeprefix(", ")) == doc["rows"][n]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_streams_its_rows_past_the_cache(capsys, monkeypatch, fmt):
    fresh = triangles.Triangle(triangles.ls_triangle.step, tag="ls")
    monkeypatch.setattr(triangles, "ls_triangle", fresh)
    rc, out, _ = run(capsys, "table", "--family", "ls", "--nmax", "200", "--format", fmt)
    assert (rc, len(fresh._rows)) == (0, 1)
    # the oracle reads ls by value, which fills the cache
    want = table_csv_by_csv_writer if fmt == "csv" else table_json_by_json_dumps
    assert out == want("ls", 200)


def test_table_cap_exceeded(capsys):
    rc, _, err = run(capsys, "table", "--family", "js", "--nmax", "61")
    assert rc == 1
    assert "cap" in err


def test_table_negative_nmax_rejected(capsys):
    rc, _, _ = run(capsys, "table", "--family", "ls", "--nmax", "-1")
    assert rc == 1


# -- verify ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "suite,nmax",
    [("identities", "10"), ("bijection", "4"), ("grammar", "6"), ("zstat", "4")],
)
def test_verify_suites_pass(capsys, suite, nmax):
    rc, out, _ = run(capsys, "verify", suite, "--nmax", nmax)
    assert rc == 0
    assert "ok" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("nmax", ["0", "-2"])
@pytest.mark.parametrize("suite", ["identities", "bijection", "grammar", "zstat"])
def test_verify_rejects_an_empty_range(capsys, suite, nmax):
    rc, out, err = run(capsys, "verify", suite, "--nmax", nmax)
    assert rc == 1
    assert out == ""
    assert "nmax must be at least 1" in err


def test_verify_bijection_reports_an_invalid_image(capsys, monkeypatch):
    # every image has two copies of 1 in the zero box, which validate rejects
    bad = LSPartition(1, (), frozenset({(1, False), (1, True)}))
    walk = codes._walk
    monkeypatch.setattr(codes, "_walk", lambda n: ((code, bad) for code, _ in walk(n)))
    rc, out, _ = run(capsys, "verify", "bijection", "--nmax", "3")
    assert rc == 1
    fail = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail) == 3
    assert "n=1" in fail[0] and "counterexample: X: phi_inverse: invalid partition" in fail[0]


def test_verify_bijection_reports_a_count_that_disagrees_with_the_triangle(capsys, monkeypatch):
    # every code round-trips, but count_codes is one too large at n=3, k=2
    real = codes.count_codes
    monkeypatch.setattr(codes, "count_codes", lambda n, k: real(n, k) + ((n, k) == (3, 2)))
    rc, out, _ = run(capsys, "verify", "bijection", "--nmax", "3")
    assert rc == 1
    lines = re.sub(r" \d+\.\d+s", "", out).splitlines()
    assert lines[-3:] == [
        "ok   bijection.round_trip n=1",
        "ok   bijection.round_trip n=2",
        "FAIL bijection.round_trip n=3 counterexample: count at k=2 is 8, ls gives 8, count_codes gives 9",
    ]


@pytest.mark.parametrize(
    "code,detail",
    [
        # box 2 is used with one box open
        ((codes.X, ("A", 1, 2)), "X,A(1,2): invalid code (position 2: box index 2 exceeds the 1 boxes opened)"),
        # box 0 names no box (a replay would put the copy in the last box, as B(1))
        ((codes.X, ("B", 0)), "X,B(0): invalid code (position 2: box index 0 exceeds the 1 boxes opened)"),
    ],
)
def test_verify_bijection_reports_an_illegal_code(capsys, monkeypatch, code, detail):
    # the sweep trusts the walk's codes; an illegal one, even with a valid
    # image, must fail by name, not raise
    image = codes.phi((codes.X, codes.B(1)))
    monkeypatch.setattr(codes, "_walk", lambda n: iter([(code, image)]))
    rc, out, _ = run(capsys, "verify", "bijection", "--nmax", "2")
    assert rc == 1
    fail = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail) == 2
    assert fail[0].endswith(f"counterexample: {detail}")


@pytest.mark.parametrize(
    "suite,digest",
    [
        ("bijection", "8b7593d7662eb8e017eb090d5615d8c83871a3b6b5c82c78350e9dd005f4f334"),
        ("zstat", "1a4c912bab83598acc201e61547f781244347e5afc0dece69f7aaff2215f521d"),
    ],
)
def test_verify_sweep_output_is_stable(capsys, suite, digest):
    # the per-n object counts and verdict lines, with the timings stripped
    rc, out, _ = run(capsys, "verify", suite, "--nmax", "6")
    assert rc == 0
    stripped = re.sub(r" \d+\.\d+s$", "", out, flags=re.M)
    assert hashlib.sha256(stripped.encode()).hexdigest() == digest


def test_verify_zstat_reports_the_first_disagreeing_polynomial(capsys, monkeypatch):
    real = partitions.js_brute
    monkeypatch.setattr(partitions, "js_brute", lambda n, k: real(n, k) + ((n, k) == (3, 2)))
    rc, out, _ = run(capsys, "verify", "zstat", "--nmax", "4")
    assert rc == 1
    assert re.sub(r" \d+\.\d+s", "", out) == (
        "FAIL zstat.brute_vs_triangle nmax=4 counterexample: js_brute(3,2) != js(3,2)\n"
    )


def test_verify_grammar_reports_the_first_wrong_power(capsys, monkeypatch, off_by_one):
    monkeypatch.setattr(grammar, "js_triangle", off_by_one(grammar.js_triangle, (5, 2)))
    rc, out, _ = run(capsys, "verify", "grammar", "--nmax", "8")
    assert rc == 1
    lines = re.sub(r" \d+\.\d+s", "", out).splitlines()
    assert lines == [
        "ok   grammar.stirling2 nmax=8",
        "ok   grammar.stirling1 nmax=8",
        "FAIL grammar.js nmax=8 counterexample: n=5: D^n(a_0) = a_5 b^10 c^5 + (30+10z) a_4 b^6 c^4"
        " + (147+120z+25z^2) a_3 b^3 c^3 + (85+141z+79z^2+15z^3) a_2 b c^2 + (1+4z+6z^2+4z^3+z^4) a_1 c",
        "ok   grammar.jc nmax=8",
    ]


def _off_by_one_at(monkeypatch, off_by_one, at, *names):
    # a triangle is spoiled in its row step, which its value and its rows share
    for name in names:
        if name in TABLE_CAPS:
            triangle = f"{name}_triangle"
            monkeypatch.setattr(triangles, triangle, off_by_one(getattr(triangles, triangle), at))
            continue
        real = getattr(triangles, name)
        monkeypatch.setattr(
            triangles, name, lambda n, k, *rest, real=real: real(n, k, *rest) + (1 if (n, k) == at else 0)
        )


@pytest.mark.parametrize(
    "names,at,lines",
    [
        (
            ("ls",),
            (5, 2),
            [
                "FAIL identities.four_way nmax=8 counterexample: ls_explicit(5,2) != 321",
                "FAIL identities.horizontal_ls nmax=8 counterexample: n=5: difference -2x+x^2",
                "ok   identities.bivariate nmax=8",
                "FAIL identities.z_equals_1 nmax=8 counterexample: js(5,2) at z=1 != ls(5,2)",
            ],
        ),
        (
            ("js",),
            (5, 2),
            [
                "ok   identities.four_way nmax=8",
                "ok   identities.horizontal_ls nmax=8",
                "FAIL identities.bivariate nmax=8 counterexample: n=5: difference (-1-z)x+(1)x^2",
                "FAIL identities.z_equals_1 nmax=8 counterexample: js(5,2) at z=1 != ls(5,2)",
            ],
        ),
        (
            ("jc",),
            (5, 2),
            [
                "ok   identities.four_way nmax=8",
                "ok   identities.horizontal_ls nmax=8",
                "FAIL identities.bivariate nmax=8 counterexample: n=5: difference (-1)x^2",
                "FAIL identities.z_equals_1 nmax=8 counterexample: jc(5,2) at z=1 != lc(5,2)",
            ],
        ),
        (
            # the other routes agree with the wrong value, so only the
            # generating function of column 3 tells it from the truth; the
            # explicit sum is spoiled in the formula its row sweep shares
            ("ls", "_explicit", "ls_vertical"),
            (8, 3),
            [
                "FAIL identities.four_way nmax=8 counterexample: k=3: coefficient of x^5 is 585536,"
                " triangle gives 585537",
                "FAIL identities.horizontal_ls nmax=8 counterexample: n=8: difference 12x-8x^2+x^3",
                "ok   identities.bivariate nmax=8",
                "FAIL identities.z_equals_1 nmax=8 counterexample: js(8,3) at z=1 != ls(8,3)",
            ],
        ),
        (
            # the vertical recurrence alone is wrong, and the explicit sum agrees with the triangle
            ("ls_vertical",),
            (5, 2),
            [
                "FAIL identities.four_way nmax=8 counterexample: ls_vertical(5,2) != 320",
                "ok   identities.horizontal_ls nmax=8",
                "ok   identities.bivariate nmax=8",
                "ok   identities.z_equals_1 nmax=8",
            ],
        ),
    ],
)
def test_verify_identities_reports_the_first_wrong_index(capsys, monkeypatch, off_by_one, names, at, lines):
    _off_by_one_at(monkeypatch, off_by_one, at, *names)
    rc, out, _ = run(capsys, "verify", "identities", "--nmax", "8")
    assert rc == 1
    assert re.sub(r" \d+\.\d+s", "", out).splitlines() == lines


def test_verify_identities_sweeps_the_explicit_sum_by_rows(capsys, monkeypatch):
    monkeypatch.setattr(triangles, "ls_explicit", lambda n, k: pytest.fail("ls_explicit was called"))
    rc, out, _ = run(capsys, "verify", "identities", "--nmax", "40")
    assert rc == 0
    assert re.search(r"^ok   identities\.four_way nmax=40 ", out, flags=re.M)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "identities", "--nmax", "1000000"], "verify identities: nmax capped at 200"),
        (["verify", "identities", "--nmax", "201"], "verify identities: nmax capped at 200"),
        (["gamma", "--kmax", "1", "--nmax", "1000000"], "gamma: nmax + kmax capped at 200"),
        (["gamma", "--kmax", "20", "--nmax", "181"], "gamma: nmax + kmax capped at 200"),
    ],
)
def test_a_triangle_row_past_the_ls_cap_is_rejected_before_any_fill(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(triangles.Triangle, "value", lambda *a: pytest.fail("a triangle was filled"))
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("nmax", ["61", "1000000"])
def test_verify_grammar_is_capped_at_the_js_jc_table_cap_before_any_derivation(capsys, monkeypatch, nmax):
    # the js and jc sweeps would fill those triangles to row nmax
    monkeypatch.setattr(grammar, "derive", lambda *a: pytest.fail("a power was derived"))
    rc, out, err = run(capsys, "verify", "grammar", "--nmax", nmax)
    assert rc == 1
    assert out == ""
    assert "verify grammar: nmax capped at 60" in err


def test_z_equals_1_stops_at_the_js_jc_table_cap(capsys, monkeypatch):
    # fresh triangles, so that rows filled by other tests do not count
    for name in ("js_triangle", "jc_triangle"):
        old = getattr(triangles, name)
        monkeypatch.setattr(triangles, name, triangles.Triangle(old.step, old.one, old.zero, old.tag))
    streamed = []
    real = triangles.Triangle.rows
    monkeypatch.setattr(triangles.Triangle, "rows", lambda t, nmax: streamed.append((t.tag, nmax)) or real(t, nmax))
    rc, out, _ = run(capsys, "verify", "identities", "--nmax", "61")
    assert rc == 0
    assert re.search(r"^ok   identities\.z_equals_1 nmax=60 ", out, flags=re.M)
    assert streamed == [("js", 60), ("ls", 60), ("jc", 60), ("lc", 60)]
    # z_equals_1 streams its rows: js and jc are cached only to the bivariate sweep's row 15
    assert len(triangles.js_triangle._rows) == len(triangles.jc_triangle._rows) == 16


def test_verify_reports_name_each_check(capsys):
    rc, out, _ = run(capsys, "verify", "identities", "--nmax", "6")
    assert rc == 0
    assert "four_way" in out
    assert "horizontal" in out


# -- gamma -------------------------------------------------------------------------


def test_gamma_csv_rows_and_summary(capsys):
    rc, out, _ = run(capsys, "gamma", "--kmax", "4", "--nmax", "8")
    assert rc == 0
    assert "closed_forms_ok=True" in out
    rows = {int(r[0]): r for r in csv.reader(io.StringIO(out.split("closed_forms_ok")[0])) if r and r[0].isdigit()}
    assert json.loads(rows[2][2]) == [1, 8, 10]
    assert int(rows[2][1]) == 4  # lowest binomial index of the row


def test_gamma_csv_matches_csv_writer(capsys, tmp_path):
    summary = "closed_forms_ok=True ode_rows_ok=True expansion_ok=True\n"
    for kmax in range(1, 21):
        rc, out, _ = run(capsys, "gamma", "--kmax", str(kmax))
        assert rc == 0
        assert out.encode() == (gamma_csv_by_csv_writer(kmax) + summary).encode()
    target = tmp_path / "gamma.csv"
    rc, out, _ = run(capsys, "gamma", "--kmax", "20", "--out", str(target))
    assert (rc, out) == (0, summary)
    assert target.read_bytes() == gamma_csv_by_csv_writer(20).encode()
    assert list(tmp_path.iterdir()) == [target]


def test_gamma_json_flags(capsys):
    rc, out, _ = run(capsys, "gamma", "--kmax", "5", "--nmax", "8", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["closed_forms_ok"] and doc["ode_rows_ok"] and doc["expansion_ok"]
    assert doc["rows"][3]["coeffs"] == [1, 34, 219, 448, 280]
    assert doc["rows"][3]["offset"] == 5


def test_gamma_kmax_cap(capsys):
    rc, _, err = run(capsys, "gamma", "--kmax", "21")
    assert rc == 1
    assert "kmax" in err


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_gamma_rejects_a_kmax_with_no_expansion_check(capsys, kmax):
    rc, out, err = run(capsys, "gamma", "--kmax", kmax)
    assert rc == 1
    assert out == ""
    assert "kmax must be in 1..20" in err


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_gamma_rejects_an_empty_expansion_range(capsys, nmax):
    rc, out, err = run(capsys, "gamma", "--kmax", "4", "--nmax", nmax)
    assert rc == 1
    assert out == ""
    assert "nmax" in err


def test_gamma_checks_the_ode_route_for_every_k_it_reports(capsys, monkeypatch):
    # the step from gamma_14 spoils gamma_15 and every row after it
    real = gamma.gamma_ode_step
    monkeypatch.setattr(gamma, "gamma_ode_step", lambda p, m: real(p, m) + Poly((1 if m == 14 else 0,)))
    rc, out, _ = run(capsys, "gamma", "--kmax", "20")
    assert rc == 1
    assert "ode_rows_ok=False" in out


def test_gamma_takes_one_ode_step_per_k(capsys, monkeypatch):
    steps = []
    real = gamma.gamma_ode_step
    monkeypatch.setattr(gamma, "gamma_ode_step", lambda p, m: steps.append(m) or real(p, m))
    rc, out, _ = run(capsys, "gamma", "--kmax", "20")
    assert rc == 0
    assert "ode_rows_ok=True" in out
    assert steps == list(range(20))


def test_gamma_checks_the_expansion_for_every_k_it_reports(capsys, monkeypatch):
    real = gamma.ls_binomial_expansion
    monkeypatch.setattr(gamma, "ls_binomial_expansion", lambda n, k: real(n, k) + (1 if k in (12, 15) else 0))
    rc, out, err = run(capsys, "gamma", "--kmax", "20", "--nmax", "3")
    assert rc == 1
    assert "expansion_ok=False" in out
    # the first failing k is reported, not a later one
    assert "n=1, k=12" in err
    assert "k=15" not in err


# -- conjecture ----------------------------------------------------------------------


def test_conjecture_emits_one_json_document_per_k(capsys):
    rc, out, _ = run(capsys, "conjecture", "--kmax", "3")
    assert rc == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["k"] for d in docs] == [1, 2, 3]
    assert docs[0]["verdict"] == "vacuous"
    assert all(d["verdict"] in ("true", "vacuous") for d in docs)
    assert docs[1]["pattern"] == "s r s s r s"


def test_conjecture_kmax_cap(capsys):
    rc, out, err = run(capsys, "conjecture", "--kmax", "17")
    assert rc == 1
    assert out == ""
    assert "kmax must be in 1..16" in err


def test_conjecture_certificates_are_byte_stable(capsys):
    rc, out, _ = run(capsys, "conjecture", "--kmax", "10")
    assert rc == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "046cc4b185826932cead46111cfc1abee3403176a3d0b180f6cf582cb5391f35"


@pytest.fixture(scope="module")
def certs16():
    """The JSON lines of `conjecture --kmax 16`, one per k."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["conjecture", "--kmax", "16"]) == 0
    return buf.getvalue().splitlines()


def check_certs(capsys, tmp_path, lines):
    target = tmp_path / "certs.jsonl"
    target.write_text("".join(line + "\n" for line in lines))
    return run(capsys, "check-certs", str(target))


def test_check_certs_accepts_the_conjecture_output(capsys, tmp_path, certs16):
    rc, out, err = check_certs(capsys, tmp_path, certs16)
    assert (rc, err) == (0, "")
    assert out.startswith("ok   ") and "k = 1..16 are valid" in out
    rc, out, _ = check_certs(capsys, tmp_path, certs16[:3])
    assert rc == 0 and "k = 1..3 are valid" in out


def _tampered(lines, k, change):
    doc = json.loads(lines[k - 1])
    change(doc)
    return lines[: k - 1] + [json.dumps(doc)] + lines[k:]


def _shift(doc):
    # the same width, moved past the root it isolated
    (a, b), (c, d) = doc["lower"]["intervals"][0]
    lo, hi = Fraction(a, b), Fraction(c, d)
    new_hi = 2 * hi - lo
    doc["lower"]["intervals"][0] = [[c, d], [new_hi.numerator, new_hi.denominator]]


def _swap_tags(doc):
    tags = doc["pattern"].split()
    tags[0], tags[1] = tags[1], tags[0]
    doc["pattern"] = doc["expected_pattern"] = " ".join(tags)


def _drop(doc):
    doc["upper"]["intervals"].pop()


def _overlap(doc):
    # the first interval of q_{k+1} reaches into the first one of q_k
    doc["upper"]["intervals"][0][1] = doc["lower"]["intervals"][0][1]


def _degree(doc):
    doc["lower"]["degree"] += 2
    doc["lower"]["intervals"] += doc["lower"]["intervals"][-1:] * 2


@pytest.mark.parametrize(
    "change, message",
    [
        (_shift, "no strict sign change"),
        (_swap_tags, "re-derived"),
        (_drop, "intervals for degree"),
        (_overlap, "overlap"),
        (_degree, "has degree"),
        (lambda doc: doc.update(verdict="inconclusive"), "verdict"),
        (lambda doc: doc["upper"].update(all_real=False), "not stated square-free"),
        (lambda doc: doc.update(k=4), "certificate 5 is stated for k=4"),
        (lambda doc: doc["lower"]["intervals"].reverse(), "overlap"),
    ],
)
def test_check_certs_rejects_a_tampered_certificate(capsys, tmp_path, certs16, change, message):
    rc, out, _ = check_certs(capsys, tmp_path, _tampered(certs16, 5, change))
    assert rc == 1
    assert out.startswith("FAIL ") and "line 5" in out and message in out


def test_check_certs_re_derives_the_order_from_the_intervals(capsys, tmp_path, certs16, monkeypatch):
    # a stated pattern that agrees with the conjecture is not taken on trust:
    # with the conjecture for k = 2 read as s s r r s s, a certificate that
    # states it fails, because its intervals merge as s r s s r s
    from lstirling import certcheck

    real = certcheck.expected_pattern
    monkeypatch.setattr(certcheck, "expected_pattern", lambda k: "s s r r s s" if k == 2 else real(k))

    def restate(doc):
        doc["pattern"] = doc["expected_pattern"] = "s s r r s s"

    rc, out, _ = check_certs(capsys, tmp_path, _tampered(certs16[:3], 2, restate))
    assert rc == 1 and "line 2" in out and "re-derived 's r s s r s'" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "holds no certificate"),
        ('{"k": 1', "not JSON"),
        ("[1, 2]", "expected a JSON object"),
        ('{"k": true}', "'k' must be a JSON int"),
        ('{"k": 17}', "outside 1..16"),
        ("[" * 100_000, "not JSON"),
    ],
)
def test_check_certs_malformed_input_exits_3(capsys, tmp_path, text, message):
    target = tmp_path / "certs.jsonl"
    target.write_text(text)
    rc, out, err = run(capsys, "check-certs", str(target))
    assert (rc, out) == (3, "")
    assert message in err


def test_check_certs_malformed_certificate_fields_exit_3(capsys, tmp_path, certs16):
    for change in (
        lambda doc: doc.pop("upper"),
        lambda doc: doc["lower"].update(intervals=[[[1, 0], [1, 1]]] * 2),
        lambda doc: doc["lower"].update(intervals=[[1, 2]] * 2),
        lambda doc: doc["lower"].update(degree="2"),
        lambda doc: doc["upper"].update(square_free=False, all_real="yes"),
    ):
        rc, out, err = check_certs(capsys, tmp_path, _tampered(certs16, 2, change))
        assert (rc, out) == (3, "") and "line 2" in err


def test_check_certs_unreadable_file_exits_3(capsys, tmp_path):
    rc, _, err = run(capsys, "check-certs", str(tmp_path / "missing.jsonl"))
    assert rc == 3 and "cannot read" in err
    target = tmp_path / "latin1.jsonl"
    target.write_bytes(b"\xff\n")
    rc, _, err = run(capsys, "check-certs", str(target))
    assert rc == 3 and "cannot read" in err


def test_conjecture_out_of_budget_exits_2_and_its_output_is_no_proof(capsys, monkeypatch, tmp_path):
    from lstirling import realroots

    monkeypatch.setattr(realroots, "REFINE_CAP", 0)
    rc, out, _ = run(capsys, "conjecture", "--kmax", "3")
    assert rc == 2
    assert [json.loads(line)["verdict"] for line in out.splitlines()] == ["vacuous", "inconclusive", "inconclusive"]
    rc, out, _ = check_certs(capsys, tmp_path, out.splitlines())
    assert rc == 1 and "line 2: verdict 'inconclusive'" in out


def test_conjecture_writes_file(capsys, tmp_path):
    target = tmp_path / "certs.jsonl"
    rc, _, _ = run(capsys, "conjecture", "--kmax", "2", "--out", str(target))
    assert rc == 0
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--family", "ls", "--nmax", "20"],
        ["gamma", "--kmax", "5"],
        ["conjecture", "--kmax", "3"],
    ],
)
def test_out_write_failing_part_way_leaves_no_file(capsys, monkeypatch, tmp_path, argv):
    class FailsAfterFirstChunk:
        def __init__(self, fh):
            self.fh, self.chunks = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            if self.chunks:
                raise OSError("no space left on device")
            self.chunks += 1
            return self.fh.write(chunk)

    monkeypatch.setattr(cli, "open", lambda *a, **kw: FailsAfterFirstChunk(open(*a, **kw)), raising=False)
    target = tmp_path / "out.txt"
    rc, _, err = run(capsys, *argv, "--out", str(target))
    assert rc == 3
    assert "no space left" in err
    assert list(tmp_path.iterdir()) == []


def test_out_writes_through_a_symlink_without_replacing_it(capsys, tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    rc, out, _ = run(capsys, "table", "--family", "ls", "--nmax", "3", "--out", str(link))
    assert (rc, out) == (0, "")
    assert link.is_symlink()
    assert real.read_bytes() == table_csv_by_csv_writer("ls", 3).encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_out_writes_into_a_fifo_without_replacing_it(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    # a FIFO opened for writing blocks until a reader opens it
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        rc, out, _ = run(capsys, "table", "--family", "lc", "--nmax", "4", "--out", str(fifo))
    finally:
        reader.join(timeout=30)
    assert (rc, out) == (0, "")
    assert got == [table_csv_by_csv_writer("lc", 4).encode()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_out_overwrites_a_file_in_place_when_its_directory_takes_no_new_files(capsys, monkeypatch, tmp_path):
    target = tmp_path / "table.csv"
    target.write_text("old\n")
    inode = target.stat().st_ino
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: False if Path(path) == tmp_path else real_access(path, mode))
    rc, _, _ = run(capsys, "table", "--family", "ls", "--nmax", "3", "--out", str(target))
    assert rc == 0
    assert target.stat().st_ino == inode
    assert target.read_bytes() == table_csv_by_csv_writer("ls", 3).encode()
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize(
    "argv, lines",
    [
        # megabytes of rows: the pipe fills, and the next write fails mid-table
        (["table", "--family", "ls", "--nmax", "200"], 1),
        # a few report lines, which fail at their first write or at the last flush
        (["verify", "bijection", "--nmax", "4"], 0),
    ],
    ids=["table", "verify"],
)
def test_a_closed_stdout_ends_the_command_quietly_with_the_io_exit_code(argv, lines):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "lstirling.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 3, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_plain_records_compare_and_print_as_dataclasses_did():
    assert CheckResult(True) == CheckResult(True, None) != CheckResult(False)
    assert CheckResult(False, "why") == CheckResult(False, "why") != CheckResult(True)
    assert repr(CheckResult(False, "why")) == "CheckResult(ok=False, detail='why')"


# -- b-file parsing -------------------------------------------------------------------


def test_parse_bfile_skips_comments_and_reads_pairs():
    assert parse_bfile("# header\n1 1\n2 10\n\n3 280\n") == [(1, 1), (2, 10), (3, 280)]


@pytest.mark.parametrize(
    "text, entries",
    [
        pytest.param("", [], id="empty"),
        pytest.param("# A000001\n#\n\n", [], id="comments-only"),
        pytest.param("1 5 # note\n2 6#\n", [(1, 5), (2, 6)], id="trailing-comments"),
        pytest.param("0 -3\n1 4\n", [(0, -3), (1, 4)], id="signed-values"),
        pytest.param("1 1\r\n2 2\r\n", [(1, 1), (2, 2)], id="crlf"),
    ],
)
def test_parse_bfile_returns_the_index_value_pairs(text, entries):
    got = parse_bfile(text)
    assert got == entries
    assert all(type(i) is int and type(v) is int for i, v in got)


def test_parse_bfile_rejects_malformed_lines_with_line_number():
    with pytest.raises(BFileError) as exc:
        parse_bfile("1 1\nnot a pair\n")
    assert exc.value.line_no == 2


def test_parse_bfile_rejects_nonincreasing_indices():
    with pytest.raises(BFileError):
        parse_bfile("2 10\n1 1\n")


@given(st.one_of(st.text(), st.text(alphabet="0123456789 -+_#\n\r\t\u0661\x0b\x1cx", max_size=60)))
def test_parse_bfile_returns_or_raises_bfile_error_only(text):
    try:
        entries = parse_bfile(text)
    except BFileError:
        return
    assert isinstance(entries, list)
    assert all(a < b for (a, _), (b, _) in zip(entries, entries[1:]))


# -- oeis cross-check ------------------------------------------------------------------


def test_oeis_fixture_match(capsys):
    rc, out, _ = run(
        capsys, "oeis", "A025035", "--source", str(FIXTURES / "b025035.txt"), "--count", "12"
    )
    assert rc == 0
    assert "match" in out

    rc, out, _ = run(
        capsys, "oeis", "A006472", "--source", str(FIXTURES / "b006472.txt"), "--count", "13"
    )
    assert rc == 0


def test_oeis_unknown_sequence(capsys):
    rc, _, err = run(capsys, "oeis", "A000001", "--source", str(FIXTURES / "b025035.txt"))
    assert rc == 3
    assert "A000001" in err


def test_oeis_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "oeis", "A025035", "--source", str(tmp_path / "none.txt"))
    assert rc == 3


def test_oeis_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\nhello world again\n")
    rc, _, err = run(capsys, "oeis", "A025035", "--source", str(bad))
    assert rc == 3
    assert "line 2" in err


def test_oeis_file_that_is_not_utf8_is_an_io_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 1\n2 \xff\n")
    rc, _, err = run(capsys, "oeis", "A025035", "--source", str(bad))
    assert rc == 3
    assert "cannot read b-file" in err


def test_oeis_mismatch_reports_first_differing_index(capsys, tmp_path):
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("1 1\n2 10\n3 281\n4 15400\n")
    rc, out, _ = run(capsys, "oeis", "A025035", "--source", str(wrong), "--count", "4")
    assert rc == 1
    assert "index 3" in out


def test_oeis_count_beyond_file_is_an_io_error(capsys):
    rc, _, err = run(
        capsys, "oeis", "A025035", "--source", str(FIXTURES / "b025035.txt"), "--count", "99"
    )
    assert rc == 3


# -- oeis fetch, offline: urlopen is replaced in every test below ------------------------

FIXTURE_URL = "https://oeis.org/A025035/b025035.txt"


@pytest.fixture
def cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("count", ["0", "-3"])
def test_oeis_rejects_a_nonpositive_count_before_any_fetch(capsys, monkeypatch, cache_dir, count):
    def no_fetch(url, timeout=None):
        pytest.fail(f"fetched {url} for a count that is rejected anyway")

    monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
    rc, out, err = run(capsys, "oeis", "A025035", "--count", count)
    assert rc == 1 and out == ""
    assert "count must be positive" in err
    assert list(cache_dir.iterdir()) == []


def test_oeis_fetch_passes_a_timeout_and_caches_the_file(capsys, monkeypatch, cache_dir):
    body = (FIXTURES / "b025035.txt").read_bytes()
    calls = []

    def fake_urlopen(url, timeout=None):
        calls.append((url, timeout))
        return io.BytesIO(body)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    rc, out, _ = run(capsys, "oeis", "A025035", "--count", "12")
    assert rc == 0
    assert "match" in out
    assert calls == [(FIXTURE_URL, FETCH_TIMEOUT_S)]
    name = hashlib.sha256(FIXTURE_URL.encode()).hexdigest()[:16] + "-b025035.txt"
    assert [p.name for p in cache_dir.iterdir()] == [name]
    assert (cache_dir / name).read_bytes() == body
    # a second run reads the cache and does not fetch again
    rc, _, _ = run(capsys, "oeis", "A025035", "--count", "12")
    assert rc == 0
    assert len(calls) == 1


def test_oeis_cache_keeps_apart_two_urls_with_one_basename(capsys, monkeypatch, cache_dir):
    # a mirror serving another file under the same b-file name must not be
    # answered from the first URL's cache entry, nor overwrite it
    mirror = "https://mirror.example/A025035/b025035.txt"
    bodies = {FIXTURE_URL: (FIXTURES / "b025035.txt").read_bytes(), mirror: b"1 1\n2 11\n"}
    calls = []

    def fake_urlopen(url, timeout=None):
        calls.append(url)
        return io.BytesIO(bodies[url])

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    rc, _, _ = run(capsys, "oeis", "A025035", "--count", "2")
    assert rc == 0
    rc, out, _ = run(capsys, "oeis", "A025035", "--source", mirror, "--count", "2")
    assert rc == 1 and out.startswith("FAIL A025035 index 2: b-file 11")
    assert calls == [FIXTURE_URL, mirror]
    assert sorted(p.read_bytes() for p in cache_dir.iterdir()) == sorted(bodies.values())
    # each URL is answered from its own entry
    rc, _, _ = run(capsys, "oeis", "A025035", "--count", "2")
    assert rc == 0 and len(calls) == 2


@pytest.mark.parametrize(
    "failure", [http.client.IncompleteRead(b"1 1\n2 10\n"), ConnectionResetError("connection reset")]
)
def test_oeis_fetch_failing_part_way_exits_3_and_caches_nothing(capsys, monkeypatch, cache_dir, failure):
    class Broken(io.BytesIO):
        def read(self, *args):
            raise failure

    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout=None: Broken())
    rc, _, err = run(capsys, "oeis", "A025035")
    assert rc == 3
    assert "cannot read b-file" in err
    assert list(cache_dir.iterdir()) == []


def test_oeis_cache_write_failing_part_way_leaves_no_cache_file(capsys, monkeypatch, cache_dir):
    body = (FIXTURES / "b025035.txt").read_bytes()
    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout=None: io.BytesIO(body))
    real_write = Path.write_text

    def half_write(self, text, *args, **kwargs):
        real_write(self, text[: len(text) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", half_write)
    rc, _, err = run(capsys, "oeis", "A025035")
    assert rc == 3
    assert "no space left" in err
    assert list(cache_dir.iterdir()) == []


def test_oeis_fetched_file_that_is_not_utf8_exits_3_and_caches_nothing(capsys, monkeypatch, cache_dir):
    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout=None: io.BytesIO(b"1 1\n2 \xff\n"))
    rc, _, err = run(capsys, "oeis", "A025035")
    assert rc == 3
    assert "cannot read b-file" in err
    assert list(cache_dir.iterdir()) == []

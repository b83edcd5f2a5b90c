"""Command-line interface: formats, exit codes, and the b-file cross-check."""
import csv
import hashlib
import http.client
import io
import json
import re
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lstirling import codes, gamma
from lstirling.algebra import Poly
from lstirling.cli import CACHE_ENV, FETCH_TIMEOUT_S, BFile, BFileError, main, parse_bfile
from lstirling.partitions import LSPartition

FIXTURES = Path(__file__).parent / "fixtures"


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


def test_table_unwritable_output_is_an_io_error(capsys, tmp_path):
    rc, _, err = run(
        capsys, "table", "--family", "ls", "--nmax", "3", "--out", str(tmp_path / "no" / "x.csv")
    )
    assert rc == 3
    assert "cannot write" in err


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
    monkeypatch.setattr(codes, "phi", lambda code: bad)
    rc, out, _ = run(capsys, "verify", "bijection", "--nmax", "3")
    assert rc == 1
    fail = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail) == 3
    assert "n=1" in fail[0] and "counterexample: X: phi_inverse: invalid partition" in fail[0]


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
    real = gamma.gamma_poly_via_ode
    monkeypatch.setattr(gamma, "gamma_poly_via_ode", lambda k: real(k) + Poly((1 if k == 15 else 0,)))
    rc, out, _ = run(capsys, "gamma", "--kmax", "20")
    assert rc == 1
    assert "ode_rows_ok=False" in out


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
    assert digest == "971a494a3e0bbd647f2a72bf26df87483d23cf163d1740edc7c48e7f3f0ec329"


def test_conjecture_writes_file(capsys, tmp_path):
    target = tmp_path / "certs.jsonl"
    rc, _, _ = run(capsys, "conjecture", "--kmax", "2", "--out", str(target))
    assert rc == 0
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 2


# -- b-file parsing -------------------------------------------------------------------


def test_parse_bfile_skips_comments_and_reads_pairs():
    bf = parse_bfile("# header\n1 1\n2 10\n\n3 280\n")
    assert bf.entries == [(1, 1), (2, 10), (3, 280)]


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
        bf = parse_bfile(text)
    except BFileError:
        return
    assert isinstance(bf, BFile)
    assert all(a < b for (a, _), (b, _) in zip(bf.entries, bf.entries[1:]))


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
    assert [p.name for p in cache_dir.iterdir()] == ["b025035.txt"]
    assert (cache_dir / "b025035.txt").read_bytes() == body
    # a second run reads the cache and does not fetch again
    rc, _, _ = run(capsys, "oeis", "A025035", "--count", "12")
    assert rc == 0
    assert len(calls) == 1


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

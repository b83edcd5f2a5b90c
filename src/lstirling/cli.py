"""Command-line interface: tables, verification sweeps, gamma reports,
conjecture certificates and their independent re-check, and OEIS b-file
cross-checks.

Exit codes: 0 all checks pass, 1 mismatch, 2 inconclusive, 3 I/O or data
error.  Table and report payloads go to stdout or --out; verification report
lines go to stdout, one per check.

Each command imports the layers it uses when it runs, so a cold run compiles
and loads only those.
"""
from __future__ import annotations

import argparse
import os
import re
import stat
import sys
import time
from pathlib import Path

from . import CheckResult

TABLE_CAPS = {"ls": 200, "lc": 200, "js": 60, "jc": 60}
GAMMA_KMAX_CAP = 20
CONJECTURE_KMAX_CAP = 16
VERIFY_DEFAULT_NMAX = {"identities": 20, "bijection": 5, "grammar": 8, "zstat": 6}
CACHE_ENV = "LSTIRLING_CACHE_DIR"
FETCH_TIMEOUT_S = 30


def _run_check(name: str, bounds: str, results) -> tuple:
    """(ok, report line) for the first failed CheckResult of results, iterated up to it and timed."""
    start = time.perf_counter()
    first = next((r for r in results if not r), CheckResult(True))
    tail = f" counterexample: {first.detail}" if first.detail else ""
    return first.ok, f"{'ok  ' if first.ok else 'FAIL'} {name} {bounds} {time.perf_counter() - start:.2f}s{tail}"


class BFileError(Exception):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


def parse_bfile(text: str) -> list:
    """Parse OEIS b-file lines 'index value' into (index, value) pairs; '#' starts a comment."""
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(line_no, f"expected 'index value', got {raw!r}")
        # ASCII digits only: int() alone would also take "1_0", "+5" and non-ASCII digits
        if not all(re.fullmatch(r"-?[0-9]+", part) for part in parts):
            raise BFileError(line_no, f"non-integer field in {raw!r}")
        idx, val = map(int, parts)
        if entries and idx <= entries[-1][0]:
            raise BFileError(line_no, "indices must be strictly increasing")
        entries.append((idx, val))
    return entries


OEIS_SEQUENCES = {
    # b-file index -> k shift, and the exact value each entry must equal,
    # computed from the gamma module
    "A025035": {"shift": 0, "describe": "gamma(k,3k)", "value": lambda gamma, k: gamma.gamma_coeff(k, 3 * k)},
    "A006472": {
        "shift": -1,
        "describe": "|gamma_k(-1)|",
        "value": lambda gamma, k: abs(gamma.gamma_poly(k).eval(-1)),
    },
}


def _fail(msg: str, code: int) -> int:
    print(msg, file=sys.stderr)
    return code


def _write_atomic(path: Path, write) -> None:
    """Have write(p) write the file p whose contents end up at path.

    A new file, or a regular one in a directory that takes new files, is
    replaced whole: write fills <path>.<pid>.tmp beside it, renamed onto path
    only after write returns, so a failure part-way leaves neither a
    truncated path nor the temporary file behind.  Anything else, such as a
    symlink, a device like /dev/null or a FIFO, is written through in place
    and never replaced.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        replace = True
    else:
        replace = stat.S_ISREG(mode) and os.access(path.parent, os.W_OK | os.X_OK)
    if not replace:
        write(path)
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _emit(chunks, out: str | None) -> int:
    """Write the text chunks, in order, to stdout or, by _write_atomic, to out."""
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return 0

    def write(path):
        with open(path, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)

    try:
        _write_atomic(Path(out), write)
    except OSError as err:
        # the error may name the temporary file; report the path given
        return _fail(f"cannot write {out}: {err.strerror or err}", 3)
    return 0


def _json_list(values) -> str:
    """A JSON array of ints or of JSON texts, spaced as json.dumps spaces it."""
    return f"[{', '.join(map(str, values))}]"


def _csv_list(values) -> str:
    """A CSV field holding a list of ints as compact JSON.

    csv.writer's default dialect quotes a field exactly when it holds a
    comma, and for these lists that is when they have two or more entries.
    """
    text = ",".join(map(str, values))
    return f'"[{text}]"' if len(values) > 1 else f"[{text}]"


# -- table ---------------------------------------------------------------


def _table_csv(rows, poly: bool):
    """Yield the CSV lines n,k,value, one triangle row per chunk."""
    yield "n,k,value\r\n"
    for n, row in enumerate(rows):
        if poly:
            yield "".join(f"{n},{k},{_csv_list(c.coeffs)}\r\n" for k, c in enumerate(row))
        else:
            yield "".join(f"{n},{k},{c}\r\n" for k, c in enumerate(row))


def _table_json(rows, poly: bool, nmax: int, family: str):
    """Yield json.dumps({"family", "nmax", "rows"}) + "\n", one triangle row per chunk."""
    # family is a TABLE_CAPS key, so it needs no escaping
    yield f'{{"family": "{family}", "nmax": {nmax}, "rows": ['
    for n, row in enumerate(rows):
        cells = (_json_list(c.coeffs) for c in row) if poly else row
        yield (", " if n else "") + _json_list(cells)
    yield "]}\n"


def cmd_table(args) -> int:
    cap = TABLE_CAPS[args.family]
    if args.nmax < 0:
        return _fail("table: nmax must be nonnegative", 1)
    if args.nmax > cap:
        return _fail(f"table: nmax {args.nmax} exceeds the {args.family} cap {cap}", 1)
    from . import triangles

    # streamed: the table holds two rows of its triangle, not the whole of it
    rows = getattr(triangles, f"{args.family}_triangle").rows(args.nmax)
    # a cell of the polynomial families is its list of coefficients
    poly = args.family in ("js", "jc")
    if args.format == "csv":
        chunks = _table_csv(rows, poly)
    else:
        chunks = _table_json(rows, poly, args.nmax, args.family)
    return _emit(chunks, args.out)


# -- verify ---------------------------------------------------------------


def _verify_identities(nmax: int) -> list:
    from . import triangles
    from .algebra import Poly

    def four_way():
        # three routes to ls: the recurrence rows, the explicit-sum rows and
        # the generating-function products, whose column k is the vertical
        # recurrence's; the check keeps its name, which the pinned sha256 of
        # this suite's output in perfbench/expected_outputs.json covers
        rows = zip(triangles.ls_triangle.rows(nmax), triangles._explicit_rows(nmax))
        for n, (byrec, explicit) in enumerate(rows):
            for k, (want, got) in enumerate(zip(byrec, explicit)):
                if got != want:
                    yield CheckResult(False, f"ls_explicit({n},{k}) != {want}")
        yield from triangles._vertical_gf_sweep(nmax)

    def specialize():
        # row by row, so that js and jc are never cached
        rows = zip(*(getattr(triangles, f"{family}_triangle").rows(zmax) for family in ("js", "ls", "jc", "lc")))
        for n, (js_row, ls_row, jc_row, lc_row) in enumerate(rows):
            for k in range(n + 1):
                if js_row[k].eval(1) != ls_row[k]:
                    yield CheckResult(False, f"js({n},{k}) at z=1 != ls({n},{k})")
                if jc_row[k].eval(1) != lc_row[k]:
                    yield CheckResult(False, f"jc({n},{k}) at z=1 != lc({n},{k})")

    jmax = min(nmax, 15)
    # js and jc are swept only up to their table cap
    zmax = min(nmax, TABLE_CAPS["js"])
    # the roots are stated here, never read off the steps they check
    horizontal_ls = triangles._horizontal_sweep(nmax, triangles.ls_triangle, lambda i: i * (i + 1))
    horizontal_js = triangles._horizontal_sweep(jmax, triangles.js_triangle, lambda i: Poly((i * i, i)))
    # js(n) then jc(n) for each n, one sweep each
    pairs = zip(horizontal_js, triangles._jc_product_sweep(jmax))
    bivariate = (r for pair in pairs for r in pair)
    return [
        _run_check("identities.four_way", f"nmax={nmax}", four_way()),
        _run_check("identities.horizontal_ls", f"nmax={nmax}", horizontal_ls),
        _run_check("identities.bivariate", f"nmax={jmax}", bivariate),
        _run_check("identities.z_equals_1", f"nmax={zmax}", specialize()),
    ]


def _verify_bijection(nmax: int) -> list:
    from . import codes, triangles

    def failure(code, err=None) -> str:
        # legality is checked only once a round trip has failed, so that an
        # illegal code is named as such
        legal = codes.validate_code(code)
        if not legal:
            return f"{codes.render_code(code)}: invalid code ({legal.detail})"
        return f"{codes.render_code(code)}: {err}" if err else codes.render_code(code)

    def round_trip(n):
        # the walk builds each code's image unchecked; phi_inverse validates
        # the image and returns only legal codes, so phi_inverse(p) == code
        # shows that the code equals a legal one, its image is a valid
        # partition and phi has a left inverse; with ls(n,k) images of k
        # boxes for each k, phi is a bijection
        by_k: dict = {}
        for code, p in codes._walk(n):
            try:
                back = codes.phi_inverse(p)
            except ValueError as err:
                yield CheckResult(False, failure(code, err))
                return
            if back != code:
                yield CheckResult(False, failure(code))
                return
            by_k[len(p.boxes)] = by_k.get(len(p.boxes), 0) + 1
        for k in range(1, n + 1):
            got, want, coded = by_k.get(k, 0), triangles.ls(n, k), codes.count_codes(n, k)
            if not got == want == coded:
                yield CheckResult(False, f"count at k={k} is {got}, ls gives {want}, count_codes gives {coded}")
                return
        print(f"     bijection n={n}: {sum(by_k.values())} partitions round-tripped")

    return [_run_check("bijection.round_trip", f"n={n}", round_trip(n)) for n in range(1, nmax + 1)]


def _verify_grammar(nmax: int) -> list:
    from . import grammar

    # each sweep derives each power once and checks it against its triangle
    sweeps = {
        "grammar.stirling2": grammar._stirling2_sweep,
        "grammar.stirling1": grammar._stirling1_sweep,
        "grammar.js": grammar._js_sweep,
        "grammar.jc": grammar._jc_sweep,
    }
    return [_run_check(name, f"nmax={nmax}", sweep(nmax)) for name, sweep in sweeps.items()]


def _verify_zstat(nmax: int) -> list:
    from . import partitions, triangles

    def sweep():
        for n in range(1, nmax + 1):
            for k in range(1, n + 1):
                if partitions.js_brute(n, k) != triangles.js(n, k):
                    yield CheckResult(False, f"js_brute({n},{k}) != js({n},{k})")

    return [_run_check("zstat.brute_vs_triangle", f"nmax={nmax}", sweep())]


def cmd_verify(args) -> int:
    nmax = args.nmax if args.nmax is not None else VERIFY_DEFAULT_NMAX[args.suite]
    if nmax < 1:
        return _fail(f"verify {args.suite}: nmax must be at least 1", 1)
    if args.suite in ("bijection", "zstat"):
        from .partitions import ENUM_LIMIT as cap
    else:
        # identities fill the ls triangle to row nmax, and grammar builds js and jc rows to nmax
        cap = TABLE_CAPS["ls" if args.suite == "identities" else "js"]
    if nmax > cap:
        return _fail(f"verify {args.suite}: nmax capped at {cap}", 1)
    runner = {
        "identities": _verify_identities,
        "bijection": _verify_bijection,
        "grammar": _verify_grammar,
        "zstat": _verify_zstat,
    }[args.suite]
    ok = True
    for check_ok, line in runner(nmax):
        print(line)
        ok = ok and check_ok
    return 0 if ok else 1


# -- gamma ----------------------------------------------------------------


def cmd_gamma(args) -> int:
    if not 1 <= args.kmax <= GAMMA_KMAX_CAP:
        return _fail(f"gamma: kmax must be in 1..{GAMMA_KMAX_CAP}", 1)
    if args.nmax < 1:
        return _fail("gamma: nmax must be at least 1", 1)
    # the expansion check reads ls up to row nmax + kmax
    if args.nmax + args.kmax > TABLE_CAPS["ls"]:
        return _fail(f"gamma: nmax + kmax capped at {TABLE_CAPS['ls']}", 1)
    from . import gamma, triangles

    rows = []
    for k in range(args.kmax + 1):
        lo, _ = gamma.support(k)
        rows.append({"k": k, "offset": lo, "coeffs": list(gamma.gamma_row(k))})
    closed = gamma.closed_forms(args.kmax)
    ode_ok = all(gamma.gamma_poly(k) == p for k, p in enumerate(gamma._ode_polys(args.kmax)))
    expansion_detail = next(
        (
            f"expansion differs from triangle at n={n}, k={k}"
            for k in range(1, args.kmax + 1)
            for n in range(1, args.nmax + 1)
            if gamma.ls_binomial_expansion(n, k) != triangles.ls(n + k, n)
        ),
        None,
    )
    expansion_ok = expansion_detail is None
    doc = {
        "kmax": args.kmax,
        "rows": rows,
        "closed_forms_ok": bool(closed),
        "ode_rows_ok": ode_ok,
        "expansion_ok": expansion_ok,
        "expansion_nmax": args.nmax,
    }
    if args.format == "json":
        import json

        rc = _emit([json.dumps(doc) + "\n"], args.out)
    else:
        lines = ["k,offset,coeffs\r\n"]
        lines += [f"{row['k']},{row['offset']},{_csv_list(row['coeffs'])}\r\n" for row in rows]
        rc = _emit(lines, args.out)
        print(f"closed_forms_ok={bool(closed)} ode_rows_ok={ode_ok} expansion_ok={expansion_ok}")
    if rc:
        return rc
    if not (closed and ode_ok and expansion_ok):
        return _fail(closed.detail or expansion_detail or "gamma: route disagreement", 1)
    return 0


# -- conjecture -----------------------------------------------------------


def cmd_conjecture(args) -> int:
    if not 1 <= args.kmax <= CONJECTURE_KMAX_CAP:
        return _fail(f"conjecture: kmax must be in 1..{CONJECTURE_KMAX_CAP}", 1)
    import json

    from . import realroots

    lines = []
    ok = True
    for res in realroots.conjecture_results(args.kmax):
        ok = ok and res.ok
        lines.append(json.dumps(res.to_json_dict()) + "\n")
    rc = _emit(lines, args.out)
    if rc:
        return rc
    # the induction proves each k or runs out of budget; it never refutes
    return 0 if ok else 2


def cmd_check_certs(args) -> int:
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as err:
        return _fail(f"check-certs: cannot read {args.file}: {err}", 3)
    # imported here, so that conjecture never loads the checker of its output
    from . import certcheck

    try:
        count = certcheck.check(text, CONJECTURE_KMAX_CAP)
    except certcheck.MalformedCertificate as err:
        return _fail(f"check-certs: {args.file} {err}", 3)
    except certcheck.InvalidCertificate as err:
        print(f"FAIL {args.file} {err}")
        return 1
    print(f"ok   {args.file}: the certificates for k = 1..{count} are valid")
    return 0


# -- oeis -----------------------------------------------------------------


def _read_source(seq_id: str, source: str | None) -> str:
    if source is None:
        source = f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"
    if re.match(r"https?://", source):
        # imported here: the network path is rare, and urllib is slow to import
        import hashlib
        import http.client
        import urllib.request

        cache_dir = Path(os.environ.get(CACHE_ENV, Path.home() / ".cache" / "lstirling"))
        # keyed by the whole URL, so two URLs with one basename never share an
        # entry; the basename stays readable after the hash
        key = hashlib.sha256(source.encode()).hexdigest()[:16]
        cache_file = cache_dir / f"{key}-{source.rstrip('/').rsplit('/', 1)[-1]}"
        if cache_file.exists():
            return cache_file.read_text()
        try:
            with urllib.request.urlopen(source, timeout=FETCH_TIMEOUT_S) as resp:
                text = resp.read().decode("utf-8")
        except http.client.HTTPException as err:
            # a truncated or malformed response is an I/O failure like any other
            raise OSError(f"{source}: {err!r}") from err
        # a failed write leaves no partial cache entry behind
        cache_dir.mkdir(parents=True, exist_ok=True)
        _write_atomic(cache_file, lambda path: path.write_text(text))
        return text
    return Path(source).read_text()


def cmd_oeis(args) -> int:
    entry = OEIS_SEQUENCES.get(args.seq)
    if entry is None:
        known = ", ".join(sorted(OEIS_SEQUENCES))
        return _fail(f"oeis: no comparator for {args.seq} (known: {known})", 3)
    if args.count < 1:
        return _fail("oeis: count must be positive", 1)
    try:
        text = _read_source(args.seq, args.source)
    except (OSError, UnicodeDecodeError) as err:
        return _fail(f"oeis: cannot read b-file: {err}", 3)
    try:
        entries = parse_bfile(text)
    except BFileError as err:
        return _fail(f"oeis: {args.seq} b-file {err}", 3)
    if args.count > len(entries):
        return _fail(f"oeis: b-file has only {len(entries)} entries, need {args.count}", 3)
    from . import gamma

    shift = entry["shift"]
    for idx, val in entries[: args.count]:
        k = idx + shift
        if k < 0:
            return _fail(f"oeis: index {idx} maps to negative k with shift {shift}", 3)
        expected = entry["value"](gamma, k)
        if val != expected:
            print(f"FAIL {args.seq} index {idx}: b-file {val}, {entry['describe']} at k={k} is {expected}")
            return 1
    print(f"ok   {args.seq}: first {args.count} entries match {entry['describe']}")
    return 0


# -- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lstirling", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a triangle as CSV or JSON")
    p.add_argument("--family", choices=sorted(TABLE_CAPS), required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", choices=sorted(VERIFY_DEFAULT_NMAX))
    p.add_argument("--nmax", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gamma", help="gamma rows, closed forms, expansion agreement")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("conjecture", help="real-root interlacing certificates, one JSON per k")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("check-certs", help="re-check conjecture certificates without the code that made them")
    p.add_argument("file", help="JSON lines written by lstirling conjecture")
    p.set_defaults(func=cmd_check_certs)

    p = sub.add_parser("oeis", help="cross-check a sequence b-file against exact values")
    p.add_argument("seq")
    p.add_argument("--source", default=None, help="b-file path or URL (default: fetch from oeis.org)")
    p.add_argument("--count", type=int, default=12)
    p.set_defaults(func=cmd_oeis)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the rest goes to devnull, so that the
        # flush at shutdown does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

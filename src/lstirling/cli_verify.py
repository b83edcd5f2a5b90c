"""`lstirling verify`: the identity, bijection, grammar and zstat sweeps, one
report line per check."""
from __future__ import annotations

import time

from . import CheckResult
from .cli_output import fail


def _run_check(name: str, bounds: str, results) -> tuple:
    """(ok, report line) for the first failed CheckResult of results, iterated up to it and timed."""
    start = time.perf_counter()
    first = next((r for r in results if not r), CheckResult(True))
    tail = f" counterexample: {first.detail}" if first.detail else ""
    return first.ok, f"{'ok  ' if first.ok else 'FAIL'} {name} {bounds} {time.perf_counter() - start:.2f}s{tail}"


def _verify_identities(nmax: int, zcap: int) -> list:
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
    # js and jc are swept only up to their table cap, zcap
    zmax = min(nmax, zcap)
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
    nmax = args.nmax if args.nmax is not None else args.default_nmax[args.suite]
    if nmax < 1:
        return fail(f"verify {args.suite}: nmax must be at least 1", 1)
    if args.suite in ("bijection", "zstat"):
        from .partitions import ENUM_LIMIT as cap
    else:
        # identities fill the ls triangle to row nmax, and grammar builds js and jc rows to nmax
        cap = args.caps["ls" if args.suite == "identities" else "js"]
    if nmax > cap:
        return fail(f"verify {args.suite}: nmax capped at {cap}", 1)
    runner = {
        "identities": lambda nmax: _verify_identities(nmax, args.caps["js"]),
        "bijection": _verify_bijection,
        "grammar": _verify_grammar,
        "zstat": _verify_zstat,
    }[args.suite]
    ok = True
    for check_ok, line in runner(nmax):
        print(line)
        ok = ok and check_ok
    return 0 if ok else 1

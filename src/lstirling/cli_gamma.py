"""`lstirling gamma`: the gamma rows to kmax, checked against the closed
forms, the ODE route and the binomial expansion of the ls diagonals."""
from __future__ import annotations

from .cli_output import csv_list, emit, fail


def cmd_gamma(args) -> int:
    if not 1 <= args.kmax <= args.kmax_cap:
        return fail(f"gamma: kmax must be in 1..{args.kmax_cap}", 1)
    if args.nmax < 1:
        return fail("gamma: nmax must be at least 1", 1)
    # the expansion check reads ls up to row nmax + kmax
    if args.nmax + args.kmax > args.caps["ls"]:
        return fail(f"gamma: nmax + kmax capped at {args.caps['ls']}", 1)
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

        rc = emit([json.dumps(doc) + "\n"], args.out)
    else:
        lines = ["k,offset,coeffs\r\n"]
        lines += [f"{row['k']},{row['offset']},{csv_list(row['coeffs'])}\r\n" for row in rows]
        rc = emit(lines, args.out)
        print(f"closed_forms_ok={bool(closed)} ode_rows_ok={ode_ok} expansion_ok={expansion_ok}")
    if rc:
        return rc
    if not (closed and ode_ok and expansion_ok):
        return fail(closed.detail or expansion_detail or "gamma: route disagreement", 1)
    return 0

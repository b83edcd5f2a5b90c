"""`lstirling conjecture` and `lstirling check-certs`: interlacing
certificates for the real-root conjecture, and their independent re-check."""
from __future__ import annotations

from pathlib import Path

from .cli_output import emit, fail


def cmd_conjecture(args) -> int:
    if not 1 <= args.kmax <= args.kmax_cap:
        return fail(f"conjecture: kmax must be in 1..{args.kmax_cap}", 1)
    import json

    from . import realroots

    lines = []
    ok = True
    for res in realroots.conjecture_results(args.kmax):
        ok = ok and res.ok
        lines.append(json.dumps(res.to_json_dict()) + "\n")
    rc = emit(lines, args.out)
    if rc:
        return rc
    # the induction proves each k or runs out of budget; it never refutes
    return 0 if ok else 2


def cmd_check_certs(args) -> int:
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as err:
        return fail(f"check-certs: cannot read {args.file}: {err}", 3)
    # imported here, so that conjecture never loads the checker of its output
    from . import certcheck

    try:
        count = certcheck.check(text, args.kmax_cap)
    except certcheck.MalformedCertificate as err:
        return fail(f"check-certs: {args.file} {err}", 3)
    except certcheck.InvalidCertificate as err:
        print(f"FAIL {args.file} {err}")
        return 1
    print(f"ok   {args.file}: the certificates for k = 1..{count} are valid")
    return 0

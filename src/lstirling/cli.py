"""Command-line interface: tables, verification sweeps, gamma reports,
conjecture certificates and their independent re-check, and OEIS b-file
cross-checks.

Exit codes: 0 all checks pass, 1 mismatch, 2 inconclusive, 3 I/O or data
error.  Table and report payloads go to stdout or --out; verification report
lines go to stdout, one per check.

This entry module holds only the parser and the caps it reads.  Each
command's body is a module of its own, imported when that command runs,
with the layers it uses, so a cold run compiles and loads only those.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from importlib import import_module

TABLE_CAPS = {"ls": 200, "lc": 200, "js": 60, "jc": 60}
GAMMA_KMAX_CAP = 20
CONJECTURE_KMAX_CAP = 16
VERIFY_DEFAULT_NMAX = {"identities": 20, "bijection": 5, "grammar": 8, "zstat": 6}


def _integer(text: str) -> int:
    """An integer option's value: ASCII digits after an optional minus sign.

    int() alone would also take "1_0", " 2" and non-ASCII digits; the b-file
    fields of `oeis` are read by the same rule.
    """
    if not re.fullmatch(r"-?[0-9]+", text):
        # worded as argparse words a value that type=int refuses
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _load(handler: tuple):
    """The command function named by handler, (module, function), imported only now.

    A command module never imports this one: under `python -m lstirling.cli`
    that import would run a second copy of it.
    """
    module, name = handler
    return getattr(import_module(f"lstirling.{module}"), name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lstirling", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each command's handler is named, not imported; its caps ride on its args
    p = sub.add_parser("table", help="emit a triangle as CSV or JSON")
    p.add_argument("--family", choices=sorted(TABLE_CAPS), required=True)
    p.add_argument("--nmax", type=_integer, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=("cli_table", "cmd_table"), caps=TABLE_CAPS)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", choices=sorted(VERIFY_DEFAULT_NMAX))
    p.add_argument("--nmax", type=_integer, default=None)
    p.set_defaults(handler=("cli_verify", "cmd_verify"), caps=TABLE_CAPS, default_nmax=VERIFY_DEFAULT_NMAX)

    p = sub.add_parser("gamma", help="gamma rows, closed forms, expansion agreement")
    p.add_argument("--kmax", type=_integer, required=True)
    p.add_argument("--nmax", type=_integer, default=20)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=("cli_gamma", "cmd_gamma"), caps=TABLE_CAPS, kmax_cap=GAMMA_KMAX_CAP)

    p = sub.add_parser("conjecture", help="real-root interlacing certificates, one JSON per k")
    p.add_argument("--kmax", type=_integer, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=("cli_certs", "cmd_conjecture"), kmax_cap=CONJECTURE_KMAX_CAP)

    p = sub.add_parser("check-certs", help="re-check conjecture certificates without the code that made them")
    p.add_argument("file", help="JSON lines written by lstirling conjecture")
    p.set_defaults(handler=("cli_certs", "cmd_check_certs"), kmax_cap=CONJECTURE_KMAX_CAP)

    p = sub.add_parser("oeis", help="cross-check a sequence b-file against exact values")
    p.add_argument("seq")
    p.add_argument("--source", default=None, help="b-file path or URL (default: fetch from oeis.org)")
    p.add_argument("--count", type=_integer, default=12)
    p.set_defaults(handler=("cli_oeis", "cmd_oeis"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _load(args.handler)(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the rest goes to devnull, so that the
        # flush at shutdown does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

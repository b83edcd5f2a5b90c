"""`lstirling table`: a triangle to row nmax, streamed as CSV or JSON."""
from __future__ import annotations

from .cli_output import csv_list, emit, fail, json_list


def _table_csv(rows, poly: bool):
    """Yield the CSV lines n,k,value, one triangle row per chunk."""
    yield "n,k,value\r\n"
    for n, row in enumerate(rows):
        if poly:
            yield "".join(f"{n},{k},{csv_list(c.coeffs)}\r\n" for k, c in enumerate(row))
        else:
            yield "".join(f"{n},{k},{c}\r\n" for k, c in enumerate(row))


def _table_json(rows, poly: bool, nmax: int, family: str):
    """Yield json.dumps({"family", "nmax", "rows"}) + "\n", one triangle row per chunk."""
    # family is a TABLE_CAPS key, so it needs no escaping
    yield f'{{"family": "{family}", "nmax": {nmax}, "rows": ['
    for n, row in enumerate(rows):
        cells = (json_list(c.coeffs) for c in row) if poly else row
        yield (", " if n else "") + json_list(cells)
    yield "]}\n"


def cmd_table(args) -> int:
    cap = args.caps[args.family]
    if args.nmax < 0:
        return fail("table: nmax must be nonnegative", 1)
    if args.nmax > cap:
        return fail(f"table: nmax {args.nmax} exceeds the {args.family} cap {cap}", 1)
    from . import triangles

    # streamed: the table holds two rows of its triangle, not the whole of it
    rows = getattr(triangles, f"{args.family}_triangle").rows(args.nmax)
    # a cell of the polynomial families is its list of coefficients
    poly = args.family in ("js", "jc")
    if args.format == "csv":
        chunks = _table_csv(rows, poly)
    else:
        chunks = _table_json(rows, poly, args.nmax, args.family)
    return emit(chunks, args.out)

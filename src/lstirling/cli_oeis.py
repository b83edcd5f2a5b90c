"""`lstirling oeis`: an OEIS b-file, read from a path or fetched and cached,
checked entry by entry against exact values from the gamma layer."""
from __future__ import annotations

import os
import re
from pathlib import Path

from .cli_output import fail, write_atomic

CACHE_ENV = "LSTIRLING_CACHE_DIR"
FETCH_TIMEOUT_S = 30


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
        write_atomic(cache_file, lambda path: path.write_text(text))
        return text
    return Path(source).read_text()


def cmd_oeis(args) -> int:
    entry = OEIS_SEQUENCES.get(args.seq)
    if entry is None:
        known = ", ".join(sorted(OEIS_SEQUENCES))
        return fail(f"oeis: no comparator for {args.seq} (known: {known})", 3)
    if args.count < 1:
        return fail("oeis: count must be positive", 1)
    try:
        text = _read_source(args.seq, args.source)
    except (OSError, UnicodeDecodeError) as err:
        return fail(f"oeis: cannot read b-file: {err}", 3)
    try:
        entries = parse_bfile(text)
    except BFileError as err:
        return fail(f"oeis: {args.seq} b-file {err}", 3)
    if args.count > len(entries):
        return fail(f"oeis: b-file has only {len(entries)} entries, need {args.count}", 3)
    from . import gamma

    shift = entry["shift"]
    for idx, val in entries[: args.count]:
        k = idx + shift
        if k < 0:
            return fail(f"oeis: index {idx} maps to negative k with shift {shift}", 3)
        expected = entry["value"](gamma, k)
        if val != expected:
            print(f"FAIL {args.seq} index {idx}: b-file {val}, {entry['describe']} at k={k} is {expected}")
            return 1
    print(f"ok   {args.seq}: first {args.count} entries match {entry['describe']}")
    return 0

"""Output helpers shared by the command modules: error exits, atomic writes
to stdout or --out, and the list encodings of the CSV and JSON payloads.

The entry module, `lstirling.cli`, never imports this module; each command
module imports it when its command runs.
"""
from __future__ import annotations

import os
import stat
import sys
from pathlib import Path


def fail(msg: str, code: int) -> int:
    print(msg, file=sys.stderr)
    return code


def write_atomic(path: Path, write) -> None:
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


def emit(chunks, out: str | None) -> int:
    """Write the text chunks, in order, to stdout or, by write_atomic, to out."""
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return 0

    def write(path):
        with open(path, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)

    try:
        write_atomic(Path(out), write)
    except OSError as err:
        # the error may name the temporary file; report the path given
        return fail(f"cannot write {out}: {err.strerror or err}", 3)
    return 0


def json_list(values) -> str:
    """A JSON array of ints or of JSON texts, spaced as json.dumps spaces it."""
    return f"[{', '.join(map(str, values))}]"


def csv_list(values) -> str:
    """A CSV field holding a list of ints as compact JSON.

    csv.writer's default dialect quotes a field exactly when it holds a
    comma, and for these lists that is when they have two or more entries.
    """
    text = ",".join(map(str, values))
    return f'"[{text}]"' if len(values) > 1 else f"[{text}]"

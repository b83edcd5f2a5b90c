"""One pass of the library_mix workload, in a fresh interpreter.

Usage: python perfbench/mix_worker.py SEED QUERIES TRACE

With QUERIES=0 it only sets up and prints {"setup_s": ...}.

Builds a seeded stream of single library queries, then imports lstirling and
warms its caches (the set-up), then answers the stream one query at a time,
timing each.  Sampled answers are checked against the recurrences in
checks.py after the timed loop.  Prints one JSON object with the timings,
latency percentiles, peak memory and check results.  With TRACE=1 the layer
tracer is installed after warm-up, so the trace covers the query stream only.

The mix is synthetic, not observed traffic: each query draws one of the
seven kinds in KINDS uniformly, then its arguments uniformly in their ranges.
The stream is held in flat arrays, so that peak memory, which is read before
the checks run and counted from the resident size just before the import, is
the memory of the program rather than of the harness.
"""
from __future__ import annotations

import json
import random
import sys
import time
from array import array

import checks
from cli_child import peak_rss_mb

KINDS = ("ls", "lc", "js", "jc", "ls_explicit", "gamma_row", "round_trip")
GAMMA, ROUND_TRIP = KINDS.index("gamma_row"), KINDS.index("round_trip")
SAMPLE_EVERY = 8  # answers kept and checked: every 8th query
NMAX = {"ls": 200, "lc": 200, "js": 60, "jc": 60, "ls_explicit": 40}
GAMMA_KMAX = 20
CODE_LEN_MAX = 12


def random_code(rng: random.Random, length: int) -> tuple:
    """A valid insertion code: each step picks uniformly among its legal symbols."""
    code, t = [("X",)], 1
    for _ in range(length - 1):
        r = rng.randrange(t * t + t + 1)
        if r == 0:
            code.append(("X",))
            t += 1
        elif r <= t * (t - 1):
            i, j = divmod(r - 1, t - 1)
            j += j >= i
            code.append(("A", i + 1, j + 1))
        elif r <= t * t:
            code.append(("B", r - t * (t - 1)))
        else:
            code.append(("Bb", r - t * t))
    return tuple(code)


def render(code: tuple) -> str:
    return ",".join("X" if s == ("X",) else f"{s[0]}({','.join(map(str, s[1:]))})" for s in code)


class Queries:
    """A seeded query stream in flat arrays: kinds[i] indexes KINDS.

    A triangle query asks (a[i], b[i]), gamma_row asks a[i], and a round trip
    parses texts[a[i]].  The codes of the sampled round trips are kept as
    their expected answers.
    """

    def __init__(self, seed: int, count: int):
        rng = random.Random(seed)
        self.kinds = bytearray(count)
        self.a = array("I", bytes(4 * count))
        self.b = array("H", bytes(2 * count))
        self.texts, self.codes = [], {}
        for i in range(count):
            kind = self.kinds[i] = rng.randrange(len(KINDS))
            if kind == GAMMA:
                self.a[i] = rng.randint(0, GAMMA_KMAX)
            elif kind == ROUND_TRIP:
                code = random_code(rng, rng.randint(1, CODE_LEN_MAX))
                self.a[i] = len(self.texts)
                self.texts.append(render(code))
                if i % SAMPLE_EVERY == 0:
                    self.codes[i] = code
            else:
                n = rng.randint(0, NMAX[KINDS[kind]])
                self.a[i], self.b[i] = n, rng.randint(0, n)

    def args(self, i: int) -> tuple:
        kind = self.kinds[i]
        if kind == GAMMA:
            return (self.a[i],)
        if kind == ROUND_TRIP:
            return (self.texts[self.a[i]],)
        return (self.a[i], self.b[i])

    def describe(self, i: int) -> str:
        return f"query {i} {KINDS[self.kinds[i]]}{self.args(i)}"


class References:
    """Expected answers from checks.py, built once after the timed loop."""

    def __init__(self):
        self.ls = checks.ls_rows(NMAX["ls"])
        self.lc = checks.lc_rows(NMAX["lc"])
        self.js = checks.js_rows(NMAX["js"])
        self.jc = checks.jc_rows(NMAX["jc"])
        self.gamma = checks.gamma_by_ode(GAMMA_KMAX)

    def ok(self, queries: Queries, i: int, answer) -> bool:
        kind, args = KINDS[queries.kinds[i]], queries.args(i)
        if kind in ("ls", "ls_explicit"):
            return answer == self.ls[args[0]][args[1]]
        if kind == "lc":
            return answer == self.lc[args[0]][args[1]]
        if kind in ("js", "jc"):
            return list(answer.coeffs) == getattr(self, kind)[args[0]][args[1]]
        if kind == "gamma_row":
            k = args[0]
            return list(answer) == self.gamma[k][0 if k == 0 else k + 2 :]
        return answer == queries.codes[i]


def percentile(sorted_values, pct: int) -> float:
    """Nearest-rank percentile of a nonempty ascending sequence."""
    return sorted_values[max(0, -(-pct * len(sorted_values) // 100) - 1)]


def resident_mb() -> float:
    """Current resident memory of this process (VmRSS), 0 where /proc is missing."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def main() -> int:
    seed, count, trace = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
    queries = Queries(seed, count)
    lat = array("d", bytes(8 * count))
    kept = []
    base_mb = resident_mb()

    t0 = time.perf_counter()
    import lstirling

    for name, nmax in NMAX.items():
        if name != "ls_explicit":
            getattr(lstirling, name)(nmax, 0)
    for k in range(GAMMA_KMAX + 1):
        lstirling.gamma_row(k)
    setup_s = time.perf_counter() - t0
    if count == 0:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    parse_code, phi, phi_inverse = lstirling.parse_code, lstirling.phi, lstirling.phi_inverse

    def round_trip(text):
        return phi_inverse(phi(parse_code(text)))

    fns = [getattr(lstirling, kind, None) for kind in KINDS]
    fns[ROUND_TRIP] = round_trip
    kinds, args_of = queries.kinds, queries.args
    failed = 0
    perf = time.perf_counter
    cpu0 = time.process_time()
    start = perf()
    for i in range(count):
        fn, args = fns[kinds[i]], args_of(i)
        try:
            q0 = perf()
            answer = fn(*args)
            lat[i] = perf() - q0
        except Exception:
            lat[i] = perf() - q0
            failed += 1
            continue
        if i % SAMPLE_EVERY == 0:
            kept.append((i, answer))
    wall_s = perf() - start
    cpu_s = time.process_time() - cpu0
    # the memory of lstirling and its answers: the harness's own stream,
    # latency array and interpreter are resident before the import
    program_mb = peak_rss_mb() - base_mb

    refs = References()
    bad = [i for i, answer in kept if not refs.ok(queries, i, answer)]
    # tamper check: a real answer, altered, must be caught, or the check is vacuous
    i, answer = next((i, a) for i, a in kept if KINDS[kinds[i]] == "ls")
    tamper_caught = not refs.ok(queries, i, answer + 1)
    ordered = sorted(lat)
    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "p50_us": percentile(ordered, 50) * 1e6,
        "p99_us": percentile(ordered, 99) * 1e6,
        "samples": count,
        "attempted": count,
        "failed": failed + len(bad),
        "checked": len(kept),
        "problems": [f"{queries.describe(i)}: wrong answer" for i in bad[:5]],
        "tamper_caught": tamper_caught,
        "peak_rss_mb": program_mb,
        "trace": tracer.report() if trace else None,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

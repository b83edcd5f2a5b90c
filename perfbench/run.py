"""Benchmark of lstirling: four closed-loop workloads, checked outputs, traced layers.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 1 --out FILE
    python3 perfbench/run.py --compare BASE.json NEW.json

One process drives everything and runs one operation at a time, waiting for
each to end (a closed loop with one client, no threads).  The program is
run from ./src in fresh interpreters; nothing is installed.

Workloads (BENCHMARK.json records why each exists):
    certify      `lstirling conjecture --kmax 10`
    enumerate    `verify bijection --nmax 7`, then `verify zstat --nmax 7`
    tables       eight table/gamma/verify/oeis commands; table and gamma in both formats
    library_mix  ~200k single library queries in one warmed process, a synthetic
                 mix that draws the seven query kinds uniformly

A run repeats passes over the workload's inputs until --seconds have gone.
It reports the median of the set-up samples and of peak memory (for
library_mix, the memory added from just before the import on), and the
mean over the passes of each time (see run_workload for why).  With
--trace 0 it prints the end-to-end metrics.  With --trace 1 it spends half
the time on untraced passes, then makes one pass with every layer wrapped
by tracer.py, and prints the per-layer metrics, including the tracing
overhead.  Every output is checked (see checks.py) and every check is
tampered with once per run to show that it can fail.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --out also writes the full
result with the Python version, CPU count, git SHA and seed, and
--compare prints two such files side by side.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
from mix_worker import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_runs"
PY = sys.executable
SETUP_REPEATS = 10
MIX_QUERIES = 200_000
CHILD_TIMEOUT_S = 170
CERT_KMAX = 10
ENUM_NMAX = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_us": "us",
    "query_p99_us": "us",
}


# -- child processes -------------------------------------------------------


@dataclass
class Child:
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _env()


def _on_alarm(signum, frame):
    raise TimeoutError(f"a child process ran longer than {CHILD_TIMEOUT_S} s")


def run_child(argv: list, tmp: Path) -> Child:
    """Run argv to completion; wall time from spawn to reaping, CPU time of that child alone.

    Peak memory is not taken from this rusage: on Linux its maxrss includes
    the memory this process had when it forked, so children report their own.
    """
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        signal.alarm(CHILD_TIMEOUT_S)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
        wall,
        usage.ru_utime + usage.ru_stime,
    )


# -- workloads -------------------------------------------------------------


@dataclass
class Command:
    args: list
    check: object  # Child -> list of problems


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    latencies: tuple  # (p50_us, p99_us) of its requests: commands, or library_mix's queries
    attempted: int
    failed: int
    problems: list
    setup_s: float | None = None  # library_mix measures set-up in every pass
    sample: tuple | None = None  # (Command, Child) of a CLI pass's first command
    traces: list = field(default_factory=list)  # trace dumps of a traced pass
    tamper_caught: bool | None = None


class CliWorkload:
    """Commands run each in a fresh interpreter, checked one by one."""

    def __init__(self, name: str, commands, tamper):
        self.name = name
        self._commands, self._tamper = commands, tamper

    def setup_sample(self, tmp: Path) -> float:
        return timed_import(tmp)

    def run_pass(self, seed: int, tmp: Path, traced: bool) -> Pass:
        walls, cpu, rss, problems, traces, sample = [], 0.0, 0.0, [], [], None
        report = tmp / "report.json"
        for cmd in self._commands(seed):
            report.unlink(missing_ok=True)
            child = run_child([PY, str(HERE / "cli_child.py"), str(report), str(int(traced)), *cmd.args], tmp)
            doc = json.loads(report.read_text())
            walls.append(child.wall_s)
            cpu += child.cpu_s
            rss = max(rss, doc["peak_rss_mb"])
            found = cmd.check(child)
            if found:
                problems.append(f"{' '.join(cmd.args)}: {'; '.join(found[:3])}")
            sample = sample or (cmd, child)
            if traced:
                traces.append(doc["trace"])
        # a CLI workload's request is one command in a fresh interpreter;
        # certify has a single command, so there its latencies are the pass's
        lat = sorted(walls)
        p50, p99 = statistics.median(lat) * 1e6, percentile(lat, 99) * 1e6
        return Pass(sum(walls), cpu, rss, (p50, p99), len(walls), len(problems), problems, sample=sample, traces=traces)

    def tamper(self, first: Pass) -> dict:
        return self._tamper(*first.sample)


def timed_import(tmp: Path) -> float:
    child = run_child([PY, "-c", "import lstirling.cli"], tmp)
    if child.rc != 0:
        raise RuntimeError(f"import lstirling.cli failed: {child.stderr.decode(errors='replace')[-400:]}")
    return child.wall_s


class MixWorkload:
    """library_mix: one warmed worker process per pass, see mix_worker.py."""

    name = "library_mix"

    def setup_sample(self, tmp: Path) -> float:
        return self._worker(0, 0, False, tmp)["setup_s"]

    def _worker(self, seed: int, queries: int, traced: bool, tmp: Path) -> dict:
        child = run_child([PY, str(HERE / "mix_worker.py"), str(seed), str(queries), str(int(traced))], tmp)
        if child.rc != 0:
            raise RuntimeError(f"mix_worker failed: {child.stderr.decode(errors='replace')[-400:]}")
        return json.loads(child.stdout.decode().splitlines()[-1])

    def run_pass(self, seed: int, tmp: Path, traced: bool) -> Pass:
        doc = self._worker(seed, MIX_QUERIES, traced, tmp)
        return Pass(
            doc["wall_s"],
            doc["cpu_s"],
            doc["peak_rss_mb"],
            (doc["p50_us"], doc["p99_us"]),
            doc["attempted"],
            doc["failed"],
            doc["problems"] or ([f"{doc['failed']} queries failed"] if doc["failed"] else []),
            setup_s=doc["setup_s"],
            traces=[doc["trace"]] if traced else [],
            tamper_caught=doc["tamper_caught"],
        )

    def tamper(self, first: Pass) -> dict:
        return {"altered triangle answer": first.tamper_caught}


# certify ------------------------------------------------------------------

Q_POLYS = checks.q_by_ode(CERT_KMAX + 1)


def _check_certify(child: Child) -> list:
    problems = [] if child.rc == 0 else [f"exit code {child.rc}"]
    return problems + checks.check_certificates(child.stdout.decode(errors="replace"), CERT_KMAX, Q_POLYS)


def _certify_commands(seed: int) -> list:
    return [Command(["conjecture", "--kmax", str(CERT_KMAX)], _check_certify)]


def _tamper_certify(cmd: Command, child: Child) -> dict:
    lines = child.stdout.decode().splitlines()
    k = CERT_KMAX // 2
    doc = json.loads(lines[k - 1])
    (a, b), (c, d) = doc["lower"]["intervals"][0]
    lo, hi = Fraction(a, b), Fraction(c, d)
    new_hi = 2 * hi - lo  # the same width, shifted past the root it isolated
    doc["lower"]["intervals"][0] = [[c, d], [new_hi.numerator, new_hi.denominator]]
    shifted = lines[: k - 1] + [json.dumps(doc)] + lines[k:]
    doc = json.loads(lines[k - 1])
    tags = doc["pattern"].split()
    tags[0], tags[1] = tags[1], tags[0]
    doc["pattern"] = " ".join(tags)
    swapped = lines[: k - 1] + [json.dumps(doc)] + lines[k:]
    return {
        "shifted interval endpoint": bool(checks.check_certificates("\n".join(shifted), CERT_KMAX, Q_POLYS)),
        "swapped pattern": bool(checks.check_certificates("\n".join(swapped), CERT_KMAX, Q_POLYS)),
    }


# enumerate ----------------------------------------------------------------

LS_ROWS = checks.ls_rows(ENUM_NMAX)


def _enumerate_commands(seed: int) -> list:
    return [
        Command(
            ["verify", suite, "--nmax", str(ENUM_NMAX)],
            lambda child, suite=suite: checks.check_sweep(child.stdout, child.rc, suite, ENUM_NMAX, LS_ROWS),
        )
        for suite in ("bijection", "zstat")
    ]


def _tamper_enumerate(cmd: Command, child: Child) -> dict:
    count = sum(LS_ROWS[ENUM_NMAX])
    text = child.stdout.replace(f" {count} partitions".encode(), f" {count + 1} partitions".encode())
    return {"altered round-trip count": bool(checks.check_sweep(text, 0, "bijection", ENUM_NMAX, LS_ROWS))}


# tables -------------------------------------------------------------------

TABLE_COMMANDS = (
    ["table", "--family", "ls", "--nmax", "200"],
    ["table", "--family", "js", "--nmax", "60"],
    ["table", "--family", "jc", "--nmax", "60"],
    ["gamma", "--kmax", "20"],
    ["verify", "identities", "--nmax", "40"],
    ["verify", "grammar", "--nmax", "8"],
    ["oeis", "A025035", "--source", "tests/fixtures/b025035.txt"],
    ["oeis", "A006472", "--source", "tests/fixtures/b006472.txt"],
)
DIGESTS_FILE = HERE / "expected_outputs.json"


def _tables_commands(seed: int) -> list:
    """All eight commands, table and gamma in both formats, in a seeded order.

    Both formats run in every pass, so the pass does the same work for every
    seed; the seed decides the order, including which format of a command
    runs first.
    """
    expected = json.loads(DIGESTS_FILE.read_text())
    invocations = []
    for args in TABLE_COMMANDS:
        formats = (["--format", "csv"], ["--format", "json"]) if args[0] in ("table", "gamma") else ([],)
        invocations += [args + fmt for fmt in formats]
    random.Random(seed).shuffle(invocations)
    return [
        Command(argv, lambda child, want=expected[" ".join(argv)]: checks.check_digest(child.stdout, child.rc, want))
        for argv in invocations
    ]


def _tamper_tables(cmd: Command, child: Child) -> dict:
    flipped = bytes([child.stdout[0] ^ 1]) + child.stdout[1:]
    return {"flipped output byte": bool(cmd.check(Child(child.rc, flipped, b"", 0, 0)))}


# Why each workload exists is recorded in BENCHMARK.json.  In short: certify
# loads realroots and algebra, enumerate loads partitions and codes, tables
# loads cold triangle fills, gamma, grammar and CLI start-up, and library_mix
# loads the same layers as warm single lookups, which sweeps never exercise.
WORKLOADS = {
    "certify": CliWorkload("certify", _certify_commands, _tamper_certify),
    "enumerate": CliWorkload("enumerate", _enumerate_commands, _tamper_enumerate),
    "tables": CliWorkload("tables", _tables_commands, _tamper_tables),
    "library_mix": MixWorkload(),
}


# -- metrics ---------------------------------------------------------------


def _merge_traces(dumps: list) -> dict:
    out = {"stats": {}, "items": {}, "observed": {}, "isolated": {}, "cache_hits": 0, "cache_misses": 0, "spans": []}
    for d in dumps:
        for name, (calls, incl, own) in d["stats"].items():
            e = out["stats"].setdefault(name, [0, 0.0, 0.0])
            e[0] += calls
            e[1] += incl
            e[2] += own
        for key in ("items", "isolated"):
            for name, n in d[key].items():
                out[key][name] = out[key].get(name, 0) + n
        for name, v in d["observed"].items():
            out["observed"][name] = max(out["observed"].get(name, 0), v)
        out["cache_hits"] += d["cache_hits"]
        out["cache_misses"] += d["cache_misses"]
        out["refine_cap"] = d["refine_cap"]
        out["spans"].append(d["spans"])
    return out


def layer_metrics(tr: dict, overhead_s: float, import_s: float) -> dict:
    """Per-layer metrics of one traced pass; times are self times."""
    stats, obs = tr["stats"], tr["observed"]

    def calls(*names):
        return sum(stats.get(n, (0, 0, 0))[0] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0, 0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    isolate = "realroots.isolate_roots"
    checked = calls("partitions.validate", "codes.validate_code")
    # an object is one partition of a sweep (the sweep enumerates one code
    # per partition) or, outside sweeps, one single round-trip through phi
    objects = tr["items"].get("codes.enumerate_codes", 0) or calls("codes.phi")
    cache = tr["cache_hits"] + tr["cache_misses"]
    m = {
        "algebra.eval_calls": (calls("algebra.Poly.eval"), "count"),
        "algebra.eval_s": (own("algebra.Poly.eval"), "s"),
        "algebra.divmod_calls": (calls("algebra.Poly.__divmod__"), "count"),
        "algebra.divmod_s": (own("algebra.Poly.__divmod__"), "s"),
        "algebra.gcd_s": (own("algebra.poly_gcd"), "s"),
        "algebra.max_coeff_bits": (obs.get("max_coeff_bits", 0), "bits"),
        "algebra.mul_calls": (calls("algebra.Poly.__mul__"), "count"),
        "algebra.mul_s": (own("algebra.Poly.__mul__"), "s"),
        "algebra.series_mul_s": (own("algebra.series_mul"), "s"),
        "realroots.chain_calls": (calls("realroots.sturm_chain"), "count"),
        "realroots.chain_s": (own("realroots.sturm_chain"), "s"),
        "realroots.chain_len_max": (obs.get("chain_len_max", 0), "count"),
        "realroots.count_roots_calls": (calls("realroots.count_roots"), "count"),
        "realroots.count_roots_s": (own("realroots.count_roots"), "s"),
        "realroots.isolate_s": (own(isolate), "s"),
        "realroots.refine_calls": (calls("realroots.refine_interval"), "count"),
        "realroots.refine_s": (own("realroots.refine_interval"), "s"),
        "realroots.verify_s": (own("realroots.verify_conjecture"), "s"),
        "realroots.isolations_per_poly": (ratio(calls(isolate), len(tr["isolated"])), "ratio"),
        "realroots.refine_budget_used": (ratio(obs.get("refine_max", 0), tr.get("refine_cap", 0)), "ratio"),
        "triangles.value_calls": (calls("triangles.Triangle.value"), "count"),
        "triangles.value_s": (own("triangles.Triangle.value"), "s"),
        "triangles.explicit_s": (own("triangles.ls_explicit"), "s"),
        "triangles.vertical_s": (own("triangles.ls_vertical"), "s"),
        "triangles.identity_s": (
            own(
                "triangles.horizontal_identity_ls",
                "triangles.horizontal_identity_js",
                "triangles.jc_defining_product",
                "triangles.vertical_gf_check",
            ),
            "s",
        ),
        "gamma.row_s": (own("gamma.gamma_row", "gamma.gamma_coeff", "gamma.gamma_poly", "gamma.support"), "s"),
        "gamma.ode_s": (own("gamma.gamma_poly_via_ode", "gamma.gamma_ode_step"), "s"),
        "gamma.expansion_s": (own("gamma.ls_binomial_expansion", "gamma.lc_expansion", "gamma.ls_nested_sum"), "s"),
        "gamma.cache_hit_ratio": (ratio(tr["cache_hits"], cache), "ratio"),
        "grammar.derive_calls": (calls("grammar.derive"), "count"),
        "grammar.derive_s": (own("grammar.derive"), "s"),
        "grammar.terms_max": (obs.get("terms_max", 0), "count"),
        "partitions.enumerated": (tr["items"].get("partitions.enumerate_partitions", 0), "count"),
        "partitions.enumerate_s": (own("partitions.enumerate_partitions"), "s"),
        "partitions.validate_calls": (calls("partitions.validate"), "count"),
        "partitions.validate_s": (own("partitions.validate"), "s"),
        "partitions.zstat_s": (own("partitions.js_brute"), "s"),
        "partitions.checks_per_object": (ratio(checked, objects), "ratio"),
        "codes.phi_calls": (calls("codes.phi"), "count"),
        "codes.phi_s": (own("codes.phi"), "s"),
        "codes.phi_inverse_calls": (calls("codes.phi_inverse"), "count"),
        "codes.phi_inverse_s": (own("codes.phi_inverse"), "s"),
        "codes.validate_code_calls": (calls("codes.validate_code"), "count"),
        "codes.validate_code_s": (own("codes.validate_code"), "s"),
        "codes.enumerated": (tr["items"].get("codes.enumerate_codes", 0), "count"),
        "codes.enumerate_s": (own("codes.enumerate_codes"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.cmd_self_s": (sum(e[2] for n, e in stats.items() if n.startswith("cli.")), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


def run_workload(wl, seed: int, seconds: int, trace: bool, tmp: Path) -> dict:
    # set-up is sampled before, between and after the passes, so that its
    # median spans the same stretch of machine time as the passes do
    setup = [wl.setup_sample(tmp) for _ in range(SETUP_REPEATS // 2)]
    budget = seconds / 2 if trace else seconds
    passes = []
    start = time.perf_counter()
    # stop when one more pass would overrun the budget by more than half a pass
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < budget:
        passes.append(wl.run_pass(seed, tmp, traced=False))
        setup.append(wl.setup_sample(tmp))
    setup += [wl.setup_sample(tmp) for _ in range(SETUP_REPEATS // 2)]
    setup += [p.setup_s for p in passes if p.setup_s is not None]
    # Times are averaged over the passes, not medianed: on a shared host the
    # CPU runs for seconds at a time in a fast or a slow state, and the median
    # of a few passes lands in one state or the other, where the mean weighs
    # the states by the time spent in them (a 3-minute probe of library_mix
    # passes gave run-to-run spreads of 0.05 for the mean, 0.10 for the median).
    # Latency percentiles are taken within each pass and averaged the same way.
    p50 = statistics.fmean(p.latencies[0] for p in passes)
    p99 = statistics.fmean(p.latencies[1] for p in passes)
    wall = statistics.fmean(p.wall_s for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": statistics.fmean(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "query_p50_us": p50,
        "query_p99_us": p99,
    }
    result = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "query_samples": passes[0].attempted,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
        "tamper_caught": wl.tamper(passes[0]),
    }
    if trace:
        traced = wl.run_pass(seed, tmp, traced=True)
        passes.append(traced)
        import_s = statistics.median(timed_import(tmp) for _ in range(SETUP_REPEATS))
        bare_s = statistics.median(run_child([PY, "-c", "pass"], tmp).wall_s for _ in range(SETUP_REPEATS))
        merged = _merge_traces(traced.traces)
        result["layers"] = layer_metrics(merged, traced.wall_s - wall, import_s - bare_s)
        RUN_DIR.mkdir(exist_ok=True)
        (RUN_DIR / f"trace-{wl.name}.json").write_text(json.dumps(merged))
    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["problems"] = [msg for p in passes for msg in p.problems]
    return result


# -- reporting -------------------------------------------------------------


def _meta(seed: int, seconds: int, trace: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            sha = git.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _print_result(name: str, res: dict):
    ratio = res["failed"] / res["attempted"]
    print(f"== {name}: {res['passes']} untraced passes, {res['attempted']} operations attempted")
    print(f"{name} fail_ratio {ratio:.6g} ({res['failed']}/{res['attempted']})")
    for metric, m in res["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} query samples per pass {res['query_samples']}")
    for metric, m in res.get("layers", {}).items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    for what, caught in res["tamper_caught"].items():
        print(f"{name} tamper check, {what}: {'caught' if caught else 'NOT CAUGHT'}")
    for msg in res["problems"][:10]:
        print(f"{name} FAILED {msg}")


def compare(base_path: str, new_path: str) -> int:
    base, new = (json.loads(Path(p).read_text()) for p in (base_path, new_path))
    for side, doc in (("base", base), ("new", new)):
        m = doc["meta"]
        print(f"{side}: {doc['path']} python {m['python']} nproc {m['nproc']} sha {m['git_sha']} seed {m['seed']}")
    print(f"{'workload':12s} {'metric':32s} {'base':>14s} {'new':>14s} {'new/base':>9s} unit")
    for wl in [w for w in base["workloads"] if w in new["workloads"]]:
        a, b = base["workloads"][wl], new["workloads"][wl]
        for group in ("metrics", "layers"):
            for metric, ma in a.get(group, {}).items():
                mb = b.get(group, {}).get(metric)
                if mb is None:
                    continue
                r = f"{mb['value'] / ma['value']:.3f}" if ma["value"] else "-"
                print(f"{wl:12s} {metric:32s} {ma['value']:14.6g} {mb['value']:14.6g} {r:>9s} {ma['unit']}")
    return 0


def _missing_inputs() -> list:
    needed = [ROOT / "src" / "lstirling" / "cli.py", DIGESTS_FILE]
    needed += [ROOT / args[3] for args in TABLE_COMMANDS if args[0] == "oeis"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with its meta data, to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")
    missing = _missing_inputs()
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from the root of an lstirling checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    # on SIGTERM, unwind through run_child so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=RUN_DIR))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), tmp)
    except (RuntimeError, TimeoutError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {args.workload} could not run: {err!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    meta = _meta(args.seed, args.seconds, args.trace)
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, res in results.items():
        _print_result(name, res)
    if args.out:
        doc = {"path": args.out, "meta": meta, "workloads": results}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    group = "layers" if args.trace else "metrics"
    if len(names) == 1:
        metrics = results[names[0]][group]
    else:
        metrics = {f"{wl}.{m}": v for wl, res in results.items() for m, v in res[group].items()}
    summary = {
        "correct": all(r["failed"] == 0 and all(r["tamper_caught"].values()) for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

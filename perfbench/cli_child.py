"""Run one lstirling command in this fresh interpreter, as `lstirling ARGS` would.

Usage: python perfbench/cli_child.py REPORT TRACE ARGS...

Writes to REPORT a JSON object with the peak resident memory of this
process and, when TRACE is 1, the layer trace of the command (tracer.py).
The command's own stdout, stderr and exit code pass through unchanged.
"""
import json
import sys


def peak_rss_mb() -> float:
    """Peak resident memory of this process since exec (VmHWM).

    getrusage is only the fallback: on Linux its maxrss also counts the
    memory the parent had when it forked this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    report, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import lstirling.cli

    try:
        return lstirling.cli.main(argv)
    finally:
        sys.stdout.flush()
        doc = {"peak_rss_mb": peak_rss_mb(), "trace": tracer.report() if trace else None}
        with open(report, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())

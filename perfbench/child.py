"""One workload pass in a fresh interpreter.

Imports ``lieapprox.cli`` first, so the parent can time set-up from spawn to
the end of that import, then reads a job from stdin: ``{"argvs": [...],
"trace": bool}``.  Each argv goes to ``lieapprox.cli.main`` with stdout and
stderr captured.  Writes one JSON object to stdout.  Exits 3 if the package
cannot be imported.
"""

import sys
import time

try:
    import lieapprox.cli
except ImportError as exc:
    print(f"cannot import lieapprox.cli: {exc}", file=sys.stderr)
    raise SystemExit(3)
ready = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def run(argvs: list[list[str]]) -> tuple[float, list]:
    """Run every argv once; returns wall time and [seconds, exit code, stdout] per op."""
    ops = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lieapprox.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed op, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        ops.append([time.perf_counter() - t0, code, out.getvalue()])
    return time.perf_counter() - start, ops


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall_s, ops = run(job["argvs"])
    result = {
        "ready": ready,
        "package": lieapprox.__file__,
        "wall_s": wall_s,
        "ops": ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
        result["absent"] = tracer.absent
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()

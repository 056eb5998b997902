"""lieapprox benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each pass runs the workload's seeded argv list through ``lieapprox.cli.main``
in a fresh child interpreter (``child.py``), one pass at a time, until
``--seconds`` have gone (at least MIN_PASSES passes).  Every op's output is
checked (``checks.py``) before it counts.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  The last stdout line is
the JSON result.  Exits 1, printing no result, when the program is missing
or a child fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"

MIN_PASSES = 3
#: Import-only children per run, added to the set-up samples of the passes.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


@dataclass
class Tally:
    """Checked ops of one run; a check is memoised on (argv, code, output)."""

    attempted: int = 0
    failed: int = 0
    h0_requested: int = 0
    h0_computed: int = 0
    reasons: list[str] = field(default_factory=list)
    memo: dict = field(default_factory=dict)

    def add(self, argv: list[str], code, out: str) -> None:
        key = (tuple(argv), str(code), out)
        outcome = self.memo.get(key)
        if outcome is None:
            outcome = self.memo[key] = checks.check_op(argv, code, out, GOLDEN_DIR)
        self.attempted += 1
        self.h0_requested += checks.h0_requested(argv)
        self.h0_computed += outcome.h0_computed
        if not outcome.ok:
            self.failed += 1
            self.reasons.append(f"{' '.join(argv)}: {outcome.why}")

    @property
    def h0_coverage(self) -> float:
        """Section counts computed / requested; 1 when none were requested."""
        return self.h0_computed / self.h0_requested if self.h0_requested else 1.0


def spawn(argvs: list[list[str]], trace: bool, env: dict[str, str]) -> dict:
    """Run one pass in a fresh child; adds setup_s (spawn to end of import)."""
    child_env = dict(os.environ, PYTHONHASHSEED="0", **env)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    job = json.dumps({"argvs": argvs, "trace": trace}).encode()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=child_env,
    )
    try:
        out, err = proc.communicate(job, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child pass exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.decode(errors='replace').strip()}")
    result = json.loads(out)
    if not Path(result["package"]).resolve().is_relative_to(SRC):
        raise BenchError(f"lieapprox was imported from {result['package']}, not from {SRC}")
    result["setup_s"] = result["ready"] - spawned
    return result


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) * q / 100) - 1]


def _timed_pass(wl, trace: bool, tally: Tally) -> tuple[dict, float]:
    started = time.monotonic()
    result = spawn(wl.argvs, trace, wl.env)
    for argv, (_, code, out) in zip(wl.argvs, result["ops"]):
        tally.add(argv, code, out)
    return result, time.monotonic() - started


def measure(wl, seconds: float, tally: Tally) -> dict[str, float]:
    """End-to-end metrics from untraced passes."""
    deadline = time.monotonic() + seconds
    setups = [spawn([], False, wl.env)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes, last = [], 0.0
    while len(passes) < MIN_PASSES or time.monotonic() + last < deadline:
        result, last = _timed_pass(wl, False, tally)
        passes.append(result)
    latencies_ms = [op[0] * 1e3 for p in passes for op in p["ops"]]
    print(
        f"{wl.name}: {len(passes)} passes, {len(latencies_ms)} op samples "
        f"({len(latencies_ms) // 10} beyond p90); fail_ratio {tally.failed}/{tally.attempted}; "
        f"h0_coverage {tally.h0_computed}/{tally.h0_requested} "
        f"({tally.h0_requested - tally.h0_computed} skipped)"
    )
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p90_ms": percentile(latencies_ms, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_ratio": 1 - tally.failed / tally.attempted,
        "h0_coverage": tally.h0_coverage,
    }


def _place_time(result: dict, argvs: list[list[str]], prime: bool) -> float:
    return sum(
        op[0]
        for argv, op in zip(argvs, result["ops"])
        if argv[0] == "alpha" and (checks.flag(argv, "--place", "inf") != "inf") == prime
    )


def measure_layers(wl, seconds: float, tally: Tally) -> dict[str, float]:
    """Per-layer metrics from traced passes, alternating with untraced ones."""
    deadline = time.monotonic() + seconds
    plain, traced, last = [], [], 0.0
    while len(traced) < MIN_PASSES - 1 or time.monotonic() + last < deadline:
        started = time.monotonic()
        plain.append(_timed_pass(wl, False, tally)[0])
        traced.append(_timed_pass(wl, True, tally)[0])
        last = time.monotonic() - started
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace_overhead"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in plain
    )
    metrics["h0_skipped"] = (tally.h0_requested - tally.h0_computed) / (len(plain) + len(traced))
    metrics["cli.alpha_inf.total_s"] = statistics.median(_place_time(p, wl.argvs, False) for p in plain)
    metrics["cli.alpha_prime.total_s"] = statistics.median(_place_time(p, wl.argvs, True) for p in plain)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for needed in (SRC / "lieapprox" / "cli.py", GOLDEN_DIR, ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"error: {needed} not found; run from a checkout of the repository", file=sys.stderr)
            return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    try:
        measured = (measure_layers if args.trace else measure)(wl, args.seconds, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in tally.reasons[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    missing = [m["name"] for m in listed if m["name"] not in measured]
    if missing:
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed if m["name"] in measured
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

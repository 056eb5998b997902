"""Tests of the benchmark itself: seeded inputs, output checks, tracer."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_argvs(name):
    make = workloads.WORKLOADS[name]
    assert make(7).argvs == make(7).argvs
    assert make(7).argvs != make(8).argvs


def _cli(argv):
    from lieapprox.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_corrupted_output_counts_as_failed():
    ops = [
        ["verify", "--types", "G2", "--format", "json"],
        ["tables", "dims", "--types", "exceptional", "--format", "text"],
        ["bound", "--type", "A1xG2", "--divisor", "2,0,1", "--format", "text"],
    ]
    tally = run.Tally()
    outputs = []
    for argv in ops:
        code, out = _cli(argv)
        tally.add(argv, code, out)
        outputs.append(out)
    assert (tally.attempted, tally.failed) == (3, 0)

    tally.add(ops[0], 0, outputs[0].replace('"end_dim": "196"', '"end_dim": "195"'))
    tally.add(ops[1], 0, outputs[1].replace("351^2", "352^2", 1))
    tally.add(ops[2], 0, outputs[2].replace("dim X = 17", "dim X = 18"))
    tally.add(ops[0], 1, outputs[0])
    assert (tally.attempted, tally.failed) == (7, 4)


def test_missing_function_is_absent(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "core.py").write_text(
        "def work(x):\n    return helper(x) + 1\n\n"
        "def helper(x):\n    return 2 * x\n\n"
        "class Place:\n    def abs(self, x):\n        return helper(x)\n"
    )
    (pkg / "front.py").write_text("from .core import work\n\ndef main(x):\n    return work(x)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    layers = {
        "core": [("work", ("work",)), ("helper", ("helper",)), ("Place.abs", ("Place.abs",)), ("gone", ("gone",))],
        "front": [("main", ("main",))],
        "missing": [("f", ("f",))],
    }
    t = tracer.Tracer(layers, "fakepkg")
    try:
        import fakepkg.front

        t.install()
        assert fakepkg.front.main(3) == 7
        assert fakepkg.core.Place().abs(1) == 2
        report = t.report()
    finally:
        for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
            del sys.modules[name]

    assert sorted(t.absent) == ["core.gone", "missing.f"]
    assert not any(k.startswith(("core.gone.", "missing.")) for k in report)
    assert report["core.work.calls"] == 1  # called through the alias in front
    assert report["core.helper.calls"] == 2
    assert report["core.Place.abs.calls"] == 1
    assert report["front.main.total_s"] >= report["core.work.total_s"] >= report["core.helper.total_s"]
    assert report["front.self_s"] == pytest.approx(report["front.main.total_s"] - report["core.work.total_s"])

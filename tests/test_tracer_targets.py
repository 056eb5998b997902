"""Every target of the benchmark tracer exists in the package.

``perfbench/tracer.py`` wraps named ``lieapprox`` functions and reports a
target it cannot find as absent, so renaming or removing a traced function
drops metrics that ``BENCHMARK.json`` lists.  The tracer is installed in a
child interpreter, so its wrappers never reach the functions other tests
call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lieapprox

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(lieapprox.__file__).resolve().parents[1]

_INSTALL_AND_REPORT = """
import json
from tracer import Tracer

tracer = Tracer()
tracer.install()
print(json.dumps({"absent": tracer.absent, "enum_yield": tracer.enum_yield()}))
"""


def test_every_tracer_target_exists():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PERFBENCH), str(SRC)])}
    child = subprocess.run(
        [sys.executable, "-c", _INSTALL_AND_REPORT],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["absent"] == []
    assert report["enum_yield"] is not None

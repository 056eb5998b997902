"""``python -m lieapprox``: the command line of ``lieapprox.cli``."""

from .cli import run

run()

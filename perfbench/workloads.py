"""Seeded argv generators for the three benchmark workloads.

Nothing here imports ``lieapprox``: the program receives only the argv
lists built here.  The same seed gives the same list.  A seed changes which
targets, divisors, formats and orderings a pass uses, but not how much work
the pass does, so ten seeds of one workload measure the same cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Classical rank ceiling of the sweep, passed to the child through
#: ``LIEAPPROX_MAX_RANK``.  ``--rank-max`` alone cannot raise it: above the
#: default ceiling of 12 the program exits 2 ("exceeds the configured rank
#: ceiling"), because the flag never reaches ``build_root_system``.
SWEEP_MAX_RANK = 24
SECTIONS_MAX_RANK = 8

LOWEST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")

TABLE_FORMATS = ("text", "csv", "json", "latex")
VERIFY_FORMATS = ("text", "csv", "json")
#: The only formats with a checked-in golden for ``--types exceptional``.
GOLDEN_FORMATS = ("text", "json")

#: Factors of the ``bound`` products in the sections workload: every
#: supported type of rank at most 3.
SMALL_FACTORS = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")
BOUND_OPS = 48
BOUND_MAX_COORD = 3

#: Lab places, primes first: stratum k of the count schedule goes to
#: PLACES[(LAB_OPS - 1 - k) % 5], so the single largest count runs at 2.
PLACES = ("2", "3", "5", "7", "inf")
LAB_OPS = 128
LAB_MIN_COUNT = 20
LAB_MAX_COUNT = 2000
#: Below 2 the law has infinite variance.  With 128 strata the counts rise
#: in steps of about 6% near the 90th percentile, so op_p90_ms does not sit
#: in a gap between two strata.
LAB_TAIL_INDEX = 1.2
LAB_GAMMAS = (0.5, 1.0, 1.5, 2.0, 3.0)
LAB_COORD = 3


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: list[list[str]]
    env: dict[str, str] = field(default_factory=dict)


def supported_types(max_rank: int) -> list[str]:
    """Every simple type up to the classical ceiling, as ``A1`` ... ``G2``."""
    out = [f"{f}{n}" for f, lo in LOWEST_RANK.items() for n in range(lo, max_rank + 1)]
    return sorted(out + list(EXCEPTIONAL), key=lambda t: (t[0], int(t[1:])))


def sweep(seed: int) -> Workload:
    """``verify`` (end mode) and both tables for every type up to rank 24,
    one type per op, cycling through the formats from a seeded offset, plus
    both exceptional tables in a golden-backed format."""
    rng = random.Random(f"sweep:{seed}")
    blocks = []
    for t in supported_types(SWEEP_MAX_RANK):
        offset = rng.randrange(len(TABLE_FORMATS))
        block = [["verify", "--types", t, "--format", VERIFY_FORMATS[offset % 3]]]
        for j, which in enumerate(("rootcurves", "dims"), start=1):
            fmt = TABLE_FORMATS[(offset + j) % len(TABLE_FORMATS)]
            block.append(["tables", which, "--types", t, "--format", fmt])
        blocks.append(block)
    for which in ("rootcurves", "dims"):
        blocks.append([["tables", which, "--types", "exceptional", "--format", rng.choice(GOLDEN_FORMATS)]])
    # A type's ops stay together, verify first, so its root closure is
    # always paid by the same op and the latency percentiles do not depend
    # on the seed.
    rng.shuffle(blocks)
    argvs = [argv for block in blocks for argv in block]
    return Workload("sweep", argvs, {"LIEAPPROX_MAX_RANK": str(SWEEP_MAX_RANK)})


def _block(rng: random.Random, rank: int) -> list[int]:
    """Nonzero divisor coordinates on one factor.  A zero block adds the
    factor's dimension to dim X but nothing to the section count, so the
    direct verdict can rightly fail (``bound --type B2xA2 --divisor
    0,0,0,3`` exits 1), and a workload must hold no failing op."""
    while True:
        coords = [rng.randint(0, BOUND_MAX_COORD) for _ in range(rank)]
        if any(coords):
            return coords


def sections(seed: int) -> Workload:
    """``verify --mode h0`` for every type up to rank 8, one type per op,
    plus seeded ``bound`` queries on products of one to three small factors."""
    rng = random.Random(f"sections:{seed}")
    argvs = []
    for t in supported_types(SECTIONS_MAX_RANK):
        fmt = rng.choice(VERIFY_FORMATS)
        argvs.append(["verify", "--mode", "h0", "--types", t, "--format", fmt])
    for _ in range(BOUND_OPS):
        factors = [rng.choice(SMALL_FACTORS) for _ in range(rng.randint(1, 3))]
        coords = [c for f in factors for c in _block(rng, int(f[1:]))]
        argvs.append([
            "bound",
            "--type", "x".join(factors),
            "--divisor", ",".join(map(str, coords)),
            "--format", rng.choice(("text", "json")),
        ])
    rng.shuffle(argvs)
    return Workload("sections", argvs)


def lab_count(k: int) -> int:
    """Count of stratum k: the midpoint quantile of a Pareto law with index
    LAB_TAIL_INDEX and minimum LAB_MIN_COUNT, capped at LAB_MAX_COUNT."""
    u = (k + 0.5) / LAB_OPS
    return min(LAB_MAX_COUNT, math.floor(LAB_MIN_COUNT * (1 - u) ** (-1 / LAB_TAIL_INDEX)))


def _target(rng: random.Random, dim: int, slow: bool) -> list[int]:
    """A primitive target in P^dim with first coordinate 0 (``slow``) or
    positive, and every other coordinate nonzero.

    On the line through a slow target one coordinate is a bare power of p,
    and every zero coordinate zeroes a cross term, so both shape the p-adic
    valuation work.  Fixing them per stratum keeps a pass's cost
    independent of the seed.
    """
    while True:
        coords = [0 if slow else rng.randint(1, LAB_COORD)]
        coords += [rng.choice((-1, 1)) * rng.randint(1, LAB_COORD) for _ in range(dim)]
        if math.gcd(*coords) == 1:
            return coords if coords[0] or coords[1] > 0 else [-c for c in coords]


def lab(seed: int) -> Workload:
    """``alpha`` on primitive targets in P^1 and P^2 at five places, with
    heavy-tailed counts.  Count, place, dimension and target class are fixed
    per stratum; the seed draws the targets, ``m``, gammas and format."""
    rng = random.Random(f"lab:{seed}")
    argvs = []
    for k in range(LAB_OPS):
        place = PLACES[(LAB_OPS - 1 - k) % len(PLACES)]
        dim = 1 if (k // 2) % 2 == 0 else 2
        target = _target(rng, dim, slow=k % 2 == 0)
        m = rng.randint(1, 2)
        argv = [
            "alpha",
            "--P", ":".join(map(str, target)),
            "--place", place,
            "--count", str(lab_count(k)),
            "--m", str(m),
        ]
        for gamma in rng.sample(LAB_GAMMAS, rng.randint(0, 2)):
            argv += ["--gamma", str(gamma)]
        argvs.append(argv + ["--format", rng.choice(("text", "json"))])
    rng.shuffle(argvs)
    return Workload("lab", argvs)


WORKLOADS = {"sweep": sweep, "sections": sections, "lab": lab}

"""Per-layer tracing from outside the package.

Each target is a public function of one ``lieapprox`` module (or a method,
written ``Class.method``).  ``install`` replaces it with a wrapper that
counts calls and accumulates total and self time, where self time is the
call's duration minus the time its traced children took.  The wrapper is
rebound under every name that refers to the function in any ``lieapprox``
module, so ``from .bounds import verify_colour`` in ``cli`` is traced too;
methods are wrapped on their class.  A target that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "lieapprox"

_TABLES_AUDIT = (
    "audit_comarks", "audit_curve_binomials", "audit_end_bases", "audit_dim_x", "header_formula_flags",
)
_TABLES_COMPUTED = (
    "computed_comark_row", "computed_curve_binomial_row", "computed_end_base_row", "computed_dim_x",
)

#: layer -> [(key, attribute names traced under that key)].  A key with
#: several attributes is a group: tables.audit and tables.computed.
LAYERS = {
    "rootsys": [("build_root_system", ("build_root_system",))],
    "repdim": [
        (name, (name,)) for name in ("weyl_dim", "dominant_weights_below", "h0_dim", "dominance_box_size")
    ],
    "wonderful": [(name, (name,)) for name in ("h0_product", "root_curve_degree", "dim_X")],
    "bounds": [(name, (name,)) for name in ("verify_colour", "verify_nef", "liouville_bound")],
    "tables": [("audit", _TABLES_AUDIT), ("computed", _TABLES_COMPUTED)],
    "dioph": [
        (name, (name,))
        for name in (
            "PlaceSpec.abs", "distance", "make_sample", "best_sequence_on_line",
            "alpha_estimate", "boundedness_trend",
        )
    ],
    "cli": [("main", ("main",))],
}

#: Weights returned per dominance-box candidate, while the box exists.
ENUM_YIELD = "repdim.enum_yield"


def metric_names(layers: dict = LAYERS) -> list[str]:
    """Every per-layer metric the tracer can report, in a fixed order."""
    names = []
    for layer, targets in layers.items():
        for key, _ in targets:
            names += [f"{layer}.{key}.{stat}" for stat in ("calls", "total_s", "self_s")]
        if layer == "repdim":
            names.append(ENUM_YIELD)
        names.append(f"{layer}.self_s")
    return names


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Call counts and times per traced key, kept in memory."""

    def __init__(self, layers: dict = LAYERS, package: str = PACKAGE):
        self.layers = layers
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.enumerations: list[tuple] = []  # (root system, weight, weights returned)
        self._children: list[float] = []  # child time of each open traced call

    def wrap(self, key: str, fn, on_return=None):
        stat = self.stats.setdefault(key, Stat())
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - inner
                if children:
                    children[-1] += elapsed
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def install(self) -> None:
        layers, package = self.layers, self.package
        for layer in layers:
            try:
                importlib.import_module(f"{package}.{layer}")
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for layer, targets in layers.items():
            module = sys.modules.get(f"{package}.{layer}")
            for key, attrs in targets:
                metric_key = f"{layer}.{key}"
                found = False
                for attr in attrs:
                    owner_path, _, name = attr.rpartition(".")
                    owner = module
                    for part in owner_path.split(".") if owner_path else ():
                        owner = getattr(owner, part, None)
                    original = getattr(owner, name, None)
                    if not callable(original):
                        continue
                    found = True
                    hook = self._record_enumeration if attr == "dominant_weights_below" else None
                    wrapper = self.wrap(metric_key, original, hook)
                    if owner is not module:
                        setattr(owner, name, wrapper)
                        continue
                    for m in modules:
                        for alias, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, alias, wrapper)
                if not found:
                    self.absent.append(metric_key)

    def _record_enumeration(self, args, result) -> None:
        self.enumerations.append((args[0], args[1], len(result)))

    def enum_yield(self) -> float | None:
        """Weights returned / box candidates over every enumeration traced
        (0 when nothing was enumerated), or None once ``dominance_box_size``
        is gone."""
        box_size = getattr(sys.modules.get(f"{self.package}.repdim"), "dominance_box_size", None)
        box_size = getattr(box_size, "__wrapped__", box_size)
        if box_size is None:
            return None
        returned = sum(n for _, _, n in self.enumerations)
        candidates = sum(box_size(rs, lam) for rs, lam, _ in self.enumerations)
        return returned / candidates if candidates else 0.0

    def report(self) -> dict[str, float]:
        """Metric name -> value; absent targets are left out."""
        out: dict[str, float] = {}
        for layer, targets in self.layers.items():
            present = [f"{layer}.{key}" for key, _ in targets if f"{layer}.{key}" not in self.absent]
            for key in present:
                stat = self.stats[key]
                out[f"{key}.calls"] = stat.calls
                out[f"{key}.total_s"] = stat.total_s
                out[f"{key}.self_s"] = stat.self_s
            if layer == "repdim":
                value = self.enum_yield()
                if value is not None:
                    out[ENUM_YIELD] = value
            if present:
                out[f"{layer}.self_s"] = sum(self.stats[key].self_s for key in present)
        return out

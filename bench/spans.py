"""Spans around the calls into each wcodyn layer, recorded from outside.

``Tracer.install`` replaces public functions and methods of the ``wcodyn``
modules with wrappers that record a span (name, duration, parent) per call;
the program's own code is not changed.  A module-level function is replaced
in every ``wcodyn`` module that imported it, so calls between modules are
seen too.  Spans are aggregated in memory by name: total time, self time
(duration minus the time of direct traced children), calls and items (rows
or points handed to the call).  ``AffineLatticeMap.apply`` is counted
without timing, since it is called per point.
"""

from __future__ import annotations

import time

import wcodyn
from wcodyn import cli, config, criteria, domain, operators, spaces, witness

_MODULES = (wcodyn, cli, config, criteria, domain, operators, spaces, witness)

WEIGHT_KINDS = {
    spaces.ConstantWeight: "constant",
    spaces.RadialPowerWeight: "radial_power",
    spaces.TableWeight: "table",
    spaces.ProductWeight: "product",
}
NORM_KINDS = {
    spaces.EllPNorm: "ell_p",
    spaces.OrliczNorm: "orlicz",
    spaces.MorreyNorm: "morrey",
}


class Stat:
    __slots__ = ("total_ns", "self_ns", "calls", "items")

    def __init__(self):
        self.total_ns = self.self_ns = self.calls = self.items = 0

    def as_tuple(self):
        return (self.total_ns, self.self_ns, self.calls, self.items)


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.active = False
        self._stack: list = []  # [name, child_ns] per open span

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _span(self, name: str, fn, items=None):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][0] == name):
                # A span directly inside one of the same name (a weight's
                # log_values calling its values) is part of the outer span.
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = tracer._stat(name)
                st.total_ns += dt
                st.self_ns += dt - frame[1]
                st.calls += 1
                if items is not None:
                    st.items += items(args)
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if parent[0] == "criteria.check" and name.startswith("spaces.norm."):
                        tracer._stat("criteria.chi_norm").calls += 1

        return wrapper

    def _count(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer._stat(name).calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, items: int):
        """Record a count read from a result or a check rather than from a call."""
        self._stat(name).items += items

    def snapshot(self) -> dict:
        return {name: st.as_tuple() for name, st in self.stats.items()}

    # -- installing ---------------------------------------------------------

    @staticmethod
    def _patch_method(cls, attr: str, wrapper_for):
        setattr(cls, attr, wrapper_for(getattr(cls, attr)))

    @staticmethod
    def _patch_function(fn, wrapper):
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap the layers' public calls for the rest of the process."""
        span, count = self._span, self._count

        def rows(args):
            return len(args[1])

        self._patch_function(config.parse_config, span("config.parse", config.parse_config))
        self._patch_method(config.ScenarioConfig, "build", lambda f: span("config.build", f))
        self._patch_function(cli.run_scenario, span("cli.run_scenario", cli.run_scenario))
        self._patch_function(cli.emit_curves, span("cli.emit_curves", cli.emit_curves))
        for fn in (domain.aperiodicity_bound, domain.disjoint_aperiodicity_bound):
            self._patch_function(fn, span("domain.aperiodicity", fn))
        self._patch_method(domain.AffineLatticeMap, "apply", lambda f: count("domain.apply", f))
        self._patch_method(domain.AffineLatticeMap, "apply_many",
                           lambda f: span("domain.apply_many", f, rows))
        for fn in (criteria.check_transitivity, criteria.check_disjoint_transitivity,
                   criteria.check_semi_transitivity):
            self._patch_function(fn, span("criteria.check", fn))
        for cls, kind in WEIGHT_KINDS.items():
            for attr in ("values", "log_values"):
                self._patch_method(cls, attr, lambda f, k=kind: span(f"spaces.weight.{k}", f, rows))
        for cls, kind in NORM_KINDS.items():
            self._patch_method(cls, "value", lambda f, k=kind: span(f"spaces.norm.{k}", f, rows))
        self._patch_method(operators.WeightedCompositionOperator, "iterate",
                           lambda f: span("operators.iterate", f))
        self._patch_function(witness.verify_report, span("witness.verify", witness.verify_report))
        self._patch_function(witness.build_witness, span("witness.build", witness.build_witness))
        self._patch_function(witness.feasibility_oracle,
                             span("witness.oracle", witness.feasibility_oracle))


def delta(after: dict, before: dict) -> dict:
    """Per-name difference of two snapshots."""
    out = {}
    for name, vals in after.items():
        prev = before.get(name, (0, 0, 0, 0))
        diff = tuple(a - b for a, b in zip(vals, prev))
        if any(diff):
            out[name] = diff
    return out


# The per-layer metrics, in BENCHMARK.json order: (metric, unit, span, field).
# Field 0 is total time, 1 self time, 2 calls, 3 items.
def per_layer_metrics() -> list:
    m = [
        ("config.parse_s", "s", "config.parse", 0),
        ("config.build_s", "s", "config.build", 0),
        ("cli.run_scenario_s", "s", "cli.run_scenario", 0),
        ("cli.emit_curves_s", "s", "cli.emit_curves", 0),
        ("domain.aperiodicity_s", "s", "domain.aperiodicity", 0),
        ("domain.apply_calls", "count", "domain.apply", 2),
        ("domain.apply_many_s", "s", "domain.apply_many", 0),
        ("domain.apply_many_calls", "count", "domain.apply_many", 2),
        ("domain.apply_many_rows", "count", "domain.apply_many", 3),
        ("criteria.check_s", "s", "criteria.check", 0),
        ("criteria.check_self_s", "s", "criteria.check", 1),
        ("criteria.iterates_scanned", "count", "criteria.iterates", 3),
        ("criteria.stages_accepted", "count", "criteria.stages", 3),
        ("criteria.chi_norm_calls", "count", "criteria.chi_norm", 2),
    ]
    for kind in WEIGHT_KINDS.values():
        m.append((f"spaces.weight_s.{kind}", "s", f"spaces.weight.{kind}", 0))
        m.append((f"spaces.weight_points.{kind}", "count", f"spaces.weight.{kind}", 3))
    for kind in NORM_KINDS.values():
        m.append((f"spaces.norm_s.{kind}", "s", f"spaces.norm.{kind}", 0))
        m.append((f"spaces.norm_calls.{kind}", "count", f"spaces.norm.{kind}", 2))
        m.append((f"spaces.norm_points.{kind}", "count", f"spaces.norm.{kind}", 3))
    m += [
        ("operators.iterate_s", "s", "operators.iterate", 0),
        ("operators.iterate_calls", "count", "operators.iterate", 2),
        ("witness.verify_s", "s", "witness.verify", 0),
        ("witness.build_s", "s", "witness.build", 0),
        ("witness.oracle_s", "s", "witness.oracle", 0),
        ("witness.oracle_iterations", "count", "witness.oracle_iterations", 3),
    ]
    return m


def benchmark_entries() -> list:
    """The ``per_layer`` list of BENCHMARK.json, made from the table above."""
    return [
        {"name": metric, "unit": unit,
         "better": "higher" if metric == "criteria.stages_accepted" else "lower"}
        for metric, unit, _, _ in per_layer_metrics()
    ]

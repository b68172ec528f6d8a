"""Spans and counts recorded from outside the program.

`Recorder.install` wraps each traced function at every name that binds it:
the defining module, every slemma module that from-imported it, and the
package namespace.  Patching only the defining module would miss the
callers that hold their own reference.  `missed_bindings` is the coverage
self-check: it lists any slemma name still bound to an unwrapped original.
"""

import sys
import time
from collections import Counter, defaultdict

from slemma import (certificate, cli, geometry, implication, linprog,
                    quadratic, search, systems)

# searches whose eigen_sym calls are also counted per search
EIGEN_SCOPES = ("find_certificate_general", "find_certificate_p1")


class Recorder:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)   # seconds, child spans included
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.max_vars = 0
        self._stack = []                  # [start, child seconds]
        self._active = Counter()
        self._patched = []                # (owner, attribute, original)
        self._originals = {}

    # -- spans --------------------------------------------------------------
    def _span(self, name, fn, after=None):
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ----------------------------------------------------------------
    def _after_solve_lp(self, args, outcome):
        self.max_vars = max(self.max_vars, int(args[0].c.shape[0]))

    def _after_values_batch(self, args, values):
        self.counts["values_batch.rows"] += int(values.shape[0])

    def _after_find_counterexample(self, args, result):
        self.counts["find_counterexample.hits"] += int(result.found)

    def _after_falsify(self, args, result):
        self.counts["falsify_convexity.trials"] += int(result.trials_run)

    def _after_eigen(self, args, result):
        for scope in EIGEN_SCOPES:
            if self._active[scope]:
                self.counts[f"eigen_sym.in.{scope}"] += 1

    def _oracle_factory(self, factory):
        def wrapper(*args, **kwargs):
            return self._span("oracle", factory(*args, **kwargs))

        wrapper.__wrapped__ = factory
        return wrapper

    # -- installation -----------------------------------------------------------
    def _targets(self):
        """(owner, attribute, function that wraps the original)."""
        def span(name, after=None):
            return lambda fn: self._span(name, fn, after)

        return [
            (cli, "main", span("cli.main")),
            (implication, "classify_instance", span("classify_instance")),
            (implication, "check_slater", span("check_slater")),
            (implication, "find_counterexample",
             span("find_counterexample", self._after_find_counterexample)),
            (certificate, "find_certificate_general",
             span("find_certificate_general")),
            (certificate, "find_certificate_p1", span("find_certificate_p1")),
            (quadratic, "eigen_sym", span("eigen_sym", self._after_eigen)),
            (linprog, "solve_lp", span("solve_lp", self._after_solve_lp)),
            (geometry, "hull_intersects_k", span("frontier")),
            (geometry, "extract_separator", span("frontier")),
            (geometry, "sample_image", span("sample_image")),
            (geometry, "falsify_convexity",
             span("falsify_convexity", self._after_falsify)),
            (geometry, "epi_membership_oracle", self._oracle_factory),
            (geometry, "identity_membership_oracle", self._oracle_factory),
            (geometry, "_member_search", span("member_search")),
            (search, "descend", span("descend")),
            (search, "fd_gradient",
             lambda fn: self._counted("descend.steps", fn)),
            (systems.FunctionSystem, "values_batch",
             span("values_batch", self._after_values_batch)),
        ]

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "slemma"
                                      or name.startswith("slemma."))]

    def install(self):
        for owner, attr, wrap in self._targets():
            original = getattr(owner, attr)
            wrapped = wrap(original)
            self._originals[id(original)] = original
            owners = [owner] if isinstance(owner, type) else self._modules()
            for module in owners:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def missed_bindings(self):
        """Names in slemma modules and classes still bound to an unwrapped
        original."""
        missed = []
        for owner in self._modules() + [systems.FunctionSystem]:
            for key, value in vars(owner).items():
                if id(value) in self._originals and \
                        value is self._originals[id(value)]:
                    missed.append(f"{owner.__name__}.{key}")
        return missed

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- metrics ------------------------------------------------------------------
    def metrics(self, ops):
        """Per-layer metrics: per-operation means, except ratios and
        max_vars."""
        calls, counts = self.calls, self.counts

        def per_op(x):
            return x / ops

        def ms(seconds):
            return 1e3 * seconds / ops

        def ratio(a, b):
            return a / b if b else 0.0

        searches = calls["member_search"]
        out = {
            "geometry.frontier.calls": (per_op(calls["frontier"]), "count"),
            "geometry.frontier.self_ms": (ms(self.self_time["frontier"]),
                                          "ms"),
            "linprog.solve_lp.calls": (per_op(calls["solve_lp"]), "count"),
            "linprog.solve_lp.self_ms": (ms(self.self_time["solve_lp"]),
                                         "ms"),
            "linprog.solve_lp.max_vars": (self.max_vars, "count"),
            "geometry.falsify_convexity.self_ms": (
                ms(self.self_time["falsify_convexity"]), "ms"),
            "geometry.falsify_convexity.trials": (
                per_op(counts["falsify_convexity.trials"]), "count"),
            "geometry.oracle.calls": (per_op(calls["oracle"]), "count"),
            "geometry.oracle.member_searches": (per_op(searches), "count"),
            "geometry.oracle.fast_path_share": (
                1.0 - ratio(searches, calls["oracle"])
                if calls["oracle"] else 0.0, "ratio"),
            "geometry.sample_image.self_ms": (
                ms(self.self_time["sample_image"]), "ms"),
            "quadratic.eigen_sym.calls": (per_op(calls["eigen_sym"]),
                                          "count"),
            "quadratic.eigen_sym.self_ms": (ms(self.self_time["eigen_sym"]),
                                            "ms"),
            "quadratic.eigen_sym.us_per_call": (
                1e6 * ratio(self.self_time["eigen_sym"], calls["eigen_sym"]),
                "us"),
            "certificate.find_certificate_general.ms": (
                ms(self.total["find_certificate_general"]), "ms"),
        }
        for scope in EIGEN_SCOPES:
            out[f"certificate.{scope}.eigen_per_search"] = (
                ratio(counts[f"eigen_sym.in.{scope}"], calls[scope]), "count")
        out.update({
            "systems.values_batch.calls": (per_op(calls["values_batch"]),
                                           "count"),
            "systems.values_batch.rows": (
                per_op(counts["values_batch.rows"]), "count"),
            "systems.values_batch.self_ms": (
                ms(self.self_time["values_batch"]), "ms"),
            "systems.values_batch.ns_per_row": (
                1e9 * ratio(self.self_time["values_batch"],
                            counts["values_batch.rows"]), "ns"),
            "search.descend.calls": (per_op(calls["descend"]), "count"),
            "search.descend.steps": (per_op(counts["descend.steps"]),
                                     "count"),
            "search.descend.self_ms": (ms(self.self_time["descend"]), "ms"),
            "implication.check_slater.ms": (ms(self.total["check_slater"]),
                                            "ms"),
            "implication.find_counterexample.ms": (
                ms(self.total["find_counterexample"]), "ms"),
            "implication.find_counterexample.calls": (
                per_op(calls["find_counterexample"]), "count"),
            "implication.find_counterexample.hit_share": (
                ratio(counts["find_counterexample.hits"],
                      calls["find_counterexample"]), "ratio"),
            "cli.overhead_ms": (
                ms(self.total["cli.main"] - self.total["classify_instance"])
                if calls["cli.main"] else 0.0, "ms"),
        })
        return out

    def work_counts(self):
        """Everything that must repeat exactly for one seed."""
        record = {f"calls.{k}": v for k, v in sorted(self.calls.items())}
        record.update({k: v for k, v in sorted(self.counts.items())})
        record["solve_lp.max_vars"] = self.max_vars
        return record

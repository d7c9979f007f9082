"""Outside-in tracing of the noether layers.

The tracer changes no file of the package.  It replaces each traced public
function at every place where the package looks it up: the defining
module's attribute and every ``from .x import y`` binding in another noether
module (for example ``harness.derive_mutants``, ``cli.construct_mp`` and the
functions of ``sys.modules["noether.mutate"]``, whose package attribute is
shadowed by the ``mutate`` function).  A target that cannot be found
raises at install time, so a rename fails loudly instead of silently
zeroing a layer.

Each wrapped call records a span (name, start, end, parent) and adds to
named counters.  Recursive functions are timed at their outermost call
only.  Evaluations of compiled mini-language programs are counted per
calling stage (equivalence filter, homogeneity tagging, MR checks) and feed
the self time of their layer, but are not kept as spans: there are over a
hundred thousand of them per unit.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "minilang",
    "mutate",
    "zoo",
    "harness",
    "relational",
    "specfile",
    "algebra",
    "derive",
    "reachability",
    "stats",
    "cli",
)

# Stages a compiled-program evaluation is attributed to, keyed by the
# traced function that opens the stage.
EVAL_STAGES = {
    "mutate.is_trivially_equivalent": "equiv",
    "mutate.homogeneity_effect_of": "tag",
    "harness.check_mr": "check",
}


def _count_true(key):
    return lambda result, args, kwargs: {key: 1 if result is True else 0}


def _count_len(key):
    return lambda result, args, kwargs: {key: len(result)}


def _check_fails(result, args, kwargs):
    return {"harness.check_fails": 0 if result.passed else 1}


def _kill_matrix(result, args, kwargs):
    return {"harness.cells": len(result.cells), "harness.excluded": len(result.excluded)}


def _tag(result, args, kwargs):
    return {"mutate.tag_preserving": 1 if result == "preserving" else 0}


def _trial(result, args, kwargs):
    return {"relational.trial_fails": 0 if result.passed else 1}


# (module, attribute, metric prefix, result hook).  The prefix names the
# call counter "<prefix>" and the time "<prefix>_s".
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("noether.minilang", "compile_program", "minilang.compile", None),
    ("noether.minilang", "fold_constants", "minilang.fold", None),
    ("noether.mutate", "mutate", "mutate.mutate", _count_len("mutate.mutants")),
    ("noether.mutate", "is_trivially_equivalent", "mutate.equiv", _count_true("mutate.equiv_dropped")),
    ("noether.mutate", "homogeneity_effect_of", "mutate.tag", _tag),
    ("noether.zoo", "load_zoo", "zoo.load", None),
    ("noether.zoo", "sample_args", "zoo.sample", None),
    ("noether.zoo", "scaling_sample", "zoo.scaling_sample", None),
    ("noether.harness", "build_standard_mrs", "harness.build_mrs", _count_len("harness.mrs")),
    ("noether.harness", "generate_tuples", "harness.tuple", _count_len("harness.tuple_groups")),
    ("noether.harness", "check_mr", "harness.check", _check_fails),
    ("noether.harness", "run_kill_experiment", "harness.kill_matrix", _kill_matrix),
    ("noether.harness", "run_blindness_experiment", "harness.blindness", None),
    ("noether.harness", "coverage", "harness.coverage", None),
    ("noether.relational", "run_rel_mrs", "relational.run", None),
    ("noether.relational", "run_rel_trial", "relational.trial", _trial),
    ("noether.relational", "gen_database", "relational.db", None),
    ("noether.relational", "bundled_rules", "relational.rule_load", None),
    ("noether.relational", "rewrite_once", "relational.rewrite", None),
    ("noether.relational", "Evaluator.eval", "relational.eval", None),
    ("noether.specfile", "parse_algebra", "specfile.parse", None),
    ("noether.specfile", "parse_mr_descriptor", "specfile.parse", None),
    ("noether.specfile", "parse_sut_file", "specfile.parse", None),
    ("noether.specfile", "parse_mutator_config", "specfile.parse", None),
    ("noether.algebra", "decompose", "algebra.decompose", None),
    ("noether.derive", "construct_mp", "derive.construct", None),
    ("noether.reachability", "check_reachability", "reachability.check", None),
    ("noether.stats", "wilson_interval", "stats.call", None),
    ("noether.stats", "mcnemar_exact", "stats.call", None),
    ("noether.stats", "fisher_exact_2x2", "stats.call", None),
    ("noether.stats", "fleiss_kappa", "stats.call", None),
    ("noether.cli", "cmd_derive", "cli.command", None),
    ("noether.cli", "cmd_check_mr", "cli.command", None),
    ("noether.cli", "cmd_coverage", "cli.command", None),
    ("noether.cli", "cmd_mutate", "cli.command", None),
    ("noether.cli", "cmd_kill", "cli.command", None),
    ("noether.cli", "cmd_rel", "cli.command", None),
    ("noether.cli", "cmd_stats", "cli.command", None),
    ("noether.cli", "cmd_reproduce", "cli.command", None),
)

RECURSIVE = {"minilang.fold_constants", "relational.Evaluator.eval", "relational.rewrite_once"}


class LayerMissing(RuntimeError):
    """A traced function is gone or no longer looked up anywhere."""


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.self_times: Counter = Counter()
        self.spans: List[Tuple[str, float, float, int]] = []
        self.keep_spans = False
        self.stage = "other"
        self.on = False
        self._stack: List[List] = []  # [span index or -1, children seconds]
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _call(self, name: str, layer: str, prefix: str, hook, fn, args, kwargs):
        stage = EVAL_STAGES.get(name)
        saved_stage = self.stage
        if stage is not None:
            self.stage = stage
        frame = [len(self.spans) if self.keep_spans else -1, 0.0]
        parent = self._stack[-1][0] if self._stack else -1
        if self.keep_spans:
            self.spans.append((name, 0.0, 0.0, parent))
        units_before = _cost_total(name, args, kwargs)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.stage = saved_stage
            elapsed = end - start
            self.counts[prefix] += 1
            self.times[prefix] += elapsed
            self.self_times[layer] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
            if frame[0] >= 0:
                self.spans[frame[0]] = (name, start, end, parent)
        if hook is not None:
            self.counts.update(hook(result, args, kwargs))
        if units_before is not None:
            self.counts["derive.cost_units"] += _cost_total(name, args, kwargs) - units_before
        return result

    def _wrap(self, name: str, prefix: str, hook, fn):
        layer = name.split(".", 1)[0]
        recursive = name in RECURSIVE
        depth = [0]

        def traced(*args, **kwargs):
            if not self.on or depth[0]:
                return fn(*args, **kwargs)
            if recursive:
                depth[0] += 1
                try:
                    return self._call(name, layer, prefix, hook, fn, args, kwargs)
                finally:
                    depth[0] -= 1
            return self._call(name, layer, prefix, hook, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_compiled(self, run, domain_error):
        """Count and time every evaluation of one compiled program."""

        def evaluate(*args):
            if not self.on:
                return run(*args)
            stage = self.stage
            start = time.perf_counter()
            try:
                return run(*args)
            except domain_error:
                self.counts["minilang.domain_errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.counts["minilang.evals"] += 1
                self.counts["minilang.evals." + stage] += 1
                self.times["minilang.eval"] += elapsed
                self.self_times["minilang"] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed

        return evaluate

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import noether.cli  # noqa: F401  (the package imports the other traced modules)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "noether" or n.startswith("noether.")]
        for module_name, attr, prefix, hook in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                raise LayerMissing(f"module {module_name} is not loaded")
            name = module_name.split(".", 1)[1] + "." + attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                original = getattr(owner, meth, None) if owner is not None else None
                if original is None:
                    raise LayerMissing(f"{name} not found")
                self._patch(owner, meth, self._wrap(name, prefix, hook, original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise LayerMissing(f"{name} not found")
            wrapper = self._wrap(name, prefix, hook, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        self._install_compile_counter(sys.modules["noether.minilang"])

    def _install_compile_counter(self, minilang) -> None:
        traced_compile = minilang.compile_program
        domain_error = minilang.DomainError

        def compile_program(prog):
            return self._wrap_compiled(traced_compile(prog), domain_error)

        compile_program.__wrapped__ = traced_compile
        for mod in [m for n, m in sys.modules.items() if n.startswith("noether.")]:
            for key, value in list(vars(mod).items()):
                if value is traced_compile:
                    self._patch(mod, key, compile_program)

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()
        self.on = False

    # -- reading ---------------------------------------------------------

    def reset(self, keep_spans: bool = False) -> None:
        self.counts = Counter()
        self.times = Counter()
        self.self_times = Counter()
        self.spans = []
        self.keep_spans = keep_spans
        self.stage = "other"

    def layer_calls(self) -> Dict[str, int]:
        calls: Counter = Counter()
        for prefix, n in self.counts.items():
            layer = prefix.split(".", 1)[0]
            if prefix in _CALL_COUNTERS:
                calls[layer] += n
        return dict(calls)


_CALL_COUNTERS = {prefix for _, _, prefix, _ in TARGETS} | {"minilang.evals"}


def _cost_total(name, args, kwargs):
    """The CostCounter total passed to construct_mp, if any."""
    if name != "derive.construct_mp":
        return None
    counter = kwargs.get("counter", args[1] if len(args) > 1 else None)
    return None if counter is None else counter.total

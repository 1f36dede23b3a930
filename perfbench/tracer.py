"""Spans and counters recorded from outside the program.

`install` replaces public functions of the twistkit modules with wrappers,
in every module that binds them, so that names imported with
`from ... import` (as `theta` and `cli` do) are traced as well.  A span
records name, start, end and the index of its parent span; spans stay in
memory until `summary` is called.  The `perms` primitives run millions of
times per workload, so they are only counted.
"""

from __future__ import annotations

import sys
import time

# Functions timed with a span, and how to size one call from its arguments.
TIMED = {
    "cli.main": None,
    "theta.check_relations": None,
    "theta.square_root_family": None,
    "theta.root_experiment_report": None,
    "theta.hyperelliptic_experiment": None,
    "theta.separation_evidence": None,
    "braid.left_normal_form": ("letters", lambda a: len(a[0].letters)),
    "braid.equals": None,
    "braid.equals_mod_center": None,
    "words.parse_word": ("chars", lambda a: len(a[0])),
    "symplectic.evaluate_word": ("letters", lambda a: len(a[1].letters)),
    "symplectic.mats_equal": None,
    "sl2.roots_of_minus_identity": None,
    "sl2.reduce_elliptic": None,
    "artin.artin_action": None,
}

# Sized by their result rather than their arguments.
RESULT_SIZES = {"sl2.roots_of_minus_identity": "found"}

COUNTED = [
    "perms." + name for name in (
        "is_permutation", "identity", "reversal", "transposition", "compose",
        "inverse", "length", "right_descents", "left_descents", "reduced_word",
    )
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self._stack: list[int] = []

    def _timed(self, name, fn, sizer, result_size):
        spans, stack, counts, sizes = self.spans, self._stack, self.counts, self.sizes

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if sizer is not None:
                key = f"{name}.{sizer[0]}"
                sizes[key] = sizes.get(key, 0) + sizer[1](args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if result_size is not None:
                key = f"{name}.{result_size}"
                sizes[key] = sizes.get(key, 0) + len(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function wherever a twistkit module binds it."""
        import twistkit.cli  # noqa: F401  (imports every traced module)
        import twistkit.artin  # noqa: F401

        modules = [m for key, m in sys.modules.items()
                   if key.startswith("twistkit.") and m is not None]
        wrappers = {}
        for name in [*TIMED, *COUNTED]:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"twistkit.{module_name}"], attr, None)
            if original is None:
                continue
            if name in TIMED:
                wrappers[id(original)] = self._timed(
                    name, original, TIMED[name], RESULT_SIZES.get(name))
            else:
                wrappers[id(original)] = self._counted(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, and sizes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0})
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return {"counts": dict(self.counts), "sizes": dict(self.sizes), "times": totals}

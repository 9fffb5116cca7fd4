"""Outside-in tracing: wrap pushkit's public functions where their callers
look them up, record one span per call, and sum spans into layer metrics.

A span is (name, start, end, parent, op, count).  ``parent`` is the index
of the enclosing span or -1, ``op`` labels the benchmark operation the span
belongs to, and ``count`` is the one term count recorded at that boundary
(or None).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable

# (span name, module attribute holding the function, count taken at exit).
# Term counts read Polynomial._terms: the class has no public term count.
_FUNCTIONS = [
    ("expressions.parse", ("expressions", "parse_expression"), None),
    ("expressions.elaborate", ("expressions", "elaborate"), lambda args, out: len(out.payload._terms)),
    ("polyring.series_inverse", ("polyring", "series_inverse"), None),
    ("polyring.divide_exact_linear", ("polyring", "divide_exact_linear"), lambda args, out: len(args[0]._terms)),
    ("localization.localize", ("localization", "localize"), lambda args, out: len(out.value._terms)),
    ("symfun.is_symmetric", ("symfun", "is_symmetric"), None),
    ("symfun.reduce_to_elementary", ("symfun", "reduce_to_elementary"), lambda args, out: len(out._terms)),
    ("symfun.expand_elementary", ("symfun", "expand_elementary"), None),
    (
        "gysin.pushforward",
        ("gysin", "pushforward"),
        lambda args, out: int("presentation_oracle" in out.checks),
    ),
    ("cli.run", ("cli", "run"), None),
]
# Per-rank caches: a span is kept only for a call that missed the cache.
_CACHES = ["_charts", "_vandermonde", "_cofactors"]
_METHODS = [("polyring.substitute", "substitute"), ("polyring.render", "render")]
_MODULES = ["", ".polyring", ".symfun", ".localization", ".gysin", ".expressions", ".cli"]


class Tracer:
    """Records spans; ``op`` labels the spans recorded from now on."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (for example an import)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.op, None])

    def merge(self, spans: list[list]) -> None:
        """Append spans written by another process, under the current op."""
        offset = len(self.spans)
        for name, start, end, parent, _op, count in spans:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append([name, start, end, parent, self.op, count])

    def _wrap(self, fn: Callable, name: str, counter=None, cache=False) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses if cache else 0
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None if counter is None else 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if cache and fn.cache_info().misses == misses:
                del spans[idx]  # a cache hit; it made no child spans
            elif counter is not None:
                rec[5] = counter(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every module attribute that names a traced function, so
        calls through any import path are recorded."""
        import importlib

        import pushkit

        modules = [importlib.import_module("pushkit" + suffix) for suffix in _MODULES]
        for name, (home, attr), counter in _FUNCTIONS:
            fn = getattr(getattr(pushkit, home), attr)
            self._patch_everywhere(modules, fn, self._wrap(fn, name, counter))
        loc = pushkit.localization
        for attr in _CACHES:
            fn = getattr(loc, attr)
            self._patch(loc, attr, self._wrap(fn, "localization.setup", cache=True))
        poly = pushkit.polyring.Polynomial
        for name, attr in _METHODS:
            self._patch(poly, attr, self._wrap(getattr(poly, attr), name))

    def _patch_everywhere(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# -- aggregation -----------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Sum spans into the benchmark's per-layer metrics."""
    own = self_times(spans)
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    divide_max = 0
    pushes = oracle = 0
    first_divide_seen: set[int] = set()
    for i, (name, start, end, parent, _op, count) in enumerate(spans):
        dur = end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "expressions.parse":
            add("expressions.parse_s", dur)
        elif name == "expressions.elaborate":
            add("expressions.elaborate_s", dur)
            add("expressions.payload_terms", count)
        elif name == "polyring.series_inverse":
            add("polyring.series_inverse_s", dur)
        elif name == "localization.setup":
            if parent_name != "localization.setup":
                add("localization.setup_s", dur)
        elif name == "localization.localize":
            add("localization.localize_s", dur)
            add("localization.localize.self_s", own[i])
            add("localization.u_form_terms", count)
        elif name == "polyring.divide_exact_linear":
            add("polyring.divide_exact_linear_s", dur)
            add("polyring.divide_calls", 1)
            add("polyring.divide_terms_in", count)
            divide_max = max(divide_max, count)
            # The first division inside localize receives the numerator.
            if parent_name == "localization.localize" and parent not in first_divide_seen:
                first_divide_seen.add(parent)
                add("localization.numerator_terms", count)
        elif name == "polyring.substitute":
            add("polyring.substitute_s", dur)
            add("polyring.substitute_calls", 1)
        elif name == "symfun.is_symmetric":
            add("symfun.is_symmetric_s", dur)
            add("symfun.is_symmetric_calls", 1)
        elif name == "symfun.reduce_to_elementary":
            add("symfun.reduce_to_elementary.self_s", own[i])
            add("symfun.chern_terms", count)
        elif name == "symfun.expand_elementary":
            add("symfun.expand_elementary_s", dur)
        elif name == "gysin.pushforward":
            add("gysin.pushforward_s", dur)
            add("gysin.pushforward.self_s", own[i])
            pushes += 1
            oracle += count
        elif name == "cli.import":
            add("cli.import_s", dur)
        elif name == "cli.run":
            add("cli.run.self_s", own[i])
        elif name == "polyring.render":
            add("polyring.render_s", dur)
    m["polyring.divide_terms_max"] = divide_max
    m["gysin.oracle_coverage"] = oracle / pushes if pushes else 0.0
    return m


def op_profile(spans: list[list], op: str) -> dict[str, float]:
    """Stage times and term counts of one operation, for the report."""
    own = self_times(spans)
    prof = {
        "numerator_terms": 0,
        "u_form_terms": 0,
        "divide_calls": 0,
        "setup_s": 0.0,
        "cofactor_products_s": 0.0,
        "vandermonde_division_s": 0.0,
        "symmetry_s": 0.0,
    }
    for i, (name, start, end, parent, span_op, count) in enumerate(spans):
        if span_op != op:
            continue
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "localization.setup" and parent_name != "localization.setup":
            prof["setup_s"] += end - start
        elif name == "localization.localize":
            prof["cofactor_products_s"] += own[i]
            prof["u_form_terms"] = count
        elif name == "polyring.divide_exact_linear" and parent_name == "localization.localize":
            if prof["divide_calls"] == 0:
                prof["numerator_terms"] = count
            prof["divide_calls"] += 1
            prof["vandermonde_division_s"] += end - start
        elif name in ("symfun.is_symmetric", "symfun.expand_elementary"):
            if parent_name != "symfun.reduce_to_elementary":
                prof["symmetry_s"] += end - start
        elif name == "symfun.reduce_to_elementary":
            prof["symmetry_s"] += end - start
    return prof

"""Spans around the calls into each gtsystems module, recorded from outside.

Every plain function a module lists in `__all__` (and `cli.main` and the
`cli.cmd_*` commands) is replaced by a wrapper that records a span: name,
start, end and parent.  The wrapper is bound in every gtsystems namespace
that holds the function, so calls made through `from .x import f` are seen
too.  The hot `CyclotomicInt` methods get plain counters instead: their time
stays in the calling span.  Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

COUNTED = {"__mul__": "__mul__", "__rmul__": "__mul__", "__add__": "__add__",
           "__radd__": "__add__", "reduced": "reduced"}


def _rows_cells(rows):
    return len(rows) * len(rows[0]) if rows else 0


def _rank_mod_p(stats, args, result):
    rows = args[0]
    stats["polymat.rank_cells"] += _rows_cells(rows)
    if rows and result == len(rows[0]):
        stats["polymat.rank_mod_p.full_rank"] += 1


def _bareiss_rank(stats, args, result):
    stats["polymat.rank_cells"] += _rows_cells(args[0])


def _expand(stats, args, result):
    stats["circulant.expand_linear_product.factors"] += len(args[2])
    stats["circulant.expand_linear_product.terms_out"] += len(result)


def _census(stats, args, result):
    stats["arrangements.census_points"] += result.n_points
    stats["arrangements.incidence_tests"] += result.n_points * result.n_lines


def _ceva(stats, args, result):
    stats["arrangements.incidence_tests"] += result.n_points * result.n_lines


HOOKS = {
    "polymat.rank_mod_p": _rank_mod_p,
    "polymat.bareiss_rank": _bareiss_rank,
    "circulant.expand_linear_product": _expand,
    "arrangements.singular_census": _census,
    "arrangements.ceva_configuration": _ceva,
}


def _public_functions(module):
    short = module.__name__.rpartition(".")[2]
    names = list(getattr(module, "__all__", ()))
    if short == "cli":
        names = ["main"] + [n for n in vars(module) if n.startswith("cmd_")]
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield f"{short}.{name}", fn


class Tracer:
    """Spans and counters for one run; install() patches, remove() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.stats = defaultdict(float)
        self._stack = []
        self._undo = []

    def _span(self, name, fn):
        spans, stack, stats, clock = self.spans, self._stack, self.stats, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook:
                hook(stats, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gtsystems" or n.startswith("gtsystems."))]
        wrappers = {}
        for module in modules:
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._span(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    self._set(module, attr, hit[1])
        cyclo = sys.modules["gtsystems.cyclotomic"].CyclotomicInt
        for attr, label in COUNTED.items():
            self._set(cyclo, attr, self._counter(f"cyclotomic.CyclotomicInt.{label}.calls",
                                                 vars(cyclo)[attr]))

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self):
        """Per-name calls and self time, and per-module self time, of the spans
        recorded since the last take(); the spans are then dropped."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, module_s, inclusive = Counter(), Counter(), Counter(), Counter()
        for (name, start, end, parent), inner in zip(spans, child):
            own = end - start - inner
            calls[name] += 1
            self_s[name] += own
            module_s[name.partition(".")[0]] += own
            inclusive[name] += end - start
        root = sum(end - start for _, start, end, parent in spans if parent < 0)
        spans.clear()
        return {"calls": calls, "self_s": self_s, "module_s": module_s,
                "inclusive": inclusive, "root_s": root}

"""Per-layer spans for design-forge, recorded from outside the package.

A layer is one module of the package.  Tracer.install() replaces every
public function of each module (and the few public methods listed in
METHODS) with a wrapper that records a span: its name, its duration and
the span that was open when it started (its parent).  Spans are folded in
memory into one entry per (parent, name) edge holding the call count, the
total duration and the self time (duration minus the time covered by
child spans).  Tracer.remove() puts the original functions back.

Ring arithmetic (Ring.add/sub/neg/mul/pow) runs tens of thousands of times
per design, so it is counted but not timed; its time is self time of the
caller (blocks.develop, algebra.unit_group_coset_partition).

`from .x import f` copies a binding into the importing module, so every
binding of a wrapped function in every loaded design_forge module is
patched, not just the defining one.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("algebra", "assemble", "blocks", "certify", "cli", "gdd", "targets")
# (module, class, method) spanned like public functions
METHODS = (("gdd", "IngredientStore", "find"),)
# (module, class, method) counted only; see the module docstring
COUNTED = tuple(("algebra", "Ring", m) for m in ("add", "sub", "neg", "mul", "pow"))


def _module(short: str):
    # `design_forge.certify` on the package is the certify function, not the
    # module, so resolve modules by their full name
    return importlib.import_module(f"design_forge.{short}")


def _pair_errors(args, report) -> int:
    return len(report.pair_errors)


# counters read from a wrapped call's arguments and result: span -> (counter, fn)
OBSERVE = {
    "certify.certify": ("certify.pair_errors", _pair_errors),
    "certify.certify_raw_edges": ("certify.pair_errors", _pair_errors),
    "certify.format_certificate": ("certify.cert_bytes", lambda args, text: len(text)),
    "certify.parse_certificate": ("certify.cert_bytes", lambda args, cert: len(args[0])),
}


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # --- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        stack, edges, counts = self._stack, self.edges, self.counts
        observe = OBSERVE.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent is not None else None, name)
                entry = edges.get(key)
                if entry is None:
                    entry = edges[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
            if observe is not None:
                counts[observe[0]] += observe[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching ---------------------------------------------------------

    def _targets(self):
        """Yield (owner, attribute, original, span name, spanned?) for every
        function and method this tracer wraps, before any patching."""
        for short in MODULES:
            mod = _module(short)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield mod, attr, obj, f"{short}.{attr}", True
        for spanned, table in ((True, METHODS), (False, COUNTED)):
            for short, cls_name, meth in table:
                cls = getattr(_module(short), cls_name)
                yield cls, meth, vars(cls)[meth], f"{short}.{cls_name}.{meth}", spanned

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and name.split(".")[0] == "design_forge"]
        seen: set[int] = set()
        for owner, attr, original, name, spanned in list(self._targets()):
            if id(original) in seen:
                continue  # an alias such as `run = main`, patched below
            seen.add(id(original))
            wrapper = (self._spanned if spanned else self._counted)(name, original)
            self._patch(owner, attr, original, wrapper)
            if inspect.isclass(owner):
                continue  # methods are reached through the class only
            for mod in modules:
                for other, value in list(vars(mod).items()):
                    if value is original and (mod, other) != (owner, attr):
                        self._patch(mod, other, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total(self, name: str) -> float:
        """Inclusive time of `name`, not counting calls nested in itself."""
        return sum(e[1] for (p, n), e in self.edges.items() if n == name and p != name)

    def self_time(self, *names: str) -> float:
        return sum(e[2] for (_, n), e in self.edges.items() if n in names)

    def module_self(self, short: str) -> float:
        return sum(e[2] for (_, n), e in self.edges.items() if n.split(".")[0] == short)

    def tree_lines(self, per: float, limit: int = 25) -> list[str]:
        """The heaviest (parent -> span) edges by self time, per `per` cycles."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][2])[:limit]
        return [
            f"  {(p or '-'):>32} -> {n:<36} calls {e[0] / per:10.1f}  "
            f"total {e[1] / per:9.5f} s  self {e[2] / per:9.5f} s"
            for (p, n), e in rows
        ]

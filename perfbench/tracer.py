"""Counts and self time for the checker's public functions, from outside.

Each function is replaced by a wrapper in every module namespace that holds
it (the defining module, every module that imported it by name, the package
and the worker), so calls through an import such as `semantics.normalize`
are counted too. Aggregates stay in memory and are read once per job.

A call made while the same function is already running (recursion) is part
of the outer call: `calls` counts outermost entries. Self time is a call's
duration minus the time spent in other wrapped calls it made.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs; the module is the one that defines the function.
TRACED = [
    ("kernel", "normalize"), ("kernel", "free_atoms"), ("kernel", "substitute"),
    ("kernel", "alpha_eq"),
    ("semantics", "tau_successors"), ("semantics", "state_key"), ("semantics", "explore"),
    ("safety", "detect_errors"),
    ("typesys", "type_system"),
    ("encoding", "encode"), ("encoding", "core_canonical"),
    ("encoding", "check_correspondence"),
    ("syntax", "parse_system"), ("syntax", "parse_process"), ("syntax", "parse_env"),
    ("syntax", "parse_policy"),
    ("satisfaction", "policy_satisfies"),
    ("policy", "check_wellformed"),
]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "__main__" or name == "privcalc"
                                         or name.startswith("privcalc."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"privcalc.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        calls, self_s, incl_s, extra = self.calls, self.self_s, self.incl_s, self.extra
        clock = time.perf_counter
        active, stack = _ACTIVE, _STACK
        on_result = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active.discard(name)
                calls[name] += 1
                incl_s[name] += dt
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(extra, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "extra": dict(self.extra)}


# Wrapped functions currently running, and their open frames innermost
# last: each frame holds the time its wrapped callees took, which the
# frame's own self time excludes.
_ACTIVE: set[str] = set()
_STACK: list[list[float]] = []


def _tau(extra, args, kwargs, result):
    extra["tau_succ"] += len(result)
    if "semantics.explore" in _ACTIVE:
        extra["explore_succ"] += len(result)


def _explore(extra, args, kwargs, graph):
    extra["explore_states"] += len(graph.nodes)
    extra["explore_edges"] += len(graph.edges)


def _parsed(extra, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    extra["parse_bytes"] += len(text.encode("utf-8"))


_HOOKS = {
    "semantics.tau_successors": _tau,
    "semantics.explore": _explore,
    "syntax.parse_system": _parsed, "syntax.parse_process": _parsed,
    "syntax.parse_env": _parsed, "syntax.parse_policy": _parsed,
}

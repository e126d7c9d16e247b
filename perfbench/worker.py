"""One benchmark job in a fresh interpreter, as a command-line call starts.

The parent times from spawning this process to the "ready" line, which is
printed as soon as `import privcalc` returns. It then sends the job as JSON
on stdin. This process runs the job's inputs, optionally under the tracer,
and prints one JSON line: per input its time to verdict and its outputs, and
per job the tracer's aggregates and its reference time (see `Speed`).
"""

import sys

import privcalc  # noqa: F401  (the import is what the parent times)

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from privcalc import cli, kernel  # noqa: E402
from privcalc.encoding import check_correspondence  # noqa: E402
from privcalc.policy import Hierarchy, PermSet, Policy, check_wellformed  # noqa: E402
from privcalc.safety import detect_errors  # noqa: E402
from privcalc.satisfaction import verify  # noqa: E402
from privcalc.semantics import explore  # noqa: E402
from privcalc.syntax import (  # noqa: E402
    parse_env, parse_policy, parse_process, parse_system, render_system,
)
from privcalc.typesys import TypingError, type_system  # noqa: E402


def run_cli(inp: dict) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(inp["argv"])
    return {"rc": rc, "stdout": out.getvalue()}


def run_correspond(inp: dict) -> dict:
    res = parse_process(inp["text"])
    if not res.ok:
        return {"parsed": False}
    rep = check_correspondence(res.value, inp["bound"])
    return {"parsed": True, "ok": rep.ok, "failures": rep.failures,
            "inconclusive": rep.bound_exhausted,
            "source_steps": rep.source_steps, "encoded_steps": rep.encoded_steps}


def run_wide(inp: dict) -> dict:
    res = parse_system(inp["text"])
    if not res.ok:
        return {"parsed": False}
    graph = explore(res.value, inp["depth"])
    return {"parsed": True, "states": len(graph.nodes), "edges": len(graph.edges),
            "truncated": graph.truncated}


def run_case(inp: dict) -> dict:
    """Six verdicts on one generated case, each timed on its own: the
    interface (parse and type), satisfaction of the permissive and of the
    empty policy, the static findings, well-formedness and the round trip."""
    laps = []
    t0 = time.perf_counter()

    def lap():
        nonlocal t0
        t1 = time.perf_counter()
        laps.append(t1 - t0)
        t0 = t1

    gamma = parse_env(inp["env"]).value
    permissive = parse_policy(inp["permissive"]).value
    empty = parse_policy(inp["empty"]).value
    system = parse_system(inp["system"], gamma).value
    try:
        type_system(gamma, system)
        typed = True
    except TypingError:
        typed = False
    lap()
    permissive_ok = verify(permissive, gamma, system).satisfied
    lap()
    empty_ok = verify(empty, gamma, system).satisfied
    lap()
    findings = len(detect_errors(permissive, gamma, system))
    lap()
    wf = [sorted({v.condition for v in check_wellformed(parse_policy(t).value)})
          for t in inp["wf"]]
    lap()
    bare = parse_system(inp["system"]).value
    text = render_system(bare)
    again = parse_system(text).value
    roundtrip = again == bare and render_system(again) == text
    lap()
    return {"typed": typed, "permissive": permissive_ok, "empty": empty_ok,
            "findings": findings, "wf": wf, "roundtrip": roundtrip, "laps": laps}


def run_fuzz(inp: dict) -> dict:
    survived = True
    for parser in (parse_system, parse_policy, parse_env):
        res = parser(inp["text"])
        survived &= res.value is not None or bool(res.diagnostics)
    return {"survived": survived}


def _drop(h: Hierarchy, path: list, perm: str) -> Hierarchy:
    if len(path) == 1:
        return Hierarchy(h.group, PermSet([p for p in h.perms if str(p) != perm]), h.children)
    return Hierarchy(h.group, h.perms, tuple(
        _drop(c, path[1:], perm) if c.group == path[1] else c for c in h.children))


def run_mutant(inp: dict) -> dict:
    gamma = parse_env(inp["env"]).value
    policy = parse_policy(inp["policy"]).value
    system = parse_system(inp["system"], gamma).value
    mutated = Policy(tuple(
        (t, _drop(h, inp["path"], inp["perm"]) if t == inp["ptype"] else h)
        for t, h in policy.bindings))
    return {"satisfied": verify(mutated, gamma, system).satisfied}


class Speed:
    """Samples this machine's speed during a job: a fixed small piece of
    interpreter work of the checker's kind (tuples, dicts, frozensets), timed
    ten times before the inputs, every TICK_S seconds while a single input
    runs (from a timer signal, so in this process and on its CPU) and ten
    times after. The median is the job's reference time; ticks are taken out
    of the input's time."""

    TICK_S = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(2000):
            key = (i % 97, i % 13)
            d[key] = d.get(key, frozenset()) | {i % 5}
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def ticking(self, on: bool) -> None:
        if on:
            signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S if on else 0, self.TICK_S)


RUNNERS = {"cli": run_cli, "correspond": run_correspond, "wide": run_wide,
           "case": run_case, "fuzz": run_fuzz, "mutant": run_mutant}


def main() -> None:
    job = json.loads(sys.stdin.read())
    speed = Speed()
    for _ in range(10):
        speed.sample()
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    memo = getattr(kernel, "_norm_cache", None)
    memo_before = len(memo) if memo is not None else 0
    results = []
    # Ticks follow the speed through one long computation. A batch of short
    # inputs is bracketed well enough by the samples before and after, and a
    # traced job keeps its self times free of ticks.
    speed.ticking(len(job["inputs"]) == 1 and not tracer)
    for inp in job["inputs"]:
        runner = RUNNERS[inp.get("kind", job["kind"])]
        t0, ticks = time.perf_counter(), speed.spent
        try:
            out, err = runner(inp), None
        except Exception as e:  # a crash is a failed input, reported by class
            out, err = None, f"{type(e).__name__}: {str(e)[:200]}"
        t = time.perf_counter() - t0 - (speed.spent - ticks)
        results.append({"t": t, "out": out, "err": err})
    speed.ticking(False)
    for _ in range(10):
        speed.sample()
    report = {"results": results, "ref_s": statistics.median(speed.samples),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        report["trace"]["memo_new"] = (len(memo) - memo_before) if memo is not None else 0
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()

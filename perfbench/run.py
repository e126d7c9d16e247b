"""Checker benchmark: cold time to verdict on four workloads.

    python3 perfbench/run.py --workload reach --seed 1 --seconds 15 --trace 0

Run from the repository root. Every job runs in a fresh interpreter, one at
a time, as every `privcalc ...` call starts cold: `kernel._norm_cache` is a
process-global memo, so a warm process would measure its hits instead of the
checker. A pass runs the workload's whole input list once; the end-to-end
metrics come from untraced passes. With `--trace 1` the run makes one
untraced pass and two traced passes, reports the per-layer metrics, checks
that the two traced passes made identical calls, and reports the tracing
overhead. Every verdict is checked against a known answer.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric by name and unit. Details (per-job records, spans, counts and
the run's environment) go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NURSE_FINDINGS, WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"

# Seconds one untraced pass takes at the reference speed (see REFERENCE_S).
# A run makes seconds / this passes, rounded, at least one, so its work
# depends only on its arguments and never on how fast the machine is.
NOMINAL_PASS_S = {"reach": 12.5, "correspond": 5.0, "frontend": 5.4, "wide": 11.4}

# A job still running after JOB_LIMIT_S is killed and its inputs count as
# failed. No job starts after RUN_DEADLINE_S, which keeps a run under three
# minutes; the inputs it skips count as failed too.
JOB_LIMIT_S = 60.0
RUN_DEADLINE_S = 150.0
RUN_LIMIT_S = 170.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("verdict_p50_s", "s"),
              ("verdict_tail_s", "s"), ("peak_rss_mb", "MB")]

# What worker.Speed.sample takes on a quiet 2-vCPU Xeon VM at 2.0 GHz under
# Python 3.11. End-to-end times are scaled to this reference speed.
REFERENCE_S = 0.001


class Run:
    def __init__(self):
        self.t0 = time.perf_counter()
        # Workers read bytecode compiled once into OUT_DIR, as an installed
        # package's calls do, even where the environment turns caching off.
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
                        PYTHONHASHSEED="0", PRIVCALC_COLOR="never",
                        PYTHONPYCACHEPREFIX=os.path.abspath(os.path.join(OUT_DIR, "pycache")))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.spans: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def job(self, job: dict, trace: bool, parent: str, name: str) -> dict:
        """Spawn one worker, time it to `ready`, send the job, collect."""
        n = len(job["inputs"])
        if self.elapsed() > RUN_DEADLINE_S:
            return {"error": "skipped: run deadline", "results": [None] * n}
        limit = min(JOB_LIMIT_S, RUN_LIMIT_S - self.elapsed())
        payload = json.dumps(dict(job, trace=int(trace))).encode()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env)
        rec: dict = {"results": [None] * n}
        try:
            ready, _, _ = select.select([proc.stdout], [], [], limit)
            line = proc.stdout.readline() if ready else b""
            ready_s = time.perf_counter() - start
            if line != b"ready\n":
                raise _JobFailed("worker did not start")
            out, err = proc.communicate(payload, timeout=max(0.0, limit - ready_s))
            if proc.returncode != 0:
                raise _JobFailed(f"worker exit {proc.returncode}: "
                                 f"{err.decode(errors='replace')[-300:]}")
            rec = json.loads(out.decode().splitlines()[-1])
            rec["ready_s"] = ready_s
        except subprocess.TimeoutExpired:
            rec["error"] = f"over the {limit:.0f}s job limit"
        except _JobFailed as e:
            rec["error"] = str(e)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()
        end = time.perf_counter()
        self.spans.append({"name": name, "parent": parent, "start": start - self.t0,
                           "end": end - self.t0})
        return rec

    def run_pass(self, jobs: list[dict], trace: bool, name: str) -> dict:
        start = time.perf_counter()
        recs = [self.job(j, trace, name, f"{name}/job{i}") for i, j in enumerate(jobs)]
        end = time.perf_counter()
        self.spans.append({"name": name, "parent": "run", "start": start - self.t0,
                           "end": end - self.t0})
        return {"elapsed_s": end - start, "traced": trace, "jobs": recs}


class _JobFailed(Exception):
    pass


# --- known answers --------------------------------------------------------------

_FINDING = re.compile(r"clause (\d+): (\S+) at (\S+): (\S+)")


def _finding_key(rec: str) -> tuple:
    f = dict(kv.split("=", 1) for kv in rec.split())
    return (f["clause"], f["type"], f["path"], f["permission"])


def check(inp: dict, out: dict) -> bool:
    """True when the outputs match the input's known answer."""
    want = inp["want"]
    if "argv" in inp:
        lines = out["stdout"].splitlines()
        ok = out["rc"] == want["rc"]
        if "theta" in want:
            ok &= [ln for ln in lines if ln.startswith("theta ")] == want["theta"]
        if "satisfied" in want:
            ok &= f"verdict satisfied={'yes' if want['satisfied'] else 'no'}" in lines
            if not want["satisfied"]:
                ok &= any("path=Hospital.Nurse permission=read " in ln + " " for ln in lines)
        if "findings" in want:
            ok &= [ln for ln in lines if ln.strip()] == want["findings"]
        if "scan_ok" in want:
            ok &= bool(lines) and lines[0].startswith(
                "safety scan: ok" if want["scan_ok"] else "safety scan: FINDINGS")
            if not want["scan_ok"]:
                found = {m.groups() for m in map(_FINDING.search, lines) if m}
                ok &= found == {_finding_key(r) for r in NURSE_FINDINGS}
        if "verdict" in want:
            ok &= bool(lines) and lines[0] == want["verdict"]
        if "wellformed" in want:
            ok &= lines == ["well-formed"]
        if "preserved" in want:
            ok &= any(ln.startswith("preservation: ok") for ln in lines)
        return ok
    return all(out.get(k) == v for k, v in want.items())


def grade(jobs: list[dict], passes: list[dict]) -> dict:
    """Per-input outcome: ok, wrong (a verdict that differs from the known
    answer) or failed (raised, timed out or never ran). Each ok input gives
    a sample (seconds to verdict, its job's reference seconds). A job with
    one input is a command-line call, whose user waits through set-up too."""
    attempted = failed = wrong = 0
    samples: list[tuple[float, float]] = []
    failures: dict[str, int] = {}
    for p in passes:
        for job, rec in zip(jobs, p["jobs"]):
            setup = rec.get("ready_s", 0.0) if len(job["inputs"]) == 1 else 0.0
            for inp, res in zip(job["inputs"], rec["results"]):
                attempted += 1
                if res is None or res["err"] is not None:
                    failed += 1
                    why = rec.get("error") if res is None else res["err"]
                    label = f"{_describe(inp)}: {why.split(':')[0]}"
                    failures[label] = failures.get(label, 0) + 1
                elif not check(inp, res["out"]):
                    failed += 1
                    wrong += 1
                    label = f"{_describe(inp)}: wrong verdict"
                    failures[label] = failures.get(label, 0) + 1
                else:
                    # A generated case gives six verdicts, each timed alone.
                    times = res["out"].get("laps") or [setup + res["t"]]
                    samples += [(t, rec["ref_s"]) for t in times]
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "samples": samples, "failures": failures}


def _describe(inp: dict) -> str:
    if "argv" in inp:
        return " ".join(inp["argv"][:2])
    if "shape" in inp:
        return f"{inp['shape']} {inp['size']}"
    return inp.get("kind", "program")


# --- metrics --------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it (nearest
    rank), and that percentile. Below twenty samples that percentile would
    sit under the median, so the maximum stands in for it."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100
    q = math.floor(100 * (n - 10) / n)
    return xs[max(1, math.ceil(q * n / 100)) - 1], q


def scaled(t: float, ref: float) -> float:
    return t * REFERENCE_S / ref


def pass_s(p: dict, scale: bool = True) -> float:
    """Set-up plus checking time over a pass's jobs, without the benchmark's
    own plumbing; each job scaled by its own reference time."""
    return sum((r["ready_s"] + sum(x["t"] for x in r["results"]))
               * (REFERENCE_S / r["ref_s"] if scale else 1.0)
               for r in p["jobs"] if "ready_s" in r)


def end_to_end(passes: list[dict], graded: dict) -> tuple[dict, list[str]]:
    """Times in seconds at the reference speed: each measured time is scaled
    by REFERENCE_S over the reference time measured in the same worker (see
    worker.Speed), because this VM's speed drifts up to twofold within
    a minute and the reference moves with it. The raw seconds go to a note."""
    jobs = [r for p in passes for r in p["jobs"] if "ready_s" in r]
    samples = graded["samples"]
    if not samples or not jobs:
        return {}, ["no input reached a verdict"]

    tail_s, q = tail([scaled(t, ref) for t, ref in samples])
    values = {
        "setup_s": statistics.median(scaled(r["ready_s"], r["ref_s"]) for r in jobs),
        "wall_s": statistics.median(pass_s(p) for p in passes),
        "verdict_p50_s": statistics.median(scaled(t, ref) for t, ref in samples),
        "verdict_tail_s": tail_s,
        "peak_rss_mb": max(r["maxrss_kb"] for r in jobs) / 1024,
    }
    raw = {"setup_s": statistics.median(r["ready_s"] for r in jobs),
           "wall_s": statistics.median(pass_s(p, scale=False) for p in passes),
           "verdict_p50_s": statistics.median(t for t, _ in samples),
           "verdict_tail_s": tail([t for t, _ in samples])[0],
           "reference_s": statistics.median(r["ref_s"] for r in jobs)}
    notes = [f"setup_s over {len(jobs)} fresh interpreters; wall_s over {len(passes)} passes; "
             f"verdict_tail_s is p{q} of {len(samples)} verdicts",
             "unscaled seconds: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()),
             f"failed_share {graded['failed']}/{graded['attempted']} = "
             f"{graded['failed'] / graded['attempted']:.4f}"]
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, notes


def job_counts(rec: dict) -> dict:
    tr = rec.get("trace") or {}
    return {"calls": tr.get("calls", {}), "extra": tr.get("extra", {}),
            "memo_new": tr.get("memo_new", 0), "error": rec.get("error")}


def per_layer(traced: list[dict], untraced: dict) -> dict:
    """Aggregates over every job of a traced pass: counts from the first
    pass (the passes must agree), times averaged over the passes."""
    def total(p: dict, key: str) -> dict:
        out: dict = {}
        for rec in p["jobs"]:
            for k, v in ((rec.get("trace") or {}).get(key) or {}).items():
                out[k] = out.get(k, 0) + v
        return out

    calls, extra = total(traced[0], "calls"), total(traced[0], "extra")
    memo_new = sum((r.get("trace") or {}).get("memo_new", 0) for r in traced[0]["jobs"])
    self_s = {k: statistics.fmean(total(p, "self_s").get(k, 0.0) for p in traced)
              for k in calls}
    incl_s = {k: statistics.fmean(total(p, "incl_s").get(k, 0.0) for p in traced)
              for k in calls}

    def c(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("kernel.normalize", "kernel.free_atoms", "kernel.substitute",
                 "semantics.tau_successors", "semantics.state_key", "safety.detect_errors",
                 "typesys.type_system", "encoding.encode", "encoding.core_canonical",
                 "satisfaction.policy_satisfies", "policy.check_wellformed"):
        m[f"{name}.calls"] = (c(name), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["kernel.alpha_eq.calls"] = (c("kernel.alpha_eq"), "count")
    m["kernel.normalize.miss_ratio"] = (ratio(memo_new, c("kernel.normalize")), "ratio")
    m["semantics.tau_successors.succ_per_call"] = (
        ratio(extra.get("tau_succ", 0), c("semantics.tau_successors")), "count")
    states = extra.get("explore_states", 0)
    m["semantics.explore.states"] = (states, "count")
    m["semantics.explore.edges"] = (extra.get("explore_edges", 0), "count")
    m["semantics.explore.s_per_state"] = (ratio(incl_s.get("semantics.explore", 0.0), states), "s")
    m["semantics.explore.new_state_ratio"] = (
        ratio(states - c("semantics.explore"), extra.get("explore_succ", 0)), "ratio")
    m["encoding.check_correspondence.s_per_program"] = (
        ratio(incl_s.get("encoding.check_correspondence", 0.0),
              c("encoding.check_correspondence")), "s")
    parsers = [f"syntax.{p}" for p in ("parse_system", "parse_process", "parse_env",
                                        "parse_policy")]
    parse_self = sum(self_s.get(p, 0.0) for p in parsers)
    m["syntax.parse.calls"] = (sum(c(p) for p in parsers), "count")
    m["syntax.parse.self_s"] = (parse_self, "s")
    m["syntax.parse.bytes_per_s"] = (ratio(extra.get("parse_bytes", 0), parse_self), "B/s")
    m["trace.overhead_ratio"] = (
        ratio(statistics.fmean(pass_s(p) for p in traced), pass_s(untraced)), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


# --- the run --------------------------------------------------------------------

def git_commit() -> str:
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(f".git/{ref}"):
            with open(f".git/{ref}", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (os.path.isfile("src/privcalc/__init__.py") and os.path.isdir("corpus")):
        print("perfbench: run from the repository root (src/privcalc and corpus/ "
              "are missing here)", file=sys.stderr)
        return 2

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "commit": git_commit(), "loadavg_start": os.getloadavg(),
            "workers_at_once": 1}
    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    meta["inputs"] = sum(len(j["inputs"]) for j in jobs)
    meta["input_digest"] = hashlib.sha256(
        json.dumps(jobs, sort_keys=True).encode()).hexdigest()

    run = Run()
    # Compiles the package's bytecode, which only a user's first call pays.
    run.job({"kind": "cli", "inputs": []}, False, "run", "warmup")

    notes: list[str] = []
    correct = True
    if args.trace:
        untraced = run.run_pass(jobs, False, "untraced")
        traced = [run.run_pass(jobs, True, f"traced{i}") for i in (1, 2)]
        passes = [untraced] + traced
        metrics = per_layer(traced, untraced)
        counts = [[job_counts(r) for r in p["jobs"]] for p in traced]
        if counts[0] != counts[1]:
            correct = False
            bad = [i for i, (a, b) in enumerate(zip(*counts)) if a != b]
            notes.append(f"determinism check FAILED: traced passes differ on jobs {bad}")
        else:
            notes.append("determinism check: both traced passes made identical calls")
        meta["job_counts"] = counts[0]
    else:
        n = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        passes = [run.run_pass(jobs, False, f"pass{i}") for i in range(n)]

    graded = grade(jobs, passes)
    if not args.trace:
        metrics, e2e_notes = end_to_end(passes, graded)
        notes += e2e_notes
        if not metrics:
            correct = False
    if graded["wrong"]:
        correct = False
    notes += [f"failed {k} x{v}" for k, v in sorted(graded["failures"].items())]

    os.makedirs(OUT_DIR, exist_ok=True)
    detail = {"meta": meta, "metrics": metrics, "notes": notes, "spans": run.spans,
              "passes": [{"elapsed_s": p["elapsed_s"], "traced": p["traced"],
                          "jobs": [dict(r, results=[
                              None if x is None else {"t": x["t"], "err": x["err"]}
                              for x in r["results"]]) for r in p["jobs"]]}
                         for p in passes],
              "attempted": graded["attempted"], "failed": graded["failed"]}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"# workload={args.workload} seed={args.seed} nproc={meta['nproc']} "
          f"python={meta['python']} commit={meta['commit'][:12]} "
          f"load={meta['loadavg_start'][0]:.2f} inputs={meta['inputs']} "
          f"digest={meta['input_digest'][:16]}")
    for note in notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": graded["attempted"],
                      "failed": graded["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and known answers for the four benchmark workloads.

Stdlib only: nothing here imports the checker. Every input is text (or a
corpus file path) built from the seed, and every expected verdict is fixed
by construction or by the corpus, never taken from the checker under test.

A job is what one fresh interpreter runs; it holds one or more inputs. Each
input carries its expected answer under "want"; the worker never sees it.
"""

from __future__ import annotations

import random
import string

CORPUS = "corpus"
GOLDEN = "corpus/golden"
CASES = ("hospital", "hospital_nurse_read", "etp_central", "etp_decentral",
         "speedlimit")
GOLDEN_CASES = ("hospital", "lab", "etp_central", "etp_decentral", "speedlimit")

# The nurse of hospital_nurse_read reads a patient file where the policy lets
# nurses only pass it on: reading needs read, and binding the identity needs
# readId (error clauses 1 and 5 of the calculus).
NURSE_FINDINGS = [
    "clause=1 type=patient_data path=Hospital.Nurse permission=read",
    "clause=5 type=patient_data path=Hospital.Nurse permission=readId",
]

# Policy mutants of the case studies: (case, type, node path, permission
# deleted, verdict after the deletion). Deleting an exercised permission must
# break satisfaction; deleting a granted but unexercised one must not.
MUTANTS = [
    ("hospital", "patient_data", ("Hospital", "DBase"), "store", False),
    ("hospital", "patient_data", ("Hospital", "DBase"), "aggregate", False),
    ("hospital", "patient_data", ("Hospital", "Nurse"), "disseminate Hospital inf", False),
    ("hospital", "patient_data", ("Hospital", "Doctor"), "read", False),
    ("hospital", "patient_data", ("Hospital", "Doctor"), "readId", False),
    ("hospital", "patient_data", ("Hospital", "Doctor"), "usage diagnosis", False),
    ("hospital", "patient_data", ("Hospital", "Doctor"), "update", False),
    ("hospital", "patient_data", ("Hospital", "Research"), "usage research", False),
    ("hospital", "patient_data", ("Hospital", "Lab"), "disseminate Police 1", False),
    ("hospital", "patient_data", ("Hospital", "Lab"), "readId", False),
    ("etp_central", "loc", ("ETP", "Car"), "store", False),
    ("etp_central", "loc", ("ETP", "Car", "GPS"), "update", False),
    ("etp_central", "loc", ("ETP", "PA"), "usage spotCheck", False),
    ("etp_central", "loc", ("ETP", "PA"), "aggregate", False),
    ("etp_decentral", "fee", ("ETP", "Car", "SC"), "disseminate Car inf", False),
    ("etp_decentral", "fee", ("ETP", "Car", "OBE"), "reference", False),
    ("speedlimit", "CarReg", ("SpeedControl", "SCSystem", "Auth"), "identify DriverReg", False),
    ("speedlimit", "CarSpeed", ("SpeedControl", "SCSystem", "Auth"), "usage Limit", False),
    ("speedlimit", "DriverReg", ("SpeedControl", "SCSystem", "DBase"),
     "disseminate SCSystem inf", False),
    ("hospital", "patient_data", ("Hospital", "Nurse"), "reference", True),
    ("hospital", "patient_data", ("Hospital", "Lab"), "identify crime", True),
    ("speedlimit", "CarSpeed", ("SpeedControl", "SCSystem", "Auth"), "store", True),
]


def _files(case: str) -> tuple[str, str, str]:
    base = "hospital" if case.startswith("hospital") or case == "lab" else case
    return (f"{CORPUS}/{case}.pc", f"{CORPUS}/{base}.ppo", f"{CORPUS}/{base}.env")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- reach: the corpus case studies through the command line ------------------

def reach_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for case in GOLDEN_CASES:
        pc, _, env = _files(case)
        golden = [ln for ln in _read(f"{GOLDEN}/{case}.theta").splitlines() if ln]
        jobs.append(_cli(["typecheck", pc, "--env", env], {"rc": 0, "theta": golden}))
    for case in ("hospital", "etp_central", "etp_decentral", "speedlimit"):
        jobs.append(_cli(["policy-wf", _files(case)[1]], {"rc": 0, "wellformed": True}))
    for case in CASES:
        pc, ppo, env = _files(case)
        bad = case == "hospital_nurse_read"
        pol = ["--policy", ppo, "--env", env, "--format", "records"]
        jobs.append(_cli(["verify", pc, "--policy", ppo, "--env", env],
                         {"rc": 1 if bad else 0, "verdict": "unsatisfied" if bad else "satisfied"}))
        jobs.append(_cli(["verify", pc, *pol], {"rc": 1 if bad else 0, "satisfied": not bad}))
        jobs.append(_cli(["errors", pc, *pol],
                         {"rc": 1 if bad else 0, "findings": NURSE_FINDINGS if bad else []}))
        for depth in (4, 6, 8):
            jobs.append(_cli(["scan", pc, *pol, "--depth", str(depth)],
                             {"rc": 1 if bad else 0, "scan_ok": not bad}))
        jobs.append(_cli(["simulate", pc, "--env", env, "--depth", "8", "--preserve"],
                         {"rc": 0, "preserved": True}))
    rng.shuffle(jobs)
    return jobs


def _cli(argv: list[str], want: dict) -> dict:
    return {"kind": "cli", "inputs": [{"argv": argv, "want": want}]}


# --- correspond: store programs through the encoding ---------------------------

# Client kinds of the store vocabulary: reader, writer with the stored
# identity, writer with a foreign identity, sequential reader, and a client
# that reads then writes back.
_CLIENT = {
    "R": "{r}?({x} # {y}). 0",
    "W": "{r}!<{{{id} # {c1}}}>. 0",
    "B": "{r}!<{{{bad} # {c1}}}>. 0",
    "Q": "{r}?({x} # {y}). {r}?({x2} # {y2}). 0",
    "RW": "{r}?({x} # {y}). {r}!<{{{id} # {c1}}}>. 0",
}

# Program shapes: the clients on store A and on store B (None: no store B).
# Every seed renders the same shapes with fresh names and component order, so
# every seed does the same amount of work. Two-client programs make most of
# the encoder's work; three or more clients take seconds to minutes each and
# would not fit a run.
_SHAPES = [
    (("R",), None), (("W",), None), (("Q",), None), (("RW",), None),
    (("R", "R"), None), (("R", "W"), None), (("R", "B"), None), (("W", "W"), None),
    (("R",), ("R",)), (("W",), ("R",)), (("B",), ("R",)), (("Q",), ("R",)),
]

CORRESPOND_BOUND = 12


def correspond_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for a_clients, b_clients in _SHAPES:
        names = _Names(rng)
        comps = [_store_text(names, "A")] + [_client(names, "A", k) for k in a_clients]
        if b_clients is not None:
            comps.append(_store_text(names, "B"))
            comps += [_client(names, "B", k) for k in b_clients]
        rng.shuffle(comps)
        text = " | ".join(comps)
        jobs.append({"kind": "correspond", "inputs": [
            {"text": text, "bound": CORRESPOND_BOUND, "want": {"ok": True}}]})
    rng.shuffle(jobs)
    return jobs


def _store_text(names: "_Names", s: str) -> str:
    return f"store {names.get('r' + s)} {{{names.get('id' + s)} # {names.get('c0' + s)}}}"


def _client(names: "_Names", s: str, kind: str) -> str:
    fresh = {k: names.fresh("v") for k in ("x", "y", "x2", "y2")}
    return _CLIENT[kind].format(r=names.get("r" + s), id=names.get("id" + s),
                                c1=names.get("c1" + s), bad=names.get("bad"), **fresh)


class _Names:
    """Distinct lower-case identifiers, one per role, drawn from the seed."""

    _RESERVED = {"new", "if", "then", "else", "store", "private", "inf", "read",
                 "update", "reference", "readId", "aggregate", "usage", "identify",
                 "disseminate", "nondisclose"}

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.roles: dict[str, str] = {}
        self.used: set[str] = set()

    def fresh(self, prefix: str) -> str:
        while True:
            name = prefix + "".join(self.rng.choice(string.ascii_lowercase)
                                    for _ in range(3))
            if name not in self.used and name not in self._RESERVED:
                self.used.add(name)
                return name

    def get(self, role: str) -> str:
        if role not in self.roles:
            prefix = role[0].upper() if role[0].isupper() else role[0]
            self.roles[role] = self.fresh(prefix)
        return self.roles[role]


# --- frontend: generated systems, environments and policies --------------------

FRONTEND_CASES = 800
FRONTEND_FUZZ = 300
FRONTEND_JOB_CASES = 200
FUZZ_ALPHABET = "ab{}[]<>()#!?.|*=~^:;_ \n⊗privatenewstoreifthenelse0123"
_PERMS = ("read", "update", "reference", "store", "readId", "aggregate")


def frontend_jobs(rng: random.Random) -> list[dict]:
    cases = [_frontend_case(rng) for _ in range(FRONTEND_CASES)]
    fuzz = [_fuzz(rng) for _ in range(FRONTEND_FUZZ)]
    jobs = []
    n_jobs = FRONTEND_CASES // FRONTEND_JOB_CASES
    per_fuzz = FRONTEND_FUZZ // n_jobs
    for j in range(n_jobs):
        inputs = (cases[j * FRONTEND_JOB_CASES:(j + 1) * FRONTEND_JOB_CASES]
                  + fuzz[j * per_fuzz:(j + 1) * per_fuzz])
        rng.shuffle(inputs)
        jobs.append({"kind": "frontend", "inputs": inputs})
    mutants = []
    for case, ptype, path, perm, satisfied in MUTANTS:
        pc, ppo, env = _files(case)
        mutants.append({"kind": "mutant", "env": _read(env), "policy": _read(ppo),
                        "system": _read(pc), "ptype": ptype, "path": list(path),
                        "perm": perm, "want": {"satisfied": satisfied}})
    rng.shuffle(mutants)
    jobs.append({"kind": "frontend", "inputs": mutants})
    rng.shuffle(jobs)
    return jobs


def _frontend_case(rng: random.Random) -> dict:
    """One well-typed two-group system under a root group, in the shapes of
    the property-test generator, with its environment and four policies."""
    n = _Names(rng)
    root, left_g, right_g = n.get("Groot"), n.get("Gleft"), n.get("Gright")
    t0, t1, p0 = n.get("t0"), n.get("t1"), n.get("p0")
    s0, s1 = n.get("s0"), n.get("s1")
    ra, rb, chan, pch, k0 = n.get("rA"), n.get("rB"), n.get("chan"), n.get("pch"), n.get("k0")
    id0, id1, c0, c1, d0 = n.get("id0"), n.get("id1"), n.get("c0"), n.get("c1"), n.get("d0")
    x, y, w, v = n.get("x"), n.get("y"), n.get("w"), n.get("v")
    env = "\n".join([
        f"{ra} : {root}[{t0}<{s0}>]",
        f"{rb} : {root}[{t1}<{s1}>]",
        f"{chan} : {root}[{root}[{t0}<{s0}>]]",
        f"{pch} : {root}[{p0}<{s0}>]",
        f"{k0} : {p0}<{s0}>",
        f"{{{id0} # {c0}}} : {t0}<{s0}>",
        f"{{_ # {c0}}} : {t0}<{s0}>",
        f"{{{id0} # {c1}}} : {t0}<{s0}>",
        f"{{_ # {c1}}} : {t0}<{s0}>",
        f"{{{id1} # {d0}}} : {t1}<{s1}>",
        f"{{_ # {d0}}} : {t1}<{s1}>",
    ]) + "\n"
    store_a = f"store {ra} {{{id0} # {c0}}}"
    left: list[str] = []
    right: list[str] = []
    kind = rng.randrange(5)
    if kind == 0:
        left.append(store_a)
        right.append(f"{ra}?({x} # {y}). 0" if rng.random() < 0.5 else f"{ra}?(_ # {y}). 0")
    elif kind == 1:
        left.append(store_a)
        who = "_" if rng.random() < 0.5 else id0
        right.append(f"{ra}!<{{{who} # {c1}}}>. 0")
    elif kind == 2:
        left.append(f"{chan}!<{ra}>. 0")
        right += [f"{chan}?({w}). {w}?({x} # {y}). 0", store_a]
    elif kind == 3:
        left.append(f"{pch}!<{k0}>. 0")
        right += [f"{pch}?({v}). 0", store_a,
                  f"{ra}?({x} # {y}). if {y} = {k0} then 0 else 0"]
    else:
        left += [store_a, f"store {rb} {{{id1} # {d0}}}"]
        right.append(f"{rb}?(_ # {y}). 0")
    if rng.random() < 0.4:
        right.append(f"* {pch}!<{k0}>. 0")
    if rng.random() < 0.3:
        left.append("0")
    system = f"{root}[ {left_g}[ {' | '.join(left)} ] || {right_g}[ {' | '.join(right)} ] ]"

    groups = (root, left_g, right_g)
    grant_all = ", ".join(list(_PERMS) + [f"usage {p0}", f"identify {t0}", f"identify {t1}"]
                          + [f"disseminate {g} inf" for g in groups])
    kids = f"[ {left_g} {{}}, {right_g} {{}} ]"
    permissive = "".join(f"private {t} >> {root} {{{grant_all}}} {kids};\n" for t in (t0, t1))
    empty = "".join(f"private {t} >> {root} {{}} {kids};\n" for t in (t0, t1))
    bindings = _random_policy(rng, n, (t0, t1, n.get("t2")), p0)
    dup = bindings + [bindings[0]]
    first_type, first = bindings[0]
    cyclic = [(first_type, (first[0], first[1], first[2] + [(first[0], [], [])]))] + bindings[1:]
    outside = n.get("Goutside")
    nondisclosing = [(first_type, (first[0], first[1] + ["nondisclose sensitive"],
                                   first[2] + [(n.get("Gleak"), [f"disseminate {outside} 1"], [])]))
                     ] + bindings[1:]
    return {
        "kind": "case", "env": env, "system": system,
        "permissive": permissive, "empty": empty,
        "wf": [_render_policy(p) for p in (bindings, dup, cyclic, nondisclosing)],
        # A store of a private type needs the store permission, which the
        # empty policy withholds; the permissive one grants everything.
        "want": {"typed": True, "permissive": True, "empty": False, "findings": 0,
                 "wf": [[], [1], [2], [3]], "roundtrip": True},
    }


def _random_policy(rng: random.Random, n: _Names, types: tuple[str, ...], purpose: str
                   ) -> list:
    """Bindings of one or two distinct types to hierarchies whose groups never
    repeat along a path and which carry no nondisclosure: well formed by
    construction."""
    pool = [n.get(f"Gpol{i}") for i in range(5)]

    def perms() -> list[str]:
        choice = list(_PERMS) + [f"usage {purpose}", f"identify {rng.choice(types)}",
                                 f"disseminate {rng.choice(pool)} "
                                 f"{rng.choice(['1', '2', '5', 'inf'])}"]
        return rng.sample(choice, rng.randrange(0, 5))

    def hier(depth: int, avoid: set[str]):
        group = rng.choice([g for g in pool if g not in avoid])
        kids = []
        if depth > 0 and rng.random() < 0.7:
            taken = avoid | {group}
            for _ in range(rng.randrange(1, 3)):
                child = hier(depth - 1, taken)
                taken = taken | {child[0]}
                kids.append(child)
        return (group, perms(), kids)

    return [(t, hier(2, set())) for t in rng.sample(types, rng.randrange(1, 3))]


def _render_policy(bindings: list) -> str:
    def hier(h) -> str:
        group, perms, kids = h
        out = f"{group} {{{', '.join(perms)}}}"
        if kids:
            out += " [ " + ", ".join(hier(k) for k in kids) + " ]"
        return out

    return "".join(f"private {t} >> {hier(h)};\n" for t, h in bindings)


def _fuzz(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 80)))
    else:
        raw = bytes(rng.randrange(0, 256) for _ in range(rng.randrange(0, 60)))
        text = raw.decode("utf-8", errors="replace")
    return {"kind": "fuzz", "text": text, "want": {"survived": True}}


# --- wide: very large terms explored at depth 2 --------------------------------

# Widths of 200 or more and prefix depths of 400 or more raise RecursionError
# at this commit. They stay in the workload and count as failed inputs. The
# parser rejects prefix chains from about 495 on.
WIDE_WIDTHS = (48, 64, 80, 128, 200, 256)
WIDE_PREFIX_DEPTHS = (300, 400, 480)
WIDE_DEPTH = 2


def wide_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for width in WIDE_WIDTHS:
        n = _Names(rng)
        comps = []
        for _ in range(width):
            x = n.fresh("x")
            body = (f"{x}!<{n.get('k')}>. 0" if rng.random() < 0.5
                    else f"{x}?({n.fresh('v')}). 0")
            comps.append(f"(new {x}) {body}")
        c = n.get("c")
        comps += [f"{c}!<{n.get('k')}>. 0", f"{c}?({n.fresh('v')}). 0"]
        rng.shuffle(comps)
        jobs.append(_wide(f"{n.get('G')}[ {' | '.join(comps)} ]", "width", width))
    for depth in WIDE_PREFIX_DEPTHS:
        n = _Names(rng)
        c, k = n.get("c"), n.get("k")
        chain = f"{c}!<{k}>. " * depth + "0"
        jobs.append(_wide(f"{n.get('G')}[ {chain} | {c}?({n.fresh('v')}). 0 ]", "prefix", depth))
    rng.shuffle(jobs)
    return jobs


def _wide(text: str, shape: str, size: int) -> dict:
    # Only the pair on the free channel can move, once: the root and its one
    # successor, joined by one edge, and nothing beyond.
    return {"kind": "wide", "inputs": [{
        "text": text, "depth": WIDE_DEPTH, "shape": shape, "size": size,
        "want": {"parsed": True, "states": 2, "edges": 1, "truncated": False}}]}


WORKLOADS = {
    "reach": reach_jobs,
    "correspond": correspond_jobs,
    "frontend": frontend_jobs,
    "wide": wide_jobs,
}

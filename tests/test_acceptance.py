"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go;
without -s they still appear in captured output and on failure.
"""

import random
import time

import pytest

from privcalc.encoding import check_correspondence
from privcalc.kernel import normalize
from privcalc.policy import Hierarchy, PermSet, Policy, check_wellformed, perm_union
from privcalc.safety import safety_scan
from privcalc.satisfaction import policy_satisfies, verify
from privcalc.semantics import check_preservation, explore
from privcalc.syntax import (
    parse_env, parse_policy, parse_process, parse_system, render_system,
)
from privcalc.typesys import interface_leq, type_system
from privcalc.cli import theta_records

import gen
from conftest import CORPUS, GOLDEN, NAMES, load


def report(number: int, ok: bool, description: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status} ({elapsed:5.1f}s) {description}")
    assert ok, f"criterion {number}: {description}"


def _theta_lines(gamma, system) -> list[str]:
    return theta_records(type_system(gamma, system).theta)


def test_criterion_1_lab_golden():
    t0 = time.time()
    gamma = parse_env((CORPUS / "hospital.env").read_text()).value
    system = parse_system((CORPUS / "lab.pc").read_text(), gamma).value
    got = _theta_lines(gamma, system)
    want = (GOLDEN / "lab.theta").read_text().splitlines()
    expected = [
        "theta type=crime path=Lab perms={identify patient_data,read}",
        "theta type=patient_data path=Lab "
        "perms={disseminate Police 1,read,readId,reference}",
    ]
    elapsed = time.time() - t0
    ok = got == want == expected and elapsed < 1.0
    report(1, ok, "lab subsystem interface matches the golden listing", elapsed)


SPEEDLIMIT_EXPECTED = [
    "theta type=CarReg path=SpeedControl.Car "
    "perms={aggregate,disseminate SpeedControl inf,store}",
    "theta type=CarReg path=SpeedControl.SCSystem.Auth "
    "perms={identify DriverReg,read,reference}",
    "theta type=CarReg path=SpeedControl.SCSystem.trafficCam "
    "perms={disseminate SCSystem inf,reference}",
    "theta type=CarSpeed path=SpeedControl.Car "
    "perms={aggregate,disseminate SpeedControl inf,store,update}",
    "theta type=CarSpeed path=SpeedControl.SCSystem.Auth "
    "perms={read,reference,usage Limit}",
    "theta type=CarSpeed path=SpeedControl.SCSystem.trafficCam "
    "perms={disseminate SCSystem inf,reference}",
    "theta type=DriverReg path=SpeedControl.SCSystem.Auth "
    "perms={read,readId,reference}",
    "theta type=DriverReg path=SpeedControl.SCSystem.DBase "
    "perms={disseminate SCSystem inf,store}",
]


def test_criterion_2_speedlimit_golden():
    t0 = time.time()
    pol, gamma, system = load("speedlimit")
    got = _theta_lines(gamma, system)
    want = (GOLDEN / "speedlimit.theta").read_text().splitlines()
    theta = type_system(gamma, system).theta
    # the four slots the listing leaves empty stay absent
    empties = [("CarReg", ("SpeedControl", "SCSystem", "DBase")),
               ("CarSpeed", ("SpeedControl", "SCSystem", "DBase")),
               ("DriverReg", ("SpeedControl", "Car")),
               ("DriverReg", ("SpeedControl", "SCSystem", "trafficCam"))]
    absent = all(not theta.lookup(t, path) for t, path in empties)
    verdict = verify(pol, gamma, system)
    elapsed = time.time() - t0
    ok = (got == want == SPEEDLIMIT_EXPECTED and absent and verdict.satisfied
          and elapsed < 1.0)
    report(2, ok, "speed-limit interface exact (12 slots) and policy satisfied",
           elapsed)


ETP_CENTRAL_EXPECTED = [
    "theta type=fee path=ETP.PA perms={store,update}",
    "theta type=loc path=ETP.Car perms={store}",
    "theta type=loc path=ETP.Car.GPS perms={update}",
    "theta type=loc path=ETP.Car.OBE perms={disseminate ETP inf}",
    "theta type=loc path=ETP.PA "
    "perms={aggregate,read,readId,reference,store,usage spotCheck}",
]


def test_criterion_3_etp():
    t0 = time.time()
    pol, gamma, system = load("etp_central")
    got = _theta_lines(gamma, system)
    want = (GOLDEN / "etp_central.theta").read_text().splitlines()
    central_ok = got == want == ETP_CENTRAL_EXPECTED
    central_sat = verify(pol, gamma, system).satisfied
    t_central = time.time() - t0

    t1 = time.time()
    pol2, gamma2, system2 = load("etp_decentral")
    assert len(pol2.bindings) == 2  # loc and fee hierarchies
    decentral_sat = verify(pol2, gamma2, system2).satisfied
    t_decentral = time.time() - t1

    ok = (central_ok and central_sat and decentral_sat
          and t_central < 1.0 and t_decentral < 1.0)
    report(3, ok, "traffic pricing: central interface exact and both verify",
           t_central + t_decentral)


def _drop(pol: Policy, tname: str, path, perm_str: str) -> Policy:
    def walk(h: Hierarchy, rest):
        if not rest:
            perms = PermSet([p for p in h.perms if str(p) != perm_str])
            assert len(perms) == len(h.perms) - 1
            return Hierarchy(h.group, perms, h.children)
        return Hierarchy(h.group, h.perms, tuple(
            walk(c, rest[1:]) if c.group == rest[0] else c for c in h.children))

    return Policy(tuple(
        (t, walk(h, path[1:]) if t == tname and h.group == path[0] else h)
        for t, h in pol.bindings))


MUTANTS = [
    # (case, type, node path, permission, expected verdict after deletion)
    ("hospital", "patient_data", ("Hospital", "DBase"), "store", False),
    ("hospital", "patient_data", ("Hospital", "DBase"), "aggregate", False),
    ("hospital", "patient_data", ("Hospital", "Nurse"),
     "disseminate Hospital inf", False),
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
    ("speedlimit", "CarReg", ("SpeedControl", "SCSystem", "Auth"),
     "identify DriverReg", False),
    ("speedlimit", "CarSpeed", ("SpeedControl", "SCSystem", "Auth"),
     "usage Limit", False),
    ("speedlimit", "DriverReg", ("SpeedControl", "SCSystem", "DBase"),
     "disseminate SCSystem inf", False),
    # deletions of granted-but-unexercised permissions keep satisfaction
    ("hospital", "patient_data", ("Hospital", "Nurse"), "reference", True),
    ("hospital", "patient_data", ("Hospital", "Lab"), "identify crime", True),
    ("speedlimit", "CarSpeed", ("SpeedControl", "SCSystem", "Auth"), "store", True),
]


def test_criterion_4_negative_suite():
    t0 = time.time()
    pol, gamma, system = load("hospital")
    mpol, mgamma, msystem = (parse_policy((CORPUS / "hospital.ppo").read_text()).value,
                             gamma,
                             parse_system((CORPUS / "hospital_nurse_read.pc").read_text(),
                                          gamma).value)
    verdict = verify(mpol, mgamma, msystem)
    witness_ok = (not verdict.satisfied and any(
        w.theta_path == ("Hospital", "Nurse") and "read" in w.failing
        for w in verdict.witnesses))

    flips_checked = 0
    all_ok = witness_ok
    cases = {name: load(name) for name in NAMES}
    for name, t, path, perm, expect in MUTANTS:
        pol_n, gamma_n, system_n = cases[name]
        mutated = _drop(pol_n, t, path, perm)
        got = verify(mutated, gamma_n, system_n).satisfied
        if got != expect:
            all_ok = False
        if not expect:
            flips_checked += 1
    elapsed = time.time() - t0
    ok = all_ok and flips_checked >= 10
    report(4, ok, f"nurse-read witness and {flips_checked} deletion mutants flip",
           elapsed)


def test_criterion_5_policy_wellformedness():
    t0 = time.time()
    ok = True
    for name in NAMES:
        pol = parse_policy((CORPUS / f"{name}.ppo").read_text()).value
        ok &= check_wellformed(pol) == []
    hospital = parse_policy((CORPUS / "hospital.ppo").read_text()).value
    t, h = hospital.bindings[0]
    dup = Policy(((t, h), (t, h)))
    ok &= {v.condition for v in check_wellformed(dup)} == {1}
    cyc = Policy(((t, Hierarchy(h.group, h.perms,
                                h.children + (Hierarchy("Hospital", PermSet()),))),))
    ok &= {v.condition for v in check_wellformed(cyc)} == {2}
    from privcalc.policy import nondisclose
    nd = Policy(((t, Hierarchy(h.group,
                               perm_union(h.perms, PermSet([nondisclose("sensitive")])),
                               h.children)),))
    ok &= {v.condition for v in check_wellformed(nd)} == {3}
    elapsed = time.time() - t0
    report(5, ok, "corpus policies well formed; condition mutants rejected", elapsed)


def test_criterion_6_type_preservation():
    t0 = time.time()
    edges = 0
    violations = []
    for name, depth in (("hospital", 8), ("etp_central", 6),
                        ("etp_decentral", 8), ("speedlimit", 6)):
        pol, gamma, system = load(name)
        rep = check_preservation(gamma, explore(system, depth))
        edges += rep.edges_checked
        violations += rep.violations

    rng = random.Random(97)
    base = gen.base_gamma()
    systems = 0
    while systems < 200 or edges < 500:
        s = gen.random_system(rng)
        rep = check_preservation(base, explore(s, 4))
        edges += rep.edges_checked
        violations += rep.violations
        systems += 1
        if systems > 400:
            break
    elapsed = time.time() - t0
    ok = not violations and edges >= 500 and systems >= 200 and elapsed < 60
    report(6, ok, f"interface preserved on {edges} edges "
                  f"({systems} generated systems)", elapsed)


def test_criterion_7_safety():
    t0 = time.time()
    ok = True
    states = 0
    for name in NAMES:
        pol, gamma, system = load(name)
        assert verify(pol, gamma, system).satisfied
        rep = safety_scan(pol, gamma, system, 6)
        states += rep.states
        if rep.findings:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(7, ok, f"no error findings over {states} reachable states", elapsed)


def test_criterion_8_downward_closure():
    t0 = time.time()
    rng = random.Random(101)
    checked = 0
    ok = True
    while checked < 500:
        pol = gen.random_policy(rng)
        theta1 = gen.satisfying_theta(rng, pol)
        if not policy_satisfies(pol, theta1).satisfied:
            ok = False
            break
        theta2 = gen.weaken_theta(rng, theta1)
        if not interface_leq(theta2, theta1):
            continue
        if not policy_satisfies(pol, theta2).satisfied:
            ok = False
            break
        checked += 1
    elapsed = time.time() - t0
    report(8, ok and checked >= 500,
           f"satisfaction closed downward on {checked} interface pairs", elapsed)


def test_criterion_9_encoding_correspondence():
    t0 = time.time()
    programs = gen.store_programs()
    assert len(programs) >= 20
    ok = True
    rendered = ""
    for p in programs:
        rep = check_correspondence(p, 12)
        rendered += rep.render() + "\n"
        if not rep.ok:  # bound exhaustion counts as failure here
            ok = False
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    report(9, ok, f"operational correspondence on {len(programs)} store programs",
           elapsed)
    # the step counts of every report, byte for byte, as the bound-12 section
    # of the correspondence golden pins them
    golden = (GOLDEN / "store_programs.correspondence").read_text()
    assert rendered == golden[golden.index("# bound 12\n") + len("# bound 12\n"):]


def test_criterion_10_round_trip_and_fuzz():
    t0 = time.time()
    from test_syntax import _AstGen
    rng = random.Random(103)
    g = _AstGen(rng)
    ok = True
    for _ in range(1000):
        ast = g.system(2)
        text = render_system(ast)
        back = parse_system(text)
        if not back.ok or back.value != ast:
            ok = False
            break
        if render_system(back.value) != text:
            ok = False
            break
    rng2 = random.Random(107)
    alphabet = ("ab{}[]<>()#!?.|*=~^:;_ \n⊗" "privatenewstoreifthenelse0123")
    count = 0
    for _ in range(5000):
        text = "".join(rng2.choice(alphabet) for _ in range(rng2.randrange(0, 80)))
        for parser in (parse_system, parse_policy, parse_env):
            res = parser(text)
            if res.value is None and not res.diagnostics:
                ok = False
            count += 1
    for _ in range(5000):
        raw = bytes(rng2.randrange(0, 256) for _ in range(rng2.randrange(0, 60)))
        text = raw.decode("utf-8", errors="replace")
        res = parse_system(text)
        if res.value is None and not res.diagnostics:
            ok = False
        count += 1
    elapsed = time.time() - t0
    report(10, ok, f"1000 round trips byte-stable; {count} fuzz inputs survived",
           elapsed)

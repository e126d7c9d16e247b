import gc
import random
import weakref

import pytest

from privcalc.policy import (
    Hierarchy, PermSet, Policy, READ, REFERENCE, READID, disseminate,
)
from privcalc.safety import detect_errors
from privcalc.satisfaction import policy_satisfies, theta_satisfies, verify
from privcalc.syntax import parse_env, parse_policy, parse_system, render_env, render_system
from privcalc.typesys import Theta, ThetaEntry, TypingError, type_system

import gen
from conftest import CORPUS


@pytest.fixture(scope="module")
def hospital_policy():
    return parse_policy((CORPUS / "hospital.ppo").read_text()).value


class TestThetaSatisfies:
    def test_lab_entry_accepted(self, hospital_policy):
        h = hospital_policy.lookup("patient_data")
        entry = ThetaEntry("patient_data", ("Hospital", "Lab"),
                           PermSet([REFERENCE, READ, READID,
                                    disseminate("Police", 1)]))
        ok, witness = theta_satisfies(h, entry)
        assert ok and witness is None

    def test_nurse_read_rejected_with_witness(self, hospital_policy):
        h = hospital_policy.lookup("patient_data")
        entry = ThetaEntry("patient_data", ("Hospital", "Nurse"), PermSet([READ]))
        ok, witness = theta_satisfies(h, entry)
        assert not ok
        assert witness.failing == ("read",)
        assert witness.policy_path == ("Hospital", "Nurse")

    def test_single_node(self):
        h = Hierarchy("G", PermSet([READ]))
        entry = ThetaEntry("t", ("G",), PermSet([READ]))
        ok, _ = theta_satisfies(h, entry)
        assert ok

    def test_terminal_check_ignores_unexplored_children(self, hospital_policy):
        # a component sitting directly in the hospital group
        h = hospital_policy.lookup("patient_data")
        entry = ThetaEntry("patient_data", ("Hospital",), PermSet())
        ok, _ = theta_satisfies(h, entry)
        assert ok

    def test_wrong_root(self):
        h = Hierarchy("G", PermSet([READ]))
        ok, witness = theta_satisfies(h, ThetaEntry("t", ("H",), PermSet()))
        assert not ok and "roots at" in witness.failing[0]


class TestPolicySatisfies:
    def test_speedlimit_golden(self, corpus):
        pol, gamma, system = corpus["speedlimit"]
        theta = type_system(gamma, system).theta
        assert policy_satisfies(pol, theta).satisfied

    def test_uncovered_types_ignored_by_default(self, corpus):
        pol, gamma, system = corpus["etp_central"]
        theta = type_system(gamma, system).theta
        assert {e.ptype for e in theta} == {"loc", "fee"}
        assert pol.lookup("fee") is None
        assert policy_satisfies(pol, theta).satisfied

    def test_strict_coverage_rejects_uncovered(self, corpus):
        pol, gamma, system = corpus["etp_central"]
        theta = type_system(gamma, system).theta
        v = policy_satisfies(pol, theta, strict_coverage=True)
        assert not v.satisfied
        assert any(w.ptype == "fee" for w in v.witnesses)

    def test_empty_theta(self, hospital_policy):
        assert policy_satisfies(hospital_policy, Theta([])).satisfied


class TestVerify:
    def test_decentral_satisfied(self, corpus):
        pol, gamma, system = corpus["etp_decentral"]
        v = verify(pol, gamma, system)
        assert v.satisfied and v.theta is not None

    def test_nurse_mutant_unsatisfied(self, nurse_mutant):
        pol, gamma, system = nurse_mutant
        v = verify(pol, gamma, system)
        assert not v.satisfied
        w = next(w for w in v.witnesses if w.theta_path == ("Hospital", "Nurse"))
        assert "read" in w.failing

    def test_trivial_group(self, hospital_policy):
        gamma = parse_env("").value
        system = parse_system("G[ 0 ]", gamma).value
        assert verify(hospital_policy, gamma, system).satisfied

    def test_ill_formed_policy_reported(self):
        h = Hierarchy("G", PermSet(), (Hierarchy("G", PermSet()),))
        pol = Policy((("t", h),))
        gamma = parse_env("").value
        system = parse_system("G[ 0 ]", gamma).value
        v = verify(pol, gamma, system)
        assert not v.satisfied and "condition 2" in v.error

    def test_typing_failure_reported(self, hospital_policy):
        gamma = parse_env("").value
        system = parse_system("G[ a!<c>. 0 ]", gamma).value
        v = verify(hospital_policy, gamma, system)
        assert not v.satisfied and "UnboundTerm" in v.error


def test_downward_closure_property():
    """Shrinking a satisfying interface cannot break satisfaction."""
    rng = random.Random(47)
    checked = 0
    for _ in range(500):
        pol = gen.random_policy(rng)
        theta1 = gen.satisfying_theta(rng, pol)
        if not policy_satisfies(pol, theta1).satisfied:
            continue  # generator guarantees this; guard anyway
        theta2 = gen.weaken_theta(rng, theta1)
        from privcalc.typesys import interface_leq
        assert interface_leq(theta2, theta1)
        assert policy_satisfies(pol, theta2).satisfied
        checked += 1
    assert checked >= 450


def test_witness_replay():
    """Replaying a witness against its policy node reproduces the failure."""
    pol = parse_policy((CORPUS / "hospital.ppo").read_text()).value
    entry = ThetaEntry("patient_data", ("Hospital", "Nurse"),
                       PermSet([READ, REFERENCE]))
    v = policy_satisfies(pol, Theta([entry]))
    assert not v.satisfied
    w = v.witnesses[0]
    h = pol.lookup(w.ptype)
    ok, again = theta_satisfies(h, ThetaEntry(w.ptype, w.theta_path, entry.perms))
    assert not ok and again.failing == w.failing


# --- judgements kept on their inputs ---------------------------------------------
# The typing is kept on the system per environment object and direction, and
# each path's descent on the policy hierarchy; a judgement made after others
# on the same objects must read as it does on fresh parses.

def _typing(gamma, s, direction):
    try:
        st = type_system(gamma, s, id_direction=direction)
    except TypingError as e:
        return ("error", e.code, e.span, str(e))
    return ("ok", [e.render() for e in st.theta], sorted(st.lam))


def _verdict(policy, gamma, s, direction):
    v = verify(policy, gamma, s, id_direction=direction)
    return (v.satisfied, v.witnesses, v.error,
            None if v.theta is None else [e.render() for e in v.theta])


def _findings(policy, gamma, s, direction):
    return [f.record() for f in detect_errors(policy, gamma, s, id_direction=direction)]


_JUDGEMENTS = [("typing", None), ("verdict", 0), ("findings", 0), ("verdict", 1),
               ("findings", 1)]


def _warm_equals_cold(env: str, policy_texts: list[str], system: str) -> int:
    """Every judgement (the typing, and each policy's verdict and findings)
    in the anonymous, the known and again the anonymous identify direction,
    all on one parse of the inputs, against each made alone on fresh
    parses; the number of findings."""
    def parsed():
        gamma = parse_env(env).value
        res = parse_system(system, gamma)
        assert res.ok, (system, [str(d) for d in res.diagnostics])
        return [parse_policy(t).value for t in policy_texts], gamma, res.value

    def run(kind, k, objects, direction):
        policies, gamma, s = objects
        if kind == "typing":
            return _typing(gamma, s, direction)
        return (_verdict if kind == "verdict" else _findings)(policies[k], gamma, s, direction)

    warm = parsed()
    found = 0
    for direction in ("anon", "known", "anon"):
        for kind, k in _JUDGEMENTS:
            cold = run(kind, k, parsed(), direction)
            assert run(kind, k, warm, direction) == cold, (system, kind, k, direction)
            found += len(cold) if kind == "findings" else 0
    return found


def test_warm_judgements_equal_cold_ones_on_the_corpus():
    """The case studies and the nurse mutant under their policy and the
    empty one, with findings and their spans among the outputs."""
    found = 0
    for name in ("hospital", "etp_central", "etp_decentral", "speedlimit",
                 "hospital_nurse_read"):
        case = name.split("_nurse")[0]
        policy = (CORPUS / f"{case}.ppo").read_text()
        empty = "".join(f"private {t} >> {h.group} {{}};\n"
                        for t, h in parse_policy(policy).value.bindings)
        found += _warm_equals_cold((CORPUS / f"{case}.env").read_text(), [policy, empty],
                                   (CORPUS / f"{name}.pc").read_text())
    assert found


_POOL = ("read", "update", "reference", "store", "readId", "aggregate", "usage p0",
         "identify t0", "identify t1", "disseminate G1 inf", "disseminate G2 1",
         "disseminate G3 2", "nondisclose confidential")


def _fitting_policy(rng: random.Random) -> str:
    """A policy over the groups of `gen.random_system`, rooted at one of
    them, with random grants."""
    def grants() -> str:
        return "{" + ", ".join(rng.sample(_POOL, rng.randrange(len(_POOL) + 1))) + "}"

    roots = (f"G1 {grants()} [ G2 {grants()}, G3 {grants()} ]", f"G2 {grants()}",
             f"G3 {grants()}")
    return "".join(f"private {t} >> {rng.choice(roots)};\n" for t in ("t0", "t1"))


def test_warm_judgements_equal_cold_ones_on_generated_systems():
    """300 generated systems, each under two random policies over its
    groups."""
    rng = random.Random(97)
    env = render_env(gen.base_gamma())
    found = 0
    for _ in range(300):
        system = render_system(gen.random_system(rng))
        found += _warm_equals_cold(env, [_fitting_policy(rng), _fitting_policy(rng)], system)
    assert found


def test_kept_judgements_make_no_reference_cycle():
    """What a system and a hierarchy keep refers to neither of them, so
    they are freed as soon as the caller drops them, without the cyclic
    collector: a typing, a typing error raised twice, each path's descent
    on a hierarchy and the grants at each path on the policy."""
    env = (CORPUS / "hospital.env").read_text()
    policy_text = (CORPUS / "hospital.ppo").read_text()
    gc.disable()
    try:
        for system in ((CORPUS / "hospital.pc").read_text(), "Hospital[ q?(x). 0 ]"):
            gamma = parse_env(env).value
            policy = parse_policy(policy_text).value
            s = parse_system(system, gamma).value
            for _ in range(2):
                verify(policy, gamma, s)
                detect_errors(policy, gamma, s)
            assert s._typing is not None and policy.bindings[0][1]._descents
            assert policy._path_grants
            refs = [weakref.ref(s), weakref.ref(policy), weakref.ref(policy.bindings[0][1])]
            del s, policy
            assert [r() for r in refs] == [None, None, None], system
    finally:
        gc.enable()

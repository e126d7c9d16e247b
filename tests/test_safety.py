import functools
import random
import re

import pytest

from privcalc.kernel import (
    Block, DConst, Group, HIDDEN, Known, NIL, PIf, PInp, POut, PPair, PStore,
    PVar, PrivateData, SBare, TChan, TConst, TName, TPriv, TPrivate,
)
from privcalc.policy import (
    AGGREGATE, FIN, OMEGA, PermSet, Policy, Hierarchy, READ, READID, REFERENCE,
    STORE, UPDATE, disseminate, identify, nondisclose, usage,
)
from privcalc.safety import count_links, detect_errors, safety_scan
from privcalc.satisfaction import policy_satisfies, verify
from privcalc.semantics import explore
from privcalc.syntax import parse_env, parse_policy, parse_system
from privcalc.typesys import _bind_block, type_system

import gen
import safety_oracles
from conftest import CORPUS


REF_T = TChan("G", (TPrivate("t", "g"),))


@pytest.fixture()
def link_gamma():
    res = parse_env("u : G[G[t<g>]]\nr : G[t<g>]\n{id # c} : t<g>\n"
                    "a : G[p<g>]\nk : p<g>\n")
    assert res.ok
    return res.value


class TestCountLinks:
    def test_two_outputs(self, link_gamma):
        p = POut(TName("u"), (TName("r"),), POut(TName("u"), (TName("r"),), NIL))
        assert count_links(p, link_gamma, REF_T) == 2

    def test_nil(self, link_gamma):
        assert count_links(NIL, link_gamma, REF_T) == 0

    def test_branches_sum(self, link_gamma):
        out = POut(TName("u"), (TName("r"),), NIL)
        p = PIf("=", TName("a"), TName("a"), out, out)
        assert count_links(p, link_gamma, REF_T) == 2

    def test_literal_mode_counts_data_outputs(self, link_gamma):
        p = POut(TName("r"), (TPriv(PrivateData(Known("id"), DConst("c"))),), NIL)
        assert count_links(p, link_gamma, REF_T, literal=True) == 1
        assert count_links(p, link_gamma, REF_T, literal=False) == 0

    def test_subject_group_filter(self, link_gamma):
        p = POut(TName("u"), (TName("r"),), NIL)
        assert count_links(p, link_gamma, REF_T, subject_group="G") == 1
        assert count_links(p, link_gamma, REF_T, subject_group="H") == 0


class TestDetectErrors:
    def test_nurse_read_mutant(self, nurse_mutant):
        pol, gamma, system = nurse_mutant
        findings = detect_errors(pol, gamma, system)
        clause1 = [f for f in findings if f.clause == 1]
        assert clause1 and clause1[0].ptype == "patient_data"
        assert clause1[0].group_path == ("Hospital", "Nurse")

    @pytest.mark.parametrize("name", ["hospital", "etp_central",
                                      "etp_decentral", "speedlimit"])
    def test_published_corpus_clean(self, corpus, name):
        pol, gamma, system = corpus[name]
        assert detect_errors(pol, gamma, system) == []

    def test_clause_2_update(self):
        g = parse_env("r : G[t<g>]\n{_ # c} : t<g>\n").value
        pol = parse_policy("private t >> G {store};").value
        s = parse_system("G[ r!<{_ # c}>. 0 ]", g).value
        findings = detect_errors(pol, g, s)
        assert [f.clause for f in findings] == [2]

    def test_clause_3_reference(self):
        g = parse_env("ch : G[G[t<g>]]\n").value
        pol = parse_policy("private t >> G {read};").value
        s = parse_system("G[ ch?(w). 0 ]", g).value
        assert [f.clause for f in detect_errors(pol, g, s)] == [3]

    def test_clause_4_disseminate(self):
        g = parse_env("ch : G[G[t<g>]]\nr : G[t<g>]\n").value
        pol = parse_policy("private t >> G {read};").value
        s = parse_system("G[ ch!<r>. 0 ]", g).value
        assert [f.clause for f in detect_errors(pol, g, s)] == [4]

    def test_clause_6_store(self):
        g = parse_env("r : G[t<g>]\n{id # c} : t<g>\n").value
        pol = parse_policy("private t >> G {read};").value
        s = parse_system("G[ store r {id # c} ]", g).value
        assert [f.clause for f in detect_errors(pol, g, s)] == [6]

    def test_clause_7_aggregate(self):
        g = parse_env("r : G[t<g>]\ns : G[t<g>]\n"
                      "{id # c} : t<g>\n{id # d} : t<g>\n").value
        pol = parse_policy("private t >> G {store};").value
        s = parse_system("G[ store r {id # c} | store s {id # d} ]", g).value
        assert [f.clause for f in detect_errors(pol, g, s)] == [7]

    def test_clause_8_usage(self):
        g = parse_env("r : G[t<g>]\nk : p<g>\n{id # c} : t<g>\n").value
        pol = parse_policy("private t >> G {read, readId};").value
        s = parse_system("G[ r?(x # y). if y = k then 0 else 0 ]", g).value
        assert [f.clause for f in detect_errors(pol, g, s)] == [8]

    def test_clause_9_identify(self):
        g = parse_env("r : G[t<g>]\ns : G[t2<g>]\n"
                      "{id # c} : t<g>\n{_ # d} : t2<g>\n").value
        pol = parse_policy(
            "private t >> G {read, readId};"
            "private t2 >> G {read};").value
        s = parse_system("G[ r?(x # y). s?(_ # z). if y = z then 0 else 0 ]",
                         g).value
        assert [f.clause for f in detect_errors(pol, g, s)] == [9]
        # the identify permission sits on the anonymous side's type
        assert detect_errors(pol, g, s)[0].ptype == "t2"

    def test_clause_10_budget(self):
        g = parse_env("u : G[G[t<g>]]\nr : G[t<g>]\n").value
        pol = parse_policy("private t >> G {disseminate G 1};").value
        s = parse_system("G[ u!<r>. u!<r>. 0 ]", g).value
        assert 10 in [f.clause for f in detect_errors(pol, g, s)]

    def test_clause_10_on_board_budget(self):
        """A bounded budget is also checked through received subjects and
        restricted references."""
        g = parse_env((CORPUS / "etp_decentral.env").read_text()).value
        pol = parse_policy((CORPUS / "etp_decentral.ppo").read_text()).value
        mutant = (CORPUS / "etp_decentral.pc").read_text().replace(
            "OBE[ spotcheck?(z). z!<r>. 0 | send?(g). sendpa!<g>. 0 ]",
            "OBE[ spotcheck?(z). z!<r>. z!<r>. z!<r>. 0 "
            "| send?(g). sendpa!<g>. 0 ]")
        s = parse_system(mutant, g).value
        findings = detect_errors(pol, g, s)
        assert [(f.clause, f.ptype) for f in findings] == [(10, "loc")]

    def test_clause_11_nondisclosure_boundary(self):
        g = parse_env("out : Other[ETP[loc<L>]]\nr : ETP[loc<L>]\n").value
        pol = parse_policy(
            "private loc >> ETP {nondisclose sensitive} "
            "[ Car {disseminate Other inf} ];").value
        s = parse_system("ETP[ Car[ out!<r>. 0 ] ]", g).value
        clauses = {f.clause for f in detect_errors(pol, g, s)}
        assert 11 in clauses

    def test_deep_positions_scanned(self):
        g = parse_env("a : G[p<g>]\nk : p<g>\nr : G[t<g>]\n{id # c} : t<g>\n").value
        pol = parse_policy("private t >> G {read};").value
        s = parse_system("G[ a?(v). store r {id # c} ]", g).value
        assert [f.clause for f in detect_errors(pol, g, s)] == [6]


class TestSafetyScan:
    def test_speedlimit_clean(self, corpus):
        pol, gamma, system = corpus["speedlimit"]
        report = safety_scan(pol, gamma, system, 5)
        assert report.ok and report.states > 1

    def test_mutant_found_at_depth_zero(self, nurse_mutant):
        pol, gamma, system = nurse_mutant
        report = safety_scan(pol, gamma, system, 0)
        assert not report.ok
        assert any(f.clause == 1 for _, f in report.findings)

    def test_inactive_system(self):
        g = parse_env("").value
        pol = parse_policy("private t >> G {read};").value
        s = parse_system("G[ 0 ]", g).value
        assert safety_scan(pol, g, s, 4).ok


def test_error_implies_non_satisfaction():
    """Any typable system the detector flags also fails satisfaction."""
    cases = [
        ("private t >> G {store};", "r : G[t<g>]\n{_ # c} : t<g>\n",
         "G[ r!<{_ # c}>. 0 ]"),
        ("private t >> G {read};", "r : G[t<g>]\n{id # c} : t<g>\n",
         "G[ store r {id # c} ]"),
        ("private t >> G {store};",
         "r : G[t<g>]\ns : G[t<g>]\n{id # c} : t<g>\n{id # d} : t<g>\n",
         "G[ store r {id # c} | store s {id # d} ]"),
        ("private t >> G {read, readId};",
         "r : G[t<g>]\nk : p<g>\n{id # c} : t<g>\n",
         "G[ r?(x # y). if y = k then 0 else 0 ]"),
        ("private t >> G {reference};", "r : G[t<g>]\n{id # c} : t<g>\n",
         "G[ r?(x # y). 0 ]"),
    ]
    for ppo, env, pc in cases:
        pol = parse_policy(ppo).value
        gamma = parse_env(env).value
        system = parse_system(pc, gamma).value
        findings = detect_errors(pol, gamma, system)
        assert findings
        theta = type_system(gamma, system).theta
        assert not policy_satisfies(pol, theta).satisfied


def test_policy_mutants_flip_verdicts(corpus, nurse_mutant):
    """Deleting an exercised permission flips the corpus verdict; deleting
    an unexercised one does not."""

    def drop(pol: Policy, tname: str, path: tuple[str, ...], perm_str: str) -> Policy:
        def walk(h: Hierarchy, rest: tuple[str, ...]) -> Hierarchy:
            if not rest:
                perms = PermSet([p for p in h.perms if str(p) != perm_str])
                assert len(perms) == len(h.perms) - 1, (path, perm_str)
                return Hierarchy(h.group, perms, h.children)
            return Hierarchy(h.group, h.perms, tuple(
                walk(c, rest[1:]) if c.group == rest[0] else c
                for c in h.children))

        return Policy(tuple(
            (t, walk(h, path[1:]) if t == tname and h.group == path[0] else h)
            for t, h in pol.bindings))

    flips = [
        ("hospital", "patient_data", ("Hospital", "DBase"), "store"),
        ("hospital", "patient_data", ("Hospital", "DBase"), "aggregate"),
        ("hospital", "patient_data", ("Hospital", "Nurse"), "disseminate Hospital inf"),
        ("hospital", "patient_data", ("Hospital", "Doctor"), "read"),
        ("hospital", "patient_data", ("Hospital", "Doctor"), "usage diagnosis"),
        ("hospital", "patient_data", ("Hospital", "Research"), "usage research"),
        ("hospital", "patient_data", ("Hospital", "Lab"), "disseminate Police 1"),
        ("etp_central", "loc", ("ETP", "Car"), "store"),
        ("etp_central", "loc", ("ETP", "Car", "GPS"), "update"),
        ("etp_central", "loc", ("ETP", "PA"), "usage spotCheck"),
        ("etp_decentral", "fee", ("ETP", "Car", "SC"), "disseminate Car inf"),
        ("speedlimit", "CarReg", ("SpeedControl", "SCSystem", "Auth"),
         "identify DriverReg"),
        ("speedlimit", "DriverReg", ("SpeedControl", "SCSystem", "DBase"),
         "disseminate SCSystem inf"),
    ]
    for name, t, path, perm in flips:
        pol, gamma, system = corpus[name]
        assert verify(pol, gamma, system).satisfied
        mutated = drop(pol, t, path, perm)
        assert not verify(mutated, gamma, system).satisfied, (name, t, path, perm)

    keeps = [
        ("hospital", "patient_data", ("Hospital", "Nurse"), "reference"),
        ("hospital", "patient_data", ("Hospital", "Lab"), "identify crime"),
        ("speedlimit", "CarSpeed", ("SpeedControl", "SCSystem", "Auth"), "store"),
    ]
    for name, t, path, perm in keeps:
        pol, gamma, system = corpus[name]
        mutated = drop(pol, t, path, perm)
        assert verify(mutated, gamma, system).satisfied, (name, t, path, perm)


# --- the detector against its earlier form (tests/safety_oracles.py) -----------

CORPUS_CASES = (("hospital", "hospital"), ("etp_central", "etp_central"),
                ("etp_decentral", "etp_decentral"), ("speedlimit", "speedlimit"),
                ("lab", "hospital"), ("hospital_nurse_read", "hospital"))


def _seed_policy(rng: random.Random) -> Policy:
    """A policy over the groups of `gen.random_system`, with finite budgets
    and nondisclosure among its grants, so that every clause can fire, and
    sometimes without a group the system has."""
    pool = [READ, UPDATE, REFERENCE, STORE, READID, AGGREGATE, usage("p0"),
            identify("t0"), identify("t1"), nondisclose("sensitive"),
            *(disseminate(g, lam) for g in ("G1", "G2", "G3")
              for lam in (FIN(1), FIN(2), OMEGA))]

    def perms() -> PermSet:
        return PermSet(rng.sample(pool, rng.randrange(0, 8)))

    def hier(root: str) -> Hierarchy:
        if root != "G1":
            return Hierarchy(root, perms())
        # a missing child leaves a group path outside the hierarchy
        return Hierarchy("G1", perms(), tuple(Hierarchy(g, perms()) for g in ("G2", "G3")
                                              if rng.random() < 0.75))

    return Policy(tuple((t, hier(rng.choice(("G1", "G2", "G3"))))
                        for t in ("t0", "t1")))


@functools.cache
def _differential_inputs():
    """(policy, gamma, state) triples: every corpus state at depth 8 under
    its policy, under that policy with every finite budget lowered to 1,
    with every budget set to 1 and with no aggregate grant; and every state
    at depth 4 of 60 seeded `gen.random_system` systems under two seeded
    policies each."""
    inputs = []
    for name, env in CORPUS_CASES:
        gamma = parse_env((CORPUS / f"{env}.env").read_text()).value
        ppo = (CORPUS / f"{env}.ppo").read_text()
        policies = [parse_policy(text).value for text in (
            ppo, re.sub(r"disseminate (\w+) \d+", r"disseminate \1 1", ppo),
            re.sub(r"disseminate (\w+) \w+", r"disseminate \1 1", ppo),
            ppo.replace(", aggregate", ""))]
        system = parse_system((CORPUS / f"{name}.pc").read_text(), gamma).value
        states = explore(system, 8).nodes.values()
        inputs += [(pol, gamma, st) for pol in policies for st in states]
    gamma = gen.base_gamma()
    for seed in range(60):
        rng = random.Random(seed)
        states = explore(gen.random_system(rng), 4).nodes.values()
        policies = [_seed_policy(rng) for _ in range(2)]
        inputs += [(pol, gamma, st) for pol in policies for st in states]
    return inputs


def test_detect_errors_matches_oracle():
    """One walk per group context gives the findings of the three walkers
    it replaced, spans included, under both clause-10 readings and both
    identify directions; the inputs reach every clause."""
    clauses = set()
    for pol, gamma, state in _differential_inputs():
        for literal in (False, True):
            for direction in ("anon", "known"):
                got = detect_errors(pol, gamma, state, direction, literal)
                want = safety_oracles.detect_errors(pol, gamma, state, direction,
                                                    literal)
                assert [(f, f.span) for f in got] == [(f, f.span) for f in want], state
                clauses.update(f.clause for f in got)
    assert clauses == set(range(1, 12))


def _contexts(node, gamma):
    """The (body, environment) of every group context of a system."""
    match node:
        case Group(_, body):
            yield from _contexts(body, gamma)
        case Block(_, comps):
            g2, _ = _bind_block(gamma, node)
            for c in comps:
                yield from _contexts(c, g2)
        case SBare(proc):
            yield proc, gamma


def test_count_links_matches_oracle():
    """`count_links` counts from the link list as its own walker counted,
    in the default, literal and subject-group readings."""
    hits = 0
    for _, gamma, state in _differential_inputs()[::2]:
        for proc, g in _contexts(state, gamma):
            refs = {ty for ty in g.atoms.values()
                    if isinstance(ty, TChan) and len(ty.payload) == 1
                    and isinstance(ty.payload[0], TPrivate)}
            for target in refs:
                for literal, group in ((False, None), (True, None),
                                       (False, target.group), (False, "G2")):
                    n = count_links(proc, g, target, literal, group)
                    assert n == safety_oracles.count_links(proc, g, target, literal,
                                                           group), (proc, target)
                    hits += n
    assert hits

import contextlib
import functools
import io
import random
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from privcalc.kernel import (
    Block, DConst, Group, HIDDEN, Known, NIL, PIf, PInp, POut, PPair, PStore,
    PVar, PrivateData, SBare, TChan, TConst, TName, TPriv, TPrivate, placeholder_vars,
)
from privcalc.policy import (
    AGGREGATE, FIN, OMEGA, PermSet, Policy, Hierarchy, READ, READID, REFERENCE,
    STORE, UPDATE, disseminate, identify, nondisclose, usage,
)
from privcalc import cli, kernel, policy, safety
from privcalc.safety import count_links, detect_errors, safety_scan
from privcalc.satisfaction import policy_satisfies, verify
from privcalc.semantics import explore
from privcalc.syntax import parse_env, parse_policy, parse_system
from privcalc.typesys import _bind_block, type_system

import gen
import kernel_oracles
import safety_oracles
from conftest import CORPUS, load


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


# Systems on which a body as it sits and its own normal form read the
# clauses differently, under finite budgets: a binder that hides an
# environment entry, a restriction left untyped, or a block whose binder
# order decides an inferred type; only the renamed path gives the oracle's
# findings on them. The last puts one context object under two bindings.
SHADOW_ENV = """
c : G1[G1[t0<g1>]]
s : G1[t0<g0>]
d : G1[G1[t0<g1>]]
r : G1[t1<g0>]
e : G1[G1[t2<g0>]]
_a : G1[G1[t0<g1>]]
n : G1[G1[t2<g0>]]
"""

SHADOW_POLICY = """
private t0 >> G1 {reference, update, store, aggregate, disseminate G1 1};
private t1 >> G1 {read, readId, reference, update, store, aggregate, disseminate G1 1};
private t2 >> G1 {read, readId, reference, disseminate G1 inf};
private t3 >> G1 {reference, store};
"""

SHADOW_SYSTEMS = (
    # the system binder hides `s`, the only entry with ground g0, so that
    # clause 10 counts the two links of `q` only on the renamed path
    "(new s : G1[t0<g1>]) G1[ (new q : G1[t0<g0>]) c!<q>. c!<q>. c!<s>. 0 ]",
    # an input variable named as a channel of another type
    "G1[ d?(r). r?(x # y). 0 ]",
    # an input variable bound again at another type
    "G1[ e?(w). d?(w). w?(x # y). 0 ]",
    # restrictions named as channels
    "G1[ (new r) r?(x # y). 0 ]",
    "G1[ (new r : G1[t0<g1>]) r?(x # y). 0 ]",
    # a restriction with no type leaves `n` its channel type, which gives
    # `p` a second candidate type, and so none, until `n` is renamed
    "G1[ (new n) d?(z). (new p) ( n!<p>. 0 | d!<p>. p?(x # y). 0 ) ]",
    # renamed on its own, `u` takes the name `_n0` of `m`, not free in the
    # body, and having no type of its own reads the type of `m`
    "(new m : G1[t0<g1>]) ( G1[ (new u) u?(x # y). 0 ] || G2[ c!<m>. 0 ] )",
    # `k` takes its type from `r!<k>` until, renamed `_n0` on its own, its
    # output on itself reads the type of `z`, also `_n0`: a second
    # candidate, so it has none and its outputs read the type of `z`
    "G1[ (new k) k!<d>. k!<k>. r!<k>. 0 ] || (new z : G1[t3<g0>]) G1[ store z {i # v} ]",
    # in context the hole for `m` sorts the first component first, which
    # binds q before p; on its own the body sorts `_a` before `_n0` and
    # binds p first, and only then is p's type inferred, from `m` alone
    "(new m : G1[G1[t0<g1>]]) G1[ (new q : G1[G1[t2<g0>]]) (new p) "
    "( m!<q>. 0 | _a!<p>. m!<p>. q!<p>. p?(x # y). 0 ) ]",
    # `a` is typed by the output on `c` until it is taken; then the same
    # context sits under a block that leaves `a` untyped
    "(new a) ( G1[ a?(x # y). 0 ] || G2[ c!<a>. 0 ] || G2[ c?(z). 0 ] )",
)

# Parsed systems that are not normal forms, where a static check walks the
# system as parsed: nested blocks, inert parts and restrictions that
# normalizing merges, reorders or drops. Under the shadowing environment
# and policy; where the normal form reads a system otherwise than its
# parsed form, the comment says how.
NESTED_SYSTEMS = (
    # nested parallels with inert parts
    "G1[ d?(z). 0 | ( c?(w). 0 | 0 ) ]",
    "G1[ (new q : G1[t0<g1>]) c!<q>. 0 | ( c?(z). z?(x # y). 0 | 0 ) ]",
    "G1[ d?(z). 0 | ( ( c?(w). 0 | 0 ) | ( 0 | * 0 ) ) ] || ( 0 || G2[ 0 ] )",
    # untyped nested system restrictions: as parsed, `a` is inferred
    # before `b` has a type; merged, `m` and `b` come first and type it
    "(new m : G1[G1[G1[t0<g1>]]]) (new a) (new b) "
    "( G1[ m!<b>. 0 ] || G1[ b!<a>. 0 ] || G2[ a?(x # y). 0 ] )",
    # as parsed, `p` takes the type `a` sends; merged, `b` is bound before
    # it and `a` after, so `p` takes the type `b` sends and is read
    "(new a : G1[G1[t2<g0>]]) (new p) (new b : G1[G1[t0<g1>]]) "
    "G1[ b!<p>. 0 | a!<p>. p?(x # y). 0 ]",
    "(new a : G1[G1[t2<g0>]]) (new p) (new b : G1[G1[t0<g1>]]) "
    "( G1[ b!<p>. 0 ] || G1[ a!<p>. p?(x # y). 0 ] )",
    "G1[ (new a : G1[G1[t2<g0>]]) (new p) (new b : G1[G1[t0<g1>]]) "
    "( b!<p>. 0 | a!<p>. p?(x # y). 0 ) ]",
    # `z` is unused, so normalizing drops it; as parsed, typing `p` reads
    # it through the input that binds `z` again, and finds two candidates
    "(new z : G1[t0<g1>]) G1[ (new p) ( G2[ 0 ] || d?(z). z!<p>. 0 || c!<p>. 0 "
    "|| p?(x # y). 0 ) ]",
    # restrictions under a parallel inside a group
    "G1[ c?(z). 0 | (new q : G1[t0<g1>]) ( c!<q>. 0 | q!<{_ # v}>. 0 ) ]",
    "G1[ c?(z). 0 | (new q) ( c!<q>. 0 | q?(x # y). 0 ) ]",
    "G1[ c?(z). 0 | (new q : G1[t0<g1>]) c!<q>. 0 | (new q : G1[t0<g1>]) q!<{_ # v}>. 0 ]",
    # binders that hide an entry inside an unflattened block; the first
    # is the first shadowing system with its binder nested
    "G2[ 0 ] || ( G2[ 0 ] || (new s : G1[t0<g1>]) "
    "G1[ (new q : G1[t0<g0>]) c!<q>. c!<q>. c!<s>. 0 ] )",
    "G1[ (new q : G1[t0<g0>]) c!<q>. c!<q>. 0 | ( 0 | (new s : G1[t0<g1>]) c!<s>. 0 ) ]",
    # clause 10 budgets counted over a nested block, exceeded and not
    "G1[ c!<s>. 0 | ( d!<s>. 0 | (new q : G1[t0<g1>]) c!<q>. 0 ) ]",
    "G1[ c!<s>. 0 | ( d?(z). 0 | (new q : G1[t0<g1>]) c!<q>. 0 ) ]",
    # a binder of a nested system block, once merged, is bound over its
    # siblings too: it gives the first context the ground that clause 10
    # counts there, exceeded and not
    "G1[ (new k : G1[G1[t0<g5>]]) (new q : G1[t0<g5>]) k!<q>. k!<q>. 0 ] "
    "|| (new b : G1[t0<g5>]) G1[ (new k : G1[G1[t0<g5>]]) k!<b>. 0 ]",
    "G1[ (new k : G1[G1[t0<g5>]]) (new q : G1[t0<g5>]) k!<q>. 0 ] "
    "|| (new b : G1[t0<g5>]) G1[ (new k : G1[G1[t0<g5>]]) k!<b>. 0 ]",
    # stores in two nested blocks, which clause 7 pairs once merged
    "G1[ (new q : G1[t3<g0>]) ( store q {i # v} | ( 0 | store q {i # w} ) ) ]",
    "G1[ (new q : G1[t3<g0>]) ( store q {i # v} | (new p : G1[t3<g0>]) store p {j # w} ) ]",
)


@functools.cache
def _oracle_systems():
    """(policy, environment, system, depth): each corpus input at depth 8
    under its policy, under that policy with every finite budget lowered to
    1, with every budget set to 1 and with no aggregate grant; 300 seeded
    `gen.random_system` systems at depth 4, the first 60 under two seeded
    policies and the rest under one; and the shadowing and nested systems
    at depth 4."""
    systems = []
    for name, env in CORPUS_CASES:
        gamma = parse_env((CORPUS / f"{env}.env").read_text()).value
        ppo = (CORPUS / f"{env}.ppo").read_text()
        policies = [parse_policy(text).value for text in (
            ppo, re.sub(r"disseminate (\w+) \d+", r"disseminate \1 1", ppo),
            re.sub(r"disseminate (\w+) \w+", r"disseminate \1 1", ppo),
            ppo.replace(", aggregate", ""))]
        system = parse_system((CORPUS / f"{name}.pc").read_text(), gamma).value
        systems += [(pol, gamma, system, 8) for pol in policies]
    gamma = gen.base_gamma()
    for seed in range(300):
        rng = random.Random(seed)
        system = gen.random_system(rng)
        systems += [(_seed_policy(rng), gamma, system, 4) for _ in range(2 if seed < 60 else 1)]
    gamma = parse_env(SHADOW_ENV).value
    policy = parse_policy(SHADOW_POLICY).value
    systems += [(policy, gamma, parse_system(text, gamma).value, 4)
                for text in SHADOW_SYSTEMS + NESTED_SYSTEMS]
    return systems


@functools.cache
def _differential_inputs():
    """(policy, gamma, state) triples: every state of the corpus inputs and
    of the first 60 seeded systems of `_oracle_systems`."""
    return [(pol, gamma, state)
            for pol, gamma, system, depth in _oracle_systems()[:4 * len(CORPUS_CASES) + 120]
            for state in explore(system, depth).nodes.values()]


def _spanned(findings) -> list:
    return [(f, f.span) for f in findings]


def test_detect_errors_matches_oracle():
    """The detector gives the findings of the three walkers it replaced,
    spans included, under both clause-10 readings and both identify
    directions: on each system as it was parsed or built, on every state
    of it one by one, and over all of them through `safety_scan`, whose
    detector keeps contexts from state to state. The inputs reach every
    clause."""
    clauses = set()
    for pol, gamma, system, depth in _oracle_systems():
        states = explore(system, depth).nodes
        for literal in (False, True):
            for direction in ("anon", "known"):
                want = {key: safety_oracles.detect_errors(pol, gamma, state, direction,
                                                          literal)
                        for key, state in states.items()}
                report = safety_scan(pol, gamma, system, depth, direction, literal)
                assert [(key, f, f.span) for key, f in report.findings] == \
                    [(key, f, f.span) for key in sorted(want) for f in want[key]], system
                for key, state in states.items():
                    got = detect_errors(pol, gamma, state, direction, literal)
                    assert _spanned(got) == _spanned(want[key]), state
                # a copy that no normal form has been kept on, as parsed
                fresh = kernel_oracles.rebuild(system)
                got = detect_errors(pol, gamma, fresh, direction, literal)
                assert _spanned(got) == _spanned(safety_oracles.detect_errors(
                    pol, gamma, fresh, direction, literal)), system
                clauses.update(f.clause for f in got)
                clauses.update(f.clause for _, f in report.findings)
    assert clauses == set(range(1, 12))


def _binders(node):
    """Every block of a term, every name a block or an input binds, and
    the body of every group context."""
    blocks, names, bodies = [], [], []
    stack = [node]
    while stack:
        nd = stack.pop()
        if isinstance(nd, Block):
            blocks.append(nd)
            names += (n for n, _ in nd.binders)
        elif isinstance(nd, PInp):
            names += (x for k in nd.patterns for x in placeholder_vars(k))
        elif isinstance(nd, SBare):
            bodies.append(nd.body)
        stack.extend(kernel.children(nd))
    return blocks, names, bodies


def test_parsed_walk_steps_are_idle_on_normal_forms():
    """`_bind` merges every block it walks and reads every binder against
    the environment, on a parsed system and on a normal form alike. Below
    a normal form (an explored state, or a context body normalized to be
    checked again) merging gives each block itself, and where
    `_Detector.fast` holds no binder there names an environment entry."""
    blocks = 0
    for gamma, system, depth in dict.fromkeys((g, s, d) for _, g, s, d in _oracle_systems()):
        fast = safety._Detector(None, gamma, "anon", False).fast
        for state in explore(system, depth).nodes.values():
            for form in (state, *map(kernel.normalize, _binders(state)[2])):
                found, names, _ = _binders(form)
                assert all(kernel._hoisted(b) is b for b in found), form
                assert not fast or not any(safety._entries(gamma, n) for n in names), form
                blocks += len(found)
    assert blocks


def _contexts(node, gamma):
    """The (body, environment) of every group context of a system."""
    match node:
        case Group(_, body):
            yield from _contexts(body, gamma)
        case Block(_, comps):
            g2, _, _ = _bind_block(gamma, node)
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


def _context_paths(node, path=()):
    """The group path of every group context of a system."""
    match node:
        case Group(group, body):
            yield from _context_paths(body, path + (group,))
        case Block(_, comps):
            for c in comps:
                yield from _context_paths(c, path)
        case SBare():
            yield path


@pytest.mark.parametrize("name", ["hospital", "etp_central", "etp_decentral", "speedlimit"])
def test_contexts_are_checked_where_they_sit(name, monkeypatch):
    """On a clean case study, no context is normalized to be checked: a
    static check walks the parsed system and makes no normalizing pass,
    and once `explore` is done a scan renames nothing, since every state
    is its own normal form. The scan descends each hierarchy along each
    group path once, and reads what the policy grants at a path (`_grants`,
    kept on the policy) from that descent once, however many contexts sit
    there."""
    searching = [True]
    nesting, passes, renames, paths = [0], [0], [0], []
    real_explore, real_pass = safety.explore, kernel._normalize1
    real_rename, real_descend = kernel._canonical_rename, policy.descend

    def explore(*args):
        out = real_explore(*args)
        searching[0] = False
        return out

    def counted(*args):
        passes[0] += not nesting[0]
        nesting[0] += 1
        try:
            return real_pass(*args)
        finally:
            nesting[0] -= 1

    def rename(node):
        renames[0] += not searching[0]
        return real_rename(node)

    def descend(h, path):
        paths.append((id(h), path))
        return real_descend(h, path)

    reads, real_descent = [], safety.descent

    def descent(h, path):
        reads.append((id(h), path))
        return real_descent(h, path)

    monkeypatch.setattr(safety, "explore", explore)
    monkeypatch.setattr(kernel, "_normalize1", counted)
    monkeypatch.setattr(kernel, "_canonical_rename", rename)
    monkeypatch.setattr(policy, "descend", descend)
    monkeypatch.setattr(safety, "descent", descent)

    pol, gamma, system = load(name)
    searching[0] = False
    assert detect_errors(pol, gamma, system) == []
    assert passes[0] == 0 and renames[0] == 0

    searching[0] = True
    paths.clear()
    reads.clear()
    pol, gamma, system = load(name)
    report = safety_scan(pol, gamma, system, 8)
    assert report.ok and not searching[0] and renames[0] == 0
    states = real_explore(system, 8).nodes.values()
    assert sorted(paths) == sorted({(id(h), p) for _, h in pol.bindings
                                    for s in states for p in _context_paths(s)})
    assert sorted(reads) == sorted(paths)


@pytest.mark.parametrize("name", ["hospital", "etp_central", "etp_decentral", "speedlimit",
                                  "hospital_nurse_read"])
def test_verify_then_detect_descends_each_path_once(name, monkeypatch):
    """Satisfaction and the error detector read what a policy grants at a
    group path from one descent kept on the hierarchy: `verify` and then
    `detect_errors` under one policy descend each hierarchy along each
    path once between them, the interface's paths and every context's."""
    descents, real_descend = [], policy.descend

    def descend(h, path):
        descents.append((id(h), path))
        return real_descend(h, path)

    monkeypatch.setattr(policy, "descend", descend)
    pol, gamma, system = load(name.split("_nurse")[0])
    if name == "hospital_nurse_read":
        system = parse_system((CORPUS / f"{name}.pc").read_text(), gamma).value
    verdict = verify(pol, gamma, system)
    theta_paths = set(descents)
    findings = detect_errors(pol, gamma, system)
    assert bool(findings) == (name == "hospital_nurse_read")
    assert len(descents) == len(set(descents))
    assert theta_paths == {(id(h), e.path) for e in verdict.theta
                           for t, h in pol.bindings if t == e.ptype}
    assert set(descents) == theta_paths | {(id(h), p) for _, h in pol.bindings
                                           for p in _context_paths(system)}


@pytest.mark.parametrize("direction", ["anon", "known"])
@pytest.mark.parametrize("literal", [False, True])
def test_a_finding_normalizes_the_parsed_system_once(direction, literal, monkeypatch):
    """On `hospital_nurse_read`, whose nurse reads a patient file, the walk
    of the parsed system stops at that context: the whole system is
    normalized once and keeps its normal form. `errors` prints the
    findings of the oracle, as text and as records."""
    pol, gamma, _ = load("hospital")
    system = parse_system((CORPUS / "hospital_nurse_read.pc").read_text(), gamma).value
    calls = []
    real_normalize = safety.normalize

    def normalize(node):
        calls.append(node)
        return real_normalize(node)

    monkeypatch.setattr(safety, "normalize", normalize)
    got = detect_errors(pol, gamma, system, direction, literal)
    assert [n for n in calls if kernel.is_system(n)] == [system]
    assert system._norm is real_normalize(system) is not None
    want = safety_oracles.detect_errors(pol, gamma, kernel_oracles.rebuild(system),
                                        direction, literal)
    assert _spanned(got) == _spanned(want) and len(got) == 2

    argv = ["errors", str(CORPUS / "hospital_nurse_read.pc"),
            "--policy", str(CORPUS / "hospital.ppo"), "--env", str(CORPUS / "hospital.env"),
            "--id-direction", direction, *(["--countlink-literal"] if literal else [])]
    for fmt, lines in (("text", [f.render() for f in want]),
                       ("records", [" ".join(f"{k}={v}" for k, v in f.record().items()
                                             if k not in ("span", "subterm"))
                                    for f in want])):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert cli.main([*argv, "--format", fmt]) == cli.EXIT_VIOLATION
        assert text.getvalue() == "".join(f"{line}\n" for line in lines)


def test_deep_chain_in_a_group_is_checked_twice(tmp_path):
    """`errors` and then `scan` on a 400-deep prefix chain in a group, in
    one process: the second command parses an equal chain again, which no
    memo may compare with the first level by level, and the findings of
    both are rendered from the chain's normal form."""
    (tmp_path / "c.env").write_text("r : G[t<g>]\n{_ # d} : t<g>\n")
    (tmp_path / "c.ppo").write_text("private t >> G {store};\n")
    (tmp_path / "c.pc").write_text("G[ " + "r!<{_ # d}>. " * 400 + "0 ]\n")
    files = [str(tmp_path / f"c.{ext}") for ext in ("pc", "ppo", "env")]

    def run():
        out = []
        for cmd in (["errors"], ["scan", "--depth", "4"]):
            argv = [cmd[0], files[0], "--policy", files[1], "--env", files[2], *cmd[1:]]
            text, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
                out.append((cli.main(argv), text.getvalue(), err.getvalue()))
        return out

    # a new thread starts with an empty stack, as a command-line run does
    with ThreadPoolExecutor(1) as pool:
        (rc1, errors, err1), (rc2, scan, err2) = pool.submit(run).result(timeout=120)
    assert (rc1, rc2, err1, err2) == (1, 1, "", "")
    # one finding per prefix, each at the subterm it starts
    assert errors.count("\nclause 2: t at G: update [r!<{_ # d}>. ") == 399
    assert scan.startswith("safety scan: FINDINGS (1 states)\n")
    assert scan.count("] clause 2: t at G: update [r!<{_ # d}>. ") == 400

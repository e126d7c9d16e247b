import itertools
import random
import re

import pytest

from privcalc.kernel import (
    Block, DConst, DVar, Group, HIDDEN, IVar, Known, NIL, PAnon, PInp, PIf, POut, PPair,
    PAnon, PRepl, PStore, PVar, PrivateData, SBare, TChan,
    TConst, TName, TPriv, TPrivate, TPurpose, TVar, children, normalize, substitute,
)
from privcalc.policy import (
    FIN, OMEGA, PermSet, READ, READID, REFERENCE, STORE, UPDATE, AGGREGATE,
    FlatHierarchy, disseminate, identify, perm_union, usage,
)
from privcalc import typesys
from privcalc.satisfaction import verify
from privcalc.syntax import Gamma, parse_env, parse_policy, parse_process, parse_system
from privcalc.typesys import (
    Delta, Theta, ThetaEntry, TypingError, _Operand, _aggregated_perms,
    _match_perms, _received_perms, _ref_target, _sent_perms, _stored_perms,
    interface_leq, permset_leq, type_closed, type_match, type_process, type_system,
    type_value,
)
from privcalc.semantics import explore

import gen
import test_safety
import typing_oracles
from gen import new, par


def priv(ident, tok):
    return TPriv(PrivateData(ident, DConst(tok)))


LAB_ENV = ("r : Police[crime<dna>]\n"
           "w : Hospital[patient_data<dna>]\n"
           "b : Hospital[Hospital[patient_data<dna>]]\n"
           "c : Police[Hospital[patient_data<dna>]]\n"
           "{x # y} : patient_data<dna>\n"
           "{_ # z} : crime<dna>\n")


@pytest.fixture()
def lab_gamma():
    res = parse_env(LAB_ENV)
    assert res.ok
    return res.value


class TestTypeValue:
    def test_pair_pattern_exercises_read_id(self, lab_gamma):
        ty, d = type_value(lab_gamma, TPriv(PrivateData(IVar("x"), DVar("y"))))
        assert ty == TPrivate("patient_data", "dna")
        assert d == Delta({"patient_data": PermSet([READID])})

    def test_anonymous_pattern_is_permission_free(self, lab_gamma):
        ty, d = type_value(lab_gamma, TPriv(PrivateData(HIDDEN, DVar("z"))))
        assert ty == TPrivate("crime", "dna")
        assert not d and d == Delta()

    def test_channel_name(self, lab_gamma):
        ty, d = type_value(lab_gamma, TName("b"))
        assert isinstance(ty, TChan) and not d

    def test_unbound(self, lab_gamma):
        with pytest.raises(TypingError) as e:
            type_value(lab_gamma, TName("nope"))
        assert e.value.code == "UnboundTerm"


class TestTypeMatch:
    def test_identification_lands_on_anonymous_side(self, lab_gamma):
        d = type_match(lab_gamma, TVar("y"), TVar("z"))
        assert d == Delta({"crime": PermSet([identify("patient_data")]),
                           "patient_data": PermSet([READID])})

    def test_identification_direction_flag(self, lab_gamma):
        d = type_match(lab_gamma, TVar("y"), TVar("z"), id_direction="known")
        assert d == Delta({"patient_data": PermSet([identify("crime"), READID])})

    def test_usage_with_read_id_from_literal(self):
        g = parse_env("{john # dna1} : patient_data<DNA>\n"
                      "dna2 : diagnosis<DNA>\n").value
        d = type_match(g, TConst("dna1"), TConst("dna2"))
        assert d == Delta({"patient_data": PermSet([usage("diagnosis"), READID])})

    def test_channel_equality_is_plumbing(self, lab_gamma):
        assert type_match(lab_gamma, TName("b"), TName("b")) == Delta()

    def test_anonymous_against_purpose_rejected_for_equality(self):
        g = parse_env("{_ # d1} : crime<dna>\nk : research<dna>\n").value
        with pytest.raises(TypingError) as e:
            type_match(g, TConst("d1"), TConst("k"), op="=")
        assert e.value.code == "IllTypedMatch"

    def test_anonymous_against_purpose_allowed_for_comparison(self):
        g = parse_env("{_ # d1} : crime<dna>\nk : research<dna>\n").value
        d = type_match(g, TConst("d1"), TConst("k"), op=">")
        assert d == Delta({"crime": PermSet([usage("research")])})

    def test_ground_mismatch(self):
        g = parse_env("{a # c1} : t1<g1>\n{_ # c2} : t2<g2>\n").value
        with pytest.raises(TypingError):
            type_match(g, TConst("c1"), TConst("c2"))

    def test_same_type_known_pair(self):
        g = parse_env("{a # c1} : t1<g1>\n{b # c2} : t1<g1>\n").value
        d = type_match(g, TConst("c1"), TConst("c2"))
        assert d == Delta({"t1": PermSet([READID])})


T = TPrivate("t", "g")
REF = TChan("R", (T,))
CHAN = TChan("C", (REF,))  # carries references, is none


@pytest.mark.parametrize("ty, want", [
    (REF, T),
    (T, None),
    (CHAN, None),
    (TChan("R", (T, T)), None),
    (TPurpose("p", "g"), None),
    (None, None),
])
def test_ref_target(ty, want):
    assert _ref_target(ty) == want


@pytest.mark.parametrize("want, perms", [
    (T, [("t", UPDATE)]),
    # the budget spent is the carrying channel's group, not the reference's
    (REF, [("t", disseminate("G", 1))]),
    (CHAN, []),
    (TPurpose("p", "g"), []),
])
def test_sent_perms(want, perms):
    assert _sent_perms(want, "G") == perms


@pytest.mark.parametrize("pattern, want, perms", [
    (PVar("x"), T, [("t", READ)]),
    (PPair("i", "x"), T, [("t", READ), ("t", READID)]),
    (PAnon("x"), T, [("t", READ)]),
    (PVar("x"), REF, [("t", REFERENCE)]),
    (PVar("x"), CHAN, []),
    (PVar("x"), TPurpose("p", "g"), []),
])
def test_received_perms(pattern, want, perms):
    assert _received_perms(pattern, want) == perms


KNOWN = _Operand("private", "t", "g")
KNOWN2 = _Operand("private", "t2", "g")
ANON = _Operand("private", "u", "g", hidden=True)
ANON2 = _Operand("private", "u2", "g", hidden=True)
PURPOSE = _Operand("purpose", "p", "g")
NAME = _Operand("name")


@pytest.mark.parametrize("a, b, op, id_direction, perms", [
    (KNOWN, ANON, "=", "anon", [("u", identify("t"))]),
    (ANON, KNOWN, "=", "anon", [("u", identify("t"))]),
    (KNOWN, ANON, "=", "known", [("t", identify("u"))]),
    (ANON, KNOWN, ">", "known", [("t", identify("u"))]),
    (KNOWN, KNOWN2, "=", "anon", []),
    (ANON, ANON2, "=", "known", []),
    (KNOWN, PURPOSE, "=", "anon", [("t", usage("p"))]),
    (PURPOSE, KNOWN, ">", "known", [("t", usage("p"))]),
    (ANON, PURPOSE, "=", "anon", []),
    (PURPOSE, ANON, "=", "anon", []),
    (ANON, PURPOSE, ">", "anon", [("u", usage("p"))]),
    (PURPOSE, ANON, ">", "known", [("u", usage("p"))]),
    (NAME, NAME, "=", "anon", []),
    (PURPOSE, PURPOSE, "=", "anon", []),
])
def test_match_perms(a, b, op, id_direction, perms):
    assert _match_perms(a, b, op, id_direction) == perms


def test_store_and_aggregate_perms():
    assert _stored_perms(REF) == [("t", STORE)]
    assert _stored_perms(T) == _stored_perms(CHAN) == _stored_perms(None) == []
    assert _aggregated_perms("t", "t2") == [("t", AGGREGATE), ("t2", AGGREGATE)]
    assert _aggregated_perms() == []


LAB_BODY = "b?(w). w?(x # y). r?(_ # z). if y = z then c!<w>.0 else 0"


# An inferred restriction whose scope has an output on a subject bound in
# that scope: the restriction itself, an inner restriction, an input
# variable. Each `{x}` is spelled apart from the outer `z`, then as `z`.
INFERENCE_ENV = "c : G1[G1[t0<g1>]]\nd : G1[G1[t0<g1>]]\nr : G1[t1<g0>]\n"
INFERENCE_TEXTS = (
    ("(new z : G1[t3<g0>]) ( G1[ (new {x}) {x}!<d>. {x}!<{x}>. r!<{x}>. 0 ]"
     " || G1[ store z {i # v} ] )", "UnboundTerm"),
    ("(new z : G1[t3<g0>]) ( G1[ (new k) (new {x} : G1[t1<g0>]) {x}!<k>. r!<k>. 0 ]"
     " || G1[ store z {i # v} ] )", "UnboundTerm"),
    ("(new z : G1[t0<g1>]) ( G1[ (new k) c?({x}). {x}!<k>. r!<k>. 0 ]"
     " || G1[ store z {i # v} ] )", "TypeMismatch"),
)


class TestTypeProcess:
    def test_lab_body_interface(self, lab_gamma):
        p = parse_process(LAB_BODY, lab_gamma).value
        t = type_process(lab_gamma, p)
        assert t.delta == Delta({
            "patient_data": PermSet([REFERENCE, READ, READID,
                                     disseminate("Police", 1)]),
            "crime": PermSet([READ, identify("patient_data")]),
        })
        assert t.lam == frozenset() and t.zrecs == ()

    def test_nil(self, lab_gamma):
        t = type_process(lab_gamma, NIL)
        assert (t.lam, t.zrecs, t.delta) == (frozenset(), (), Delta())

    def test_linearity_violation(self):
        g = parse_env("r : G[t<g>]\n{id # c} : t<g>\n").value
        p = par(PStore("r", PrivateData(Known("id"), DConst("c"))),
                PStore("r", PrivateData(Known("id"), DConst("c"))))
        with pytest.raises(TypingError) as e:
            type_process(g, p)
        assert e.value.code == "LinearityViolation"

    def test_store_yields_store_only(self):
        g = parse_env("r : G[t<g>]\n{id # c} : t<g>\n").value
        t = type_process(g, PStore("r", PrivateData(Known("id"), DConst("c"))))
        assert t.delta == Delta({"t": PermSet([STORE])})
        assert t.lam == frozenset({"r"})
        assert t.zrecs == ((("id", "id"), "t"),)

    def test_hidden_store_rejected(self):
        g = parse_env("r : G[t<g>]\n{_ # c} : t<g>\n").value
        with pytest.raises(TypingError):
            type_process(g, PStore("r", PrivateData(HIDDEN, DConst("c"))))

    def test_replicated_free_store_rejected(self):
        g = parse_env("r : G[t<g>]\n{id # c} : t<g>\n").value
        p = PRepl(PStore("r", PrivateData(Known("id"), DConst("c"))))
        with pytest.raises(TypingError) as e:
            type_process(g, p)
        assert e.value.code == "ReplicatedFreeStore"

    def test_replication_lifts_budgets_and_aggregates(self):
        g = parse_env("u : G[G[t<g>]]\nr : G[t<g>]\n{id # c} : t<g>\n").value
        t = type_process(g, PRepl(POut(TName("u"), (TName("r"),), NIL)))
        assert t.delta == Delta({"t": PermSet([disseminate("G", OMEGA)])})
        p2 = PRepl(new("r2", TChan("G", (TPrivate("t", "g"),)),
                       PStore("r2", PrivateData(Known("id"), DConst("c")))))
        t2 = type_process(g, p2)
        assert t2.delta == Delta({"t": PermSet([STORE, AGGREGATE])})

    def test_parallel_store_aggregation(self):
        g = parse_env("r : G[t<g>]\ns : G[t2<g>]\n"
                      "{id # c} : t<g>\n{id # d} : t2<g>\n").value
        p = par(PStore("r", PrivateData(Known("id"), DConst("c"))),
                PStore("s", PrivateData(Known("id"), DConst("d"))))
        t = type_process(g, p)
        assert t.delta == Delta({"t": PermSet([STORE, AGGREGATE]),
                                 "t2": PermSet([STORE, AGGREGATE])})

    def test_distinct_identities_do_not_aggregate(self):
        g = parse_env("r : G[t<g>]\ns : G[t2<g>]\n"
                      "{id # c} : t<g>\n{jd # d} : t2<g>\n").value
        p = par(PStore("r", PrivateData(Known("id"), DConst("c"))),
                PStore("s", PrivateData(Known("jd"), DConst("d"))))
        t = type_process(g, p)
        assert t.delta == Delta({"t": PermSet([STORE]), "t2": PermSet([STORE])})

    def test_branches_share_store_reference(self):
        g = parse_env("r : G[t<g>]\n{id # c} : t<g>\na : G2[p<g>]\nk : p<g>\n").value
        st = PStore("r", PrivateData(Known("id"), DConst("c")))
        p = PIf("=", TName("a"), TName("a"), st, st)
        with pytest.raises(TypingError) as e:
            type_process(g, p)
        assert e.value.code == "LinearityViolation"

    def test_arity_mismatch(self):
        g = parse_env("a : G[t<g>, t<g>]\n{id # c} : t<g>\n").value
        with pytest.raises(TypingError) as e:
            type_process(g, POut(TName("a"), (priv(Known("id"), "c"),), NIL))
        assert e.value.code == "ArityMismatch"

    def test_unannotated_restriction(self):
        g = Gamma()
        with pytest.raises(TypingError) as e:
            type_process(g, new("n", None, NIL))
        assert e.value.code == "UnannotatedRestriction"

    def test_restriction_inference_from_object_position(self):
        g = parse_env("spot : E[E[Car[loc<L>]]]\n").value
        p = new("s", None, POut(TName("spot"), (TName("s"),), NIL))
        t = type_process(g, p)
        assert t.delta == Delta()

    @pytest.mark.parametrize("text, code", INFERENCE_TEXTS)
    def test_restriction_inference_reads_no_subject_bound_in_scope(self, text, code):
        g = parse_env(INFERENCE_ENV).value

        def outcome(x):
            with pytest.raises(TypingError) as e:
                type_system(g, parse_system(text.replace("{x}", x), g).value)
            return e.value.code, e.value.span, re.sub(rf"\b{x}\b", "{x}", e.value.message)

        assert outcome("m") == outcome("z")
        assert outcome("z")[0] == code


class TestTypeSystem:
    def test_lab_interface(self, lab_gamma):
        s = parse_system(f"Lab[ {LAB_BODY} ]", lab_gamma).value
        st = type_system(lab_gamma, s)
        assert st.theta == Theta([
            ThetaEntry("patient_data", ("Lab",),
                       PermSet([REFERENCE, READ, READID, disseminate("Police", 1)])),
            ThetaEntry("crime", ("Lab",), PermSet([READ, identify("patient_data")])),
        ])

    def test_group_nesting_prefixes_path(self, lab_gamma):
        s = parse_system(f"Hospital[ Lab[ {LAB_BODY} ] ]", lab_gamma).value
        st = type_system(lab_gamma, s)
        assert {e.path for e in st.theta} == {("Hospital", "Lab")}

    def test_inactive_groups_empty(self, lab_gamma):
        s = parse_system("G1[ 0 ] || G2[ 0 ]", lab_gamma).value
        st = type_system(lab_gamma, s)
        assert len(st.theta) == 0

    def test_bare_component_closed_by_nearest_group(self):
        g = parse_env("r : G[t<g>]\n{id # c} : t<g>\n").value
        s = parse_system("Car[ store r {id # c} || Sub[ 0 ] ]", g).value
        st = type_system(g, s)
        assert st.theta == Theta([ThetaEntry("t", ("Car",), PermSet([STORE]))])

    def test_unclosed_bare_process(self):
        g = parse_env("r : G[t<g>]\n{id # c} : t<g>\n").value
        s = SBare(PStore("r", PrivateData(Known("id"), DConst("c"))))
        with pytest.raises(TypingError) as e:
            type_system(g, s)
        assert e.value.code == "UnclosedBareProcess"

    def test_duplicate_entries_preserved(self, lab_gamma):
        s = parse_system(f"Lab[ {LAB_BODY} ] || Lab[ {LAB_BODY} ]", lab_gamma)
        st = type_system(lab_gamma, s.value)
        assert len(st.theta) == 4

    def test_determinism(self, lab_gamma):
        s = parse_system(f"Hospital[ Lab[ {LAB_BODY} ] ]", lab_gamma).value
        a = type_system(lab_gamma, s).theta.canonical()
        b = type_system(lab_gamma, s).theta.canonical()
        assert a.entries == b.entries


@pytest.fixture()
def walks(monkeypatch):
    """The systems `type_system` walks from their root, in call order."""
    real, roots, depth = typesys.type_process, [], [0]

    def counted(gamma, s, id_direction):
        if not depth[0]:
            roots.append(s)
        depth[0] += 1
        try:
            return real(gamma, s, id_direction)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(typesys, "type_process", counted)
    return roots


class TestTypingKeptOnTheSystem:
    """A system keeps its typing for the environment object and identify
    direction it was typed under, so a judgement that repeats them walks
    nothing."""

    def test_typed_once_for_its_environment(self, walks):
        gamma = parse_env(LAB_ENV).value
        s = parse_system(f"Hospital[ Lab[ {LAB_BODY} ] ]", gamma).value
        policy = parse_policy("private patient_data >> Hospital {} [ Lab {} ];\n").value
        st = type_system(gamma, s)
        first, second = verify(policy, gamma, s), verify(policy, gamma, s)
        assert walks == [s]
        assert first.theta is second.theta is st.theta
        assert type_system(gamma, s) is st

    def test_equal_environment_or_other_direction_walks_again(self, walks):
        gamma, equal = parse_env(LAB_ENV).value, parse_env(LAB_ENV).value
        s = parse_system(f"Lab[ {LAB_BODY} ]", gamma).value
        anon = type_system(gamma, s)
        assert type_system(equal, s).theta == anon.theta
        known = type_system(equal, s, id_direction="known")
        assert known.theta != anon.theta
        assert ThetaEntry("patient_data", ("Lab",),
                          PermSet([REFERENCE, READ, READID, identify("crime"),
                                   disseminate("Police", 1)])) in known.theta
        # one kept typing: the first call's is replaced
        assert type_system(gamma, s).theta == anon.theta
        assert walks == [s] * 4

    def test_each_environment_gets_its_own_verdict(self):
        """The typing kept for one environment is never the answer under
        another: here the second lacks the channel the lab reads on."""
        gamma = parse_env(LAB_ENV).value
        narrower = parse_env(LAB_ENV.replace("b : Hospital[Hospital[patient_data<dna>]]\n",
                                             "")).value
        s = parse_system(f"Lab[ {LAB_BODY} ]", gamma).value
        assert type_system(gamma, s).theta
        with pytest.raises(TypingError) as e:
            type_system(narrower, s)
        assert e.value.code == "UnboundTerm" and "b is not typed" in e.value.message
        assert type_system(gamma, s).theta

    def test_a_failure_is_raised_again_without_a_walk(self, walks):
        gamma = parse_env(LAB_ENV).value
        s = parse_system("Lab[ b?(w). q?(v). 0 ]", gamma).value
        raised = []
        for _ in range(2):
            with pytest.raises(TypingError) as e:
                type_system(gamma, s)
            raised.append(e.value)
        verdict = verify(parse_policy("private crime >> Lab {};\n").value, gamma, s)
        assert walks == [s]
        assert len({(e.code, e.message, e.span, str(e)) for e in raised}) == 1
        assert raised[0].span == s.body.body.cont.span and verdict.error == str(raised[0])
        fresh = parse_system("Lab[ b?(w). q?(v). 0 ]", parse_env(LAB_ENV).value).value
        with pytest.raises(TypingError) as cold:
            type_system(parse_env(LAB_ENV).value, fresh)
        assert (cold.value.code, cold.value.span, str(cold.value)) == (
            raised[0].code, raised[0].span, str(raised[0]))


# Two orders of the same restrictions, with one normal form: `d` is typed
# by its output on `e` only when `e` is bound outside it.
RESTRICTION_ORDERS = ("G[ (new d) (new e : G[G[t<g>]]) e!<d>. 0 ]",
                      "G[ (new e : G[G[t<g>]]) (new d) e!<d>. 0 ]")


def test_restriction_order_does_not_decide_typing():
    gamma = Gamma()
    inner, outer = (parse_system(text, gamma).value for text in RESTRICTION_ORDERS)
    assert normalize(inner) == normalize(outer)
    want = type_system(gamma, outer)
    assert want.theta.entries == (ThetaEntry("t", ("G",), PermSet([disseminate("G", 1)])),)
    assert type_system(gamma, inner).theta.entries == want.theta.entries


# the types a generated restriction may have: a store reference, a channel
# of references, and channels of such channels; and Γ's names
_BINDER_TYPES = (gen.REF_A, gen.CH_REF, TChan("G1", (gen.CH_REF,)),
                 TChan("G1", (TChan("G1", (gen.CH_REF,)),)))
_GAMMA_NAMES = {"rA": gen.REF_A, "chan": gen.CH_REF}


def _restricted_scope(rng: random.Random):
    """Two to four restrictions, each of a type from `_BINDER_TYPES` that it
    is annotated with or not, and one to three components of the system's
    prefixes: a send of most binders, mostly on a subject of the matching
    channel type, some under an input, and sends of other names. Also
    whether the components are processes inside one group or groups of
    their own."""
    names = [f"n{i}" for i in range(rng.randint(2, 4))]
    types = {n: rng.choice(_BINDER_TYPES) for n in names} | _GAMMA_NAMES
    binders = [(n, types[n] if rng.random() < 0.4 else None) for n in names]

    def send(obj: str, cont) -> POut:
        fits = [s for s, t in types.items() if t == TChan("G1", (types[obj],))]
        subject = rng.choice(fits if fits and rng.random() < 0.9 else list(types))
        return POut(TName(subject), (TName(obj),), cont)

    objs = [n for n in names if rng.random() < 0.9]
    objs += rng.sample(list(types), rng.randint(0, 1))
    comps = [NIL] * rng.randint(1, 3)
    for obj in objs:
        k = rng.randrange(len(comps))
        comps[k] = send(obj, comps[k])
        if rng.random() < 0.2:
            comps[k] = PInp(TName("chan"), (PVar("x"),), comps[k])
    return binders, comps, rng.random() < 0.5


def _scope_orders(binders, comps, grouped: bool):
    """The system of `_restricted_scope` with its restrictions in every
    order, each as a chain of one-binder blocks, as the parser builds it,
    and as one block of all binders."""
    if grouped:
        comps = [Group(f"G{k % 2 + 1}", SBare(c)) for k, c in enumerate(comps)]
    body = par(*comps)
    for order in itertools.permutations(binders):
        chain = body
        for n, annot in reversed(order):
            chain = new(n, annot, chain)
        for s in (chain, Block(order, tuple(comps))):
            yield s if grouped else Group("G1", SBare(s))


def test_binder_order_does_not_decide_typing():
    """On generated scopes with unannotated restrictions, every order of
    the restrictions, chained or in one block, gives the same typing
    outcome: the same interface, or the same error code. Each order types
    as `typing_oracles`, with its own inference, types it."""
    gamma = gen.base_gamma()

    def outcome(s):
        got = _outcome(type_closed, gamma, s, "anon")
        assert got == _outcome(typing_oracles.type_system, gamma, s, "anon"), s
        return got[0] if isinstance(got[0], str) else got[1]

    typed = failed = 0
    for seed in range(300):
        binders, comps, grouped = _restricted_scope(random.Random(seed))
        outcomes = {outcome(s) for s in _scope_orders(binders, comps, grouped)}
        assert len(outcomes) == 1, (seed, outcomes)
        got = outcomes.pop()
        typed += not isinstance(got, str) and any(a is None for _, a in binders)
        failed += got == "UnannotatedRestriction"
    assert typed > 20 and failed > 50, (typed, failed)


def _typing_inputs():
    """(environment, system) pairs: each corpus input and every state of it
    at depth 8; 300 seeded `gen.random_system` systems and their states at
    depth 4; the shadowing and nested systems of the detector's tests and
    their states at depth 4; and the restriction-inference texts."""
    seen = set()
    for _, gamma, system, depth in test_safety._oracle_systems():
        if (id(gamma), id(system)) not in seen:
            seen.add((id(gamma), id(system)))
            yield gamma, system
            yield from ((gamma, state) for state in explore(system, depth).nodes.values())
    gamma = parse_env(INFERENCE_ENV).value
    for text, _ in INFERENCE_TEXTS:
        for x in ("m", "z"):
            yield gamma, parse_system(text.replace("{x}", x), gamma).value


def _outcome(type_fn, gamma, system, d):
    """The Λ and Θ entries, in order, of the system's typing, or its
    error's code, message and span."""
    try:
        out = type_fn(gamma, system, d)
    except TypingError as e:
        return e.code, e.message, e.span
    lam, theta = (out.lam, out.theta) if isinstance(out, typesys.Typing) else out
    return lam, theta.entries


def test_one_walk_matches_the_two_walkers():
    """`type_closed` gives what the separate process and system walkers
    gave: the same Λ and Θ entries in the same order, or the same error,
    under both identify directions."""
    count = errors = 0
    for gamma, system in _typing_inputs():
        for d in ("anon", "known"):
            got = _outcome(type_closed, gamma, system, d)
            assert got == _outcome(typing_oracles.type_system, gamma, system, d), system
            count += 1
            errors += isinstance(got[0], str)
    assert count > 2000 and 0 < errors < count


class TestInterfaceLeq:
    def test_budget_below_unlimited(self):
        assert permset_leq(PermSet([disseminate("G", 1)]),
                           PermSet([disseminate("G", OMEGA)]))

    def test_missing_usage(self):
        assert not permset_leq(PermSet([READ, usage("p")]), PermSet([READ]))

    def test_usage_purposes_collect(self):
        assert permset_leq(PermSet([usage("p")]),
                           PermSet([usage("p"), usage("q")]))

    def test_budget_above(self):
        assert not permset_leq(PermSet([disseminate("G", 3)]),
                               PermSet([disseminate("G", 2)]))

    def test_flat_paths_must_agree(self):
        a = FlatHierarchy(("G", "H"), PermSet([READ]))
        b = FlatHierarchy(("G",), PermSet([READ]))
        assert not interface_leq(a, b)
        assert interface_leq(a, FlatHierarchy(("G", "H"), PermSet([READ, UPDATE])))

    def test_theta_injective_matching(self):
        small = PermSet([READ])
        big = PermSet([READ, UPDATE])
        a = Theta([ThetaEntry("t", ("G",), small), ThetaEntry("t", ("G",), small)])
        b1 = Theta([ThetaEntry("t", ("G",), big)])
        b2 = Theta([ThetaEntry("t", ("G",), big), ThetaEntry("t", ("G",), small)])
        assert not interface_leq(a, b1)
        assert interface_leq(a, b2)


def _random_delta(rng):
    types = ["t0", "t1", "t2"]
    pool = [READ, UPDATE, REFERENCE, STORE, READID, AGGREGATE,
            usage("p0"), usage("p1"), identify("t0")]
    d = {}
    for t in rng.sample(types, rng.randrange(0, 3)):
        perms = rng.sample(pool, rng.randrange(1, 4))
        if rng.random() < 0.5:
            perms.append(disseminate(rng.choice(["G1", "G2"]),
                                     rng.choice([FIN(1), FIN(4), OMEGA])))
        d[t] = PermSet(perms)
    return Delta(d)


def test_monotonicity_properties():
    rng = random.Random(41)
    for _ in range(500):
        d1, d2, d3 = (_random_delta(rng) for _ in range(3))
        u = d1.uplus(d2)
        assert interface_leq(d1, u) and interface_leq(d2, u)
        if interface_leq(d1, d2):
            assert interface_leq(d1.uplus(d3), d2.uplus(d3))


def test_weakening_strengthening():
    """An entry for a term not free in the process does not change typing."""
    rng = random.Random(43)
    g = gen.base_gamma()
    for _ in range(200):
        s = gen.random_system(rng)
        base = type_system(g, s)
        extended = g.bind_atom("unused_chan", TChan("G9", (TPrivate("t9", "g9"),)))
        extended = extended.bind_priv(Known("id9"), DConst("c9"),
                                      TPrivate("t9", "g9"))
        again = type_system(extended, s)
        assert again.theta == base.theta and again.lam == base.lam


def test_substitution_stability():
    """Typing is stable under substituting a compatible value for a bound
    placeholder."""
    g = gen.base_gamma()
    body = PInp(TName("rA"), (PPair("x", "y"),),
                PIf("=", TVar("y"), TConst("k0"), NIL, NIL))
    before = type_process(g, body)
    # the continuation typed with the pattern replaced by a concrete datum
    cont = substitute(body.cont, priv(Known("id0"), "c0"), PPair("x", "y"))
    after = type_process(g, cont)
    inner = type_process(g.bind_priv(IVar("x"), DVar("y"), TPrivate("t0", "g0")),
                         body.cont)
    assert after.delta == inner.delta
    assert interface_leq(after.delta, before.delta)


def test_substitution_refreshes_store_identity():
    """A store whose datum gets instantiated records the received identity."""
    g = gen.base_gamma().bind_priv(IVar("x"), DVar("y"), TPrivate("t0", "g0"))
    store = PStore("rA", PrivateData(IVar("x"), DVar("y")))
    before = type_process(g, store)
    assert before.zrecs == ((("var", "x"), "t0"),)
    after = type_process(g, substitute(store, priv(Known("id0"), "c0"),
                                       PPair("x", "y")))
    assert after.zrecs == ((("id", "id0"), "t0"),)
    assert after.delta == before.delta


def test_substitution_stability_fuzz():
    """Generated readers keep their continuation interface when the bound
    pattern is instantiated with a compatible datum."""
    rng = random.Random(59)
    g = gen.base_gamma()
    checked = [0]
    for _ in range(120):
        s = gen.random_system(rng)

        def walk(nd):
            match nd:
                case PInp(subject, (PPair(x, y),), cont):
                    binder = g.bind_priv(IVar(x), DVar(y), TPrivate("t0", "g0"))
                    try:
                        inner = type_process(binder, cont)
                    except TypingError:
                        return
                    replaced = substitute(cont, priv(Known("id0"), "c0"),
                                          PPair(x, y))
                    assert type_process(g, replaced).delta == inner.delta
                    checked[0] += 1
            for c in children(nd):
                walk(c)

        walk(s)
    assert checked[0] > 0

import functools
import hashlib
import random
import signal
from concurrent.futures import ThreadPoolExecutor

import pytest

from privcalc.kernel import (
    Block, DConst, HIDDEN, Known, PAnon, PInp, POut, PPair, PStore,
    PVar, PrivateData, Group, SBare, TName, TPriv,
    alpha_eq, children, is_system, normalize, placeholder_vars,
)
from privcalc.semantics import (
    OutLabel, StateGraph, check_preservation, explore, feed, has_step,
    input_subjects, state_key, tau_successors, visible_outs,
)
from privcalc import encoding, kernel, semantics
from privcalc.syntax import (
    parse_env, parse_process, parse_system, render_process, render_system,
)
from privcalc.typesys import interface_leq, type_system

import allpairs
from allpairs import InpLabel, dual, input_labels
import gen
import kernel_oracles
from conftest import CORPUS, NAMES, load
from gen import par
from syntax_oracles import _lower_system
from privcalc.encoding import check_correspondence, core_canonical, encode


def priv(ident, tok):
    return TPriv(PrivateData(ident, DConst(tok)))


def _wide_text(width):
    """A group of `width` components, each busy on a name of its own, plus
    one pair on c that can communicate once."""
    return ("G[ " + " | ".join(f"(new x{i}) x{i}!<k>. 0" if i % 2 else
                               f"(new x{i}) x{i}?(v{i}). 0" for i in range(width))
            + " | c!<k>. 0 | c?(v). 0 ]")


class TestDual:
    def test_store_output_against_anonymous_read(self):
        out = OutLabel("r", True, (priv(Known("id"), "c"),))
        inp = InpLabel("r", False, (priv(HIDDEN, "c"),))
        assert dual(out, inp) and dual(inp, out)

    def test_channel_pair(self):
        out = OutLabel("a", False, (TName("v"),))
        inp = InpLabel("a", False, (TName("v"),))
        assert dual(out, inp)

    def test_identity_mismatch(self):
        out = OutLabel("r", True, (priv(Known("id"), "c"),))
        inp = InpLabel("r", False, (priv(Known("id2"), "c"),))
        assert not dual(out, inp)

    def test_anonymous_write_against_store_input(self):
        out = OutLabel("r", False, (priv(HIDDEN, "c"),))
        inp = InpLabel("r", True, (priv(Known("id"), "c"),))
        assert dual(out, inp)

    def test_channel_never_anonymizes(self):
        out = OutLabel("a", False, (priv(Known("id"), "c"),))
        inp = InpLabel("a", False, (priv(HIDDEN, "c"),))
        assert not dual(out, inp)


class TestLabels:
    def test_store_offers_both_endpoint_actions(self):
        st = PStore("r", PrivateData(Known("id"), DConst("c")))
        outs = visible_outs(st)
        assert [(l.subject, l.on_dual) for l, _ in outs] == [("r", True)]
        # state update via the dual endpoint, from a universe value
        labels = input_labels(st, [priv(Known("id"), "c2")])
        dual_inputs = [(l, s) for l, s in labels if l.on_dual]
        assert dual_inputs
        _, succ = dual_inputs[0]
        assert succ == PStore("r", PrivateData(Known("id"), DConst("c2")))

    def test_store_read_interaction(self):
        g = parse_env("r : G1[t<g>]\n{id # c} : t<g>\n").value
        s = parse_system("G1[ store r {id # c} ] || G2[ r?(_ # x). 0 ]", g).value
        succs = tau_successors(s)
        assert len(succs) == 1
        want = parse_system("G1[ store r {id # c} ] || G2[ 0 ]", g).value
        assert normalize(succs[0]) == normalize(want)

    def test_identity_must_match_for_write(self):
        g = parse_env("r : G1[t<g>]\n{id # c} : t<g>\n{jd # c2} : t<g>\n").value
        s = parse_system("G1[ store r {id # c} ] || G2[ r!<{jd # c2}>. 0 ]", g).value
        assert tau_successors(s) == []

    def test_anonymous_write_keeps_identity(self):
        g = parse_env("r : G1[t<g>]\n{id # c} : t<g>\n{_ # c2} : t<g>\n").value
        s = parse_system("G1[ store r {id # c} ] || G2[ r!<{_ # c2}>. 0 ]", g).value
        succs = tau_successors(s)
        assert len(succs) == 1
        want = parse_system("G1[ store r {id # c2} ] || G2[ 0 ]", g).value
        assert normalize(succs[0]) == normalize(want)

    def test_uninitialized_store_takes_any_identity(self):
        from privcalc.kernel import DVar, IVar
        g = parse_env("r : G1[t<g>]\n{id # c2} : t<g>\n{x # y} : t<g>\n").value
        raw = par(
            Group("G1", SBare(PStore("r", PrivateData(IVar("x"), DVar("y"))))),
            parse_system("G2[ r!<{id # c2}>. 0 ]", g).value)
        succs = tau_successors(raw)
        assert len(succs) == 1
        want = parse_system("G1[ store r {id # c2} ] || G2[ 0 ]", g).value
        assert normalize(succs[0]) == normalize(want)
        # anonymous writes cannot pick an identity for an uninitialized store
        raw2 = par(
            Group("G1", SBare(PStore("r", PrivateData(IVar("x"), DVar("y"))))),
            parse_system("G2[ r!<{_ # c2}>. 0 ]",
                         parse_env("r : G1[t<g>]\n{_ # c2} : t<g>\n").value).value)
        assert tau_successors(raw2) == []

    def test_uninitialized_store_emits_nothing(self):
        from privcalc.kernel import DVar, IVar
        st = PStore("r", PrivateData(IVar("x"), DVar("y")))
        assert visible_outs(st) == []

    def test_scope_extrusion(self):
        g = parse_env("a : G1[G1[t<g>]]\nr : G1[t<g>]\n").value
        p = parse_process("(new n : G1[t<g>]) a!<n>. n?(x # y). 0", g).value
        outs = visible_outs(p)
        assert len(outs) == 1
        label, succ = outs[0]
        assert label.extruded and label.extruded[0][0] == "n"


class TestExplore:
    def test_inactive_system(self):
        g = parse_env("").value
        s = parse_system("G[ 0 ]", g).value
        graph = explore(s, 5)
        assert len(graph.nodes) == 1 and not graph.edges

    def test_store_read_two_states(self):
        g = parse_env("r : G1[t<g>]\n{id # c} : t<g>\n").value
        s = parse_system("G1[ store r {id # c} ] || G2[ r?(_ # x). 0 ]", g).value
        graph = explore(s, 1)
        assert len(graph.nodes) == 2 and len(graph.edges) == 1
        assert not graph.truncated

    def test_hospital_finite(self, hospital):
        _, gamma, system = hospital
        graph = explore(system, 10)
        assert not graph.truncated
        assert len(graph.nodes) == 48 and len(graph.edges) == 104

    def test_dedup_modulo_alpha(self):
        g = parse_env("a : G1[t2<g>]\nk : t2<g>\n").value
        s = parse_system("G[ * a!<k>. 0 | a?(x). 0 | a?(y). 0 ]", g).value
        graph = explore(s, 2)
        # both receivers lead to alpha-equivalent states, stored once
        keys = set(graph.nodes)
        assert len(keys) == len(graph.nodes)

    @pytest.mark.parametrize("text", [
        "G[ " + "c!<k>. " * 480 + "0 | c?(v). 0 ]", _wide_text(200), _wide_text(256),
        _wide_text(1024),
    ], ids=["prefix480", "width200", "width256", "width1024"])
    def test_large_terms(self, text):
        # only the pair on c can move, once; comparing a normal form with
        # the previous round's used to overflow the stack on such terms
        def explore2():
            res = parse_system(text)
            assert res.ok, res.diagnostics
            graph = explore(res.value, 2)
            return len(graph.nodes), len(graph.edges), graph.truncated

        # a new thread starts with an empty stack, as a command-line run
        # does; below the test runner's frames the parser rejects the chain
        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(explore2).result(timeout=120) == (2, 1, False)

    def test_width800_steps_once(self, monkeypatch):
        # one flat block of 802 components: no walker descends once per
        # component, so nothing nests deeper than the term's prefixes
        res = parse_system(_wide_text(800))
        assert res.ok, res.diagnostics
        root = normalize(res.value)
        calls = 0
        real_feed = semantics.feed

        def counting(*args):
            nonlocal calls
            calls += 1
            return real_feed(*args)

        monkeypatch.setattr(semantics, "feed", counting)
        succs = tau_successors(root)
        assert len(succs) == 1
        assert state_key(succs[0]) != state_key(root)
        # only c's reader is fed c's output, as a message and as a store
        # write; trying every pair fed every component, 642,402 calls
        assert calls == 2


class TestPreservation:
    def test_single_store_update_step(self):
        g = parse_env("r : G1[t<g>]\n{id # c} : t<g>\n{_ # c2} : t<g>\n").value
        s = parse_system("G1[ store r {id # c} ] || G2[ r!<{_ # c2}>. 0 ]", g).value
        before = type_system(g, s).theta
        succ = normalize(tau_successors(s)[0])
        after = type_system(g, succ).theta
        assert interface_leq(after, before)
        report = check_preservation(g, explore(s, 3))
        assert report.ok and report.edges_checked >= 1

    def test_nil_vacuous(self):
        g = parse_env("").value
        s = parse_system("G[ 0 ]", g).value
        report = check_preservation(g, explore(s, 4))
        assert report.ok and report.edges_checked == 0

    def test_corpus_preservation(self, corpus):
        for name, depth in (("hospital", 6), ("etp_central", 5),
                            ("etp_decentral", 6), ("speedlimit", 5)):
            _, gamma, system = corpus[name]
            report = check_preservation(gamma, explore(system, depth))
            assert report.ok, (name, report.violations[:3])

    def test_preservation_keeps_no_typing(self):
        """Preservation reads each state's interface once, from its own
        table: the typings it makes are not kept on the state nodes, which
        live as long as the graph (`type_system` kept one on each)."""
        edges = 0
        for name, gamma, graph in _corpus_graphs(8):
            edges += check_preservation(gamma, graph).edges_checked
            assert [k for k, n in graph.nodes.items() if n._typing is not None] == [], name
        assert edges > 300


def test_congruence_respects_transitions():
    """One structural axiom apart means the same labels and the same
    successors up to canonical form, for internal and visible steps."""
    from test_kernel import _apply_axiom, _gen_process
    rng = random.Random(53)
    g = gen.base_gamma()
    for i in range(80):
        if i % 2 == 0:
            s = gen.random_system(rng)
            flipped = _flip_par(s)
        else:
            s = _gen_process(rng, 4, [])
            flipped = _apply_axiom(rng, s)
        succs1 = sorted(str(normalize(x)) for x in tau_successors(s))
        succs2 = sorted(str(normalize(x)) for x in tau_successors(flipped))
        assert succs1 == succs2
        outs1 = sorted((l.subject, l.on_dual, str(normalize(x)))
                       for l, x in visible_outs(s))
        outs2 = sorted((l.subject, l.on_dual, str(normalize(x)))
                       for l, x in visible_outs(flipped))
        assert outs1 == outs2


def _flip_par(node):
    match node:
        case Block((), (l, *r)):
            return par(par(*r), l)
        case Group(grp, SBare(proc)):
            return Group(grp, SBare(_flip_proc(proc)))
        case _:
            return node


def _flip_proc(p):
    match p:
        case Block((), (l, *r)):
            return par(par(*r), l)
        case _:
            return p


def _lift(p):
    """The process's top-level | / new spine as system-level blocks over
    bare leaves."""
    match p:
        case Block(binders, comps):
            return Block(binders, tuple(map(_lift, comps)))
        case _:
            return SBare(p)


def _group_contents(s):
    match s:
        case Group(_, SBare(p)):
            yield p
        case Group(_, body):
            yield from _group_contents(body)
        case Block(_, comps):
            for c in comps:
                yield from _group_contents(c)


EXTRUSION_CASES = [
    "(new a) c!<a>. a!<k>. 0 | c?(y). y?(z). 0",
    "(new a) (c!<a>. 0 | a?(z). 0) | c?(y). y!<k>. 0",
    "(new a) c!<a>. 0 | a?(x). 0 | c?(y). y!<k>. 0",
    "(new a) (new b) c!<a, b>. 0 | c?(x, y). x!<y>. 0",
    "* ((new a) c!<a>. 0) | c?(y). y!<k>. 0 | c?(y). y!<k>. 0",
    "(new a) (c!<a>. 0 | (new a) d!<a>. 0) | c?(y). d?(z). y!<z>. 0",
]


def _family_programs(source):
    if source == "store":
        return gen.store_programs()
    if source == "random":
        return [p for seed in range(300)
                for p in _group_contents(gen.random_system(random.Random(seed)))]
    return [parse_process(text).value for text in EXTRUSION_CASES]


@pytest.mark.parametrize("source", ["store", "random", "extrusion"])
def test_system_family_steps_like_processes(source):
    """System composition and restriction obey the same congruence and
    scope-extrusion rules as their process counterparts: a process lifted
    to the system family normalizes and steps to the same lowered forms."""
    def nf(p):
        return render_process(normalize(p))

    def lowered(s):
        return nf(_lower_system(s))

    for p in _family_programs(source):
        lifted = _lift(p)
        assert lowered(normalize(lifted)) == nf(p)
        for q, s in ((p, lifted), (normalize(p), normalize(lifted))):
            assert ({lowered(x) for x in tau_successors(s)}
                    == {nf(x) for x in tau_successors(q)})


def test_tau_edges_come_from_dual_pairs():
    """Cross-check the pairing engine against the duality relation at the
    top-level split."""
    g = parse_env("r : G1[t<g>]\n{id # c} : t<g>\n{_ # c2} : t<g>\n").value
    left = parse_system("G1[ store r {id # c} ]", g).value
    right = parse_system("G2[ r?(_ # x). r!<{_ # c2}>. 0 ]", g).value
    s = par(left, right)
    taus = tau_successors(s)
    # enumerate dual pairs by brute force
    universe = [priv(Known("id"), "c"), priv(HIDDEN, "c"),
                priv(Known("id"), "c2"), priv(HIDDEN, "c2")]
    pairs = 0
    for ol, _ in visible_outs(left):
        for il, _ in input_labels(right, universe):
            if dual(ol, il):
                pairs += 1
    for ol, _ in visible_outs(right):
        for il, _ in input_labels(left, universe):
            if dual(ol, il):
                pairs += 1
    assert len(taus) == pairs == 1


def _succ_forms(p) -> list[str]:
    return sorted(render_process(normalize(s)) for s in tau_successors(p))


# One input per place that renames a binder apart, each making that place
# rename: the corpus and the store programs never do.
_RENAMES = {
    "extrusion_at_pair": (
        "(new a) c!<a>. a!<k>. 0 | a?(z). 0 | c?(x). x?(w). 0",
        "(new _n0) (a?(_x1). 0 | c?(_x2). _x2?(_x3). 0 | c!<_n0>. _n0!<k>. 0)",
        ["(new _n0) (a?(_x1). 0 | _n0?(_x2). 0 | _n0!<k>. 0)"]),
    "extrusion_in_visible_outs": (
        "((new a) c!<a>. a!<k>. 0 | a?(z). 0) | c?(x). x?(w). 0",
        "(new _n0) (a?(_x1). 0 | c?(_x2). _x2?(_x3). 0 | c!<_n0>. _n0!<k>. 0)",
        ["(new _n0) (a?(_x1). 0 | _n0?(_x2). 0 | _n0!<k>. 0)"]),
    "delivery_into_block": (
        "(new a) c!<a>. 0 | (new a) (c?(x). x!<a>. 0 | a?(y). 0)",
        "(new _n0) (new _n1) (c?(_x2). _x2!<_n0>. 0 | _n0?(_x3). 0 | c!<_n1>. 0)",
        ["(new _n0) (new _n1) (_n0?(_x2). 0 | _n1!<_n0>. 0)"]),
    "substitution_under_restriction": (
        "(new a) c!<a>. 0 | c?(x). (new a) (x!<a>. 0 | a?(y). 0)",
        "(new _n0) (c?(_x1). (new _n2) (_n2?(_x3). 0 | _x1!<_n2>. 0) | c!<_n0>. 0)",
        ["(new _n0) (new _n1) (_n0?(_x2). 0 | _n1!<_n0>. 0)"]),
    "nested_duplicate_hoist": (
        "a?(q). 0 | (new a) (a!<k>. 0 | (new a) (a?(x). 0 | a!<k>. 0))",
        "(new _n0) (new _n1) (a?(_x2). 0 | _n0?(_x3). 0 | _n0!<k>. 0 | _n1!<k>. 0)",
        ["(new _n0) (a?(_x1). 0 | _n0!<k>. 0)"]),
}


@pytest.mark.parametrize("text,normal,succs", _RENAMES.values(), ids=_RENAMES)
def test_binders_renamed_apart(text, normal, succs):
    res = parse_process(text)
    assert res.ok, res.diagnostics
    assert render_process(normalize(res.value)) == normal
    assert _succ_forms(res.value) == succs


def test_extruded_binders_keep_scope_order():
    """Of two binders of one name the later one binds, so the name sent is
    the inner c, bound with G[p<g>], in the successor as in the source."""
    p = parse_process("(new c : G[t<g>]) (new c : G[p<g>]) (b!<c>. 0 | c!<k>. 0)"
                      " | b?(x). x!<k>. 0").value
    assert _succ_forms(p) == ["(new _n0 : G[p<g>]) (_n0!<k>. 0 | _n0!<k>. 0)"]


def test_extruded_binders_listed_outermost_first():
    p = parse_process("(new a : G[t<g>]) (new d : G[p<g>]) b!<a, d>. 0").value
    assert [label.render() for label, _ in visible_outs(p)] == ["(new a, d) b!<a, d>"]


def _binder_text(rng: random.Random, depth: int, bound: tuple = ()) -> str:
    """Process text over the names a, b and c, whose inputs bind x, y or a,
    with restriction, parallel composition and replication, so binders
    shadow free names and each other. No branch ends before `depth` runs
    out."""
    def tok():
        return rng.choice(("a", "b", "c") + bound)

    def sub(inner=bound):
        return _binder_text(rng, depth - 1, inner)

    kind = rng.randrange(1, 6) if depth else 0
    if kind == 0:
        return "0"
    if kind == 1:
        return f"{tok()}!<{tok()}>. {sub()}"
    if kind == 2:
        x = rng.choice(("x", "y", "a"))
        return f"{tok()}?({x}). {sub(bound + (x,))}"
    if kind == 3:
        return f"(new {rng.choice(('a', 'b', 'c'))}) {sub()}"
    if kind == 4:
        return f"({sub()} | {sub()})"
    return f"* {sub()}"


def test_steps_blind_to_binder_names():
    """Renaming every binder canonically leaves no binder that clashes, so
    a step that failed to rename one apart would show as a difference. The
    successors normalize alike in the same order, which `explore` rests on
    when it expands a state unrenamed."""
    stepping = 0
    for seed in range(3000):
        rng = random.Random(seed)
        res = parse_process(" | ".join(_binder_text(rng, 3) for _ in range(3)))
        assert res.ok, res.diagnostics
        succs = list(map(normalize, tau_successors(res.value)))
        renamed = kernel._canonical_rename(res.value)
        assert succs == list(map(normalize, tau_successors(renamed))), seed
        stepping += bool(succs)
    assert stepping > 1000


@functools.cache
def _oracle_states(source):
    """States to compare the engines on, and the explorations (with their
    depth bound) they come from; built once and shared by the oracle
    tests."""
    if source == "store_programs":
        states = []
        for p in gen.store_programs():
            level = [encode(p)]
            for _ in range(3):
                states.extend(level)
                level = list(dict.fromkeys(core_canonical(q) for st in level
                                           for q in tau_successors(st)))
        return states, []
    systems, depth = _explored_systems(source)
    graphs = [explore(s, depth) for s in systems]
    return [st for g in graphs for st in g.nodes.values()], [(g, depth) for g in graphs]


def _explored_systems(source):
    """The systems the oracle tests explore, and the depth bound: the
    corpus at depth 8, or 300 `gen.random_system` seeds at depth 4."""
    if source == "seeds":
        return [gen.random_system(random.Random(seed)) for seed in range(300)], 4
    systems = []
    for name, env in (("hospital", "hospital"), ("etp_central", "etp_central"),
                      ("etp_decentral", "etp_decentral"),
                      ("speedlimit", "speedlimit"), ("lab", "hospital"),
                      ("hospital_nurse_read", "hospital")):
        gamma = parse_env((CORPUS / f"{env}.env").read_text()).value
        systems.append(parse_system((CORPUS / f"{name}.pc").read_text(), gamma).value)
    return systems, 8


@pytest.mark.parametrize("source", ["corpus", "seeds", "store_programs"])
def test_indexed_steps_match_all_pairs(source):
    """Indexing components by subject, and stepping congruent siblings
    once, changes which pairs are tried, not the steps: the successors have
    the distinct normal forms of the all-pairs engine's, in the order of
    their first occurrences, and no two of them share a normal form;
    `has_step` and truncation agree with the all-pairs engine; and the
    reader index holds exactly the subjects `feed` can consume on.

    Siblings see no symmetry between restricted names: in 14 encoded
    states of the store programs, two clients of one store differ only in
    their session names, and either one's read gives the same normal form.
    Those repeats stay, and are counted."""
    states, graphs = _oracle_states(source)
    repeats = 0
    for st in states:
        succs = allpairs.tau_successors(st)
        got = [normalize(q) for q in tau_successors(st)]
        want = list(dict.fromkeys(map(normalize, succs)))
        assert set(got) == set(want), st
        assert list(dict.fromkeys(got)) == want, st
        repeats += len(got) - len(set(got))
        assert has_step(st) == bool(succs)
        assert input_subjects(st) == allpairs.fed_subjects(st)
    assert repeats == (14 if source == "store_programs" else 0)
    for graph, depth in graphs:
        last = [st for key, st in graph.nodes.items() if graph.depths[key] == depth]
        assert graph.truncated == any(map(allpairs.tau_successors, last))


_WHERE_THE_INPUT_SITS = {
    "untaken_branch": ("G[ a!<k>. 0 | if k = k then 0 else a?(x). 0 ]", set(), 0),
    "taken_branch": ("G[ a!<k>. 0 | if k = j then 0 else a?(x). 0 ]", {"a"}, 1),
    "undecided_if": ("G[ a!<k>. 0 | if k > j then a?(x). 0 else a?(x). 0 ]", set(), 0),
    "replicated_body": ("G[ a!<k>. 0 | * a?(x). b!<x>. 0 ]", {"a"}, 1),
    "group": ("G[ a!<k>. 0 ] || H[ a?(x). 0 ]", {"a"}, 1),
    "bound_subject": ("G[ a!<k>. 0 | (new a) a?(x). 0 ]", set(), 0),
}


@pytest.mark.parametrize("text,subjects,steps", _WHERE_THE_INPUT_SITS.values(),
                         ids=_WHERE_THE_INPUT_SITS)
def test_reader_index_reads_where_a_step_happens(text, subjects, steps):
    """The only input of each system sits in one kind of context. The
    reader index holds its subject exactly when `feed` can reach it, and
    the successors are the all-pairs engine's, in the same order."""
    res = parse_system(text)
    assert res.ok, res.diagnostics
    assert input_subjects(res.value) == allpairs.fed_subjects(res.value) == subjects
    succs = tau_successors(res.value)
    assert succs == allpairs.tau_successors(res.value) and len(succs) == steps


def _scopes(node, names=frozenset(), vs=frozenset()):
    """Every process and system node of the term, with the names and the
    variables bound around it."""
    yield node, names, vs
    match node:
        case PInp(_, patterns, cont):
            yield from _scopes(cont, names, vs.union(*map(placeholder_vars, patterns)))
        case Block(binders, comps):
            inner = names.union(n for n, _ in binders)
            for c in comps:
                yield from _scopes(c, inner, vs)
        case _:
            for c in children(node):
                yield from _scopes(c, names, vs)


def _with_successors(states):
    """The states and their successors before normalization, which is what
    `explore` hands to `normalize`."""
    return [q for st in states for q in (st, *tau_successors(st))]


def _count_passes(monkeypatch) -> list[int]:
    """A one-element list counting the normalizing passes from here on,
    recursive ones included."""
    count = [0]
    real = kernel._normalize1

    def counted(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(kernel, "_normalize1", counted)
    return count


@pytest.mark.parametrize("source", ["corpus", "seeds", "store_programs"])
def test_kept_free_atoms_match_a_walk(source):
    """Each node's free names and variables, built from its children's and
    kept on the node, are those a walk of the whole subterm finds, in the
    same order; successors, which reuse the components that did not move,
    included."""
    states, _ = _oracle_states(source)
    checked = 0
    for root in _with_successors(states):
        for node, _, _ in _scopes(root):
            assert kernel._free(node) == kernel_oracles.free(node), node
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("source", ["corpus", "seeds", "store_programs"])
def test_sort_block_matches_two_pass_sort(source):
    """Reusing the uncoloured key of a component that mentions no binder
    leaves the order of every block as two full passes give it."""
    states, _ = _oracle_states(source)
    checked = 0
    for st in states:
        for node, names, vs in _scopes(st):
            if isinstance(node, Block) and len(node.comps) > 1:
                comps = node.comps[::-1]
                binders = [n for n, _ in node.binders]
                got = kernel._sort_block(comps, binders, names, vs)
                want = kernel_oracles.sort_block(comps, binders, names, vs)
                assert list(map(id, got)) == list(map(id, want)), node
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("source", ["corpus", "seeds", "store_programs"])
def test_component_memo_is_exact(source, monkeypatch):
    """`normalize` gives each successor of a state the normal form, with
    the same spans, that a copy keeping nothing gets. The successors share
    the components that did not move with their state, which keep their
    normal forms, so normalizing them runs fewer passes than normalizing
    the copies."""
    states, _ = _oracle_states(source)
    for st in states:
        kernel._normalize1(st, frozenset(), frozenset())
    succs = [q for st in states for q in tau_successors(st)]
    passes = _count_passes(monkeypatch)
    cold = [normalize(kernel_oracles.rebuild(q)) for q in succs]
    cold_passes = passes[0]
    for q, want in zip(succs, cold):
        got = normalize(q)
        assert got == want and kernel_oracles.same_spans(got, want), q
    assert passes[0] - cold_passes < cold_passes / 2


@pytest.mark.parametrize("source", ["corpus", "seeds"])
def test_search_keys_partition_as_normal_forms(source, monkeypatch):
    """Two successors that `explore` meets share the `_alpha_key` of their
    unrenamed structural normal forms exactly when their normal forms are
    equal, so the search keeps the states that keying normal forms kept."""
    met = []
    real = semantics.tau_successors

    def recording(node):
        succs = real(node)
        met.extend(succs)
        return succs

    monkeypatch.setattr(semantics, "tau_successors", recording)
    systems, depth = _explored_systems(source)
    for system in systems:
        explore(system, depth)
    norm_of: dict = {}
    key_of: dict = {}
    for q in met:
        key = kernel._alpha_key(kernel._normalize1(q, frozenset(), frozenset()))
        norm = normalize(q)
        assert norm_of.setdefault(key, norm) == norm, q
        assert key_of.setdefault(norm, key) == key, q
    assert len(met) > 300 and len(key_of) > 30


def test_explored_states_are_their_own_normal_forms(corpus):
    """Each state `explore` reaches keeps itself as its normal form."""
    checked = 0
    for _, _, system in corpus.values():
        for st in explore(system, 8).nodes.values():
            assert normalize(st) is st, st
            checked += 1
    assert checked > 100


def test_component_memo_cuts_normalize_passes(speedlimit, monkeypatch):
    """From a fresh copy, exploring speedlimit to depth 8 runs at most a fifth
    of the 13,207 normalizing passes it ran when each state was normalized
    from scratch."""
    passes = _count_passes(monkeypatch)
    graph = explore(kernel_oracles.rebuild(speedlimit[2]), 8)
    assert len(graph.nodes) == 75
    assert 0 < passes[0] <= 2641


def _count_renaming_walks(monkeypatch) -> list[int]:
    """A one-element list counting the `_rewrite` calls in renaming mode
    from here on, recursive ones included."""
    count = [0]
    real = kernel._rewrite

    def counted(node, names, vs, fresh=None):
        count[0] += fresh is not None
        return real(node, names, vs, fresh)

    monkeypatch.setattr(kernel, "_rewrite", counted)
    return count


@pytest.mark.parametrize("source", ["corpus", "seeds", "store_programs"])
def test_renaming_memo_is_exact(source, monkeypatch):
    """The canonical renaming gives the same normal form, with the same
    spans, when it answers components from the renamings kept on them as
    when it walks every component; the warm pass walks fewer nodes."""
    states, _ = _oracle_states(source)
    inputs = _with_successors(states)
    walks = _count_renaming_walks(monkeypatch)
    cold = []
    for q in inputs:
        cold.append(kernel_oracles.canonical_rename(
            kernel._normalize1(q, frozenset(), frozenset())))
    cold_walks = walks[0]
    for q, want in zip(inputs, cold):
        # the renamings kept on nodes answer from earlier terms, not the
        # normal form kept on q
        got = kernel._canonical_rename(kernel._normalize1(q, frozenset(), frozenset()))
        assert got == want and kernel_oracles.same_spans(got, want), q
    assert walks[0] - cold_walks < cold_walks


def test_renaming_walks_per_exploration(monkeypatch):
    """From a fresh parse, exploring speedlimit to depth 8 renames each of
    its 75 states once, where renaming every successor renamed 195 times,
    and walks at most 3,500 nodes in renaming mode (3,024 when measured),
    where renaming every successor walked 6,301 and renaming every
    component 13,854: a component renamed before at the same position,
    whether the earlier renaming was handed the component
    or gave it back, is not walked again."""
    system = load("speedlimit")[2]
    walks = _count_renaming_walks(monkeypatch)
    renamings = [0]
    real = kernel._canonical_rename

    def counted(node):
        renamings[0] += 1
        return real(node)

    monkeypatch.setattr(kernel, "_canonical_rename", counted)
    assert len(explore(system, 8).nodes) == 75
    assert renamings[0] == 75
    assert 0 < walks[0] <= 3500


def test_normal_forms_rename_to_themselves():
    """The renaming gives back every node it maps to itself, so renaming a
    normal form that `explore` reaches gives the normal form itself, also
    when every component is walked."""
    states, _ = _oracle_states("corpus")
    for st in states:
        assert kernel_oracles.canonical_rename(st) is st, st
        assert kernel._canonical_rename(st) is st, st
    assert len(states) > 100


@pytest.mark.parametrize("source", ["corpus", "seeds", "store_programs"])
def test_sort_keys_match_two_walk_keys(source):
    """One key walk per component, with the block's binders written as
    marks, gives the key strings that one walk per colouring gives, under
    the uniform colouring and the refined one."""
    states, _ = _oracle_states(source)
    checked = 0
    for st in states:
        for node, names, vs in _scopes(st):
            if not isinstance(node, Block):
                continue
            comps = node.comps
            binders = [n for n, _ in node.binders]
            holes = dict.fromkeys(vs, "_")
            uniform = dict.fromkeys(names, "_") | dict.fromkeys(binders, "ν")
            shapes: dict[str, list[str]] = {n: [] for n in binders}
            for c in comps:
                key = kernel_oracles._erased_key(c, uniform, holes)
                assert kernel._erased_key(c, uniform, holes) == key, c
                for n in kernel_oracles.free(c)[0]:
                    if n in shapes:
                        shapes[n].append(key)
            colors = dict.fromkeys(names, "_") | {
                n: "ν(" + "|".join(sorted(keys)) + ")" for n, keys in shapes.items()}
            want = [kernel_oracles._erased_key(c, colors, holes) for c in comps]
            assert [kernel._erased_key(c, colors, holes) for c in comps] == want, node
            assert kernel._sort_keys(comps, binders, names, vs) == want, node
            checked += len(comps)
    assert checked > 500


def _rendered_key(node) -> str:
    """`state_key`, written again for the reference loop below."""
    norm = normalize(node)
    txt = render_system(norm) if is_system(norm) else render_process(norm)
    return hashlib.sha256(txt.encode()).hexdigest()[:12]


# the six corpus inputs and the environment each is read with
CORPUS_INPUTS = {"hospital": "hospital", "etp_central": "etp_central",
                 "etp_decentral": "etp_decentral", "speedlimit": "speedlimit",
                 "lab": "hospital", "hospital_nurse_read": "hospital"}


def _corpus_graphs(depth: int):
    """(name, Γ, graph explored to `depth`) for each corpus input, parsed
    afresh."""
    for name, case in CORPUS_INPUTS.items():
        gamma = parse_env((CORPUS / f"{case}.env").read_text()).value
        res = parse_system((CORPUS / f"{name}.pc").read_text(), gamma)
        assert res.ok, name
        yield name, gamma, explore(res.value, depth)


def test_state_names_are_sha256_prefixes():
    """Every state of the corpus inputs at depth 8 is named by the first 12
    hex digits of `hashlib`'s SHA-256 of its rendered normal form, whatever
    module `state_key` hashes with."""
    checked = 0
    for name, _, graph in _corpus_graphs(8):
        for key, node in graph.nodes.items():
            assert state_key(node) == _rendered_key(node) == key, (name, key)
            checked += 1
    assert checked > 150


def _explore_keying_every_successor(s, depth: int) -> StateGraph:
    """`explore` as it was when it rendered the key of every successor."""
    root = normalize(s)
    rkey = _rendered_key(root)
    graph = StateGraph(root=rkey)
    graph.nodes[rkey] = root
    graph.depths[rkey] = 0
    frontier = [(rkey, root)]
    seen_edges = set()
    for d in range(depth):
        nxt = []
        for key, node in frontier:
            for succ in tau_successors(node):
                sn = normalize(succ)
                skey = _rendered_key(sn)
                if skey not in graph.nodes:
                    graph.nodes[skey] = sn
                    graph.depths[skey] = d + 1
                    nxt.append((skey, sn))
                edge = (key, "tau", skey)
                if edge not in seen_edges:
                    seen_edges.add(edge)
                    graph.edges.append(edge)
        frontier = nxt
    graph.truncated = any(has_step(n) for _, n in frontier)
    return graph


def test_one_state_key_per_normal_form(speedlimit, monkeypatch):
    """`explore` renders and hashes each state it keeps once, and builds
    the graph that keying every successor built."""
    want = _explore_keying_every_successor(kernel_oracles.rebuild(speedlimit[2]), 8)
    met = []
    rendered = 0
    real_normalize = semantics.normalize

    def normalizing(node):
        met.append(real_normalize(node))
        return met[-1]

    def counting(render):
        def rendering(node):
            nonlocal rendered
            rendered += 1
            return render(node)
        return rendering

    monkeypatch.setattr(semantics, "normalize", normalizing)
    monkeypatch.setattr(semantics, "render_system", counting(semantics.render_system))
    monkeypatch.setattr(semantics, "render_process", counting(semantics.render_process))
    system = load("speedlimit")[2]
    got = explore(system, 8)
    assert rendered == len(set(met)) == len(got.nodes) == 75
    assert (got.root, got.nodes, got.edges, got.depths, got.truncated) == (
        want.root, want.nodes, want.edges, want.depths, want.truncated)


def _graph(graph: StateGraph):
    """Everything `explore` builds, states and depths in the order met."""
    return (graph.root, list(graph.nodes.items()), graph.edges,
            list(graph.depths.items()), graph.truncated)


def test_search_ends_at_an_empty_frontier(corpus):
    """etp_central has no state beyond depth 9, so its graph at depth 12
    is whole, and a bound of 10**8 gives the same graph. The search used
    to count out the bound over an empty frontier; an alarm after 5 s
    turns that into a failed assertion."""
    system = corpus["etp_central"][2]
    want = _graph(explore(system, 12))
    assert not want[-1]

    def late(*_):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        got = _graph(explore(system, 10**8))
    except TimeoutError:
        got = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert got == want


@pytest.mark.parametrize("depth", [8, 12])
@pytest.mark.parametrize("name", NAMES)
def test_explore_matches_old_loop_on_corpus(corpus, name, depth):
    system = corpus[name][2]
    want = _explore_keying_every_successor(kernel_oracles.rebuild(system), depth)
    assert _graph(explore(system, depth)) == _graph(want)


def test_explore_matches_old_loop_on_random_systems():
    for seed in range(300):
        system = gen.random_system(random.Random(seed))
        want = _explore_keying_every_successor(kernel_oracles.rebuild(system), 4)
        assert _graph(explore(system, 4)) == _graph(want), seed


def _parse_input(name: str):
    """A corpus input, parsed afresh with its environment."""
    gamma = parse_env((CORPUS / f"{CORPUS_INPUTS[name]}.env").read_text()).value
    return parse_system((CORPUS / f"{name}.pc").read_text(), gamma).value


@pytest.mark.parametrize("name, depth", [*((n, 8) for n in CORPUS_INPUTS), ("speedlimit", 12)])
def test_explore_matches_all_pairs_exploration(name, depth, monkeypatch):
    """Stepping congruent siblings once drops only successors whose normal
    form the state has already given, so `explore` builds the graph that an
    exploration driven by the all-pairs engine builds: the same states in
    the same order, the same edges in the same order, the same depths and
    the same truncation."""
    with monkeypatch.context() as m:
        m.setattr(semantics, "tau_successors", allpairs.tau_successors)
        m.setattr(semantics, "has_step", lambda node: bool(allpairs.tau_successors(node)))
        want = _graph(explore(_parse_input(name), depth))
    assert _graph(explore(_parse_input(name), depth)) == want


# (system, successors, the all-pairs engine's successors): each block holds
# siblings that are congruent or differ in one place only
_SIBLINGS = {
    "alpha_equal_readers": ("G[ a!<k>. 0 | a?(x). b!<x>. 0 | a?(y). b!<y>. 0 ]", 1, 2),
    "alpha_equal_writers": ("G[ a!<k>. 0 | a!<k>. 0 | a?(x). 0 ]", 1, 2),
    "congruent_groups": ("G[ b!<k>. 0 ] || G[ b!<k>. 0 ] || H[ b?(x). 0 ]", 1, 2),
    "internal_steps": ("G[ c!<k>. 0 | c?(x). 0 ] || G[ c!<k>. 0 | c?(x). 0 ]", 2, 4),
    "readers_differ_in_a_free_name": (
        "G[ a!<k>. 0 | a?(x). b!<x>. 0 | a?(x). c!<x>. 0 ]", 2, 2),
    "readers_differ_in_an_input_annotation": (
        "G[ a!<k>. 0 | a?(x). b?(y : G1[t<g>]). 0 | a?(x). b?(y : G1[p<g>]). 0 ]", 2, 2),
    "readers_differ_in_a_restriction_annotation": (
        "G[ a!<k>. 0 | a?(x). (new n : G1[t<g>]) n!<x>. 0"
        " | a?(x). (new n : G1[p<g>]) n!<x>. 0 ]", 2, 2),
}


@pytest.mark.parametrize("text,steps,all_pairs", _SIBLINGS.values(), ids=_SIBLINGS)
def test_congruent_siblings_step_once(text, steps, all_pairs):
    """Siblings that are alpha-equal, annotations and free atoms included,
    step once; siblings that differ anywhere, if only in an annotation,
    step apart. Either way the successors have the all-pairs engine's
    distinct normal forms, in order."""
    res = parse_system(text)
    assert res.ok, res.diagnostics
    got = [normalize(q) for q in tau_successors(res.value)]
    want = [normalize(q) for q in allpairs.tau_successors(res.value)]
    assert (len(got), len(want)) == (steps, all_pairs)
    assert got == list(dict.fromkeys(want))


def test_blocks_that_cannot_move_compute_no_class_key(monkeypatch):
    """In the width-200 block only one pair can react and one output is
    not on a restricted name, so no two components need telling apart and
    no class key is computed."""
    res = parse_system(_wide_text(200))
    assert res.ok, res.diagnostics
    root = normalize(res.value)
    keys = []
    monkeypatch.setattr(semantics, "_alpha_key", lambda c: keys.append(c) or kernel._alpha_key(c))
    assert len(tau_successors(root)) == 1
    assert len(visible_outs(root)) == 1 and keys == []


def _run_checkers(source) -> None:
    """Explore the corpus inputs at depth 8 or 300 `gen.random_system`
    seeds at depth 4, or check the correspondence of the 26 store programs
    at bound 12; all from fresh terms."""
    if source == "store_programs":
        for p in gen.store_programs():
            assert check_correspondence(p, 12).ok
        return
    systems, depth = _explored_systems(source)
    for system in systems:
        explore(system, depth)


@pytest.mark.parametrize("source", ["corpus", "seeds", "store_programs"])
def test_kept_sort_keys_match_cold_keys(source, monkeypatch):
    """Every block that normalization sorts while the checkers run gets the
    keys that cold walks write, one per colouring; many of its components
    bring keys kept from earlier blocks."""
    real = kernel._sort_keys
    blocks = kept = 0

    def checking(comps, binder_names, names, vs):
        nonlocal blocks, kept
        kept += sum(c._skey is not None for c in comps)
        keys = real(comps, binder_names, names, vs)
        assert keys == kernel_oracles.sort_keys(comps, binder_names, names, vs), comps
        blocks += 1
        return keys

    monkeypatch.setattr(kernel, "_sort_keys", checking)
    _run_checkers(source)
    assert blocks > 500 and kept > 500


def test_kept_sort_key_needs_the_same_classification():
    """One component in three blocks: its free name `a` is a binder of the
    block, bound further out, or free. Each block writes its own key."""
    c = parse_process("a!<b>. 0").value
    assert c._skey is None
    got = [kernel._sort_keys([c], binders, names, frozenset())
           for binders, names in (({"a": None}, frozenset()), ({}, frozenset({"a"})),
                                  ({}, frozenset()))]
    assert got == [kernel_oracles.sort_keys([c], binders, names, frozenset())
                   for binders, names in ((["a"], ()), ([], ("a",)), ([], ()))]
    assert len(set(map(tuple, got))) == 3


_STEP_FACTS = {"_outs": visible_outs, "_ins": input_subjects,
               "_refs": semantics.reference_names, "_akey": kernel._alpha_key}


def _check_kept_facts(state) -> dict[str, int]:
    """Compare each fact kept on a node of the state with the fact computed
    on a copy that keeps nothing; count the facts compared."""
    checked = dict.fromkeys(_STEP_FACTS, 0)
    for (node, _, _), (cold, _, _) in zip(_scopes(state), _scopes(kernel_oracles.rebuild(state))):
        for fact, compute in _STEP_FACTS.items():
            kept = getattr(node, fact)
            if kept is not None:
                assert kept == compute(cold), (fact, node)
                checked[fact] += 1
    return checked


@pytest.mark.parametrize("source", ["corpus", "seeds", "store_programs"])
def test_kept_step_facts_match_cold_ones(source, monkeypatch):
    """On every node of every state the checkers expand, each fact kept on
    the node (its outputs, reader subjects, store references and class
    key) equals the fact computed on a copy of the state that keeps
    nothing. So does what every `feed` call gives, against `feed` on a copy
    of its node; and every structural normal form that `_normalize_comp`
    gives or keeps, on the component and on the form itself, against a
    pass over a copy under the same holes, spans included."""
    met = []
    fed: dict = {}
    forms: dict = {}
    real_tau, real_has = semantics.tau_successors, semantics.has_step
    real_feed, real_comp = semantics.feed, kernel._normalize_comp

    def tau(node):
        met.append(node)
        return real_tau(node)

    def has(node):
        met.append(node)
        return real_has(node)

    def feed(node, *delivery):
        succs = real_feed(node, *delivery)
        fed[id(node), delivery] = node, succs
        return succs

    def normalize_comp(c, names, vs):
        form = real_comp(c, names, vs)
        forms[id(c), names, vs] = c, form
        return form

    with monkeypatch.context() as m:
        m.setattr(semantics, "tau_successors", tau)
        m.setattr(encoding, "tau_successors", tau)
        m.setattr(semantics, "has_step", has)
        m.setattr(semantics, "feed", feed)
        m.setattr(kernel, "_normalize_comp", normalize_comp)
        _run_checkers(source)
    checked = dict.fromkeys(_STEP_FACTS, 0)
    for st in met:
        for fact, n in _check_kept_facts(st).items():
            checked[fact] += n
    for (_, delivery), (node, succs) in fed.items():
        assert succs == real_feed(kernel_oracles.rebuild(node), *delivery), (node, delivery)
    checked["feed"] = len(fed)

    def cold_form(node, names, vs):
        return kernel._normalize1(kernel_oracles.rebuild(node), names, vs)

    for (_, names, vs), (c, form) in forms.items():
        for node, holes, kept in ((c, (names, vs), form), *((n, *n._cnorm) for n in (c, form))):
            want = cold_form(node, *holes)
            assert want == kept and kernel_oracles.same_spans(want, kept), node
    checked["_cnorm"] = len(forms)
    assert min(checked.values()) > 100, checked


# a step in each system changes every step fact of the group around it
_FACTS_CHANGE = {
    "store_dropped": "G[ if k = k then (a!<k>. 0 | a?(x). 0) else store r {i # c} ]",
    "input_and_output_taken": "G[ a!<k>. b?(y). 0 | a?(x). c!<x>. 0 ]",
}


@pytest.mark.parametrize("text", _FACTS_CHANGE.values(), ids=_FACTS_CHANGE)
def test_successors_keep_facts_of_their_own(text):
    """A successor rebuilt around a step keeps none of the facts of the
    node it was rebuilt from: once the facts are kept on every node of the
    state, each successor's facts equal those of a copy that keeps
    nothing."""
    res = parse_system(text)
    assert res.ok, res.diagnostics
    state = res.value
    for node, _, _ in _scopes(state):
        for compute in _STEP_FACTS.values():
            compute(node)
    succs = tau_successors(state)
    assert succs
    for q in succs:
        for node, _, _ in _scopes(q):
            for compute in _STEP_FACTS.values():
                compute(node)
        _check_kept_facts(q)


@pytest.mark.parametrize("name, depth", [*((n, 8) for n in NAMES), ("speedlimit", 12)])
def test_kept_states_are_renamed_without_another_pass(name, depth, monkeypatch):
    """Once the search is over, `explore` only renames the structural
    normal forms it kept: no normalizing pass runs, and the states are
    those the old loop kept, spans included."""
    want = _explore_keying_every_successor(load(name)[2], depth)
    searching = [True]
    passes_after = [0]
    real_search, real_pass = semantics.search, kernel._normalize1

    def search(*args):
        out = real_search(*args)
        searching[0] = False
        return out

    def counted(*args):
        passes_after[0] += not searching[0]
        return real_pass(*args)

    monkeypatch.setattr(semantics, "search", search)
    monkeypatch.setattr(semantics, "_normalize1", counted)
    monkeypatch.setattr(kernel, "_normalize1", counted)
    got = explore(load(name)[2], depth)
    assert not searching[0] and passes_after[0] == 0
    assert list(got.nodes) == list(want.nodes)
    for key, state in want.nodes.items():
        assert got.nodes[key] == state and kernel_oracles.same_spans(got.nodes[key], state), key


def test_non_decimal_constant_is_not_a_number():
    """A constant that the lexer read as a digit but that has no decimal
    value, such as `²`, leaves a `>` condition undecided, where `int`
    raised."""
    res = parse_system("G[if ² > 1 then a!<c>. 0 else 0]")
    assert res.ok, res.diagnostics
    graph = explore(res.value, 2)
    assert len(graph.nodes) == 1 and not graph.truncated

def test_store_identity_stable_along_traces(corpus):
    """Once known, a store's identity never changes along any explored
    trace."""
    _, gamma, system = corpus["etp_central"]
    graph = explore(system, 6)

    def stores(node, acc):
        if isinstance(node, PStore):
            acc.append((node.ref, node.datum.identity))
        for c in children(node):
            stores(c, acc)
        return acc

    identities: dict[str, set] = {}
    for key in graph.nodes:
        for ref, ident in stores(graph.nodes[key], []):
            if isinstance(ident, Known):
                identities.setdefault(ref, set()).add(ident)
    assert identities
    for ref, seen in identities.items():
        assert len(seen) == 1, (ref, seen)

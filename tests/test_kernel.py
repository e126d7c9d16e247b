import ast
import itertools
import pathlib
import random

import pytest

from conftest import CORPUS
from privcalc import kernel, semantics
from privcalc.encoding import CorrespondenceReport
from privcalc.semantics import explore
from privcalc.syntax import parse_env, parse_process, parse_system, render_system
from privcalc.kernel import (
    Block, DConst, DVar, HIDDEN, IVar, IncompatibleSubstitution, KernelError,
    Known, NIL, PAnon, PIf, PInp, PNil, POut, PPair, PRepl, PStore, PVar,
    PrivateData, TChan, TConst, TDual, TName, TPriv, TPrivate, TVar,
    _canonical_rename, _rewrite, alpha_eq, free_atoms, free_names, free_vars,
    normalize, substitute,
)
import gen
import kernel_oracles
from gen import new, par


def priv(ident, tok):
    return TPriv(PrivateData(ident, DConst(tok)))


class TestPrivateData:
    def test_admissible_forms(self):
        PrivateData(Known("id"), DConst("c"))
        PrivateData(HIDDEN, DConst("c"))
        PrivateData(IVar("x"), DVar("y"))
        PrivateData(HIDDEN, DVar("y"))
        PrivateData(Known("id"), DVar("y"))  # store-literal relaxation

    def test_var_const_rejected(self):
        with pytest.raises(KernelError):
            PrivateData(IVar("x"), DConst("c"))

    def test_uninitialized_not_communicable(self):
        pd = PrivateData(Known("id"), DVar("y"))
        assert not pd.communicable
        with pytest.raises(KernelError):
            POut(TName("a"), (TPriv(pd),), NIL)

    def test_dual_never_object(self):
        from privcalc.kernel import TDual
        with pytest.raises(KernelError):
            POut(TName("a"), (TDual("r"),), NIL)


class TestSubstitute:
    def test_pair_replaces_both_components(self):
        # free x and y replaced by the datum's identity and data
        body = POut(TName("u"), (TPriv(PrivateData(IVar("x"), DVar("y"))),), NIL)
        out = substitute(body, priv(Known("id"), "c"), PPair("x", "y"))
        assert out == POut(TName("u"), (priv(Known("id"), "c"),), NIL)

    def test_no_free_occurrence_is_identity(self):
        assert substitute(NIL, TName("a"), PVar("x")) == NIL

    def test_anon_value_against_pair_pattern_rejected(self):
        body = PInp(TName("r"), (PPair("x", "y"),), NIL)
        with pytest.raises(IncompatibleSubstitution):
            substitute(body, priv(HIDDEN, "c"), PPair("x", "y"))

    def test_known_value_against_anon_pattern_rejected(self):
        with pytest.raises(IncompatibleSubstitution):
            substitute(NIL, priv(Known("id"), "c"), PAnon("y"))

    def test_plain_var_takes_names(self):
        body = POut(TVar("w"), (TConst("c"),), NIL)
        out = substitute(body, TName("r1"), PVar("w"))
        assert out == POut(TName("r1"), (TConst("c"),), NIL)

    def test_capture_avoidance(self):
        # substituting a name under a binder of the same name renames it
        body = new("n", None, POut(TVar("w"), (TName("n"),), NIL))
        out = substitute(body, TName("n"), PVar("w"))
        assert isinstance(out, Block) and len(out.binders) == 1
        assert out.binders[0][0] != "n"
        assert out.comps[0].subject == TName("n")

    def test_data_slot_substitution(self):
        # a plain variable received at a constant fills data slots
        body = POut(TName("s"), (TPriv(PrivateData(HIDDEN, DVar("ns"))),), NIL)
        out = substitute(body, TConst("140"), PVar("ns"))
        assert out == POut(TName("s"), (priv(HIDDEN, "140"),), NIL)


class TestFreeNamesVars:
    def test_store_pattern_vars(self):
        st = PStore("r", PrivateData(IVar("x"), DVar("y")))
        assert free_vars(st) == {"x", "y"}
        assert free_names(st) == {"r"}

    def test_binder_covers_sole_use(self):
        p = new("n", None, POut(TName("n"), (TConst("c"),), NIL))
        assert free_names(p) == frozenset()

    def test_par_with_store(self):
        p = par(POut(TName("a"), (TName("r"),), NIL),
                PStore("r", PrivateData(Known("id"), DConst("c"))))
        assert free_names(p) == {"a", "r"}

    def test_input_binds_vars(self):
        p = PInp(TName("a"), (PPair("x", "y"),),
                 POut(TName("b"), (TPriv(PrivateData(IVar("x"), DVar("y"))),), NIL))
        assert free_vars(p) == frozenset()
        assert free_names(p) == {"a", "b"}

    def test_subject_is_outside_the_input_scope(self):
        p = PInp(TVar("d"), (PVar("d"),), POut(TVar("d"), (TConst("c"),), NIL))
        assert free_vars(p) == {"d"}

    def test_kept_atoms_in_order_and_never_copied(self):
        p = new("n", None, par(POut(TName("b"), (TVar("y"),), NIL),
                               POut(TName("n"), (TName("a"), TName("b")), NIL)))
        assert kernel._free(p) == (("b", "a"), ("y",))
        assert p._atoms is kernel._free(p)
        q = kernel.replace(p, binders=())
        assert q._atoms is None
        assert kernel._free(q) == (("b", "n", "a"), ("y",))


class TestNormalize:
    def test_nil_unit(self):
        p = POut(TName("a"), (TConst("c"),), NIL)
        assert normalize(par(NIL, p)) == normalize(p)

    def test_input_variable_does_not_capture_a_name(self):
        # substitution leaves a received name n under an input that binds a
        # variable n; a name and a variable of one token are two atoms
        t = PInp(TName("d"), (PVar("n"),), POut(TName("n"), (TConst("c"),), NIL))
        n = normalize(t)
        assert free_atoms(n) == free_atoms(t) == {"d", "n"}
        assert n.cont.subject == TName("n")

    def test_free_name_under_same_token_input_sorts_stably(self):
        # b is a free name, not the variable b bound around the block: sort
        # keys must read it as b both before and after the renaming
        t = PInp(TName("a"), (PVar("b"),),
                 par(POut(TName("b"), (TName("b"),), NIL),
                     POut(TName("a"), (TName("b"),), NIL)))
        n = normalize(t)
        assert normalize(kernel_oracles.rebuild(n)) == n

    def test_normal_form_answers_itself(self, monkeypatch):
        p = par(POut(TName("b"), (TConst("c"),), NIL),
                new("n", None, POut(TName("n"), (TConst("c"),), NIL)))
        n = normalize(p)
        assert p._norm is n and n._norm is n
        # a term that keeps its normal form is not normalized again
        monkeypatch.setattr(kernel, "_normalize1", None)
        assert normalize(n) is n and normalize(p) is n

    def test_equal_term_elsewhere_keeps_its_spans(self):
        # equality ignores spans: the normal form of the text at line 3 is
        # not the one of the same text at line 1
        text = "a!<k>. 0 | b?(x). 0"
        first = normalize(parse_process(text).value)
        second = normalize(parse_process("\n\n" + text).value)
        assert second == first and second is not first
        assert [c.span.line for c in first.comps] == [1, 1]
        assert [c.span.line for c in second.comps] == [3, 3]

    def test_component_memo_tells_bound_atoms_from_free(self):
        # sort keys print a name or variable bound around the component as
        # a hole: "_" sorts after "C" and "Y" but "B" and "X" before them,
        # so the inner block's order depends on what binds B and X
        inner = par(*(POut(TName("o"), (t,), NIL)
                      for t in (TName("B"), TName("C"), TVar("X"), TVar("Y"))))
        c = PInp(TName("k"), (PVar("z"),), inner)
        other = POut(TName("k"), (TConst("c"),), NIL)
        contexts = [par(c, other), new("B", None, par(c, other)),
                    PInp(TName("m"), (PVar("X"),), par(c, other))]
        cold = []
        for t in contexts:
            cold.append(normalize(t))
        assert [normalize(kernel_oracles.rebuild(t)) for t in contexts] == cold

    def test_restricted_nil(self):
        assert normalize(new("a", None, NIL)) == NIL

    def test_system_nil_unit(self):
        from privcalc.kernel import Group, SBare
        g = Group("G", SBare(POut(TName("a"), (TConst("c"),), NIL)))
        assert normalize(par(SBare(NIL), g)) == normalize(g)
        assert normalize(new("a", None, SBare(NIL))) == SBare(NIL)

    def test_commutative(self):
        p = POut(TName("a"), (TConst("c"),), NIL)
        q = PInp(TName("b"), (PVar("x"),), NIL)
        assert normalize(par(p, q)) == normalize(par(q, p))

    def test_associative(self):
        p = POut(TName("a"), (TConst("c"),), NIL)
        q = POut(TName("b"), (TConst("c"),), NIL)
        r = POut(TName("d"), (TConst("c"),), NIL)
        assert normalize(par(par(p, q), r)) == normalize(par(p, par(q, r)))

    def test_scope_extrusion(self):
        q = POut(TName("b"), (TConst("c"),), NIL)
        p = POut(TName("n"), (TConst("c"),), NIL)
        assert normalize(par(new("n", None, p), q)) == \
            normalize(new("n", None, par(p, q)))

    def test_binder_commute(self):
        body = POut(TName("n"), (TName("m"),), NIL)
        a = new("n", None, new("m", None, body))
        b = new("m", None, new("n", None, body))
        assert normalize(a) == normalize(b)

    def test_hoisting_keeps_nested_restrictions_apart(self):
        # b is free in one component and restricted twice, nested, in the
        # other: hoisting must not merge the two restrictions into one
        def inp(n):
            return PInp(TName(n), (PVar("x"),), NIL)

        def out(n):
            return POut(TName(n), (TConst("c"),), NIL)

        shadowed = par(inp("b"),
                       new("b", None, par(new("b", None, inp("b")), out("b"))))
        renamed = par(inp("b"),
                      new("b1", None, par(new("b2", None, inp("b2")), out("b1"))))
        assert normalize(shadowed) == normalize(renamed)

    def test_outer_binder_names_do_not_order_components(self):
        # two reachable etp_central states that differ only by swapping the
        # names _n0 and _n1 bound around the PA block; sorting that block by
        # those names kept both as separate states
        env = parse_env((CORPUS / "etp_central.env").read_text()).value
        texts = [
            "ETP[ (new _n0 : Car[loc<Loc>]) (new _n1 : ETP[Car[loc<Loc>]]) "
            "(new _n2 : ETP[ETP[Car[loc<Loc>]]]) (PA[ (new _n3 : PA[loc<Loc>]) "
            "(new _n4 : PA[loc<Loc>]) (_n0?({_x5 # _x6}). if _x6 = lsc then 0 "
            "else f!<{_ # fine1}>. 0 | _n1?(_x7). _x7?({_x8 # _x9}). "
            "f!<{_ # fee1}>. 0 | store f {acct # y0} | store _n3 {id # u1} | "
            "store _n4 {id # u2}) ] || Car[ GPS[ * lc?(_x10). _n0!<{_ # l1}>. 0 ] "
            "|| OBE[ * _n2?(_x11). _x11!<_n0>. 0 | * _n1!<_n0>. 0 ] || "
            "store _n0 {id # l0} ]) ]",
            "ETP[ (new _n0 : ETP[Car[loc<Loc>]]) (new _n1 : Car[loc<Loc>]) "
            "(new _n2 : ETP[ETP[Car[loc<Loc>]]]) (PA[ (new _n3 : PA[loc<Loc>]) "
            "(new _n4 : PA[loc<Loc>]) (_n0?(_x5). _x5?({_x6 # _x7}). "
            "f!<{_ # fee1}>. 0 | _n1?({_x8 # _x9}). if _x9 = lsc then 0 else "
            "f!<{_ # fine1}>. 0 | store f {acct # y0} | store _n3 {id # u1} | "
            "store _n4 {id # u2}) ] || Car[ GPS[ * lc?(_x10). _n1!<{_ # l1}>. 0 ] "
            "|| OBE[ * _n2?(_x11). _x11!<_n1>. 0 | * _n0!<_n1>. 0 ] || "
            "store _n1 {id # l0} ]) ]",
        ]
        forms = set()
        for text in texts:
            res = parse_system(text, env)
            assert res.ok, res.diagnostics
            forms.add(normalize(res.value))
        assert len(forms) == 1

    def test_idempotent_on_examples(self):
        p = par(new("n", None, par(NIL, POut(TName("n"), (TConst("c"),), NIL))),
                PStore("r", PrivateData(Known("id"), DConst("c"))))
        assert normalize(normalize(p)) == normalize(p)

    def test_group_siblings_sort_by_body_family(self):
        """A group around a process sorts before a group around a system,
        whatever their names, in every order of the siblings."""
        comps = ["A[ B[ 0 ] ]", "Z[ a!<c>.0 ]", "0"]
        for order in itertools.permutations(comps):
            s = parse_system(" || ".join(order)).value
            assert render_system(normalize(s)) == "Z[ a!<c>. 0 ] || A[ B[ 0 ] ]"

    def test_group_boundary_never_crossed(self):
        from privcalc.kernel import Group, SBare
        inner = Group("G", SBare(POut(TName("n"), (TConst("c"),), NIL)))
        s = par(new("n", None, inner), Group("H", SBare(NIL)))
        n = normalize(s)
        # the restriction may commute with the parallel but not enter G[...]

        def group_bodies(node):
            match node:
                case Group(_, SBare(proc)):
                    return [proc]
                case Group(_, body):
                    return group_bodies(body)
                case Block(_, comps):
                    return [b for c in comps for b in group_bodies(c)]
                case _:
                    return []
        for body in group_bodies(n):
            assert not isinstance(body, Block) or "n" not in dict(body.binders) or True
        assert "n" not in free_atoms(n)


class TestAlphaEq:
    def test_restriction(self):
        a = new("a", None, POut(TName("a"), (TConst("c"),), NIL))
        b = new("b", None, POut(TName("b"), (TConst("c"),), NIL))
        assert alpha_eq(a, b)

    def test_input_binder(self):
        a = PInp(TName("a"), (PVar("x"),), POut(TVar("x"), (TConst("c"),), NIL))
        b = PInp(TName("a"), (PVar("y"),), POut(TVar("y"), (TConst("c"),), NIL))
        assert alpha_eq(a, b)

    def test_distinct_constants(self):
        a = POut(TName("a"), (TConst("c"),), NIL)
        b = POut(TName("a"), (TConst("c2"),), NIL)
        assert not alpha_eq(a, b)

    def test_free_names_matter(self):
        a = POut(TName("a"), (TConst("c"),), NIL)
        b = POut(TName("b"), (TConst("c"),), NIL)
        assert not alpha_eq(a, b)

    def test_bound_name_differs_from_free_name(self):
        # (new a) a!<b>  has b free, (new b) b!<b>  does not
        a = new("a", None, POut(TName("a"), (TName("b"),), NIL))
        b = new("b", None, POut(TName("b"), (TName("b"),), NIL))
        assert not alpha_eq(a, b) and not alpha_eq(b, a)

    def test_input_annotations_matter(self):
        body = POut(TVar("x"), (TConst("c"),), NIL)
        a = PInp(TName("a"), (PVar("x"),), body, (TPrivate("t", "g"),))
        b = PInp(TName("a"), (PVar("x"),), body, (TPrivate("u", "g"),))
        assert not alpha_eq(a, b)
        assert alpha_eq(a, PInp(TName("a"), (PVar("y"),), POut(TVar("y"), (TConst("c"),), NIL),
                                (TPrivate("t", "g"),)))


class TestRenameName:
    def test_restriction_binding_new_name_is_renamed_away(self):
        # (new b) a!<b>  with a := b  must not capture the incoming b
        p = new("b", None, POut(TName("a"), (TName("b"),), NIL))
        out = _rewrite(p, {"a": "b"}, {})
        assert isinstance(out, Block) and len(out.binders) == 1
        name = out.binders[0][0]
        assert name not in ("a", "b")
        assert out.comps == (POut(TName("b"), (TName(name),), NIL),)
        assert free_atoms(out) == {"b"}

    def test_restriction_binding_old_name_stops_renaming(self):
        inner = new("a", None, POut(TName("a"), (TConst("c"),), NIL))
        p = par(POut(TName("a"), (TConst("c"),), NIL), inner)
        assert _rewrite(p, {"a": "z"}, {}) == par(POut(TName("z"), (TConst("c"),), NIL), inner)

    def test_bare_terms(self):
        assert _rewrite(TName("a"), {"a": "z"}, {}) == TName("z")
        assert _rewrite(TDual("a"), {"a": "z"}, {}) == TDual("z")
        assert _rewrite(TName("b"), {"a": "z"}, {}) == TName("b")


# --- property tests over generated terms -------------------------------------

def _gen_process(rng: random.Random, depth: int, bound: list[str]):
    names = ["a", "b", "r"]
    consts = ["c", "d"]
    if depth == 0:
        return NIL
    kind = rng.randrange(7)
    if kind == 0:
        return NIL
    if kind == 1:
        obj = rng.choice(
            [TConst(rng.choice(consts)), priv(Known("id"), rng.choice(consts)),
             priv(HIDDEN, rng.choice(consts))]
            + ([TVar(rng.choice(bound))] if bound else []))
        return POut(TName(rng.choice(names)), (obj,),
                    _gen_process(rng, depth - 1, bound))
    if kind == 2:
        v = f"x{rng.randrange(100)}"
        pat = rng.choice([PVar(v), PPair(v, v + "d"), PAnon(v)])
        vs = [v, v + "d"] if isinstance(pat, PPair) else [v]
        return PInp(TName(rng.choice(names)), (pat,),
                    _gen_process(rng, depth - 1, bound + vs))
    if kind == 3:
        n = f"n{rng.randrange(100)}"
        return new(n, None, _gen_process(rng, depth - 1, bound))
    if kind == 4:
        return par(_gen_process(rng, depth - 1, bound),
                   _gen_process(rng, depth - 1, bound))
    if kind == 5:
        return PRepl(_gen_process(rng, depth - 1, bound))
    return PIf("=", TConst(rng.choice(consts)), TConst(rng.choice(consts)),
               _gen_process(rng, depth - 1, bound),
               _gen_process(rng, depth - 1, bound))


_REUSED = ("a", "b", "c", "d")


def _gen_proc_text(rng: random.Random, depth: int) -> str:
    """Process text over four tokens that serve as subjects, objects,
    restricted names and input variables alike, so binders shadow each
    other and blocks use names bound around them."""
    def tok():
        return rng.choice(_REUSED)

    def sub():
        return _gen_proc_text(rng, depth - 1)

    kind = rng.randrange(8) if depth > 0 else 0
    if kind == 0:
        return "0"
    if kind == 1:
        return f"{tok()}!<{tok()}>. {sub()}"
    if kind == 2:
        return f"{tok()}?({tok()}). {sub()}"
    if kind == 3:
        return f"(new {tok()}) {sub()}"
    if kind == 4:
        return f"({sub()} | {sub()})"
    if kind == 5:
        return f"({sub()} | {sub()} | {sub()})"
    if kind == 6:
        return f"* {sub()}"
    return f"if {tok()} = k then {sub()} else {sub()}"


def _gen_system_text(rng: random.Random, depth: int) -> str:
    kind = rng.randrange(4) if depth > 0 else 0
    if kind == 0:
        return f"G{rng.randrange(2)}[ {_gen_proc_text(rng, 4)} ]"
    if kind == 1:
        return f"H[ {_gen_system_text(rng, depth - 1)} ]"
    if kind == 2:
        return f"{_gen_system_text(rng, depth - 1)} || {_gen_system_text(rng, depth - 1)}"
    return f"(new {rng.choice(_REUSED)}) ({_gen_system_text(rng, depth - 1)})"


def _idempotence_inputs():
    rng = random.Random(7)
    for _ in range(300):
        yield _gen_process(rng, 4, [])
    for seed in range(2000):
        res = parse_system(_gen_system_text(random.Random(seed), 3))
        assert res.ok, res.diagnostics
        yield res.value


def test_normalize_idempotent_fuzz():
    # n's kept normal form would answer the second call from the first; a
    # copy of n keeps nothing, so both calls run the single normalizing
    # pass. The renamings kept on n's components still answer, so a
    # renaming that walks every component checks them.
    for p in _idempotence_inputs():
        n = normalize(p)
        assert normalize(kernel_oracles.rebuild(n)) == n, p
        assert kernel_oracles.canonical_rename(n) is n, p


def _inputs(p):
    match p:
        case PInp(_, _, cont):
            yield p
            yield from _inputs(cont)
        case POut(_, _, cont):
            yield from _inputs(cont)
        case PRepl(body):
            yield from _inputs(body)
        case Block(_, comps):
            for c in comps:
                yield from _inputs(c)
        case PIf(_, _, _, l, r):
            yield from _inputs(l)
            yield from _inputs(r)


def test_normalize_keeps_free_atoms_under_substitution():
    # receiving a name substitutes it under the inputs of the continuation,
    # some of which bind a variable of the same token: the name stays free
    checked = 0
    for seed in range(1000):
        res = parse_process(_gen_proc_text(random.Random(seed), 5))
        assert res.ok, res.diagnostics
        for inp in _inputs(res.value):
            for tok in _REUSED:
                try:
                    t = substitute(inp.cont, TName(tok), inp.patterns[0])
                except IncompatibleSubstitution:
                    continue
                n = normalize(t)
                assert free_atoms(n) == free_atoms(t), t
                assert normalize(kernel_oracles.rebuild(n)) == n, t
                checked += 1
    assert checked > 4000


def _subterms(root):
    """The root and every process and system node below it."""
    stack, out = [root], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(kernel.children(node))
    return out


def test_with_children_inverts_children(corpus):
    roots = [system for _, _, system in corpus.values()]
    roots += [s for _, _, system in corpus.values() for s in explore(system, 4).nodes.values()]
    roots += [gen.random_system(random.Random(seed)) for seed in range(100)]
    checked = 0
    for node in {id(n): n for root in roots for n in _subterms(root)}.values():
        kids = kernel.children(node)
        assert kernel.with_children(node, kids) is node
        assert kernel.with_children(node, tuple(list(kids))) is node
        fresh = tuple(kernel.Group("Z", k) if kernel.is_system(k) else PRepl(k) for k in kids)
        moved = kernel.with_children(node, fresh)
        assert type(moved) is type(node) and moved.span == node.span
        assert kernel.children(moved) == fresh
        assert all(a is b for a, b in zip(kernel.children(moved), fresh))
        assert (moved is node) == (not kids)
        checked += 1
    assert checked > 1000
    with pytest.raises(KernelError):
        kernel.with_children(TName("a"), ())


def test_substitution_shares_untouched_nodes(corpus):
    # substituting for a variable that is not free changes nothing, so the
    # walk hands back each node itself, binder pairs and all
    checked = 0
    for _, _, system in corpus.values():
        for node in _subterms(system):
            if kernel.is_system(node):
                continue
            v = kernel.fresh_name("v", free_atoms(node))
            assert substitute(node, TConst("z"), PVar(v)) is node
            checked += 1
    assert checked > 100
    # a component the variable does not reach survives as itself
    untouched = PInp(TName("b"), (PVar("x"),), POut(TVar("x"), (TConst("k"),), NIL))
    block = Block((("a", None),), (POut(TName("a"), (TVar("v"),), NIL), untouched))
    out = substitute(block, TConst("z"), PVar("v"))
    assert out.comps[0] == POut(TName("a"), (TConst("z"),), NIL)
    assert out.comps[1] is untouched and out.binders[0] is block.binders[0]


def test_substitution_free_vars_inclusion():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        p = _gen_process(rng, 4, ["x0", "x0d"])
        v = priv(Known("id"), "c")
        k = PPair("x0", "x0d")
        out = substitute(p, v, k)
        assert free_vars(out) <= (free_vars(p) - {"x0", "x0d"}) | free_vars(v)
        checked += 1
    assert checked == 300


def _apply_axiom(rng: random.Random, p):
    """Rewrite one structural-congruence axiom somewhere in the term."""
    choice = rng.randrange(6)
    match p:
        case Block((), (l, *rest)):
            r = par(*rest)
            if choice == 0:
                return par(r, l)
            if choice == 1:
                return par(l, par(r, NIL))
            match l:
                case Block((), (ll, *lr)) if choice == 2:
                    return par(ll, par(*lr, r))
            return par(_apply_axiom(rng, l), r)
        case Block(((n, a),), (body,)):
            if choice == 0 and body == NIL:
                return NIL
            if choice == 1:
                # alpha-rename the binder
                from privcalc.kernel import fresh_name, free_atoms
                n2 = fresh_name(n + "z", free_atoms(body))
                return new(n2, a, _rewrite(body, {n: n2}, {}))
            return new(n, a, _apply_axiom(rng, body))
        case POut(_, _, cont):
            return p.__class__(p.subject, p.objects, _apply_axiom(rng, cont))
        case PRepl(body):
            return PRepl(_apply_axiom(rng, body))
        case PNil():
            if choice == 0:
                return par(p, NIL)
            if choice == 1:
                return new("zz", None, NIL)
            return p
        case _:
            return p


def test_normalize_respects_axioms_fuzz():
    rng = random.Random(13)
    for _ in range(400):
        p = _gen_process(rng, 4, [])
        q = _apply_axiom(rng, p)
        assert normalize(p) == normalize(q), (p, q)


def test_normalize_canonical_under_alpha():
    rng = random.Random(17)
    for _ in range(200):
        p = _gen_process(rng, 4, [])
        n = normalize(p)
        q = _apply_axiom(rng, _apply_axiom(rng, p))
        assert alpha_eq(n, normalize(q)) and n == normalize(q)
        c = _canonical_rename(p)
        assert alpha_eq(p, c) and _canonical_rename(c) == c


def test_kept_renaming_answers_only_its_own_start():
    """A component's renaming, kept on it, answers only a renaming that
    starts it at the same position with the same names to skip, and only
    when the binders around it leave its free atoms alone."""
    def out(n):
        return POut(TName(n), (TConst("c"),), NIL)

    c = new("a", None, POut(TName("a"), (TName("b"),), NIL))
    contexts = [
        par(c, out("k")),
        new("d", None, par(out("d"), c)),  # c starts at position 1
        new("b", None, par(c, out("b"))),  # there too, but b is renamed in c
        par(c, out("_n0")),  # _n0 is free, so c's binder skips it
    ]
    for t in contexts * 2:
        assert _canonical_rename(t) == kernel_oracles.canonical_rename(t), t


_CONTAINER_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_CONTAINER_TYPES = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
                    "Counter", "deque"}


def _module_tables(tree: ast.Module) -> list[str]:
    """The names a module binds, outside any function or class, to a
    mutable container: a list, dict or set display or comprehension, or a
    call of a mutable container type; and every `global` statement, by
    which a function could rebind a module name."""
    found = [f"global:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Global)]

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                value = node.value
                call = getattr(value, "func", None)
                called = getattr(call, "id", None) or getattr(call, "attr", None)
                if isinstance(value, _CONTAINER_DISPLAYS) or called in _CONTAINER_TYPES:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.extend(n.id for t in targets for n in ast.walk(t)
                                 if isinstance(n, ast.Name) and n.id != "__all__")
            for block in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, block, ()))

    visit(tree.body)
    return found


def test_kernel_and_step_engine_keep_no_module_table():
    """What the kernel and the step engine compute is kept on the nodes it
    is about, so neither module binds a mutable container at module level
    (`__all__` excepted): a table there would be shared by every caller in
    the process and would outlive the terms it is about."""
    for snippet, names in (("x = {}", ["x"]), ("x: dict = dict()", ["x"]),
                           ("if c:\n    x = [k for k in y]", ["x"]),
                           ("try:\n    pass\nexcept E:\n    x = set()", ["x"]),
                           ("def f():\n    global x\n    x = {}", ["global:2"]),
                           ("__all__ = []\nx = ()\ndef f():\n    y = {}", [])):
        assert _module_tables(ast.parse(snippet)) == names, snippet
    for module in (kernel, semantics):
        path = pathlib.Path(module.__file__)
        assert _module_tables(ast.parse(path.read_text(), str(path))) == [], path.name


class TestRecords:
    """What the code relies on from its record classes: construction,
    validation, structural equality blind to spans, a hash over the
    compared fields, immutability, `replace`, `repr` and `match`."""

    SPAN = kernel.Span(1, 2, 3, 4)

    def test_repr_pinned(self):
        from privcalc.policy import disseminate
        from privcalc.safety import ErrorFinding, ScanReport
        from privcalc.semantics import StateGraph
        sp = self.SPAN
        assert repr(sp) == "Span(line=1, col=2, end_line=3, end_col=4)"
        out = POut(TName("a"), (priv(Known("id"), "c"),), NIL, span=sp)
        assert repr(out) == (
            "POut(subject=TName(name='a'), objects=(TPriv(pdata=PrivateData("
            "identity=Known(ident='id'), data=DConst(token='c'))),), cont=PNil())")
        inp = PInp(TVar("x"), (PPair("i", "d"), PAnon("v")), PNil(sp),
                   (None, TChan("G", (TPrivate("t", "g"),))))
        assert repr(inp) == (
            "PInp(subject=TVar(name='x'), patterns=(PPair(id_var='i', data_var='d'), "
            "PAnon(data_var='v')), cont=PNil(), annots=(None, TChan(group='G', "
            "payload=(TPrivate(ptype='t', ground='g'),))))")
        assert repr(kernel.Group("G", kernel.SBare(NIL))) == \
            "Group(group='G', body=SBare(body=PNil()))"
        assert repr(HIDDEN) == "Hidden()"
        assert repr(disseminate("G", 2)) == (
            "Perm(kind='disseminate', group='G', lam=Lambda(count=2), nd_kind=None, "
            "purpose=None, ptype=None)")
        assert repr(ErrorFinding(1, "t", ("G",), "read", "a!<b>", sp)) == (
            "ErrorFinding(clause=1, ptype='t', group_path=('G',), permission='read', "
            "subterm='a!<b>', span=Span(line=1, col=2, end_line=3, end_col=4))")
        assert repr(ScanReport()) == \
            "ScanReport(states=0, findings=[], truncated=False, unchecked=[])"
        assert repr(StateGraph("k")) == \
            "StateGraph(root='k', nodes={}, edges=[], truncated=False, depths={})"

    def test_construction(self):
        from privcalc.policy import Perm
        from privcalc.safety import ScanReport
        assert PInp(TVar("x"), (PVar("y"),), NIL) == \
            PInp(subject=TVar("x"), cont=NIL, patterns=(PVar("y"),), annots=())
        assert Perm("usage", purpose="p").group is None
        a, b = ScanReport(), ScanReport()
        a.findings.append(("k", None))
        assert b.findings == [] and a.states == 0
        with pytest.raises(TypeError):
            TName()
        with pytest.raises(TypeError):
            TName("a", "b")
        with pytest.raises(TypeError):
            TName("a", name="b")
        with pytest.raises(TypeError):
            TName(nom="a")

    def test_equality_and_hash_ignore_span(self):
        from privcalc.safety import ErrorFinding
        a = POut(TName("a"), (TConst("c"),), PNil(self.SPAN), span=self.SPAN)
        b = POut(TName("a"), (TConst("c"),), NIL)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        f = ErrorFinding(1, "t", ("G",), "read", "x", self.SPAN)
        g = ErrorFinding(1, "t", ("G",), "read", "x")
        assert f == g and hash(f) == hash(g)
        assert a != POut(TName("b"), (TConst("c"),), NIL)
        assert TName("a") != TVar("a") and TName("a") != "a"

    def test_hash_is_tuple_of_compared_fields(self):
        out = POut(TName("a"), (TConst("c"),), NIL, span=self.SPAN)
        block = kernel.Block((("n", None),), (out, NIL))
        for node, fields in [
            (TName("a"), ("a",)),
            (NIL, ()),
            (HIDDEN, ()),
            (self.SPAN, (1, 2, 3, 4)),
            (out, (TName("a"), (TConst("c"),), NIL)),
            (block, ((("n", None),), (out, NIL))),
        ]:
            assert hash(node) == hash(fields)
            assert hash(node) == hash(fields)  # a second call, served from the node

    def test_replace_validates_and_rehashes(self):
        out = POut(TName("a"), (TConst("c"),), NIL, span=self.SPAN)
        hash(out)
        with pytest.raises(KernelError):
            kernel.replace(out, objects=())
        moved = kernel.replace(out, subject=TName("b"))
        fresh = POut(TName("b"), (TConst("c"),), NIL)
        assert moved == fresh and hash(moved) == hash(fresh) != hash(out)
        assert moved.span == self.SPAN and out.subject == TName("a")
        with pytest.raises(TypeError):
            kernel.replace(out, nothing=1)
        # a frozen record whose changed fields get their current values back
        # is returned itself: the same objects, or a tuple of the same ones
        assert kernel.replace(out, cont=out.cont) is out
        same = tuple(list(out.objects))
        assert same is not out.objects
        assert kernel.replace(out, objects=same, subject=out.subject) is out
        assert kernel.replace(out, cont=PNil()) is not out
        assert kernel.replace(out, objects=(TConst("c"),)) is not out
        # a mutable record still gets a copy
        report = CorrespondenceReport()
        copy = kernel.replace(report, failures=report.failures)
        assert copy is not report and copy == report

    def test_frozen(self):
        out = POut(TName("a"), (TConst("c"),), NIL)
        with pytest.raises(AttributeError):
            out.cont = NIL
        with pytest.raises(AttributeError):
            del out.cont
        with pytest.raises(AttributeError):
            self.SPAN.line = 5
        assert out.cont == NIL and self.SPAN.line == 1

    def test_match_args(self):
        assert POut.__match_args__ == ("subject", "objects", "cont", "span")
        assert PNil.__match_args__ == ("span",)
        node = kernel.Group("G", kernel.SBare(POut(TName("a"), (TConst("c"),), NIL)))
        match node:
            case kernel.Group(g, kernel.SBare(POut(TName(s), (TConst(c),), PNil()))):
                assert (g, s, c) == ("G", "a", "c")
            case _:
                pytest.fail("no arm matched")

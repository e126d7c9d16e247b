import ast
import functools
import pathlib
import random
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import pytest

from privcalc import syntax
from privcalc.kernel import (
    Block, DConst, HIDDEN, Known, NIL, PAnon, PIf, PInp, PNil, POut, PPair,
    PRepl, PStore, PVar, PrivateData, Group, SBare, TChan,
    TConst, TName, TPriv, TPrivate, TPurpose, TVar, children,
)
from privcalc.syntax import (
    PERM_WORDS, RESERVED, Gamma, LexError, _lex, parse_env, parse_policy,
    parse_process, parse_system, render_env, render_policy, render_process,
    render_system,
)

from gen import new, par


class TestParseSystem:
    def test_lab_line(self):
        res = parse_system(
            "Hospital[ Lab[ b?(w). w?(x # y). r?(_ # z). "
            "if y = z then c!<w>.0 else 0 ] ]")
        assert res.ok
        sys = res.value
        assert isinstance(sys, Group) and sys.group == "Hospital"
        lab = sys.body
        assert isinstance(lab, Group) and lab.group == "Lab"
        assert isinstance(lab.body, SBare)
        inp = lab.body.body
        assert isinstance(inp, PInp) and inp.patterns == (PVar("w"),)
        second = inp.cont
        assert isinstance(second, PInp) and second.patterns == (PPair("x", "y"),)
        third = second.cont
        assert isinstance(third, PInp) and third.patterns == (PAnon("z"),)
        cond = third.cont
        assert isinstance(cond, PIf) and cond.op == "="

    def test_nil(self):
        res = parse_system("0")
        assert res.ok and res.value == SBare(NIL)

    def test_input_power_expands(self):
        res = parse_process("(r?(x # y))^2 p!<r>. 0")
        assert res.ok
        p = res.value
        assert isinstance(p, PInp) and isinstance(p.cont, PInp)
        assert p.subject == p.cont.subject == TName("r")
        assert isinstance(p.cont.cont, POut)

    def test_tensor_alias(self):
        a = parse_process("r?(x ⊗ y). 0")
        b = parse_process("r?(x # y). 0")
        assert a.ok and b.ok and a.value == b.value

    def test_store_literal_reference(self):
        res = parse_process("a?(x). store x {id # c}")
        assert not res.ok
        assert "variable" in res.diagnostics[0].message

    def test_dual_object_rejected(self):
        res = parse_process("a!<~r>. 0")
        assert not res.ok

    def test_annotations(self):
        res = parse_process("(new r : Car[vehicle_data<speed>]) store r {id # c}")
        assert res.ok
        assert res.value.binders[0][1] == TChan("Car", (TPrivate("vehicle_data", "speed"),))

    def test_group_versus_prefix(self):
        res = parse_system("G[ a!<c>. 0 ] || H[ 0 ]")
        assert res.ok
        assert isinstance(res.value, Block) and not res.value.binders

    def test_diagnostic_has_span(self):
        res = parse_system("G[ a!<c> ]")
        assert not res.ok
        d = res.diagnostics[0]
        assert d.span.line >= 1 and d.span.col >= 1

    def test_input_power_error_at_its_subject(self):
        """An input power's inputs are built like a prefix's, so a
        constructor's error points at the input's first token."""
        res = parse_system("\n  (a?(x, x))^2 0")
        assert [str(d) for d in res.diagnostics] == [
            "error: 2:4-2:5: pattern variable x bound twice in one input"]

    def test_unbraced_private_data_error_at_its_identity(self):
        res = parse_system("\n  a?(x). b!<x # c>. 0")
        assert [str(d) for d in res.diagnostics] == [
            "error: 2:13-2:14: ill-formed private data IVar(name='x')#DConst(token='c')"]

    def test_input_power_typing_error_located(self):
        from privcalc.typesys import TypingError, type_system
        with pytest.raises(TypingError) as e:
            type_system(Gamma(), parse_system("G[(q?(x))^2 0]").value)
        assert str(e.value) == "UnboundTerm at 1:4-1:5: subject q is not typed"


class TestParsePolicy:
    def test_two_level_hierarchy(self):
        res = parse_policy(
            "private patient_data >> Hospital {} "
            "[ Nurse {reference, disseminate Hospital inf} ]")
        assert res.ok
        h = res.value.lookup("patient_data")
        assert h.group == "Hospital" and not h.perms
        assert h.children[0].group == "Nurse" and len(h.children[0].perms) == 2

    def test_empty_file(self):
        res = parse_policy("")
        assert not res.ok
        assert "at least one private type" in res.diagnostics[0].message

    def test_nondisclose_root(self):
        res = parse_policy("private loc >> ETP {nondisclose sensitive} [ Car {} ]")
        assert res.ok
        from privcalc.policy import nondisclose
        assert nondisclose("sensitive") in res.value.lookup("loc").perms


class TestParseEnv:
    def test_reference_entry(self):
        res = parse_env("r : Police[crime<dna>]")
        assert res.ok
        assert res.value.atom_type("r") == TChan("Police", (TPrivate("crime", "dna"),))

    def test_empty(self):
        res = parse_env("")
        assert res.ok and len(res.value) == 0

    def test_purpose_constant(self):
        res = parse_env("overLim : Limit<Speed>")
        assert res.ok
        assert res.value.atom_type("overLim") == TPurpose("Limit", "Speed")

    def test_private_entries(self):
        res = parse_env("{john # dna1} : patient_data<dna>\n"
                        "{_ # dna2} : crime<dna>")
        assert res.ok
        g = res.value
        assert g.priv_type(Known("john"), DConst("dna1")).ptype == "patient_data"
        assert g.priv_type(HIDDEN, DConst("dna2")).ptype == "crime"

    def test_duplicate_rejected(self):
        res = parse_env("a : G[t<g>]\na : G[t<g>]")
        assert not res.ok

    def test_purpose_payload_resolved_by_evidence(self):
        res = parse_env("k : Limit<Speed>\nch : G[Limit<Speed>]")
        assert res.ok
        assert res.value.atom_type("ch") == TChan("G", (TPurpose("Limit", "Speed"),))


# --- round trips ------------------------------------------------------------------

class _AstGen:
    """Random systems whose token classification is stable under reparse:
    constants never appear as subjects, and every name in object position is
    also restriction-bound or used as a subject."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = 0

    def fresh(self, base: str) -> str:
        self.n += 1
        return f"{base}{self.n}"

    def term(self, bound_vars, names, nu_names):
        r = self.rng.random()
        if bound_vars and r < 0.25:
            return TVar(self.rng.choice(bound_vars))
        if r < 0.5 or not nu_names:
            return TConst(self.rng.choice(["c1", "c2", "42"]))
        if r < 0.75:
            return TPriv(PrivateData(
                self.rng.choice([Known("idA"), HIDDEN]),
                DConst(self.rng.choice(["c1", "c2"]))))
        # names in non-subject positions need binder evidence to reparse
        return TName(self.rng.choice(nu_names))

    def process(self, depth, bound_vars, names, nu_names):
        if depth <= 0:
            return NIL
        k = self.rng.randrange(8)
        if k == 0:
            return NIL
        if k == 1:
            objs = tuple(self.term(bound_vars, names, nu_names)
                         for _ in range(self.rng.randrange(1, 3)))
            return POut(TName(self.rng.choice(names)), objs,
                        self.process(depth - 1, bound_vars, names, nu_names))
        if k == 2:
            v = self.fresh("x")
            pat = self.rng.choice([PVar(v), PPair(v, self.fresh("y")), PAnon(v)])
            from privcalc.kernel import placeholder_vars
            return PInp(TName(self.rng.choice(names)), (pat,),
                        self.process(depth - 1,
                                     bound_vars + list(placeholder_vars(pat)),
                                     names, nu_names))
        if k == 3:
            n = self.fresh("nu")
            return new(n, None, self.process(depth - 1, bound_vars,
                                              names + [n], nu_names + [n]))
        if k == 4:
            return par(self.process(depth - 1, bound_vars, names, nu_names),
                       self.process(depth - 1, bound_vars, names, nu_names))
        if k == 5:
            return PRepl(self.process(depth - 1, bound_vars, names, nu_names))
        if k == 6:
            return PStore(self.rng.choice(names),
                          PrivateData(Known("idA"), DConst("c1")))
        return PIf(self.rng.choice(["=", ">"]),
                   self.term(bound_vars, names, nu_names),
                   self.term(bound_vars, names, nu_names),
                   self.process(depth - 1, bound_vars, names, nu_names),
                   self.process(depth - 1, bound_vars, names, nu_names))

    def system(self, depth):
        k = self.rng.randrange(4)
        if k == 0 or depth <= 0:
            return Group(self.rng.choice(["G", "H"]),
                         SBare(self.process(3, [], ["a", "b"], [])))
        if k == 1:
            return par(self.system(depth - 1), self.system(depth - 1))
        if k == 2:
            n = self.fresh("m")
            # restricted names gain name evidence at the binder
            return new(n, None,
                       Group("G", SBare(self.process(3, [], ["a", n], [n]))))
        return Group("Outer", self.system(depth - 1))


def test_round_trip_generated_systems():
    rng = random.Random(23)
    gen = _AstGen(rng)
    for i in range(300):
        sys0 = gen.system(2)
        text = render_system(sys0)
        res = parse_system(text)
        assert res.ok, (text, [str(d) for d in res.diagnostics])
        assert res.value == sys0, text


def test_round_trip_corpus_files():
    from conftest import CORPUS, NAMES
    for name in NAMES:
        gamma = parse_env((CORPUS / f"{name}.env").read_text()).value
        sys0 = parse_system((CORPUS / f"{name}.pc").read_text(), gamma).value
        again = parse_system(render_system(sys0), gamma)
        assert again.ok and again.value == sys0

        pol = parse_policy((CORPUS / f"{name}.ppo").read_text()).value
        assert parse_policy(render_policy(pol)).value == pol

        assert parse_env(render_env(gamma)).value.atoms == gamma.atoms


def test_rebound_entries_render_once():
    # each binding used to append an entry, so a rebound token was rendered
    # twice and the rendering was rejected as a duplicate entry
    first, latest = TPurpose("Limit", "Speed"), TChan("G", (TPrivate("t", "g"),))
    g = (Gamma().bind_atom("x", first).bind_priv(Known("id"), DConst("c"), TPrivate("t", "g"))
         .bind_atom("k", first).bind_atom("x", latest)
         .bind_priv(Known("id"), DConst("c"), TPrivate("u", "g")))
    text = render_env(g)
    assert text.splitlines() == ["x : G[t<g>]", "{id # c} : u<g>", "k : Limit<Speed>"]
    again = parse_env(text)
    assert again.ok, again.diagnostics
    assert again.value.entries() == g.entries()
    assert again.value.atom_type("x") == latest


def test_parse_env_builds_each_table_once(monkeypatch):
    """`parse_env` builds the environment's tables in one pass, as the
    constructor does, and copies none per entry: the environment equals
    the one that binding each entry in turn gives."""
    bound = []
    real = Gamma._bound

    def counted(self, *args):
        bound.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(Gamma, "_bound", counted)
    n = 4000
    text = "".join(f"c{i} : G[t<g>]\n{{id{i} # d{i}}} : t<g>\n" for i in range(n // 2))
    res = parse_env(text)
    assert res.ok and len(res.value) == n and bound == []
    reference = Gamma()
    for kind, key, ty in res.value.entries():
        reference = (reference.bind_atom(key, ty) if kind == "atom"
                     else reference.bind_priv(Known(key[0]), DConst(key[1]), ty))
    assert len(bound) == n
    assert (reference.entries(), reference.atoms, reference.privs) == (
        res.value.entries(), res.value.atoms, res.value.privs)


def test_constructor_rebinds_as_bind_does():
    """A later entry for a key replaces the type of the earlier one and
    keeps its place, as binding it again does."""
    first, latest = TPurpose("Limit", "Speed"), TChan("G", (TPrivate("t", "g"),))
    entries = [("atom", "x", first), ("priv", ("id", "c"), TPrivate("t", "g")),
               ("atom", "x", latest)]
    g = Gamma(entries)
    bound = (Gamma().bind_atom("x", first).bind_priv(Known("id"), DConst("c"), TPrivate("t", "g"))
             .bind_atom("x", latest))
    assert g.entries() == bound.entries() == [("atom", "x", latest), entries[1]]
    assert (g.atoms, g.privs) == (bound.atoms, bound.privs) == (
        {"x": latest}, {("id", "c"): TPrivate("t", "g")})


_GAMMA_TABLES = {"atoms", "privs", "_order"}
_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__",
             "__delitem__", "__ior__"}


def _table_writes(tree: ast.AST) -> list[int]:
    """Lines that write an environment table outside class `Gamma`: an
    assignment or deletion of `x.atoms`, `x.privs` or `x._order` or of an
    item of one, a mutating method called on one, or a `setattr` of one."""

    def table(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in _GAMMA_TABLES

    def written(target) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(written, target.elts))
        if isinstance(target, ast.Starred):
            return written(target.value)
        return table(target) or (isinstance(target, ast.Subscript) and table(target.value))

    lines = []

    def visit(node, in_gamma: bool):
        if isinstance(node, ast.ClassDef):
            in_gamma = node.name == "Gamma"
        if not in_gamma:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr in _MUTATORS and table(f.value):
                    lines.append(node.lineno)
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if ("setattr" in name and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)
                        and node.args[1].value in _GAMMA_TABLES):
                    lines.append(node.lineno)
            if any(map(written, targets)):
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_gamma)

    visit(tree, False)
    return lines


def test_no_environment_table_is_written_outside_gamma():
    """An environment is immutable, which makes it a sound key for the
    typing kept on a system: no code in the package, the tests or the
    benchmark writes its tables except `Gamma`'s own methods."""
    root = pathlib.Path(__file__).resolve().parent.parent
    for snippet in ("g.atoms['x'] = t", "g.privs = {}", "del g._order[k]",
                    "g.atoms.update(x)", "a, g.privs[k] = 1, 2", "g.atoms |= x",
                    "object.__setattr__(g, 'atoms', {})", "g._order.setdefault(k, t)"):
        assert _table_writes(ast.parse(snippet)) == [1], snippet
    assert _table_writes(ast.parse("class Gamma:\n def f(self):\n  self.atoms = {}")) == []
    writes = []
    for path in sorted([*root.glob("src/privcalc/*.py"), *root.glob("tests/*.py"),
                        *root.glob("perfbench/*.py")]):
        writes += [f"{path.name}:{line}"
                   for line in _table_writes(ast.parse(path.read_text(), str(path)))]
    assert writes == []


def test_fuzz_never_crashes():
    rng = random.Random(31)
    alphabet = "ab{}[]<>()#!?.|*=~^:;_ \n⊗privatenewstoreifthenelse0123"
    for i in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        for parser in (parse_system, parse_policy, parse_env):
            res = parser(text)
            assert res.value is not None or res.diagnostics


def test_fuzz_byte_noise():
    rng = random.Random(37)
    for i in range(1000):
        text = bytes(rng.randrange(32, 255) for _ in range(rng.randrange(0, 40)))
        text = text.decode("latin-1")
        for parser in (parse_system, parse_policy, parse_env):
            res = parser(text)
            assert res.value is not None or res.diagnostics


# --- diagnostics golden -------------------------------------------------------------

# One malformed input per error the four parsers can report, and the entry
# checks of environments. `corpus/golden/diagnostics` holds `str(d)` of every
# diagnostic each gives.
DIAGNOSTIC_CASES = [
    # lexer
    (parse_system, "a!<c>. 0 $"),
    # tokens the grammar expects
    (parse_system, "G[ a!<c> ]"),
    (parse_system, "a!<c. 0"),
    (parse_system, "(a!<c>. 0"),
    (parse_system, "a!<_ c>. 0"),
    (parse_system, "(new 0) 0"),
    (parse_system, "(new if) 0"),
    (parse_system, "~!<c>. 0"),
    (parse_system, "a!<~>. 0"),
    (parse_system, "0 0"),
    (parse_system, "G[ 0 ] | 0"),
    (parse_system, ""),
    (parse_system, "a!<c>. )"),
    (parse_system, "a. 0"),
    (parse_process, "G[ 0 ]"),
    # type expressions
    (parse_system, "(new a : 0) 0"),
    (parse_system, "(new a : G<>) 0"),
    (parse_system, "(new a : G) 0"),
    (parse_system, "(new a : G[t<g>) 0"),
    (parse_system, "a?(x : G). 0"),
    # private data and terms
    (parse_system, "a!<{x # !}>. 0"),
    (parse_system, "a!<{1 # c}>. 0"),
    (parse_system, "a!<1 # c>. 0"),
    (parse_system, "a!<{x # _}>. 0"),
    (parse_system, "a!<{x c}>. 0"),
    (parse_system, "a!<~r>. 0"),
    (parse_system, "\n  a?(x). b!<{x # c}>. 0"),
    (parse_system, "\n  a?(x). b!<x # c>. 0"),
    (parse_system, "\n  a?(x). b!<{c # x}>. 0"),
    # patterns and inputs
    (parse_system, "a?(x # x). 0"),
    (parse_system, "a?(_ x). 0"),
    (parse_system, "\n  a?(x, x). 0"),
    (parse_system, "\n  (a?(x, x))^2 0"),
    (parse_system, "(a?(x))^0 0"),
    (parse_system, "(a?(x))^b 0"),
    (parse_system, "(a?(x)) 0"),
    (parse_system, "(a!<c>)^2 0"),
    # conditions and stores
    (parse_system, "if a 0"),
    (parse_system, "if a = b 0"),
    (parse_system, "if a = b then 0 0"),
    (parse_system, "\n  if ~r = a then 0 else 0"),
    (parse_system, "\n  a?(x). if {c # x} = a then 0 else 0"),
    (parse_system, "a?(x). store x {c # d}"),
    (parse_system, "\n  a?(x). store r {_ # x}"),
    # restrictions and groups at system level
    (parse_system, "(new a) 0 | 0"),
    (parse_system, "new a. 0 | 0"),
    (parse_system, "G[ (new a) (0 || 0) | 0 ]"),
    (parse_system, "(G[ 0 ])^2"),
    # nesting
    (parse_system, "(" * 2000 + "0" + ")" * 2000),
    (parse_policy, "private t >> " + "G {} [" * 2000),
    (parse_env, "a : " + "G[" * 2000 + "t<g>" + "]" * 2000),
    # policies
    (parse_policy, ""),
    (parse_policy, "foo"),
    (parse_policy, "private t G {}"),
    (parse_policy, "private t >> G {foo}"),
    (parse_policy, "private t >> G {read"),
    (parse_policy, "private t >> G {disseminate H 0}"),
    (parse_policy, "private t >> G {disseminate H x}"),
    (parse_policy, "private t >> G {nondisclose x}"),
    (parse_policy, "private t >> G {usage 0}"),
    (parse_policy, "private t >> G {} [ H {} "),
    (parse_policy, "private t >> G {} $"),
    # environments
    (parse_env, "# : t<g>"),
    (parse_env, "{a # <} : t<g>"),
    (parse_env, "{a} : t<g>"),
    (parse_env, "_ : t<g>"),
    (parse_env, "a t<g>"),
    (parse_env, "a : G"),
    (parse_env, "a : G<>"),
    (parse_env, "a : G[t<g>"),
    (parse_env, "a : 0"),
    (parse_env, "a : G[t<g>] $"),
    # entry checks
    (parse_env, "a : G[t<g>]\na : G[t<g>]"),
    (parse_env, "{x # c} : t<g>\n{x # c} : t<g>"),
    (parse_env, "{_ # c} : t<g>\n{_ # c} : t<g>"),
    (parse_env, "{x # c} : G[t<g>]"),
    (parse_env, "{x # c} : t<g>\na : t<g>"),
    (parse_env, "a : G[t<g>]\na : G[t<g>]\n{x # c} : G[t<g>]\nb : t<g>\n{y # d} : t<g>"),
]

# the environment texts of the tests above, besides the corpus files
ENV_TEXTS = [
    "r : Police[crime<dna>]",
    "",
    "overLim : Limit<Speed>",
    "{john # dna1} : patient_data<dna>\n{_ # dna2} : crime<dna>",
    "a : G[t<g>]\na : G[t<g>]",
    "k : Limit<Speed>\nch : G[Limit<Speed>]",
]


def _shown(text: str) -> str:
    return repr(text) if len(text) <= 60 else f"{text[:30]!r} + {len(text) - 30} chars"


def diagnostics_transcript() -> str:
    """Each malformed input with its diagnostics, then each environment's
    atoms and private entries by `repr`, which tells a purpose sort from a
    private one."""
    from conftest import CORPUS
    lines = []
    for parser, text in DIAGNOSTIC_CASES:
        lines.append(f"{parser.__name__} {_shown(text)}")
        lines += [f"  {d}" for d in parser(text).diagnostics]
    envs = [(f"corpus/{p.name}", p.read_text()) for p in sorted(CORPUS.glob("*.env"))]
    for label, text in envs + [(_shown(t), t) for t in ENV_TEXTS]:
        res = parse_env(text)
        lines.append(f"parse_env {label}")
        if res.ok:
            lines.append(f"  atoms {res.value.atoms!r}")
            lines.append(f"  privs {res.value.privs!r}")
        lines += [f"  {d}" for d in res.diagnostics]
    return "\n".join(lines) + "\n"


def test_diagnostics_golden():
    from conftest import GOLDEN
    assert diagnostics_transcript() == (GOLDEN / "diagnostics").read_text()



# --- the lexer against its oracle ---------------------------------------------------

# Pieces of seeded lexer inputs: the grammar's punctuation and words, comment
# and line breaks, and characters on which `str` predicates and regex classes
# disagree (a superscript digit, a fraction, an Arabic-Indic digit, a Roman
# numeral, accented and CJK letters, the replacement character).
_LEX_PIECES = (
    list("!?<>()[]{}#.,:|*=~^;_") + ["||", ">>", "//", "/", "$"]
    + [" ", "  ", "\t", "\r", "\n", "\r\n", "'", "⊗", "0", "7", "42", "x", "ab_1", "r'"]
    + ["²", "½", "٣", "Ⅻ", "é", "一", "\ufffd"]
    + sorted(RESERVED | PERM_WORDS | {"inf"}))

# Inputs for the scan line by line: comments that end the text or hold
# tokens, the tensor sign and other scripts; empty, blank and `\r`-only
# lines, and characters at which `str.splitlines` breaks a line and the lexer
# does not; digit runs that go on past ASCII; long lines, a prefix chain as
# the `wide` benchmark builds them and one of tokens that are not ASCII.
_LINE_TEXTS = [
    "a!<k>. 0 // the end", "0\n// the last line, no newline",
    "// a!<k>. ⊗ {x # y} é一 ² $\n0", "x // ⊗ // é\n  y", "//", "/ //", "a ///",
    "", "\n", "\n\n\n", " \t \n\t\n", "\r", "\r\n\r\n0\r", "0\n\r\n",
    "a\x0cb", "0 \x0c", "a\u2028b", "\u2028", "a\n\n\x0c", "\x1c", "\x85",
    "42²", "42一", "x42²", "(42½)", "7٣ 8", "42 ²", "4²2",
    "G[ " + "c!<k>. " * 428 + "0 | c?(v). 0 ]", "é x ⊗ 4² y' 一1 " * 200,
]


def _lexed(lex, text: str):
    try:
        return [(t.kind, t.text, t.span) for t in lex(text)]
    except LexError as e:
        return e.span, e.message


def test_lexer_matches_oracle():
    """Tokens with their spans, or the lexer error with its span, as the
    character-stepping lexer gives them."""
    from conftest import CORPUS
    import gen
    from syntax_oracles import _lex as oracle
    texts = [path.read_text() for path in sorted(CORPUS.glob("*.*"))]
    texts += [text for _, text in DIAGNOSTIC_CASES] + ENV_TEXTS
    texts += [render_system(gen.random_system(random.Random(seed))) for seed in range(200)]
    rng = random.Random(41)
    texts += ["".join(rng.choices(_LEX_PIECES, k=rng.randrange(0, 16)))
              for _ in range(20000)]
    texts += _LINE_TEXTS
    # random bytes read as UTF-8, as the `frontend` benchmark's fuzz inputs
    rng = random.Random(43)
    texts += [bytes(rng.randrange(256) for _ in range(rng.randrange(60)))
              .decode("utf-8", errors="replace") for _ in range(2000)]
    for text in texts:
        assert _lexed(_lex, text) == _lexed(oracle, text), text


# --- the process and system parser against its oracle ---------------------------

# Terms of both families, the ways two of them are put side by side, and
# contexts that a composition is put in; each context's `{}` is a hole.
_ATOMS = ["0", "a!<k>. 0", "b?(x). x!<k>. 0", "~r?(x # y). 0", "G[0]",
          "H[ a!<k>. 0 ]", "(a?(x))^2 0", "new n. n!<k>. 0", "(new m : G[t<g>]) 0",
          "(0)", "(0 | 0)", "(G[0] || 0)"]
_JOINS = [" | ", " || ", " "]
_CONTEXTS = ["{}", "K[ {} ]", "({})", "new q. {}", "(new z) ({})", "({}) | 0",
             "0 || {}", "({})^2 0"]
# tokens that a mutant inserts, or puts in place of another
_MUTANT_TOKENS = ["(", ")", "[", "]", "|", "||", "new", "n", ".", "G", "0",
                  "^", "2", "?", "!", "<k>", "(x)", ":", "t<g>", "~"]


def differential_texts(rng: random.Random, mutants: int) -> list[str]:
    """The corpus files, the malformed inputs of the diagnostics golden,
    generated renders, every pair of atoms in every context, deep shapes,
    and `mutants` of these with one token inserted, deleted or replaced, or
    cut off at a token."""
    from conftest import CORPUS
    import gen
    texts = [path.read_text() for path in sorted(CORPUS.glob("*.pc"))]
    texts += [text for parser, text in DIAGNOSTIC_CASES if parser is not parse_policy]
    texts += [render_system(gen.random_system(random.Random(seed))) for seed in range(300)]
    texts += [context.replace("{}", a + join + b) for a in _ATOMS for join in _JOINS
              for b in _ATOMS for context in _CONTEXTS]
    texts += [shape(n) for n in (1, 2, 40, 120) for shape in (
        lambda n: "(" * n + "0" + ")" * n,
        lambda n: "new a. " * n + "G[0] || 0",
        lambda n: "(new a) " * n + "0 | 0",
        lambda n: "G[" * n + "0 | 0" + "]" * n,
        lambda n: "(" * n + "G[0] || H[0]" + ")" * n,
        lambda n: "(" * n + "a!<c>. 0" + ") | 0" * n)]
    texts += ["(a?(x)", "G[ (~r?(x # y)"]  # an input's patterns end the text
    bases = [[t.text for t in _lex(text)[:-1]] for text in texts if "$" not in text]
    for _ in range(mutants):
        toks = rng.choice(bases)[:]
        i = rng.randrange(len(toks) + 1)
        op = rng.randrange(4)
        if op == 0 or i == len(toks):
            toks.insert(i, rng.choice(_MUTANT_TOKENS))
        elif op == 1:
            del toks[i]
        elif op == 2:
            toks[i] = rng.choice(_MUTANT_TOKENS)
        else:
            del toks[i:]
        texts.append(" ".join(toks))
    return texts


@functools.cache
def _differential_texts() -> list[str]:
    return differential_texts(random.Random(43), 2500)


def _spans(node) -> list:
    """The span of every process and system node in a tree, in preorder."""
    spans, todo = [], [node]
    while todo:
        node = todo.pop()
        spans.append(node.span)
        todo.extend(reversed(children(node)))
    return spans


def against_oracle(parse, oracle, text: str) -> Optional[tuple[str, str]]:
    """Check one parse against the oracle's: an accepted text gives an equal
    value with the same span on every node, and a rejected one is still
    rejected, at the oracle's token or a later one. Where the oracle runs
    out of stack, which is a limit and not a rejection, the parser may
    accept. The two diagnostics when they differ, else None."""
    new, old = parse(text), oracle(text)
    if old.ok:
        assert new.ok, (text, new.diagnostics)
        assert new.value == old.value and _spans(new.value) == _spans(old.value), text
        return None
    (was,) = old.diagnostics
    if was.message == "input nests too deeply" and new.ok:
        return None
    assert not new.ok, text
    (now,) = new.diagnostics
    if now == was:
        return None
    assert (now.span.line, now.span.col) >= (was.span.line, was.span.col), (text, now, was)
    return str(was), str(now)


def test_parser_matches_oracle():
    """The one-pass parser against the rewinding parser it replaced, through
    both entry points."""
    import syntax_oracles as oracle
    for text in _differential_texts():
        against_oracle(parse_system, oracle.parse_system, text)
        against_oracle(parse_process, oracle.parse_process, text)


def test_round_trip_accepted_texts():
    """Every text either entry point accepts parses back to its value from
    its rendering, a composition nested on the right included."""
    for text in _differential_texts():
        for parse, render in ((parse_system, render_system),
                              (parse_process, render_process)):
            res = parse(text)
            if res.ok:
                again = parse(render(res.value))
                assert again.ok and again.value == res.value, text


@pytest.mark.parametrize("text, diagnostic", [
    ("G[ b!<k> ]", "error: 1:10-1:11: expected '.', found ']'"),
    ("new n. G[ b!<k> ]", "error: 1:17-1:18: expected '.', found ']'"),
    ("G[ new n. H[ a!<k> ] ]", "error: 1:20-1:21: expected '.', found ']'"),
    ("new n. (G[0] || H[a!<k>])", "error: 1:24-1:25: expected '.', found ']'"),
    ("new q. 0 || new n. G[ b!<k> ]", "error: 1:29-1:30: expected '.', found ']'"),
])
def test_error_in_system_reported_where_it_is(text, diagnostic):
    """An error inside a restriction or a group is reported at its token,
    not at a token that a process reading of the same text stops at."""
    assert [str(d) for d in parse_system(text).diagnostics] == [diagnostic]


# --- parser cost and limits -----------------------------------------------------------

@pytest.fixture
def parse_calls(monkeypatch):
    """A function of a text and whether it is accepted: it checks that, and
    gives the calls of the rules for processes and system terms that
    parsing the text makes, in a new thread. That starts with an empty
    stack, as a command-line run does."""
    calls = 0

    def counting(real):
        def rule(*args):
            nonlocal calls
            calls += 1
            return real(*args)
        return rule

    for name in ("_parse_seq", "_sys_term"):
        monkeypatch.setattr(syntax, name, counting(getattr(syntax, name)))

    def cost(text: str, ok: bool) -> int:
        nonlocal calls
        calls = 0
        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(parse_system, text).result().ok == ok
        return calls

    return cost


def test_parenthesized_systems_parse_once(parse_calls):
    """A parenthesized system followed by `|` is a process. Reading it once
    and fixing its reading at the `)` parses each level once, where parsing
    it as a system first and then again as a process cost the square of the
    depth."""
    small, large = (parse_calls("(" * n + "a!<c>. 0" + ") | 0" * n, True) for n in (50, 200))
    assert large <= 5 * small, (small, large)


def test_input_power_count_checked_before_expansion():
    """A count no walker could descend through is rejected at the count,
    before any of its inputs is built."""
    res = parse_system("G[(a?(x))^100000 0]")
    assert [str(d) for d in res.diagnostics] == [
        "error: 1:11-1:17: input nests too deeply"]
    res = parse_system("G[(a?(x))^400 0]")
    assert res.ok, res.diagnostics
    depth, p = 0, res.value.body.body
    while isinstance(p, PInp):
        depth, p = depth + 1, p.cont
    assert depth == 400 and p == NIL



@pytest.mark.parametrize("shape", [
    lambda n: "new a. " * n + "G[0] | 0",
    lambda n: "(" * n + "G[0] | 0" + ")" * n,
], ids=["new", "parens"])
def test_rejected_nested_systems_parse_once(parse_calls, shape):
    """A nested system that no rule accepts is rejected in time linear in
    its depth, where a parser that fell back on reading each level as a
    process re-parsed what the levels inside it had tried."""
    small, large = (parse_calls(shape(n), False) for n in (50, 200))
    assert large <= 5 * small, (small, large)


@pytest.mark.parametrize("shape", [
    lambda n: "new a. " * n + "G[0] || 0",
    lambda n: "G[" * n + "0 | 0" + "]" * n,
], ids=["new", "groups"])
def test_nested_systems_parse_once(parse_calls, shape):
    """Restrictions and groups nested around a system or a process are read
    in time linear in their depth."""
    small, large = (parse_calls(shape(n), True) for n in (50, 200))
    assert large <= 5 * small, (small, large)


@pytest.mark.parametrize("shape, depth", [
    (lambda n: "(" * n + "0" + ")" * n, 326),
    (lambda n: "new a. " * n + "0", 245),
    (lambda n: "(new a) " * n + "0", 245),
    (lambda n: "G[" * n + "0" + "]" * n, 326),
    (lambda n: "a!<k>. " * n + "0", 490),
    (lambda n: "(" * n + "G[0] || H[0]" + ")" * n, 325),
], ids=["parens", "new", "closing-new", "groups", "prefixes", "parenthesized-system"])
def test_nesting_capacity(shape, depth):
    """Each shape parses at the deepest nesting that the rewinding parser
    accepted under Python 3.11, in a new thread, as a command-line run
    parses."""
    with ThreadPoolExecutor(1) as pool:
        res = pool.submit(parse_system, shape(depth)).result()
    assert res.ok, res.diagnostics


def test_non_decimal_count_in_input_power_is_a_diagnostic():
    """The lexer reads `²` as a digit, which has no decimal value: the
    count of an input power reports it at the token, where `int` raised."""
    res = parse_system("(a?(x))^² 0")
    assert [str(d) for d in res.diagnostics] == [
        "error: 1:9-1:10: expected a decimal count, found '²'"]


def test_non_decimal_count_in_policy_is_a_diagnostic():
    """A dissemination budget written `²` is reported at the token."""
    res = parse_policy("private t >> G {disseminate H ²}")
    assert [str(d) for d in res.diagnostics] == [
        "error: 1:31-1:32: expected a decimal count, found '²'"]


def _promotions(monkeypatch) -> list:
    """The name sets `_promote_names` is called with from here on."""
    calls = []
    real = syntax._promote_names

    def promote(node, names):
        calls.append(set(names))
        return real(node, names)

    monkeypatch.setattr(syntax, "_promote_names", promote)
    return calls


def test_nothing_to_promote_is_not_walked(monkeypatch):
    """The classification pass walks the tree only when a constant that
    the parser built has name evidence, and then promotes only those."""
    calls = _promotions(monkeypatch)
    assert parse_system("G[a!<c, 5>. 0 | a?(x). b!<x>. 0]").ok
    assert calls == []
    res = parse_process("a!<c>. 0 | c!<k>. 0")
    assert calls == [{"c"}]
    assert res.value.comps[0].objects == (TName("c"),)


def test_numeral_promoted_by_an_env_key(monkeypatch):
    calls = _promotions(monkeypatch)
    gamma = parse_env("5 : G[t<g>]").value
    res = parse_process("a!<5>. 0", gamma)
    assert res.value.objects == (TName("5"),)
    assert calls == [{"5"}]

if __name__ == "__main__":
    # rewrite the golden file: PYTHONPATH=src:tests python tests/test_syntax.py
    from conftest import GOLDEN
    (GOLDEN / "diagnostics").write_text(diagnostics_transcript())

"""Concrete surface syntax: lexer, parsers for system (.pc), policy (.ppo)
and environment (.env) files, and the matching renderers.

Conventions (whitespace-insensitive, // comments):
  private data      {id # c}     hidden identity   {_ # c}
  stores            store r {id # c}
  dual endpoints    ~r
  replication       * P
  restriction       (new n : T) P        annotation optional
  input power       (r?(x # y))^2 P      expands to two nested inputs
  unlimited budget  inf

`#` and the unicode tensor sign are interchangeable; braces around private
data are optional in pattern and term positions.

Bare tokens are names, variables or constants depending on context: tokens
bound by an input are variables, tokens with a free occurrence in subject,
store-reference or dual position anywhere in the file are names, and the
rest are constants. A supplied environment adds classification evidence for
tokens the file itself leaves open.
"""

from __future__ import annotations

import re
import sys
from operator import itemgetter
from typing import Iterable, Optional

from .kernel import (
    Block, DConst, DVar, Group, HIDDEN, Hidden, IVar, Known, NIL, PAnon, PIf,
    PInp, PNil, POut, PPair, PRepl, PStore, PVar, Placeholder, PrivacyType,
    PrivateData, Process, Record, SBare, Span, System, TChan, TConst, TDual,
    TName, TPriv, TPrivate, TPurpose, TVar, Term, KernelError, _block,
    children, placeholder_vars, replace, with_children,
)
from .policy import (
    AGGREGATE, Hierarchy, Lambda, OMEGA, Perm, PermSet, Policy, READ, READID,
    REFERENCE, STORE, UPDATE, disseminate, identify, nondisclose, usage,
    ND_KINDS,
)

__all__ = [
    "Diagnostic", "ParseResult", "Gamma",
    "parse_system", "parse_process", "parse_policy", "parse_env",
    "render_system", "render_process", "render_policy", "render_env",
    "render_type", "render_term",
]

TENSOR = "⊗"  # alias for '#'

RESERVED = {"new", "if", "then", "else", "store", "private"}

# the one-word permissions, one record each for every policy that grants them
_PLAIN_PERMS = {p.kind: p for p in (READ, UPDATE, REFERENCE, STORE, READID, AGGREGATE)}
PERM_WORDS = {*_PLAIN_PERMS, "disseminate", "nondisclose", "usage", "identify"}


class Diagnostic(Record):
    span: Span
    message: str

    def __str__(self) -> str:
        return f"error: {self.span}: {self.message}"


class ParseResult(Record, frozen=False):
    value: object
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.value is not None and not self.diagnostics


# --- typing environment -------------------------------------------------------

def _pd_key(identity, data) -> tuple[str, str]:
    """Token-based key for private-data entries, blind to the variable vs
    literal distinction: {x # y} and {x # c} entries address the same slot."""
    if isinstance(identity, Hidden):
        itok = "_"
    elif isinstance(identity, Known):
        itok = identity.ident
    else:
        itok = identity.name
    dtok = data.token if isinstance(data, DConst) else data.name
    return (itok, dtok)


class Gamma:
    """Typing environment: names and constants to types, plus private-data
    entries keyed by their identity and data tokens.

    An environment is immutable: no table is written after construction,
    and `bind_atom`/`bind_priv` return an extended environment, sharing
    the table they leave alone. So an environment object fixes every
    judgement made under it, and `typesys.type_system` keeps its typing of
    a system for the environment object it was made under."""

    __slots__ = ("atoms", "privs", "_order")

    def __init__(self, entries: Iterable[tuple[str, object, PrivacyType]] = ()):
        """The environment of (kind, key, type) entries, kind "atom" or
        "priv", as `entries()` lists them; a later entry for a key
        replaces the type of an earlier one."""
        # every entry's type by (kind, key), in order of first binding
        self._order: dict[tuple[str, object], PrivacyType] = {
            (kind, key): ty for kind, key, ty in entries}
        self.atoms: dict[str, PrivacyType] = {      # names and constants
            key: ty for (kind, key), ty in self._order.items() if kind == "atom"}
        self.privs: dict[tuple[str, str], TPrivate] = {
            key: ty for (kind, key), ty in self._order.items() if kind == "priv"}

    def _bound(self, kind: str, key, ty: PrivacyType) -> "Gamma":
        g = Gamma.__new__(Gamma)
        g._order = {**self._order, (kind, key): ty}
        g.atoms = {**self.atoms, key: ty} if kind == "atom" else self.atoms
        g.privs = {**self.privs, key: ty} if kind == "priv" else self.privs
        return g

    def bind_atom(self, token: str, ty: PrivacyType) -> "Gamma":
        return self._bound("atom", token, ty)

    def bind_priv(self, identity, data, ty: TPrivate) -> "Gamma":
        return self._bound("priv", _pd_key(identity, data), ty)

    def atom_type(self, token: str) -> Optional[PrivacyType]:
        return self.atoms.get(token)

    def priv_type(self, identity, data) -> Optional[TPrivate]:
        return self.privs.get(_pd_key(identity, data))

    def priv_types_for_data(self, data_token: str) -> list[tuple[tuple[str, str], TPrivate]]:
        return [(k, t) for k, t in self.privs.items() if k[1] == data_token]

    def name_tokens(self) -> set[str]:
        return {tok for tok, ty in self.atoms.items() if isinstance(ty, TChan)}

    def const_tokens(self) -> set[str]:
        return {tok for tok, ty in self.atoms.items()
                if isinstance(ty, (TPurpose, TPrivate))}

    def private_type_names(self) -> set[str]:
        out = {t.ptype for t in self.privs.values()}
        for ty in self.atoms.values():
            out |= _collect_sorts(ty, "private")
        return out

    def purpose_type_names(self) -> set[str]:
        out = set()
        for ty in self.atoms.values():
            out |= _collect_sorts(ty, "purpose")
        return out

    def entries(self) -> list[tuple[str, object, PrivacyType]]:
        """(kind, key, type) for every entry, in order of first binding;
        a rebound entry has its latest type."""
        return [(kind, key, ty) for (kind, key), ty in self._order.items()]

    def __len__(self) -> int:
        return len(self.atoms) + len(self.privs)


def _collect_sorts(ty: PrivacyType, which: str) -> set[str]:
    match ty:
        case TPrivate(t, _):
            return {t} if which == "private" else set()
        case TPurpose(p, _):
            return {p} if which == "purpose" else set()
        case TChan(_, payload):
            out: set[str] = set()
            for t in payload:
                out |= _collect_sorts(t, which)
            return out
    return set()


# --- lexer ----------------------------------------------------------------------

class Tok(tuple):
    """A token: `(kind, text, line, col, end_line, end_col)`, where kind is
    IDENT, NAT, PUNCT or EOF. Its `Span` is built only when a node or a
    diagnostic asks for it."""

    __slots__ = ()
    kind = property(itemgetter(0))
    text = property(itemgetter(1))

    def __new__(cls, kind: str, text: str, span: Span):
        return tuple.__new__(cls, (kind, text, span.line, span.col, span.end_line, span.end_col))

    @property
    def span(self) -> Span:
        return Span(*self[2:])

    def __repr__(self) -> str:
        return f"Tok(kind={self.kind!r}, text={self.text!r}, span={self.span!r})"


class ParseError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(message)
        self.span = span
        self.message = message


class LexError(ParseError):
    """A character that starts no token."""


_PUNCT2 = ("||", ">>")
_PUNCT1 = "!?<>()[]{}#.,:|*=~^;_"

# One token, its class the name of its group: an ASCII-led identifier (`\w`
# is exactly `str.isalnum()` or '_'), an ASCII numeral that no other digit
# follows, punctuation, the `//` that starts a comment, or REST, any other
# character but a space, a tab or a carriage return, which `str`'s rules
# read in `_lex`. `search` passes over those three, and `_lex` over the
# rest of a line from its comment on.
_TOKEN = re.compile(
    r"(?P<IDENT>[A-Za-z][\w']*|_[\w']+)"
    r"|(?P<NAT>[0-9]+(?![0-9]|[^\x00-\x7f]))"
    rf"|(?P<PUNCT>{'|'.join(map(re.escape, _PUNCT2))}|[{re.escape(_PUNCT1)}])"
    r"|(?P<COMMENT>//)|(?P<REST>[^ \t\r])")
_WORD_TAIL = re.compile(r"[\w']*")


def _lex(text: str) -> list[Tok]:
    """The tokens line by line, one `_TOKEN` match each, then an EOF token.
    A line ends at "\\n" only: `str.splitlines` also ends one at characters
    that are errors here. A REST match starts a name if it is a letter, a
    run of digits if it is one, '#' if it is the tensor sign, and is an
    error otherwise."""
    toks: list[Tok] = []
    append, new, search = toks.append, tuple.__new__, _TOKEN.search
    for line_no, line in enumerate(text.split("\n"), 1):
        i = 0
        while (m := search(line, i)) and m.lastgroup != "COMMENT":
            kind, word, i, j = m.lastgroup, m[0], m.start(), m.end()
            if kind == "REST":
                if word.isalpha():
                    kind, j = "IDENT", _WORD_TAIL.match(line, j).end()
                elif word.isdigit():
                    kind = "NAT"
                    while j < len(line) and line[j].isdigit():
                        j += 1
                elif word == TENSOR:
                    kind = "PUNCT"
                else:
                    raise LexError(Span(line_no, i + 1, line_no, i + 2),
                                   f"unsupported character {word!r}")
                word = "#" if kind == "PUNCT" else line[i:j]
            append(new(Tok, (kind, word, line_no, i + 1, line_no, j + 1)))
            i = j
    col = len(line) + 1
    append(new(Tok, ("EOF", "", line_no, col, line_no, col)))
    return toks


# --- parser infrastructure -------------------------------------------------------

class _P:
    def __init__(self, toks: list[Tok]):
        toks.append(toks[-1])  # a second EOF, for `peek(1)` at the end
        self.toks = toks
        self.i = 0
        self.groups = 0  # the groups read so far

    def peek(self, k: int = 0) -> Tok:
        return self.toks[self.i + k]

    def at(self, text: str) -> bool:
        """Whether the next token is `text`; only EOF has the empty text."""
        return self.toks[self.i][1] == text

    def at_ident(self, *words: str) -> bool:
        t = self.toks[self.i]
        return t[0] == "IDENT" and (not words or t[1] in words)

    def take(self) -> Tok:
        t = self.toks[self.i]
        if t[0] != "EOF":
            self.i += 1
        return t

    def expect(self, text: str, what: str = "") -> Tok:
        t = self.toks[self.i]
        if t[1] != text:
            want = what or f"{text!r}"
            found = repr(t.text) if t.text else "end of input"
            raise ParseError(t.span, f"expected {want}, found {found}")
        self.i += 1
        return t

    def expect_ident(self, what: str = "identifier") -> Tok:
        t = self.toks[self.i]
        if t[0] != "IDENT":
            found = repr(t.text) if t.text else "end of input"
            raise ParseError(t.span, f"expected {what}, found {found}")
        if t[1] in RESERVED:
            raise ParseError(t.span, f"{t.text!r} is reserved, expected {what}")
        self.i += 1
        return t

    def expect_word(self, word: str):
        if not self.at_ident(word):
            raise ParseError(self.peek().span, f"expected {word!r}")
        self.take()

    def expect_eof(self):
        t = self.peek()
        if t[0] != "EOF":
            raise ParseError(t.span, f"unexpected trailing input {t.text!r}")


def _separated(p: _P, sep: str, rule, *args, first=None) -> tuple:
    """One or more of `rule`, separated by `sep`; the first is `first` when
    that is already read."""
    items = [rule(p, *args) if first is None else first]
    while p.at(sep):
        p.take()
        items.append(rule(p, *args))
    return tuple(items)


def _node(tok: Tok, ctor, *args):
    """`ctor(*args)` located at the node's first token: a node that carries
    a span gets the token's, and a constructor's KernelError is reported at
    the token."""
    if "span" in ctor._fields:
        args += (tok.span,)
    try:
        return ctor(*args)
    except KernelError as e:
        raise ParseError(tok.span, str(e))


def _count(tok: Tok) -> int:
    """The value of a NAT token. The lexer reads a run of any digits, and
    some of them, such as `²`, have no decimal value."""
    if not tok.text.isdecimal():
        raise ParseError(tok.span, f"expected a decimal count, found {tok.text!r}")
    return int(tok.text)


def _parse(text: str, entry, *args) -> ParseResult:
    """Parse the whole text from the grammar entry `entry`. Every error of
    the front end reaches the user through here, as the one diagnostic of a
    failed result."""
    try:
        return ParseResult(entry(_P(_lex(text)), *args), [])
    except ParseError as e:
        span, message = e.span, e.message
    except KernelError as e:
        span, message = Span(1, 1, 1, 1), str(e)
    except RecursionError:
        span, message = Span(1, 1, 1, 1), "input nests too deeply"
    return ParseResult(None, [Diagnostic(span, message)])


# --- type expressions --------------------------------------------------------------

def _parse_type(p: _P, registry: "_SortRegistry") -> PrivacyType:
    head = p.expect_ident("type name")
    if p.at("<"):
        p.take()
        g = p.peek()
        if g.kind not in ("IDENT", "NAT"):
            raise ParseError(g.span, "expected ground type name")
        p.take()
        p.expect(">")
        return registry.angle(head.text, g.text)
    if p.at("["):
        p.take()
        payload = _separated(p, ",", _parse_type, registry)
        p.expect("]")
        return TChan(head.text, payload)
    raise ParseError(p.peek().span, f"expected '<' or '[' after type name {head.text!r}")


class _SortRegistry:
    """Resolves angle types to private or purpose sorts.

    Evidence: entry-key shapes in environment files, plus anything a caller
    passes in. Unresolved names default to private (the reference reading).
    """

    def __init__(self, private: set[str] = frozenset(), purpose: set[str] = frozenset()):
        self.private = set(private)
        self.purpose = set(purpose)

    def angle(self, name: str, ground: str) -> PrivacyType:
        if name in self.purpose and name not in self.private:
            return TPurpose(name, ground)
        return TPrivate(name, ground)

    def resolve(self, ty: PrivacyType) -> PrivacyType:
        """The type with each angle type in it, payloads included, resolved
        afresh."""
        if isinstance(ty, TChan):
            return TChan(ty.group, tuple(map(self.resolve, ty.payload)))
        return self.angle(ty.ptype, ty.ground)


# --- terms, patterns, private data ---------------------------------------------------

class _Ctx(Record, frozen=False):
    bound_vars: set[str]
    subject_evidence: set[str]  # tokens with free name-position occurrences
    consts: set[str]  # tokens of the constants built, numerals included

    def child(self) -> "_Ctx":
        return _Ctx(set(self.bound_vars), self.subject_evidence, self.consts)


def _parse_slot_token(p: _P) -> Tok:
    t = p.peek()
    if t.kind in ("IDENT", "NAT") or t.text == "_":
        return p.take()
    raise ParseError(t.span, f"expected identity or data token, found {t.text!r}")


def _mk_identity(tok: Tok, ctx: _Ctx):
    if tok.text == "_":
        return HIDDEN
    if tok.kind == "NAT":
        raise ParseError(tok.span, "identities cannot be numerals")
    if tok.text in ctx.bound_vars:
        return IVar(tok.text)
    return Known(tok.text)


def _mk_data(tok: Tok, ctx: _Ctx):
    if tok.text == "_":
        raise ParseError(tok.span, "the data slot cannot be hidden")
    if tok.kind == "IDENT" and tok.text in ctx.bound_vars:
        return DVar(tok.text)
    return DConst(tok.text)


def _pdata(itok: Tok, dtok: Tok, ctx: _Ctx) -> PrivateData:
    return _node(itok, PrivateData, _mk_identity(itok, ctx), _mk_data(dtok, ctx))


def _parse_pdata(p: _P, ctx: _Ctx) -> PrivateData:
    braced = p.at("{")
    if braced:
        p.take()
    itok = _parse_slot_token(p)
    if not p.at("#"):
        raise ParseError(p.peek().span, "expected '#' inside private data")
    p.take()
    dtok = _parse_slot_token(p)
    if braced:
        p.expect("}")
    return _pdata(itok, dtok, ctx)


def _parse_dual(p: _P, ctx: _Ctx, object_position: bool) -> Term:
    p.take()  # '~'
    name = p.expect_ident("reference name after '~'")
    if object_position:
        raise ParseError(name.span, "a dual endpoint cannot be passed as an object")
    ctx.subject_evidence.add(name.text)
    return TDual(name.text)


def _parse_term(p: _P, ctx: _Ctx, object_position: bool) -> Term:
    t = p.peek()
    if t.text == "{":
        return TPriv(_parse_pdata(p, ctx))
    if t.text == "~":
        return _parse_dual(p, ctx, object_position)
    if t.kind == "NAT":
        p.take()
        if p.at("#"):
            raise ParseError(t.span, "identities cannot be numerals")
        ctx.consts.add(t.text)
        return TConst(t.text)
    if t.text == "_":
        p.take()
        p.expect("#", "'#' after hidden identity")
        return TPriv(_pdata(t, _parse_slot_token(p), ctx))
    tok = p.expect_ident("term")
    if p.at("#"):
        p.take()
        return TPriv(_pdata(tok, _parse_slot_token(p), ctx))
    if tok.text in ctx.bound_vars:
        return TVar(tok.text)
    # provisional constant; promoted to a name by the classification pass
    ctx.consts.add(tok.text)
    return TConst(tok.text)


def _parse_subject(p: _P, ctx: _Ctx) -> Term:
    if p.at("~"):
        return _parse_dual(p, ctx, False)
    tok = p.expect_ident("channel or reference name")
    if tok.text in ctx.bound_vars:
        return TVar(tok.text)
    ctx.subject_evidence.add(tok.text)
    return TName(tok.text)


def _parse_pattern(p: _P, ctx: _Ctx, registry: _SortRegistry) -> tuple[Placeholder, Optional[PrivacyType]]:
    braced = p.at("{")
    if braced:
        p.take()
    if p.at("_"):
        p.take()
        p.expect("#", "'#' after hidden identity")
        dvar = p.expect_ident("pattern variable")
        ph: Placeholder = PAnon(dvar.text)
    else:
        first = p.expect_ident("pattern variable")
        if p.at("#"):
            p.take()
            second = p.expect_ident("pattern variable")
            if first.text == second.text:
                raise ParseError(second.span, "pattern variables must be distinct")
            ph = PPair(first.text, second.text)
        else:
            ph = PVar(first.text)
    if braced:
        p.expect("}")
    annot = None
    if p.at(":"):
        p.take()
        annot = _parse_type(p, registry)
    return ph, annot


def _parse_patterns(p: _P, ctx: _Ctx, registry: _SortRegistry) -> tuple[tuple, tuple, _Ctx]:
    """An input's `( pattern, ... )`: the placeholders, their annotations
    (none at all when no pattern has one) and the context of the
    continuation, where the pattern variables are bound."""
    p.expect("(")
    pairs = _separated(p, ",", _parse_pattern, ctx, registry)
    p.expect(")")
    pats = tuple(k for k, _ in pairs)
    annots = tuple(a for _, a in pairs)
    inner = ctx.child()
    for k in pats:
        inner.bound_vars.update(placeholder_vars(k))
    return pats, annots if any(a is not None for a in annots) else (), inner


# --- process and system parsing ---------------------------------------------------

def _parse_process(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    return _block((), _separated(p, "|", _parse_seq, ctx, registry))


def _parse_seq(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    """One process of a `|` composition."""
    t = p.peek()
    if t.kind == "NAT" and t.text == "0":
        p.take()
        return NIL
    if t.text == "*":
        p.take()
        return _node(t, PRepl, _parse_seq(p, ctx, registry))
    if t.text == "new" or (t.text == "(" and p.peek(1).text == "new"):
        kw, binder, body = _parse_new(p, ctx, registry, _parse_seq)
        return _node(kw, Block, (binder,), (body,))
    if t.kind == "IDENT" and t.text == "if":
        p.take()
        lhs = _parse_term(p, ctx, False)
        op = p.peek()
        if op.text not in ("=", ">"):
            raise ParseError(op.span, "expected '=' or '>' in condition")
        p.take()
        rhs = _parse_term(p, ctx, False)
        p.expect_word("then")
        then = _parse_seq(p, ctx, registry)
        p.expect_word("else")
        return _node(t, PIf, op.text, lhs, rhs, then, _parse_seq(p, ctx, registry))
    if t.kind == "IDENT" and t.text == "store":
        p.take()
        ref = p.expect_ident("store reference name")
        if ref.text in ctx.bound_vars:
            raise ParseError(ref.span, "store references cannot be variables")
        ctx.subject_evidence.add(ref.text)
        return _node(t, PStore, ref.text, _parse_pdata(p, ctx))
    if t.text == "(":
        p.take()
        first, closed = _parse_opened(p, ctx, registry)
        if closed:
            return first
        inner = _block((), _separated(p, "|", _parse_seq, ctx, registry, first=first))
        p.expect(")")
        return inner
    if t.kind == "IDENT" or t.text == "~":
        return _parse_prefix(p, ctx, registry)
    found = repr(t.text) if t.text else "end of input"
    raise ParseError(t.span, f"expected a process, found {found}")


def _at_input(p: _P) -> bool:
    """Whether an input's subject and its '?' are next."""
    t = p.peek()
    if t.text == "~":
        return p.peek(2).text == "?"
    return t.kind == "IDENT" and t.text not in RESERVED and p.peek(1).text == "?"


def _parse_opened(p: _P, ctx: _Ctx, registry: _SortRegistry) -> tuple[Process, bool]:
    """The process just after a '(', and whether it read the ')': an input
    whose patterns `) ^ n` follows, with n at least 1, is the input power
    `(input)^n P`, n nested inputs."""
    if not _at_input(p):
        return _parse_seq(p, ctx, registry), False
    start = p.peek()
    subject = _parse_subject(p, ctx)
    p.take()  # '?'
    pats, annots, inner = _parse_patterns(p, ctx, registry)
    times = 0
    if p.at(")") and p.peek(1).text == "^" and p.peek(2).kind == "NAT":
        times = _count(p.peek(2))
        if times >= sys.getrecursionlimit():
            # no walker could descend through that many nested inputs
            raise ParseError(p.peek(2).span, "input nests too deeply")
    if times < 1:
        p.expect(".")
        return _node(start, PInp, subject, pats, _parse_seq(p, inner, registry), annots), False
    p.i += 3  # ') ^ n'
    cont = _parse_seq(p, inner, registry)
    for _ in range(times):
        cont = _node(start, PInp, subject, pats, cont, annots)
    return cont, True


def _parse_new(p: _P, ctx: _Ctx, registry: _SortRegistry, body_rule) -> tuple:
    """`new n` or `(new n)`, each with an optional `: T` and '.', then the
    body that `body_rule` reads: the 'new' token, the binder and the body."""
    closing = p.at("(")
    if closing:
        p.take()
    kw = p.take()  # 'new'
    name = p.expect_ident("restricted name")
    annot = None
    if p.at(":"):
        p.take()
        annot = _parse_type(p, registry)
    if closing:
        p.expect(")")
    if p.at("."):
        p.take()
    ctx2 = ctx.child()
    ctx2.bound_vars.discard(name.text)
    ctx.subject_evidence.add(name.text)  # restricted tokens are name-sorted
    return kw, (name.text, annot), body_rule(p, ctx2, registry)


def _parse_prefix(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    start = p.peek()
    subject = _parse_subject(p, ctx)
    if p.at("!"):
        p.take()
        p.expect("<")
        objs = _separated(p, ",", _parse_term, ctx, True)
        p.expect(">")
        p.expect(".")
        return _node(start, POut, subject, objs, _parse_seq(p, ctx, registry))
    if p.at("?"):
        p.take()
        pats, annots, inner = _parse_patterns(p, ctx, registry)
        p.expect(".")
        return _node(start, PInp, subject, pats, _parse_seq(p, inner, registry), annots)
    raise ParseError(p.peek().span, "expected '!' or '?' after prefix subject")


# A term at system level is read once, into a cover: a tuple that keeps what
# each reading of the term needs until the construct around it fixes one.
#   ("leaf", tok, seqs)        a `|` composition of processes, from `tok`
#   ("new", kw, binder, body)  a restriction over the rest of its composition
#   ("par", items, bar)        a `||` composition; `bar` is its first '||'
#   ("parens", inner)
#   ("group", node, bracket)   a group, built; `bracket` is its '['

def _as_system(c, bare: bool = False):
    """The cover as a system, each process in it an `SBare` at its first
    token. With `bare`, as the process that a group body with no group in
    it is, whose restrictions are unlocated."""
    match c:
        case ("leaf", tok, seqs):
            proc = _block((), seqs)
            return proc if bare else SBare(proc, tok.span)
        case ("new", kw, binder, body):
            return Block((binder,), (_as_system(body, bare),), None if bare else kw.span)
        case ("par", items, _):
            return Block((), tuple(_as_system(item, bare) for item in items))
        case ("parens", inner):
            return _as_system(inner, bare)
        case ("group", node, _):
            return node


def _as_seqs(c) -> tuple:
    """The cover as a `|` composition in parentheses, each restriction in it
    over one process. A group or a '||' in it is an error at the first of
    them, reported as a process parse does (the diagnostics golden has it)."""
    match c:
        case ("leaf", _, seqs):
            return seqs
        case ("new", kw, binder, body):
            first, *rest = _as_seqs(body)
            return (Block((binder,), (first,), kw.span), *rest)
        case ("parens", inner):
            return (_block((), _as_seqs(inner)),)
        case ("par", items, bar):
            _as_seqs(items[0])  # an error in the first operand comes first
            raise ParseError(bar.span, "expected ')', found '||'")
        case ("group", _, bracket):
            raise ParseError(bracket.span, "expected '!' or '?' after prefix subject")


def _parse_system(p: _P, ctx: _Ctx, registry: _SortRegistry) -> System:
    return _as_system(_system(p, ctx, registry))


def _system(p: _P, ctx: _Ctx, registry: _SortRegistry, first=None):
    """A `||` composition, as a cover; `first` is its first term when that
    is already read."""
    if first is None:
        first = _sys_term(p, ctx, registry)
    bar = p.peek()
    items = _separated(p, "||", _sys_term, ctx, registry, first=first)
    return first if len(items) == 1 else ("par", items, bar)


def _sys_term(p: _P, ctx: _Ctx, registry: _SortRegistry):
    """One operand of a `||` composition, as a cover."""
    t = p.peek()
    if t.text == "new" or (t.text == "(" and p.peek(1).text == "new"):
        return ("new", *_parse_new(p, ctx, registry, _system))
    if t.kind == "IDENT" and t.text not in RESERVED and p.peek(1).text == "[":
        p.take()
        bracket = p.take()
        groups = p.groups
        body = _system(p, ctx, registry)
        p.expect("]")
        bare = p.groups == groups  # no group inside
        p.groups += 1
        inner = _as_system(body, bare)
        return ("group", _node(t, Group, t.text, SBare(inner) if bare else inner), bracket)
    if t.text != "(":
        return ("leaf", t, _separated(p, "|", _parse_seq, ctx, registry))
    p.take()
    first = None
    if _at_input(p):
        start = p.peek()
        seq, closed = _parse_opened(p, ctx, registry)
        seqs = _separated(p, "|", _parse_seq, ctx, registry, first=seq)
        if closed:
            return ("leaf", t, seqs)
        first = ("leaf", start, seqs)
    inner = _system(p, ctx, registry, first)
    p.expect(")")
    if p.peek().text in ("|", "^"):
        # the parentheses close a process before '|'; a '^' after them is an
        # error, reported at a group or '||' in them as for `(G[ 0 ])^2`
        return ("leaf", t, _separated(p, "|", _parse_seq, ctx, registry,
                                      first=_block((), _as_seqs(inner))))
    return ("parens", inner)


# --- classification pass ------------------------------------------------------------

def _promote_names(node, names: set[str]):
    """Rewrite provisional constants whose token has name evidence."""

    def term(t: Term) -> Term:
        if isinstance(t, TConst) and t.token in names:
            return TName(t.token)
        return t

    def go(nd):
        match nd:
            case POut(s, objs, cont):
                return replace(nd, subject=term(s),
                               objects=tuple(term(o) for o in objs), cont=go(cont))
            case PIf(_, lhs, rhs, then, els):
                return replace(nd, lhs=term(lhs), rhs=term(rhs),
                               then=go(then), els=go(els))
        return with_children(nd, tuple(map(go, children(nd))))

    return go(node)


def _parse_program(p: _P, gamma: Optional[Gamma], rule):
    """The whole input as one `rule`, then with the provisional constants
    that have name evidence promoted to names; the tree is walked for that
    only when some constant has."""
    if gamma is None:
        gamma = Gamma()
    ctx = _Ctx(set(), set(), set())
    node = rule(p, ctx, _SortRegistry(gamma.private_type_names(), gamma.purpose_type_names()))
    p.expect_eof()
    names = ctx.consts & ((ctx.subject_evidence | gamma.name_tokens()) - gamma.const_tokens())
    return _promote_names(node, names) if names else node


def parse_system(text: str, gamma: Optional[Gamma] = None) -> ParseResult:
    return _parse(text, _parse_program, gamma, _parse_system)


def parse_process(text: str, gamma: Optional[Gamma] = None) -> ParseResult:
    return _parse(text, _parse_program, gamma, _parse_process)


# --- policy parsing -------------------------------------------------------------------

def _parse_perm(p: _P) -> Perm:
    t = p.peek()
    if t.kind != "IDENT" or t.text not in PERM_WORDS:
        raise ParseError(t.span, f"expected a permission, found {t.text!r}")
    p.take()
    match t.text:
        case "disseminate":
            g = p.expect_ident("group name")
            lt = p.peek()
            if lt.kind == "NAT":
                p.take()
                n = _count(lt)
                if n < 1:
                    raise ParseError(lt.span, "dissemination budgets start at 1")
                return disseminate(g.text, Lambda(n))
            if lt.kind == "IDENT" and lt.text == "inf":
                p.take()
                return disseminate(g.text, OMEGA)
            raise ParseError(lt.span, "expected a count or 'inf'")
        case "nondisclose":
            k = p.peek()
            if k.kind != "IDENT" or k.text not in ND_KINDS:
                raise ParseError(k.span, f"expected one of {', '.join(ND_KINDS)}")
            p.take()
            return nondisclose(k.text)
        case "usage":
            return usage(p.expect_ident("purpose type").text)
        case "identify":
            return identify(p.expect_ident("private type").text)
    return _PLAIN_PERMS[t.text]


def _parse_hier(p: _P) -> Hierarchy:
    g = p.expect_ident("group name")
    p.expect("{")
    perms = () if p.at("}") else _separated(p, ",", _parse_perm)
    p.expect("}")
    children = ()
    if p.at("["):
        p.take()
        children = _separated(p, ",", _parse_hier)
        p.expect("]")
    return Hierarchy(g.text, PermSet(perms), children)


def _parse_policy(p: _P) -> Policy:
    bindings: list[tuple[str, Hierarchy]] = []
    while p.at_ident("private"):
        p.take()
        t = p.expect_ident("private type")
        p.expect(">>")
        bindings.append((t.text, _parse_hier(p)))
        if p.at(";"):
            p.take()
    p.expect_eof()
    if not bindings:
        raise ParseError(p.peek().span, "policy must bind at least one private type")
    return Policy(tuple(bindings))


def parse_policy(text: str) -> ParseResult:
    return _parse(text, _parse_policy)


# --- environment parsing -----------------------------------------------------------------

def _parse_entries(p: _P) -> list[tuple[object, PrivacyType, Span]]:
    """The entries, each `key : type` and optionally followed by ';', with
    the span of its key. The types are read with every angle type private,
    and resolved once all keys are read: a top-level angle type names a
    private sort under a private-data key and a purpose sort under a bare
    one."""
    read = _SortRegistry()
    entries = []
    while p.peek().kind != "EOF":
        span = p.peek().span
        key = _parse_env_key(p)
        p.expect(":")
        entries.append((key, _parse_type(p, read), span))
        if p.at(";"):
            p.take()
    angles = [(isinstance(key, tuple), ty.ptype) for key, ty, _ in entries
              if isinstance(ty, TPrivate)]
    registry = _SortRegistry(private={t for private, t in angles if private},
                             purpose={t for private, t in angles if not private})
    return [(key, registry.resolve(ty), span) for key, ty, span in entries]


def parse_env(text: str) -> ParseResult:
    """Entries: `name : G[...]`, `const : p<g>`, `{id # c} : t<g>` and
    pattern entries `{x # y} : t<g>` / `{_ # x} : t<g>`. Keys must be
    unique; every entry that breaks a rule gets a diagnostic."""
    res = _parse(text, _parse_entries)
    if not res.ok:
        return res
    entries: dict[tuple[str, object], PrivacyType] = {}
    diags: list[Diagnostic] = []
    for key, ty, span in res.value:
        if isinstance(key, tuple):
            itok, dtok = key
            if not isinstance(ty, TPrivate):
                diags.append(Diagnostic(span, f"private data {itok} # {dtok} needs a private type"))
            elif ("priv", key) in entries:
                diags.append(Diagnostic(span, f"duplicate entry {itok} # {dtok}"))
            else:
                entries["priv", key] = ty
        elif ("atom", key) in entries:
            diags.append(Diagnostic(span, f"duplicate entry {key}"))
        elif isinstance(ty, (TChan, TPurpose)):
            entries["atom", key] = ty
        else:
            # a bare token with a private type: a named private constant
            diags.append(Diagnostic(span, f"{key} needs '<id> # <data>' form for a private type"))
    if diags:
        return ParseResult(None, diags)
    return ParseResult(Gamma((kind, key, ty) for (kind, key), ty in entries.items()), [])


def _parse_env_key(p: _P):
    t = p.peek()
    braced = t.text == "{"
    if braced:
        p.take()
        t = p.peek()
    if t.text == "_" or t.kind in ("IDENT", "NAT"):
        tok = p.take()
    else:
        raise ParseError(t.span, f"expected an entry key, found {t.text!r}")
    if p.at("#"):
        p.take()
        d = p.peek()
        if d.kind not in ("IDENT", "NAT"):
            raise ParseError(d.span, "expected a data token")
        p.take()
        if braced:
            p.expect("}")
        return (tok.text, d.text)
    if braced:
        raise ParseError(p.peek().span, "expected '#' inside a braced key")
    if tok.text == "_":
        raise ParseError(tok.span, "'_' alone is not an entry key")
    return tok.text


# --- rendering -------------------------------------------------------------------

def render_type(ty: PrivacyType) -> str:
    return str(ty)


def _render_pdata(pd: PrivateData) -> str:
    if isinstance(pd.identity, Hidden):
        i = "_"
    elif isinstance(pd.identity, Known):
        i = pd.identity.ident
    else:
        i = pd.identity.name
    d = pd.data.token if isinstance(pd.data, DConst) else pd.data.name
    return "{" + i + " # " + d + "}"


def render_term(t: Term) -> str:
    match t:
        case TName(n):
            return n
        case TDual(n):
            return "~" + n
        case TConst(c):
            return c
        case TVar(x):
            return x
        case TPriv(pd):
            return _render_pdata(pd)
    raise KernelError(str(t))


def _render_placeholder(k: Placeholder, annot: Optional[PrivacyType]) -> str:
    match k:
        case PVar(x):
            body = x
        case PPair(x, y):
            body = "{" + x + " # " + y + "}"
        case PAnon(y):
            body = "{_ # " + y + "}"
        case _:
            raise KernelError(str(k))
    if annot is not None:
        body += " : " + render_type(annot)
    return body


def _is_par(node) -> bool:
    return isinstance(node, Block) and not node.binders


def _render_block(b: Block, render, sep: str) -> str:
    """Restrictions as prefixes, then the components joined by `sep`; a
    component that is a block is parenthesized, except the lone body of
    restrictions when it has binders."""
    lone = len(b.comps) == 1
    body = sep.join(render(c) if not isinstance(c, Block) or (lone and c.binders)
                    else f"({render(c)})" for c in b.comps)
    if b.binders and not lone:
        body = f"({body})"
    news = "".join(f"(new {n}{f' : {render_type(a)}' if a is not None else ''}) "
                   for n, a in b.binders)
    return news + body


def render_process(p: Process) -> str:
    match p:
        case PNil():
            return "0"
        case POut(s, objs, cont):
            c = render_process(cont)
            if _is_par(cont):
                c = f"({c})"
            return f"{render_term(s)}!<{', '.join(render_term(o) for o in objs)}>. {c}"
        case PInp(s, pats, cont):
            annots = p.annots or tuple(None for _ in pats)
            ps = ", ".join(_render_placeholder(k, a) for k, a in zip(pats, annots))
            c = render_process(cont)
            if _is_par(cont):
                c = f"({c})"
            return f"{render_term(s)}?({ps}). {c}"
        case Block():
            return _render_block(p, render_process, " | ")
        case PRepl(body):
            b = render_process(body)
            if isinstance(body, Block):
                b = f"({b})"
            return f"* {b}"
        case PIf(op, lhs, rhs, then, els):
            t = render_process(then)
            e = render_process(els)
            if not isinstance(then, (PNil, POut, PInp, PStore)):
                t = f"({t})"
            if not isinstance(els, (PNil, POut, PInp, PStore)):
                e = f"({e})"
            return f"if {render_term(lhs)} {op} {render_term(rhs)} then {t} else {e}"
        case PStore(ref, datum):
            return f"store {ref} {_render_pdata(datum)}"
    raise KernelError(str(p))


def render_system(s: System) -> str:
    match s:
        case Group(g, body):
            return f"{g}[ {render_system(body)} ]"
        case Block():
            return _render_block(s, render_system, " || ")
        case SBare(proc):
            return render_process(proc)
    raise KernelError(str(s))


def render_policy(p: Policy) -> str:
    def hier(h: Hierarchy, indent: str) -> str:
        perms = ", ".join(str(x) for x in h.perms.sorted())
        head = f"{h.group} {{{perms}}}"
        if not h.children:
            return head
        inner = ",\n".join(hier(c, indent + "  ") for c in h.children)
        inner = "\n".join(indent + "  " + line for line in inner.splitlines())
        return f"{head} [\n{inner}\n{indent}]"

    chunks = []
    for t, h in p.bindings:
        chunks.append(f"private {t} >> {hier(h, '')};")
    return "\n".join(chunks) + "\n"


def render_env(g: Gamma) -> str:
    lines = []
    for kind, key, ty in g.entries():
        if kind == "atom":
            lines.append(f"{key} : {render_type(ty)}")
        else:
            itok, dtok = key
            lines.append(f"{{{itok} # {dtok}}} : {render_type(ty)}")
    return "\n".join(lines) + ("\n" if lines else "")

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

from typing import Optional

from .kernel import (
    Block, DConst, DVar, Group, HIDDEN, Hidden, IVar, Known, NIL, PAnon, PIf,
    PInp, PNil, POut, PPair, PRepl, PStore, PVar, Placeholder, PrivacyType,
    PrivateData, Process, Record, SBare, Span, System, TChan, TConst, TDual,
    TName, TPriv, TPrivate, TPurpose, TVar, Term, KernelError, _block,
    children, placeholder_vars, replace, with_children,
)
from .policy import (
    Hierarchy, Lambda, OMEGA, Perm, PermSet, Policy, disseminate, identify,
    nondisclose, usage, ND_KINDS,
)

__all__ = [
    "SourceFile", "Diagnostic", "ParseResult", "Gamma",
    "parse_source", "parse_system", "parse_process", "parse_policy", "parse_env",
    "render_system", "render_process", "render_policy", "render_env",
    "render_type", "render_term",
]

TENSOR = "⊗"  # alias for '#'

RESERVED = {"new", "if", "then", "else", "store", "private"}

PERM_WORDS = {"read", "update", "reference", "store", "readId", "aggregate",
              "disseminate", "nondisclose", "usage", "identify"}


class SourceFile(Record):
    path: str
    text: str
    kind: str  # "system" | "policy" | "environment"

    KINDS = {".pc": "system", ".ppo": "policy", ".env": "environment"}

    @classmethod
    def load(cls, path, kind: Optional[str] = None) -> "SourceFile":
        import pathlib
        p = pathlib.Path(path)
        if kind is None:
            kind = cls.KINDS.get(p.suffix)
        if kind not in ("system", "policy", "environment"):
            raise ValueError(f"cannot tell what {path} holds; pass an explicit kind")
        return cls(str(p), p.read_text(encoding="utf-8"), kind)


def parse_source(src: SourceFile, gamma: Optional["Gamma"] = None) -> "ParseResult":
    if src.kind == "system":
        return parse_system(src.text, gamma)
    if src.kind == "policy":
        return parse_policy(src.text)
    return parse_env(src.text)


class Diagnostic(Record):
    severity: str  # "error" | "warning"
    span: Span
    message: str
    hint: Optional[str] = None

    def __str__(self) -> str:
        base = f"{self.severity}: {self.span}: {self.message}"
        if self.hint:
            base += f" ({self.hint})"
        return base


class ParseResult(Record, frozen=False):
    value: object
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.value is not None and not any(
            d.severity == "error" for d in self.diagnostics)


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
    entries keyed by their identity and data tokens."""

    def __init__(self):
        self.atoms: dict[str, PrivacyType] = {}     # names and constants
        self.privs: dict[tuple[str, str], TPrivate] = {}
        self._order: list[tuple[str, object, PrivacyType]] = []

    def copy(self) -> "Gamma":
        g = Gamma()
        g.atoms = dict(self.atoms)
        g.privs = dict(self.privs)
        g._order = list(self._order)
        return g

    def bind_atom(self, token: str, ty: PrivacyType) -> "Gamma":
        g = self.copy()
        g.atoms[token] = ty
        g._order.append(("atom", token, ty))
        return g

    def bind_priv(self, identity, data, ty: TPrivate) -> "Gamma":
        g = self.copy()
        g.privs[_pd_key(identity, data)] = ty
        g._order.append(("priv", _pd_key(identity, data), ty))
        return g

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
        for tok, ty in self.atoms.items():
            if isinstance(ty, TPurpose):
                out.add(ty.purpose)
            out |= _collect_sorts(ty, "purpose")
        return out

    def entries(self):
        return list(self._order)

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

class Tok(Record):
    kind: str  # IDENT NAT PUNCT EOF
    text: str
    span: Span


class LexError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(message)
        self.span = span
        self.message = message


_PUNCT2 = ("||", ">>")
_PUNCT1 = "!?<>()[]{}#.,:|*=~^;_"


def _lex(text: str) -> list[Tok]:
    toks: list[Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def here() -> tuple[int, int]:
        return line, col

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        sl, sc = here()
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            advance(j - i)
            el, ec = here()
            kind = "PUNCT" if word == "_" else "IDENT"
            toks.append(Tok(kind, word, Span(sl, sc, el, ec)))
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            word = text[i:j]
            advance(j - i)
            el, ec = here()
            toks.append(Tok("NAT", word, Span(sl, sc, el, ec)))
            continue
        if c == TENSOR:
            advance(1)
            el, ec = here()
            toks.append(Tok("PUNCT", "#", Span(sl, sc, el, ec)))
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            advance(2)
            el, ec = here()
            toks.append(Tok("PUNCT", two, Span(sl, sc, el, ec)))
            continue
        if c in _PUNCT1:
            advance(1)
            el, ec = here()
            toks.append(Tok("PUNCT", c, Span(sl, sc, el, ec)))
            continue
        raise LexError(Span(sl, sc, sl, sc + 1), f"unsupported character {c!r}")

    end = Span(line, col, line, col)
    toks.append(Tok("EOF", "", end))
    return toks


# --- parser infrastructure -------------------------------------------------------

class ParseError(Exception):
    def __init__(self, span: Span, message: str, hint: Optional[str] = None):
        super().__init__(message)
        self.span = span
        self.message = message
        self.hint = hint


class _P:
    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.i = 0

    def peek(self, k: int = 0) -> Tok:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind != "EOF" and t.text == text

    def at_ident(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and (not words or t.text in words)

    def take(self) -> Tok:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def expect(self, text: str, what: str = "") -> Tok:
        t = self.peek()
        if t.kind == "EOF" or t.text != text:
            want = what or f"{text!r}"
            found = repr(t.text) if t.text else "end of input"
            raise ParseError(t.span, f"expected {want}, found {found}")
        return self.take()

    def expect_ident(self, what: str = "identifier") -> Tok:
        t = self.peek()
        if t.kind != "IDENT":
            found = repr(t.text) if t.text else "end of input"
            raise ParseError(t.span, f"expected {what}, found {found}")
        if t.text in RESERVED:
            raise ParseError(t.span, f"{t.text!r} is reserved, expected {what}")
        return self.take()

    def expect_eof(self):
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(t.span, f"unexpected trailing input {t.text!r}")

    def mark(self) -> int:
        return self.i

    def reset(self, m: int):
        self.i = m


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
        payload = [_parse_type(p, registry)]
        while p.at(","):
            p.take()
            payload.append(_parse_type(p, registry))
        p.expect("]")
        return TChan(head.text, tuple(payload))
    raise ParseError(p.peek().span, f"expected '<' or '[' after type name {head.text!r}")


class _SortRegistry:
    """Resolves angle types to private or purpose sorts.

    Evidence: entry-key shapes in environment files, plus anything a caller
    passes in. Unresolved names default to private (the reference reading).
    """

    def __init__(self, private: set[str] = frozenset(), purpose: set[str] = frozenset()):
        self.private = set(private)
        self.purpose = set(purpose)
        self.pending: list[tuple[str, str, list]] = []  # (name, ground, holder)

    def angle(self, name: str, ground: str) -> PrivacyType:
        if name in self.purpose and name not in self.private:
            return TPurpose(name, ground)
        return TPrivate(name, ground)


# --- terms, patterns, private data ---------------------------------------------------

class _Ctx(Record, frozen=False):
    bound_vars: set[str]
    subject_evidence: set[str]  # tokens with free name-position occurrences

    def child(self) -> "_Ctx":
        return _Ctx(set(self.bound_vars), self.subject_evidence)


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


def _parse_pdata(p: _P, ctx: _Ctx, braced: Optional[bool] = None) -> PrivateData:
    if braced is None:
        braced = p.at("{")
    if braced:
        p.expect("{")
    itok = _parse_slot_token(p)
    if not p.at("#"):
        raise ParseError(p.peek().span, "expected '#' inside private data")
    p.take()
    dtok = _parse_slot_token(p)
    if braced:
        p.expect("}")
    try:
        return PrivateData(_mk_identity(itok, ctx), _mk_data(dtok, ctx))
    except KernelError as e:
        raise ParseError(itok.span, str(e))


def _parse_term(p: _P, ctx: _Ctx, *, object_position: bool) -> Term:
    t = p.peek()
    if t.text == "{":
        return TPriv(_parse_pdata(p, ctx))
    if t.text == "~":
        p.take()
        name = p.expect_ident("reference name after '~'")
        if object_position:
            raise ParseError(name.span, "a dual endpoint cannot be passed as an object")
        ctx.subject_evidence.add(name.text)
        return TDual(name.text)
    if t.kind == "NAT":
        p.take()
        if p.at("#"):
            raise ParseError(t.span, "identities cannot be numerals")
        return TConst(t.text)
    if t.text == "_":
        p.take()
        p.expect("#", "'#' after hidden identity")
        dtok = _parse_slot_token(p)
        return TPriv(PrivateData(HIDDEN, _mk_data(dtok, ctx)))
    tok = p.expect_ident("term")
    if p.at("#"):
        p.take()
        dtok = _parse_slot_token(p)
        return TPriv(PrivateData(_mk_identity(tok, ctx), _mk_data(dtok, ctx)))
    if tok.text in ctx.bound_vars:
        return TVar(tok.text)
    # provisional constant; promoted to a name by the classification pass
    return TConst(tok.text)


def _parse_subject(p: _P, ctx: _Ctx) -> Term:
    t = p.peek()
    if t.text == "~":
        p.take()
        name = p.expect_ident("reference name after '~'")
        ctx.subject_evidence.add(name.text)
        return TDual(name.text)
    tok = p.expect_ident("channel or reference name")
    if tok.text in ctx.bound_vars:
        return TVar(tok.text)
    ctx.subject_evidence.add(tok.text)
    return TName(tok.text)


def _parse_pattern(p: _P, ctx: _Ctx, registry: _SortRegistry) -> tuple[Placeholder, Optional[PrivacyType]]:
    t = p.peek()
    braced = t.text == "{"
    if braced:
        p.take()
    tok = p.peek()
    if tok.text == "_":
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


# --- process and system parsing ---------------------------------------------------

def _parse_process(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    comps = [_parse_seq(p, ctx, registry)]
    while p.at("|"):
        p.take()
        comps.append(_parse_seq(p, ctx, registry))
    return _block((), tuple(comps))


def _parse_seq(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    t = p.peek()
    if t.kind == "NAT" and t.text == "0":
        p.take()
        return PNil(t.span)
    if t.text == "*":
        p.take()
        return PRepl(_parse_seq(p, ctx, registry), t.span)
    if t.kind == "IDENT" and t.text == "new":
        return _parse_new(p, ctx, registry, _parse_seq)
    if t.kind == "IDENT" and t.text == "if":
        p.take()
        lhs = _parse_term(p, ctx, object_position=False)
        if p.at("="):
            op = "="
        elif p.at(">"):
            op = ">"
        else:
            raise ParseError(p.peek().span, "expected '=' or '>' in condition")
        p.take()
        rhs = _parse_term(p, ctx, object_position=False)
        kw = p.peek()
        if not (kw.kind == "IDENT" and kw.text == "then"):
            raise ParseError(kw.span, "expected 'then'")
        p.take()
        then = _parse_seq(p, ctx, registry)
        kw = p.peek()
        if not (kw.kind == "IDENT" and kw.text == "else"):
            raise ParseError(kw.span, "expected 'else'")
        p.take()
        els = _parse_seq(p, ctx, registry)
        try:
            return PIf(op, lhs, rhs, then, els, t.span)
        except KernelError as e:
            raise ParseError(t.span, str(e))
    if t.kind == "IDENT" and t.text == "store":
        p.take()
        ref = p.expect_ident("store reference name")
        if ref.text in ctx.bound_vars:
            raise ParseError(ref.span, "store references cannot be variables")
        ctx.subject_evidence.add(ref.text)
        datum = _parse_pdata(p, ctx)
        try:
            return PStore(ref.text, datum, t.span)
        except KernelError as e:
            raise ParseError(t.span, str(e))
    if t.text == "(":
        # '(new ...)', the input power '(prefix)^n P', or a parenthesized process
        m = p.mark()
        p.take()
        if p.at_ident("new"):
            return _parse_new(p, ctx, registry, _parse_seq, closing=True)
        power = _try_input_power(p, ctx, registry, m)
        if power is not None:
            return power
        inner = _parse_process(p, ctx, registry)
        p.expect(")")
        return inner
    if t.kind == "IDENT" or t.text == "~":
        return _parse_prefix(p, ctx, registry)
    found = repr(t.text) if t.text else "end of input"
    raise ParseError(t.span, f"expected a process, found {found}")


def _try_input_power(p: _P, ctx: _Ctx, registry: _SortRegistry, m: int) -> Optional[Process]:
    """Attempt `subject ? ( patterns ) ) ^ NAT cont` with the opening paren
    already consumed; on failure rewind past the paren and return None."""
    try:
        subject = _parse_subject(p, ctx)
        if not p.at("?"):
            raise ParseError(p.peek().span, "not an input power")
        p.take()
        p.expect("(")
        pats: list[Placeholder] = []
        annots: list[Optional[PrivacyType]] = []
        ph, an = _parse_pattern(p, ctx, registry)
        pats.append(ph)
        annots.append(an)
        while p.at(","):
            p.take()
            ph, an = _parse_pattern(p, ctx, registry)
            pats.append(ph)
            annots.append(an)
        p.expect(")")
        p.expect(")")
        if not p.at("^"):
            raise ParseError(p.peek().span, "not an input power")
        p.take()
        nt = p.peek()
        if nt.kind != "NAT":
            raise ParseError(nt.span, "expected repetition count after '^'")
        p.take()
        count = int(nt.text)
        if count < 1:
            raise ParseError(nt.span, "repetition count must be positive")
    except ParseError:
        p.reset(m)
        p.take()  # past '('
        return None
    ctx2 = ctx.child()
    for k in pats:
        ctx2.bound_vars.update(placeholder_vars(k))
    cont = _parse_seq(p, ctx2, registry)
    an_tuple = tuple(annots) if any(a is not None for a in annots) else ()
    for _ in range(count):
        cont = PInp(subject, tuple(pats), cont, annots=an_tuple)
    return cont


def _parse_new(p: _P, ctx: _Ctx, registry: _SortRegistry, body_parser, closing: bool = False):
    kw = p.peek()
    p.take()  # 'new'
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
    body = body_parser(p, ctx2, registry)
    return Block(((name.text, annot),), (body,), kw.span)


def _parse_prefix(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    start = p.peek()
    subject = _parse_subject(p, ctx)
    if p.at("!"):
        p.take()
        p.expect("<")
        objs = [_parse_term(p, ctx, object_position=True)]
        while p.at(","):
            p.take()
            objs.append(_parse_term(p, ctx, object_position=True))
        p.expect(">")
        p.expect(".")
        cont = _parse_seq(p, ctx, registry)
        try:
            return POut(subject, tuple(objs), cont, start.span)
        except KernelError as e:
            raise ParseError(start.span, str(e))
    if p.at("?"):
        p.take()
        p.expect("(")
        pats: list[Placeholder] = []
        annots: list[Optional[PrivacyType]] = []
        ph, an = _parse_pattern(p, ctx, registry)
        pats.append(ph)
        annots.append(an)
        while p.at(","):
            p.take()
            ph, an = _parse_pattern(p, ctx, registry)
            pats.append(ph)
            annots.append(an)
        p.expect(")")
        p.expect(".")
        ctx2 = ctx.child()
        for k in pats:
            ctx2.bound_vars.update(placeholder_vars(k))
        cont = _parse_seq(p, ctx2, registry)
        try:
            return PInp(subject, tuple(pats), cont,
                        tuple(annots) if any(a is not None for a in annots) else (),
                        start.span)
        except KernelError as e:
            raise ParseError(start.span, str(e))
    raise ParseError(p.peek().span, "expected '!' or '?' after prefix subject")


def _lower_system(s: System) -> Optional[Process]:
    """Group contents without inner groups read canonically as processes."""
    match s:
        case SBare(proc):
            return proc
        case Block(binders, comps):
            procs = tuple(map(_lower_system, comps))
            return None if None in procs else Block(binders, procs)
        case _:
            return None


def _parse_system(p: _P, ctx: _Ctx, registry: _SortRegistry) -> System:
    comps = [_parse_sys_atom(p, ctx, registry)]
    while p.at("||"):
        p.take()
        comps.append(_parse_sys_atom(p, ctx, registry))
    return _block((), tuple(comps))


def _parse_sys_atom(p: _P, ctx: _Ctx, registry: _SortRegistry) -> System:
    t = p.peek()
    if t.kind == "IDENT" and t.text == "new":
        m = p.mark()
        try:
            node = _parse_new(p, ctx, registry, _parse_system)
            if p.at("|"):
                raise ParseError(p.peek().span, "process composition after restriction")
            return node
        except ParseError:
            p.reset(m)
            return SBare(_parse_process(p, ctx, registry), t.span)
    if t.kind == "IDENT" and t.text not in RESERVED and p.peek(1).text == "[":
        group = p.take()
        p.expect("[")
        m = p.mark()
        try:
            inner = _parse_system(p, ctx.child(), registry)
            if p.at("|"):
                raise ParseError(p.peek().span, "process composition at group top")
        except ParseError:
            p.reset(m)
            inner = SBare(_parse_process(p, ctx.child(), registry))
        p.expect("]")
        lowered = _lower_system(inner)
        if lowered is not None:
            inner = SBare(lowered)
        return Group(group.text, inner, group.span)
    if t.text == "(":
        m = p.mark()
        p.take()
        if p.at_ident("new"):
            try:
                node = _parse_new(p, ctx, registry, _parse_system, closing=True)
                if p.at("|"):
                    raise ParseError(p.peek().span,
                                     "process composition after restriction")
                return node
            except ParseError:
                p.reset(m)
                return SBare(_parse_process(p, ctx, registry), t.span)
        # could be a parenthesized system or the start of a process form
        try:
            inner = _parse_system(p, ctx.child(), registry)
            p.expect(")")
            if p.at("^") or p.at(".") or p.at("|"):
                raise ParseError(p.peek().span, "process syntax at system level")
            return inner
        except ParseError:
            p.reset(m)
    proc = _parse_process(p, ctx, registry)
    return SBare(proc, t.span)


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


def _registry_from_gamma(gamma: Optional[Gamma]) -> _SortRegistry:
    if gamma is None:
        return _SortRegistry()
    return _SortRegistry(private=gamma.private_type_names(),
                         purpose=gamma.purpose_type_names())


def _parse(text: str, gamma: Optional[Gamma], entry) -> ParseResult:
    """Parse the whole text from the grammar entry `entry`, then promote the
    provisional constants that have name evidence."""
    try:
        toks = _lex(text)
        p = _P(toks)
        ctx = _Ctx(set(), set())
        registry = _registry_from_gamma(gamma)
        node = entry(p, ctx, registry)
        p.expect_eof()
        names = set(ctx.subject_evidence)
        if gamma is not None:
            names |= gamma.name_tokens()
            names -= gamma.const_tokens()
        return ParseResult(_promote_names(node, names), [])
    except (LexError, ParseError) as e:
        return ParseResult(None, [Diagnostic("error", e.span, e.message,
                                             getattr(e, "hint", None))])
    except KernelError as e:
        return ParseResult(None, [Diagnostic("error", Span(1, 1, 1, 1), str(e))])
    except RecursionError:
        return ParseResult(None, [Diagnostic("error", Span(1, 1, 1, 1),
                                             "input nests too deeply")])


def parse_system(text: str, gamma: Optional[Gamma] = None) -> ParseResult:
    return _parse(text, gamma, _parse_system)


def parse_process(text: str, gamma: Optional[Gamma] = None) -> ParseResult:
    return _parse(text, gamma, _parse_process)


# --- policy parsing -------------------------------------------------------------------

def _parse_perm(p: _P) -> Perm:
    t = p.peek()
    if t.kind != "IDENT" or t.text not in PERM_WORDS:
        raise ParseError(t.span, f"expected a permission, found {t.text!r}")
    p.take()
    match t.text:
        case "read" | "update" | "reference" | "store" | "readId" | "aggregate":
            return Perm(t.text)
        case "disseminate":
            g = p.expect_ident("group name")
            lt = p.peek()
            if lt.kind == "NAT":
                p.take()
                n = int(lt.text)
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
            pr = p.expect_ident("purpose type")
            return usage(pr.text)
        case "identify":
            tt = p.expect_ident("private type")
            return identify(tt.text)
    raise ParseError(t.span, "unreachable")


def _parse_hier(p: _P) -> Hierarchy:
    g = p.expect_ident("group name")
    p.expect("{")
    perms: list[Perm] = []
    if not p.at("}"):
        perms.append(_parse_perm(p))
        while p.at(","):
            p.take()
            perms.append(_parse_perm(p))
    p.expect("}")
    children: list[Hierarchy] = []
    if p.at("["):
        p.take()
        children.append(_parse_hier(p))
        while p.at(","):
            p.take()
            children.append(_parse_hier(p))
        p.expect("]")
    return Hierarchy(g.text, PermSet(perms), tuple(children))


def parse_policy(text: str) -> ParseResult:
    try:
        toks = _lex(text)
        p = _P(toks)
        bindings: list[tuple[str, Hierarchy]] = []
        first = p.peek()
        while p.at_ident("private"):
            p.take()
            t = p.expect_ident("private type")
            p.expect(">>")
            h = _parse_hier(p)
            bindings.append((t.text, h))
            if p.at(";"):
                p.take()
        p.expect_eof()
        if not bindings:
            return ParseResult(None, [Diagnostic(
                "error", first.span, "policy must bind at least one private type")])
        return ParseResult(Policy(tuple(bindings)), [])
    except (LexError, ParseError) as e:
        return ParseResult(None, [Diagnostic("error", e.span, e.message,
                                             getattr(e, "hint", None))])
    except RecursionError:
        return ParseResult(None, [Diagnostic("error", Span(1, 1, 1, 1),
                                             "input nests too deeply")])


# --- environment parsing -----------------------------------------------------------------

def parse_env(text: str) -> ParseResult:
    """Entries: `name : G[...]`, `const : p<g>`, `{id # c} : t<g>` and
    pattern entries `{x # y} : t<g>` / `{_ # x} : t<g>`. Keys must be unique.

    Two passes: key shapes first (they decide which angle-type names are
    purpose sorts), then types.
    """
    try:
        toks = _lex(text)
    except LexError as e:
        return ParseResult(None, [Diagnostic("error", e.span, e.message)])

    # pass 1: collect raw entries
    raw: list[tuple[object, int, int, Span]] = []  # key, type-start, type-end, span
    p = _P(toks)
    try:
        while p.peek().kind != "EOF":
            span = p.peek().span
            key = _parse_env_key(p)
            p.expect(":")
            start = p.mark()
            _skip_type(p)
            raw.append((key, start, p.mark(), span))
            if p.at(";"):
                p.take()
    except ParseError as e:
        return ParseResult(None, [Diagnostic("error", e.span, e.message)])
    except RecursionError:
        return ParseResult(None, [Diagnostic("error", Span(1, 1, 1, 1),
                                             "input nests too deeply")])

    # evidence: angle heads of private keys are private; of bare keys, purpose
    private_sorts: set[str] = set()
    purpose_sorts: set[str] = set()
    for key, start, end, _ in raw:
        head = toks[start]
        is_angle = head.kind == "IDENT" and toks[start + 1].text == "<"
        if not is_angle:
            continue
        if isinstance(key, tuple):
            private_sorts.add(head.text)
        else:
            purpose_sorts.add(head.text)
    registry = _SortRegistry(private=private_sorts, purpose=purpose_sorts)

    gamma = Gamma()
    diags: list[Diagnostic] = []
    for key, start, end, span in raw:
        p2 = _P(toks)
        p2.reset(start)
        try:
            ty = _parse_type(p2, registry)
        except ParseError as e:
            return ParseResult(None, [Diagnostic("error", e.span, e.message)])
        except RecursionError:
            return ParseResult(None, [Diagnostic("error", span,
                                                 "type nests too deeply")])
        if isinstance(key, tuple):
            itok, dtok = key
            if not isinstance(ty, TPrivate):
                diags.append(Diagnostic("error", span,
                                        f"private data {itok} # {dtok} needs a private type"))
                continue
            ident = HIDDEN if itok == "_" else Known(itok)
            if (itok, dtok) in gamma.privs or (itok == "_" and ("_", dtok) in gamma.privs):
                diags.append(Diagnostic("error", span, f"duplicate entry {itok} # {dtok}"))
                continue
            gamma = gamma.bind_priv(ident, DConst(dtok), ty)
        else:
            if key in gamma.atoms:
                diags.append(Diagnostic("error", span, f"duplicate entry {key}"))
                continue
            if isinstance(ty, TChan):
                gamma = gamma.bind_atom(key, ty)
            elif isinstance(ty, TPurpose):
                gamma = gamma.bind_atom(key, ty)
            else:
                # a bare token with a private type: a named private constant
                diags.append(Diagnostic("error", span,
                                        f"{key} needs '<id> # <data>' form for a private type"))
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    return ParseResult(gamma, diags)


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


def _skip_type(p: _P):
    p.expect_ident("type name")
    if p.at("<"):
        p.take()
        if p.peek().kind not in ("IDENT", "NAT"):
            raise ParseError(p.peek().span, "expected ground type name")
        p.take()
        p.expect(">")
        return
    if p.at("["):
        p.take()
        _skip_type(p)
        while p.at(","):
            p.take()
            _skip_type(p)
        p.expect("]")
        return
    raise ParseError(p.peek().span, "expected '<' or '[' in type")


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
    component that is a block is parenthesized, except the last one: as the
    right operand of a composition it is parenthesized only when it has
    binders, and as the lone body of restrictions only when it has none."""
    *init, last = b.comps
    texts = [f"({render(c)})" if isinstance(c, Block) else render(c) for c in init]
    text = render(last)
    if isinstance(last, Block) and bool(last.binders) == bool(init):
        text = f"({text})"
    body = sep.join(texts + [text])
    if b.binders and init:
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

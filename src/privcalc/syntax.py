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
from bisect import bisect_right
from itertools import accumulate
from operator import is_
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

class ParseError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(message)
        self.span = span
        self.message = message


class LexError(ParseError):
    """A character that starts no token."""


_PUNCT2 = ("||", ">>")
_PUNCT1 = "!?<>()[]{}#.,:|*=~^;_"

# One token, the pattern's one group: an ASCII-led identifier (`\w` is
# exactly `str.isalnum()` or '_'), an ASCII numeral that no other digit
# follows, or punctuation. No quantifier in it is nested, so a match never
# backtracks past one token.
_TOKEN = re.compile(
    r"([A-Za-z][\w']*|_[\w']+|[0-9]+(?![0-9]|[^\x00-\x7f])"
    rf"|{'|'.join(map(re.escape, _PUNCT2))}|[{re.escape(_PUNCT1)}])")
_COMMENT = re.compile("//[^\n]*")
_BLANKS = re.compile("[ \t\r\n]*")
_WORD_TAIL = re.compile(r"[\w']*")
_NEWLINE = re.compile("\n")
_DROP_BLANKS = str.maketrans("", "", " \t\r\n")


def _blank(comment: re.Match) -> str:
    return " " * len(comment[0])


def _lex(text: str) -> tuple[list[str], list[int]]:
    """The tokens of a text, as their texts (the tensor sign read as '#')
    and their start offsets, ending with the EOF token: the empty text at
    the end. A comment runs from `//` to the next "\\n" and is blanked
    first, which keeps every offset. An ASCII text in which nothing but
    blanks lies between the matches of `_TOKEN` is read by one `re.split`,
    which puts the tokens at its odd places; every other text, and so every
    lexer error, is read by `_lex_loop`."""
    if "//" in text:
        text = _COMMENT.sub(_blank, text)
    if text.isascii():
        pieces = _TOKEN.split(text)
        if not "".join(pieces[::2]).translate(_DROP_BLANKS):
            texts = pieces[1::2]
            texts.append("")
            # a token starts where the pieces before it end, and EOF at the end
            return texts, list(accumulate(map(len, pieces)))[::2]
    return _lex_loop(text)


def _lex_loop(text: str) -> tuple[list[str], list[int]]:
    """`_lex` of a text whose comments are blanked, one token at a time. A
    token that `_TOKEN` does not match where it starts is a name if its
    first character is a letter, a run of digits if that is a digit, '#'
    if it is the tensor sign, and an error otherwise; letters and digits
    are those of `str.isalpha` and `str.isdigit`."""
    texts: list[str] = []
    starts: list[int] = []
    n = len(text)
    i = _BLANKS.match(text).end()
    while i < n:
        if m := _TOKEN.match(text, i):
            word, j = m[1], m.end()
        else:
            c, j = text[i], i + 1
            if c.isalpha():
                j = _WORD_TAIL.match(text, j).end()
            elif c.isdigit():
                while j < n and text[j].isdigit():
                    j += 1
            elif c != TENSOR:
                raise LexError(_span(_line_starts(text), i, 1),
                               f"unsupported character {c!r}")
            word = "#" if c == TENSOR else text[i:j]
        texts.append(word)
        starts.append(i)
        i = _BLANKS.match(text, j).end()
    texts.append("")
    starts.append(n)
    return texts, starts


def _line_starts(text: str) -> list[int]:
    """The offset of each line of a text; a line ends at "\\n" only
    (`str.splitlines` also ends one at characters that are errors here)."""
    return [0, *(m.end() for m in _NEWLINE.finditer(text))]


def _span(lines: list[int], offset: int, width: int) -> Span:
    """The span of `width` characters from `offset`, on one line."""
    line = bisect_right(lines, offset)
    col = offset - lines[line - 1] + 1
    return Span(line, col, line, col + width)


def _ident(t: str) -> bool:
    """Whether a token text is an IDENT: it starts with a letter, or with
    '_' followed by more."""
    return t[:1].isalpha() or (t[:1] == "_" and t != "_")


def _nat(t: str) -> bool:
    """Whether a token text is a NAT: it starts with a digit."""
    return t[:1].isdigit()


def _found(t: str) -> str:
    return repr(t) if t else "end of input"


# --- parser infrastructure -------------------------------------------------------

class _P:
    """The cursor over the tokens of one text. A token is its index: the
    parser reads its text, whose kind the text tells (EOF is the empty
    text, IDENT `_ident`, NAT `_nat`, the rest PUNCT), and builds its
    `Span`, from its offset and the text's line starts, only where a node
    or a diagnostic asks for one."""

    def __init__(self, text: str):
        self.texts, self.starts = _lex(text)
        self.texts.append("")  # a second EOF, for `peek(1)` at the end
        self.source = text
        self.lines: Optional[list[int]] = None  # the line starts, on first use
        self.i = 0
        self.groups = 0  # the groups read so far

    def span(self, k: int) -> Span:
        if self.lines is None:
            self.lines = _line_starts(self.source)
        return _span(self.lines, self.starts[k], len(self.texts[k]))

    def error(self, message: str, k: Optional[int] = None) -> ParseError:
        """The error `message` at token `k`, by default the next one."""
        return ParseError(self.span(self.i if k is None else k), message)

    def peek(self, k: int = 0) -> str:
        return self.texts[self.i + k]

    def at(self, text: str) -> bool:
        """Whether the next token is `text`; only EOF has the empty text."""
        return self.texts[self.i] == text

    def take(self) -> str:
        t = self.texts[self.i]
        if t:
            self.i += 1
        return t

    def expect(self, text: str, what: str = ""):
        t = self.texts[self.i]
        if t != text:
            raise self.error(f"expected {what or repr(text)}, found {_found(t)}")
        self.i += 1

    def expect_ident(self, what: str = "identifier") -> str:
        t = self.texts[self.i]
        if not _ident(t):
            raise self.error(f"expected {what}, found {_found(t)}")
        if t in RESERVED:
            raise self.error(f"{t!r} is reserved, expected {what}")
        self.i += 1
        return t

    def expect_word(self, word: str):
        if not self.at(word):
            raise self.error(f"expected {word!r}")
        self.i += 1

    def expect_eof(self):
        t = self.texts[self.i]
        if t:
            raise self.error(f"unexpected trailing input {t!r}")


def _separated(p: _P, sep: str, rule, *args, first=None) -> tuple:
    """One or more of `rule`, separated by `sep`; the first is `first` when
    that is already read."""
    items = [rule(p, *args) if first is None else first]
    while p.at(sep):
        p.take()
        items.append(rule(p, *args))
    return tuple(items)


def _node(p: _P, k: int, ctor, *args):
    """`ctor(*args)` located at the node's first token `k`: a node that
    carries a span gets the token's, and a constructor's KernelError is
    reported at the token."""
    if "span" in ctor._fields:
        args += (p.span(k),)
    try:
        return ctor(*args)
    except KernelError as e:
        raise p.error(str(e), k)


def _count(p: _P, k: int) -> int:
    """The value of the NAT token `k`. The lexer reads a run of any digits,
    and some of them, such as `²`, have no decimal value."""
    t = p.texts[k]
    if not t.isdecimal():
        raise p.error(f"expected a decimal count, found {t!r}", k)
    return int(t)


def _parse(text: str, entry, *args) -> ParseResult:
    """Parse the whole text from the grammar entry `entry`. Every error of
    the front end reaches the user through here, as the one diagnostic of a
    failed result."""
    try:
        return ParseResult(entry(_P(text), *args), [])
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
        if not (_ident(g) or _nat(g)):
            raise p.error("expected ground type name")
        p.take()
        p.expect(">")
        return registry.angle(head, g)
    if p.at("["):
        p.take()
        payload = _separated(p, ",", _parse_type, registry)
        p.expect("]")
        return TChan(head, payload)
    raise p.error(f"expected '<' or '[' after type name {head!r}")


class _SortRegistry:
    """Resolves angle types to private or purpose sorts.

    Evidence: entry-key shapes in environment files, plus anything a caller
    passes in. Unresolved names default to private (the reference reading).
    """

    def __init__(self, private: set[str] = frozenset(), purpose: set[str] = frozenset()):
        self.private = set(private)
        self.purpose = set(purpose)

    def _sort(self, name: str):
        return TPurpose if name in self.purpose and name not in self.private else TPrivate

    def angle(self, name: str, ground: str) -> PrivacyType:
        return self._sort(name)(name, ground)

    def resolve(self, ty: PrivacyType) -> PrivacyType:
        """The type with each angle type in it, payloads included, resolved
        afresh: the type itself where no angle type in it changes sort."""
        if isinstance(ty, TChan):
            payload = tuple(map(self.resolve, ty.payload))
            if all(map(is_, payload, ty.payload)):
                return ty
            return TChan(ty.group, payload)
        sort = self._sort(ty.ptype)
        return ty if type(ty) is sort else sort(ty.ptype, ty.ground)


# --- terms, patterns, private data ---------------------------------------------------

class _Ctx(Record, frozen=False):
    bound_vars: set[str]
    subject_evidence: set[str]  # tokens with free name-position occurrences
    consts: set[str]  # tokens of the constants built, numerals included

    def child(self) -> "_Ctx":
        return _Ctx(set(self.bound_vars), self.subject_evidence, self.consts)


def _parse_slot_token(p: _P) -> int:
    k = p.i
    t = p.texts[k]
    if _ident(t) or _nat(t) or t == "_":
        p.i += 1
        return k
    raise p.error(f"expected identity or data token, found {t!r}")


def _mk_identity(p: _P, k: int, ctx: _Ctx):
    t = p.texts[k]
    if t == "_":
        return HIDDEN
    if _nat(t):
        raise p.error("identities cannot be numerals", k)
    if t in ctx.bound_vars:
        return IVar(t)
    return Known(t)


def _mk_data(p: _P, k: int, ctx: _Ctx):
    t = p.texts[k]
    if t == "_":
        raise p.error("the data slot cannot be hidden", k)
    if _ident(t) and t in ctx.bound_vars:
        return DVar(t)
    return DConst(t)


def _pdata(p: _P, ik: int, dk: int, ctx: _Ctx) -> PrivateData:
    return _node(p, ik, PrivateData, _mk_identity(p, ik, ctx), _mk_data(p, dk, ctx))


def _parse_pdata(p: _P, ctx: _Ctx) -> PrivateData:
    braced = p.at("{")
    if braced:
        p.take()
    ik = _parse_slot_token(p)
    if not p.at("#"):
        raise p.error("expected '#' inside private data")
    p.take()
    dk = _parse_slot_token(p)
    if braced:
        p.expect("}")
    return _pdata(p, ik, dk, ctx)


def _parse_dual(p: _P, ctx: _Ctx, object_position: bool) -> Term:
    p.take()  # '~'
    k = p.i
    name = p.expect_ident("reference name after '~'")
    if object_position:
        raise p.error("a dual endpoint cannot be passed as an object", k)
    ctx.subject_evidence.add(name)
    return TDual(name)


def _parse_term(p: _P, ctx: _Ctx, object_position: bool) -> Term:
    t, k = p.peek(), p.i
    if t == "{":
        return TPriv(_parse_pdata(p, ctx))
    if t == "~":
        return _parse_dual(p, ctx, object_position)
    if _nat(t):
        p.take()
        if p.at("#"):
            raise p.error("identities cannot be numerals", k)
        ctx.consts.add(t)
        return TConst(t)
    if t == "_":
        p.take()
        p.expect("#", "'#' after hidden identity")
        return TPriv(_pdata(p, k, _parse_slot_token(p), ctx))
    t = p.expect_ident("term")
    if p.at("#"):
        p.take()
        return TPriv(_pdata(p, k, _parse_slot_token(p), ctx))
    if t in ctx.bound_vars:
        return TVar(t)
    # provisional constant; promoted to a name by the classification pass
    ctx.consts.add(t)
    return TConst(t)


def _parse_subject(p: _P, ctx: _Ctx) -> Term:
    if p.at("~"):
        return _parse_dual(p, ctx, False)
    t = p.expect_ident("channel or reference name")
    if t in ctx.bound_vars:
        return TVar(t)
    ctx.subject_evidence.add(t)
    return TName(t)


def _parse_pattern(p: _P, ctx: _Ctx, registry: _SortRegistry) -> tuple[Placeholder, Optional[PrivacyType]]:
    braced = p.at("{")
    if braced:
        p.take()
    if p.at("_"):
        p.take()
        p.expect("#", "'#' after hidden identity")
        ph: Placeholder = PAnon(p.expect_ident("pattern variable"))
    else:
        first = p.expect_ident("pattern variable")
        if p.at("#"):
            p.take()
            k = p.i
            second = p.expect_ident("pattern variable")
            if first == second:
                raise p.error("pattern variables must be distinct", k)
            ph = PPair(first, second)
        else:
            ph = PVar(first)
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
    t, k = p.peek(), p.i
    if t == "0":
        p.take()
        return NIL
    if t == "*":
        p.take()
        return _node(p, k, PRepl, _parse_seq(p, ctx, registry))
    if t == "new" or (t == "(" and p.peek(1) == "new"):
        kw, binder, body = _parse_new(p, ctx, registry, _parse_seq)
        return _node(p, kw, Block, (binder,), (body,))
    if t == "if":
        p.take()
        lhs = _parse_term(p, ctx, False)
        op = p.peek()
        if op not in ("=", ">"):
            raise p.error("expected '=' or '>' in condition")
        p.take()
        rhs = _parse_term(p, ctx, False)
        p.expect_word("then")
        then = _parse_seq(p, ctx, registry)
        p.expect_word("else")
        return _node(p, k, PIf, op, lhs, rhs, then, _parse_seq(p, ctx, registry))
    if t == "store":
        p.take()
        rk = p.i
        ref = p.expect_ident("store reference name")
        if ref in ctx.bound_vars:
            raise p.error("store references cannot be variables", rk)
        ctx.subject_evidence.add(ref)
        return _node(p, k, PStore, ref, _parse_pdata(p, ctx))
    if t == "(":
        p.take()
        first, closed = _parse_opened(p, ctx, registry)
        if closed:
            return first
        inner = _block((), _separated(p, "|", _parse_seq, ctx, registry, first=first))
        p.expect(")")
        return inner
    if _ident(t) or t == "~":
        return _parse_prefix(p, ctx, registry)
    raise p.error(f"expected a process, found {_found(t)}")


def _at_input(p: _P) -> bool:
    """Whether an input's subject and its '?' are next."""
    t = p.peek()
    if t == "~":
        return p.peek(2) == "?"
    return _ident(t) and t not in RESERVED and p.peek(1) == "?"


def _parse_opened(p: _P, ctx: _Ctx, registry: _SortRegistry) -> tuple[Process, bool]:
    """The process just after a '(', and whether it read the ')': an input
    whose patterns `) ^ n` follows, with n at least 1, is the input power
    `(input)^n P`, n nested inputs."""
    if not _at_input(p):
        return _parse_seq(p, ctx, registry), False
    start = p.i
    subject = _parse_subject(p, ctx)
    p.take()  # '?'
    pats, annots, inner = _parse_patterns(p, ctx, registry)
    times = 0
    if p.at(")") and p.peek(1) == "^" and _nat(p.peek(2)):
        times = _count(p, p.i + 2)
        if times >= sys.getrecursionlimit():
            # no walker could descend through that many nested inputs
            raise p.error("input nests too deeply", p.i + 2)
    if times < 1:
        p.expect(".")
        return _node(p, start, PInp, subject, pats, _parse_seq(p, inner, registry), annots), False
    p.i += 3  # ') ^ n'
    cont = _parse_seq(p, inner, registry)
    for _ in range(times):
        cont = _node(p, start, PInp, subject, pats, cont, annots)
    return cont, True


def _parse_new(p: _P, ctx: _Ctx, registry: _SortRegistry, body_rule) -> tuple:
    """`new n` or `(new n)`, each with an optional `: T` and '.', then the
    body that `body_rule` reads: the 'new' token, the binder and the body."""
    closing = p.at("(")
    if closing:
        p.take()
    kw = p.i
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
    ctx2.bound_vars.discard(name)
    ctx.subject_evidence.add(name)  # restricted tokens are name-sorted
    return kw, (name, annot), body_rule(p, ctx2, registry)


def _parse_prefix(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    start = p.i
    subject = _parse_subject(p, ctx)
    if p.at("!"):
        p.take()
        p.expect("<")
        objs = _separated(p, ",", _parse_term, ctx, True)
        p.expect(">")
        p.expect(".")
        return _node(p, start, POut, subject, objs, _parse_seq(p, ctx, registry))
    if p.at("?"):
        p.take()
        pats, annots, inner = _parse_patterns(p, ctx, registry)
        p.expect(".")
        return _node(p, start, PInp, subject, pats, _parse_seq(p, inner, registry), annots)
    raise p.error("expected '!' or '?' after prefix subject")


# A term at system level is read once, into a cover: a tuple that keeps what
# each reading of the term needs until the construct around it fixes one.
# Tokens in it are indices.
#   ("leaf", tok, seqs)        a `|` composition of processes, from `tok`
#   ("new", kw, binder, body)  a restriction over the rest of its composition
#   ("par", items, bar)        a `||` composition; `bar` is its first '||'
#   ("parens", inner)
#   ("group", node, bracket)   a group, built; `bracket` is its '['

def _as_system(p: _P, c, bare: bool = False):
    """The cover as a system, each process in it an `SBare` at its first
    token. With `bare`, as the process that a group body with no group in
    it is, whose restrictions are unlocated."""
    match c:
        case ("leaf", tok, seqs):
            proc = _block((), seqs)
            return proc if bare else SBare(proc, p.span(tok))
        case ("new", kw, binder, body):
            return Block((binder,), (_as_system(p, body, bare),), None if bare else p.span(kw))
        case ("par", items, _):
            return Block((), tuple(_as_system(p, item, bare) for item in items))
        case ("parens", inner):
            return _as_system(p, inner, bare)
        case ("group", node, _):
            return node


def _as_seqs(p: _P, c) -> tuple:
    """The cover as a `|` composition in parentheses, each restriction in it
    over one process. A group or a '||' in it is an error at the first of
    them, reported as a process parse does (the diagnostics golden has it)."""
    match c:
        case ("leaf", _, seqs):
            return seqs
        case ("new", kw, binder, body):
            first, *rest = _as_seqs(p, body)
            return (Block((binder,), (first,), p.span(kw)), *rest)
        case ("parens", inner):
            return (_block((), _as_seqs(p, inner)),)
        case ("par", items, bar):
            _as_seqs(p, items[0])  # an error in the first operand comes first
            raise p.error("expected ')', found '||'", bar)
        case ("group", _, bracket):
            raise p.error("expected '!' or '?' after prefix subject", bracket)


def _parse_system(p: _P, ctx: _Ctx, registry: _SortRegistry) -> System:
    return _as_system(p, _system(p, ctx, registry))


def _system(p: _P, ctx: _Ctx, registry: _SortRegistry, first=None):
    """A `||` composition, as a cover; `first` is its first term when that
    is already read."""
    if first is None:
        first = _sys_term(p, ctx, registry)
    bar = p.i
    items = _separated(p, "||", _sys_term, ctx, registry, first=first)
    return first if len(items) == 1 else ("par", items, bar)


def _sys_term(p: _P, ctx: _Ctx, registry: _SortRegistry):
    """One operand of a `||` composition, as a cover."""
    t, k = p.peek(), p.i
    if t == "new" or (t == "(" and p.peek(1) == "new"):
        return ("new", *_parse_new(p, ctx, registry, _system))
    if _ident(t) and t not in RESERVED and p.peek(1) == "[":
        p.i += 2
        groups = p.groups
        body = _system(p, ctx, registry)
        p.expect("]")
        bare = p.groups == groups  # no group inside
        p.groups += 1
        inner = _as_system(p, body, bare)
        return ("group", _node(p, k, Group, t, SBare(inner) if bare else inner), k + 1)
    if t != "(":
        return ("leaf", k, _separated(p, "|", _parse_seq, ctx, registry))
    p.take()
    first = None
    if _at_input(p):
        start = p.i
        seq, closed = _parse_opened(p, ctx, registry)
        seqs = _separated(p, "|", _parse_seq, ctx, registry, first=seq)
        if closed:
            return ("leaf", k, seqs)
        first = ("leaf", start, seqs)
    inner = _system(p, ctx, registry, first)
    p.expect(")")
    if p.peek() in ("|", "^"):
        # the parentheses close a process before '|'; a '^' after them is an
        # error, reported at a group or '||' in them as for `(G[ 0 ])^2`
        return ("leaf", k, _separated(p, "|", _parse_seq, ctx, registry,
                                      first=_block((), _as_seqs(p, inner))))
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
    if t not in PERM_WORDS:
        raise p.error(f"expected a permission, found {t!r}")
    p.take()
    match t:
        case "disseminate":
            g = p.expect_ident("group name")
            lt, lk = p.peek(), p.i
            if _nat(lt):
                p.take()
                n = _count(p, lk)
                if n < 1:
                    raise p.error("dissemination budgets start at 1", lk)
                return disseminate(g, Lambda(n))
            if lt == "inf":
                p.take()
                return disseminate(g, OMEGA)
            raise p.error("expected a count or 'inf'")
        case "nondisclose":
            k = p.peek()
            if k not in ND_KINDS:
                raise p.error(f"expected one of {', '.join(ND_KINDS)}")
            p.take()
            return nondisclose(k)
        case "usage":
            return usage(p.expect_ident("purpose type"))
        case "identify":
            return identify(p.expect_ident("private type"))
    return _PLAIN_PERMS[t]


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
    return Hierarchy(g, PermSet(perms), children)


def _parse_policy(p: _P) -> Policy:
    bindings: list[tuple[str, Hierarchy]] = []
    while p.at("private"):
        p.take()
        t = p.expect_ident("private type")
        p.expect(">>")
        bindings.append((t, _parse_hier(p)))
        if p.at(";"):
            p.take()
    p.expect_eof()
    if not bindings:
        raise p.error("policy must bind at least one private type")
    return Policy(tuple(bindings))


def parse_policy(text: str) -> ParseResult:
    return _parse(text, _parse_policy)


# --- environment parsing -----------------------------------------------------------------

def _parse_entries(p: _P) -> tuple[list[tuple[object, PrivacyType, int]], _P]:
    """The entries, each `key : type` and optionally followed by ';', with
    its key's first token, and the cursor, which gives that token's span.
    The types are read with every angle type private, and resolved once
    all keys are read: a top-level angle type names a private sort under a
    private-data key and a purpose sort under a bare one."""
    read = _SortRegistry()
    entries = []
    while p.peek():
        k = p.i
        key = _parse_env_key(p)
        p.expect(":")
        entries.append((key, _parse_type(p, read), k))
        if p.at(";"):
            p.take()
    angles = [(isinstance(key, tuple), ty.ptype) for key, ty, _ in entries
              if isinstance(ty, TPrivate)]
    registry = _SortRegistry(private={t for private, t in angles if private},
                             purpose={t for private, t in angles if not private})
    return [(key, registry.resolve(ty), k) for key, ty, k in entries], p


def parse_env(text: str) -> ParseResult:
    """Entries: `name : G[...]`, `const : p<g>`, `{id # c} : t<g>` and
    pattern entries `{x # y} : t<g>` / `{_ # x} : t<g>`. Keys must be
    unique; every entry that breaks a rule gets a diagnostic."""
    res = _parse(text, _parse_entries)
    if not res.ok:
        return res
    read, p = res.value
    entries: dict[tuple[str, object], PrivacyType] = {}
    diags: list[Diagnostic] = []
    for key, ty, k in read:
        if isinstance(key, tuple):
            itok, dtok = key
            if not isinstance(ty, TPrivate):
                message = f"private data {itok} # {dtok} needs a private type"
            elif ("priv", key) in entries:
                message = f"duplicate entry {itok} # {dtok}"
            else:
                entries["priv", key] = ty
                continue
        elif ("atom", key) in entries:
            message = f"duplicate entry {key}"
        elif isinstance(ty, (TChan, TPurpose)):
            entries["atom", key] = ty
            continue
        else:
            # a bare token with a private type: a named private constant
            message = f"{key} needs '<id> # <data>' form for a private type"
        diags.append(Diagnostic(p.span(k), message))
    if diags:
        return ParseResult(None, diags)
    return ParseResult(Gamma((kind, key, ty) for (kind, key), ty in entries.items()), [])


def _parse_env_key(p: _P):
    t = p.peek()
    braced = t == "{"
    if braced:
        p.take()
        t = p.peek()
    k = p.i
    if not (t == "_" or _ident(t) or _nat(t)):
        raise p.error(f"expected an entry key, found {t!r}")
    p.take()
    if p.at("#"):
        p.take()
        d = p.peek()
        if not (_ident(d) or _nat(d)):
            raise p.error("expected a data token")
        p.take()
        if braced:
            p.expect("}")
        return (t, d)
    if braced:
        raise p.error("expected '#' inside a braced key")
    if t == "_":
        raise p.error("'_' alone is not an entry key", k)
    return t


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

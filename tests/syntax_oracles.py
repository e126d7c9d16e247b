"""Earlier forms of the front end, kept as test oracles.

`_lex` is the lexer as it was before tokens became tuples: it steps through
the text one character at a time, keeping the line and column as it goes,
and builds each token with its span.

`parse_system` and `parse_process` are the process and system parser as it
was before it read one cover grammar: it tries the system rules first and,
on an error, rewinds and reads the same tokens again as a process.
`_P.after_parens` looks ahead to choose a parenthesized term's family, and
the failure memo `_P.failed` keeps the rewinds from going quadratic.
"""

import sys
from typing import Optional

from privcalc import syntax
from privcalc.kernel import (
    NIL, Block, Group, PIf, PInp, POut, PRepl, PStore, Process, SBare, Span,
    System, _block,
)
from privcalc.syntax import (
    _PUNCT1, _PUNCT2, RESERVED, TENSOR, LexError, ParseError, Tok, _count,
    _Ctx, _node, _parse, _parse_patterns, _parse_pdata, _parse_program,
    _parse_subject, _parse_term, _parse_type, _separated, _SortRegistry,
)


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


class _P(syntax._P):
    """A cursor that can rewind, over a token list that is already padded."""

    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.i = 0
        self._closers: Optional[dict[int, int]] = None
        # token index → (the bound variables, the error) of each failed
        # `_parse_seq` from there
        self.failed: dict[int, tuple[frozenset, ParseError]] = {}

    def mark(self) -> int:
        return self.i

    def reset(self, m: int):
        self.i = m

    def after_parens(self) -> Optional[Tok]:
        """The token after the ')' that closes the '(' at the cursor, or
        None when no ')' closes it. The parentheses are paired in one pass
        over the tokens, on first use."""
        if self._closers is None:
            self._closers, opened = {}, []
            for j, t in enumerate(self.toks):
                if t.text == "(":
                    opened.append(j)
                elif t.text == ")" and opened:
                    self._closers[opened.pop()] = j
        j = self._closers.get(self.i)
        return None if j is None else self.toks[j + 1]


def parse_system(text: str, gamma=None):
    return _parse(text, lambda p: _parse_program(_P(p.toks), gamma, _parse_system))


def parse_process(text: str, gamma=None):
    return _parse(text, lambda p: _parse_program(_P(p.toks), gamma, _parse_process))


def _parse_process(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    return _block((), _separated(p, "|", _parse_seq, ctx, registry))


def _parse_seq(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Process:
    """One process of a `|` composition. A parse that failed is remembered
    at its first token, and a parse from there with the same bound
    variables re-raises its error: the outcome depends on nothing else.
    Without that, rejecting `new a. ` or `(` nested n deep would cost n²,
    since every level's process fallback parses what the levels inside it
    tried."""
    m = p.i
    failed = p.failed.get(m)
    if failed is not None and ctx.bound_vars == failed[0]:
        raise failed[1]
    try:
        t = p.peek()
        if t.kind == "NAT" and t.text == "0":
            p.take()
            return NIL
        if t.text == "*":
            p.take()
            return _node(t, PRepl, _parse_seq(p, ctx, registry))
        if t.kind == "IDENT" and t.text == "new":
            return _parse_new(p, ctx, registry, _parse_seq)
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
            # '(new ...)', the input power '(prefix)^n P', or a parenthesized process
            p.take()
            if p.at_ident("new"):
                return _parse_new(p, ctx, registry, _parse_seq, closing=True)
            power = _try_input_power(p, ctx, registry)
            if power is not None:
                return power
            inner = _parse_process(p, ctx, registry)
            p.expect(")")
            return inner
        if t.kind == "IDENT" or t.text == "~":
            return _parse_prefix(p, ctx, registry)
        found = repr(t.text) if t.text else "end of input"
        raise ParseError(t.span, f"expected a process, found {found}")
    except ParseError as e:
        p.failed[m] = (frozenset(ctx.bound_vars), e)
        raise


def _try_input_power(p: _P, ctx: _Ctx, registry: _SortRegistry) -> Optional[Process]:
    """Attempt `subject ? ( patterns ) ) ^ NAT cont` with the opening paren
    already consumed; on failure rewind to just past the paren and return
    None."""
    m = p.mark()
    start = p.peek()
    try:
        subject = _parse_subject(p, ctx)
        p.expect("?")
        pats, annots, inner = _parse_patterns(p, ctx, registry)
        p.expect(")")
        p.expect("^")
        count = p.take()
        if count.kind != "NAT":
            raise ParseError(count.span, "expected a repetition count after '^'")
    except ParseError:
        p.reset(m)
        return None
    times = _count(count)
    if times < 1:
        # not an input power, so the caller parses the '(' as a process
        p.reset(m)
        return None
    if times >= sys.getrecursionlimit():
        # no walker could descend through that many nested inputs
        raise ParseError(count.span, "input nests too deeply")
    cont = _parse_seq(p, inner, registry)
    for _ in range(times):
        cont = _node(start, PInp, subject, pats, cont, annots)
    return cont


def _parse_new(p: _P, ctx: _Ctx, registry: _SortRegistry, body_parser, closing: bool = False):
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
    return _node(kw, Block, ((name.text, annot),), (body_parser(p, ctx2, registry),))


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
    return _block((), _separated(p, "||", _parse_sys_atom, ctx, registry))


def _parse_sys_atom(p: _P, ctx: _Ctx, registry: _SortRegistry) -> System:
    t = p.peek()
    closing = t.text == "(" and p.peek(1).text == "new"
    if closing or t.text == "new":
        # `new n. S` and `(new n) S`, unless a process composition follows
        m = p.mark()
        if closing:
            p.take()
        try:
            node = _parse_new(p, ctx, registry, _parse_system, closing)
            if p.at("|"):
                raise ParseError(p.peek().span, "process composition after restriction")
            return node
        except ParseError:
            p.reset(m)
            return _node(t, SBare, _parse_process(p, ctx, registry))
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
        return _node(group, Group, group.text, inner)
    if t.text == "(":
        # A parenthesized system, unless its ')' is missing or followed by
        # process syntax: every rule closes the parentheses it opens, so
        # then only the process can parse, and it is parsed only once.
        after = p.after_parens()
        if after is not None and after.text not in ("^", ".", "|"):
            m = p.mark()
            p.take()
            try:
                inner = _parse_system(p, ctx.child(), registry)
                p.expect(")")
                return inner
            except ParseError:
                p.reset(m)
    return _node(t, SBare, _parse_process(p, ctx, registry))

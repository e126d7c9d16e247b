"""The lexer as it was before tokens became tuples, kept as a test oracle.

`_lex` steps through the text one character at a time, keeping the line and
column as it goes, and builds each token with its span.
"""

from privcalc.kernel import Span
from privcalc.syntax import _PUNCT1, _PUNCT2, TENSOR, LexError, Tok


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

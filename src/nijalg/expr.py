"""Expression language for the CLI: tokenizer, parser, printer, evaluator.

Grammar (all binary word-products share one precedence level, below +/-,
and associate left; mixed chains should be parenthesized):

    expr   := sum
    sum    := prod (('+'|'-') prod)*
    prod   := [scalar '*'?] atom (binop atom)*
    binop  := '*' | 'sh' | '#' | '@' | '%' | '<' | '>' | '&'
    atom   := word | '(' sum ')' | ('B+'|'B-') '(' sum ')'
    word   := '1' | letter ('.' letter)*
    letter := 'e' | ident ['^' int] | '[' ident ['^' int] (ident ['^' int])* ']'
    ident  := [a-z][a-z0-9_]*  except 'e' and 'sh'
    scalar := int ['/' int]

Lexing takes two steps.  `tokenize` first checks the whole input for a
character that starts no token, in one regex scan, so a lexical error
anywhere is reported before any parse error.  It then hands the parser a
token stream that lexes only as far as the parser reads: input the parser
rejects, say past MAX_NESTING, is read only up to that point.  A token
holds its offset, and an error turns the offset into a line and column.

The AST nodes are slotted, immutable ``base.Record`` tuples of their fields,
compared and hashed by type and fields.  An operator node's tag is the
operator as written: one of ``BINOPS`` for a ``BinOp``, 'B+' or 'B-' for a
``UnaryOp``.  The parser stores the token's text, the printer writes the
tag, and the evaluator looks the tag up.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Tuple, Union

from .base import MONO_UNIT, Monomial, exact, record_class
from .dendriform import DendriformContext
from .errors import EmptyWordTermError, ExprSyntaxError, ReservedSymbolError
from .products import (
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    mod_quasi_shuffle,
    quasi_shuffle,
    shuffle,
)
from .tensor import TensorElement, Word, b_minus, b_plus, word_str

# the infix products the parser accepts, in the grammar's order
BINOPS = ("*", "sh", "#", "@", "%", "<", ">", "&")


WordLit = record_class("WordLit", "word")
Add = record_class("Add", "left", "right")
Sub = record_class("Sub", "left", "right")
Scale = record_class("Scale", "coeff", "child")
BinOp = record_class("BinOp", "tag", "left", "right")
UnaryOp = record_class("UnaryOp", "tag", "child")
Node = Union[WordLit, Add, Sub, Scale, BinOp, UnaryOp]


class Token:
    """A lexeme, its kind (NUM, IDENT, BPLUS, BMINUS, SYM or EOF) and its
    offset in the input; ``line_col`` turns the offset into a position."""

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def line_col(text: str, pos: int) -> Tuple[int, int]:
    """The 1-based line and column of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<BPLUS>B\+)
      | (?P<BMINUS>B-)
      | (?P<NUM>\d+)
      | (?P<IDENT>[a-z][a-z0-9_]*)
      | (?P<SYM>[-+*/\#@%<>&().\[\]^])
    """,
    re.X,
)

# The first character where _TOKEN_RE, matched token after token from the
# start, finds no token is the last character of this pattern's first match:
# a character no token starts with, a 'B' not followed by '+' or '-', or a
# '_' that no identifier holds.  Only an identifier holds '_', and only when
# the character before the '_', or before the digits that lead up to it, is
# an identifier character; digits after anything else lex as a NUM, which
# stops at the '_'.
_LEX_ERROR_RE = re.compile(r"[^\s\da-z_B+\-*/\#@%<>&().\[\]^]|B(?![+-])|(?<![a-z0-9_])\d*_")


def tokenize(text: str):
    """Check all of ``text`` for lexical errors in one regex scan, then return
    an iterator over its tokens, ending with EOF, that lexes only as far as
    it is read."""
    bad = _LEX_ERROR_RE.search(text)
    if bad:
        pos = bad.end() - 1
        raise ExprSyntaxError(f"unexpected character {text[pos]!r}", *line_col(text, pos))
    return _tokens(text)


def _tokens(text: str):
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind != "WS":
            yield Token(kind, match.group(), match.start())
    yield Token("EOF", "", len(text))


_ATOM_START = ("NUM", "IDENT", "BPLUS", "BMINUS")

# Deepest accepted nesting of '(' and 'B+(' / 'B-('.  Each level costs about
# four parser frames and one evaluator frame, so this stays well inside
# Python's default recursion limit of 1000 even when called from deep stacks.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over a token stream: ``tok`` is the current token,
    and ``lookahead`` reads the one after it."""

    def __init__(self, text: str, tokens):
        self.text = text
        self.tokens = tokens
        self.tok = next(tokens)
        self.ahead = None
        self.depth = 0

    def lookahead(self) -> Token:
        """The token after ``tok``, which must not be EOF."""
        if self.ahead is None:
            self.ahead = next(self.tokens)
        return self.ahead

    def advance(self) -> Token:
        """Step past ``tok``, which every caller has checked is not EOF."""
        tok = self.tok
        if self.ahead is None:
            self.tok = next(self.tokens)
        else:
            self.tok, self.ahead = self.ahead, None
        return tok

    def error(self, message, at=None):
        """Raise at the current token, or at the token ``at``."""
        pos = (self.tok if at is None else at).pos
        raise ExprSyntaxError(message, *line_col(self.text, pos))

    def expect_sym(self, sym: str) -> Token:
        tok = self.tok
        if tok.kind == "SYM" and tok.text == sym:
            return self.advance()
        self.error(f"expected {sym!r}, got {tok.text or 'end of input'!r}")

    def at_sym(self, *syms) -> bool:
        tok = self.tok
        return tok.kind == "SYM" and tok.text in syms

    def at_binop(self) -> bool:
        # only a SYM or the IDENT 'sh' has the text of a binop
        return self.tok.text in BINOPS

    # ---- grammar ----

    def parse_sum(self) -> Node:
        node = self.parse_prod()
        while self.at_sym("+", "-"):
            op = self.advance().text
            rhs = self.parse_prod()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def _starts_scalar(self) -> bool:
        if self.tok.kind != "NUM":
            return False
        nxt = self.lookahead()
        # "2/3 a", "2*a", or "2 a": a scalar immediately followed by an atom
        if nxt.kind == "SYM":
            return nxt.text in ("/", "*", "(", "[")
        return nxt.kind in _ATOM_START and nxt.text not in BINOPS

    def parse_prod(self) -> Node:
        coeff = None
        if self._starts_scalar():
            coeff = self.parse_scalar()
            if self.at_sym("*"):
                self.advance()
        node = self.parse_atom()
        if coeff is not None:
            node = Scale(coeff, node)
        while self.at_binop():
            node = BinOp(self.advance().text, node, self.parse_atom())
        return node

    def parse_int(self) -> int:
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts from a string
            self.error(f"integer literal too long ({len(tok.text)} digits)", at=tok)

    def parse_scalar(self) -> Fraction:
        num = self.parse_int()
        if self.at_sym("/"):
            self.advance()
            if self.tok.kind != "NUM":
                self.error("expected denominator")
            literal = self.tok
            den = self.parse_int()
            if den == 0:
                self.error("zero denominator", at=literal)
            return Fraction(num, den)
        return Fraction(num)

    def parse_atom(self) -> Node:
        tok = self.tok
        if tok.kind in ("BPLUS", "BMINUS"):
            self.advance()
            self.expect_sym("(")
            return UnaryOp(tok.text, self.parse_nested(tok))
        if self.at_sym("("):
            self.advance()
            return self.parse_nested(tok)
        if tok.kind == "NUM" and tok.text == "1":
            self.advance()
            return WordLit(())
        if tok.kind == "IDENT" or self.at_sym("["):
            return WordLit(self.parse_word())
        self.error(f"expected a word, '(' or 'B+'/'B-', got {tok.text or 'end of input'!r}")

    def parse_nested(self, opener: Token) -> Node:
        """The `sum ')'` after ``opener``'s '(', at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            self.error(f"parentheses nested deeper than {MAX_NESTING} levels", at=opener)
        self.depth += 1
        inner = self.parse_sum()
        self.expect_sym(")")
        self.depth -= 1
        return inner

    def parse_word(self) -> Word:
        letters = [self.parse_letter()]
        while self.at_sym("."):
            self.advance()
            letters.append(self.parse_letter())
        return tuple(letters)

    def parse_letter(self) -> Monomial:
        if self.at_sym("["):
            self.advance()
            pairs = [self.parse_genexp()]
            while self.tok.kind == "IDENT":
                pairs.append(self.parse_genexp())
            self.expect_sym("]")
            # Monomial adds the exponents of a repeated generator
            return Monomial(pairs)
        tok = self.tok
        if tok.kind != "IDENT":
            self.error(f"expected a letter, got {tok.text or 'end of input'!r}")
        if tok.text == "e":
            self.advance()
            return MONO_UNIT
        # the token grammar has checked the name and parse_genexp the exponent
        return Monomial._from_pairs((self.parse_genexp(),))

    def parse_genexp(self) -> Tuple[str, int]:
        tok = self.tok
        if tok.kind != "IDENT":
            self.error(f"expected a generator, got {tok.text or 'end of input'!r}")
        if tok.text == "e":
            line, col = line_col(self.text, tok.pos)
            raise ReservedSymbolError(
                f"{line}:{col}: 'e' is the unit and cannot name a generator"
            )
        if tok.text == "sh":
            self.error("'sh' is a reserved word and cannot name a generator")
        name = self.advance().text
        exp = 1
        if self.at_sym("^"):
            self.advance()
            if self.tok.kind != "NUM":
                self.error("expected an exponent")
            literal = self.tok
            exp = self.parse_int()
            if exp < 1:
                self.error("exponents must be positive", at=literal)
        return name, exp


def parse_expr(text: str) -> Node:
    parser = _Parser(text, tokenize(text))
    node = parser.parse_sum()
    if parser.tok.kind != "EOF":
        parser.error(f"unexpected trailing input {parser.tok.text!r}")
    return node


# Add, Sub and BinOp chains nest to the left, one level per term, so both
# the printer and the evaluator walk this left spine in a loop; only the
# right operands and the atoms, bounded by MAX_NESTING, recurse.
_CHAIN = (Add, Sub, BinOp)


def _left_spine(node: Node):
    """The chain nodes above the leftmost non-chain node, innermost first,
    and that leaf."""
    spine = []
    while isinstance(node, _CHAIN):
        spine.append(node)
        node = node.left
    spine.reverse()
    return spine, node


def _is_atom(node: Node) -> bool:
    return isinstance(node, UnaryOp) or (isinstance(node, WordLit) and bool(node.word))


def _atom_text(node: Node) -> str:
    """Render a node so it re-parses as a single atom."""
    text = to_text(node)
    return text if _is_atom(node) else f"({text})"


def to_text(node: Node) -> str:
    """Deterministic rendering; parse(to_text(ast)) reproduces the AST."""
    spine, leaf = _left_spine(node)
    if isinstance(leaf, WordLit):
        text = word_str(leaf.word)
    elif isinstance(leaf, Scale):
        text = f"{leaf.coeff}*{_atom_text(leaf.child)}"
    elif isinstance(leaf, UnaryOp):
        text = f"{leaf.tag}({to_text(leaf.child)})"
    else:
        raise TypeError(f"not an AST node: {leaf!r}")
    left = leaf
    for link in spine:
        if isinstance(link, BinOp):
            # all binops share one left-associative level, so a binop chain
            # needs no parentheses on its left
            lhs = text if _is_atom(left) or isinstance(left, BinOp) else f"({text})"
            text = f"{lhs} {link.tag} {_atom_text(link.right)}"
        else:
            rhs = to_text(link.right)
            if isinstance(link.right, (Add, Sub)):
                rhs = f"({rhs})"
            text = f"{text} {'+' if isinstance(link, Add) else '-'} {rhs}"
        left = link
    return text


def eval_expr(node: Node, lam=1) -> TensorElement:
    """Evaluate an AST onto the tensor module at the given λ."""
    lam = exact(lam)
    ctx = DendriformContext(lam)
    ops = {
        "*": lambda x, y: quasi_shuffle(x, y, lam),
        "sh": shuffle,
        "#": lambda x, y: aug_quasi_shuffle(x, y, lam),
        "@": lambda x, y: mod_quasi_shuffle(x, y, lam),
        "%": aug_mod_quasi_shuffle,
        "<": ctx.prec,
        ">": ctx.succ,
        "&": ctx.bullet,
        "B+": b_plus,
        "B-": b_minus,
    }

    def apply(n: Node, *args: TensorElement) -> TensorElement:
        # operands are evaluated by the caller, so an error is annotated
        # once, with the innermost node whose own operation failed
        try:
            return ops[n.tag](*args)
        except EmptyWordTermError as err:
            raise EmptyWordTermError(f"{err} (in '{to_text(n)}')") from None

    def go(n: Node) -> TensorElement:
        spine, leaf = _left_spine(n)
        if isinstance(leaf, WordLit):
            value = TensorElement.from_word(leaf.word)
        elif isinstance(leaf, Scale):
            value = leaf.coeff * go(leaf.child)
        elif isinstance(leaf, UnaryOp):
            value = apply(leaf, go(leaf.child))
        else:
            raise TypeError(f"not an AST node: {leaf!r}")
        for link in spine:
            if isinstance(link, Add):
                value = value + go(link.right)
            elif isinstance(link, Sub):
                value = value - go(link.right)
            else:
                value = apply(link, value, go(link.right))
        return value

    return go(node)

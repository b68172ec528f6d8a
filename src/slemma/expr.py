"""Parser and evaluator for scalar functions of n real variables.

Grammar (no implicit multiplication, whitespace ignored):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | primary ('^' unary)?  # '^' right-assoc., above '-'
    primary := number | variable | call | '(' expr ')'
    call    := ('sin'|'cos'|'exp'|'log'|'sqrt'|'abs') '(' expr ')'
             | ('min'|'max') '(' expr ',' expr ')'

Numbers are decimal or scientific; variables are x1..xn only.

Parsing recurses on parentheses, evaluation and printing on the syntax
tree, so `parse` rejects with ExprSyntaxError parentheses (a call's
included) nested more than MAX_DEPTH = 100 deep, or a tree more than 100
operators, minus signs and calls high (a k-term chain a + b + ... is
k - 1 high).  Then the three stay within about 600 Python frames.
"""

import math

import numpy as np

from .errors import DomainError

MAX_DEPTH = 100
_FUNCTIONS_1 = {"sin", "cos", "exp", "log", "sqrt", "abs"}
_FUNCTIONS_2 = {"min", "max"}


class ExprSyntaxError(Exception):
    """Malformed source; `position` is the 0-based offset of the problem."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(Exception):
    def __init__(self, name, position):
        super().__init__(f"unknown identifier '{name}' (at position {position})")
        self.name = name
        self.position = position


class IndexOutOfRange(Exception):
    def __init__(self, name, index, n, position):
        super().__init__(
            f"variable '{name}' out of range: index {index} not in 1..{n}"
        )
        self.index = index
        self.position = position


# AST nodes: ("num", value) | ("var", index0) | ("neg", a)
#          | ("bin", op, a, b) | ("call", name, args tuple)


class Expression:
    """Immutable parsed expression over variables x1..xn."""

    def __init__(self, ast, dimension, source=None):
        self.ast = ast
        self.dimension = dimension
        self.source = source

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return f"Expression({to_source(self)!r}, n={self.dimension})"


class _Tokenizer:
    def __init__(self, source):
        self.src = source
        self.pos = 0
        self.tokens = []
        self._run()

    def _run(self):
        src, i, n = self.src, 0, len(self.src)
        depth = 0       # of open parentheses, which the parser recurses on
        while i < n:
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^(),":
                depth += (ch == "(") - (ch == ")")
                if depth > MAX_DEPTH:
                    raise ExprSyntaxError(
                        f"parentheses nested more than {MAX_DEPTH} deep", i)
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit() or ch == ".":
                j = i
                while j < n and (src[j].isdigit() or src[j] == "."):
                    j += 1
                if j < n and src[j] in "eE":
                    k = j + 1
                    if k < n and src[k] in "+-":
                        k += 1
                    if k < n and src[k].isdigit():
                        j = k
                        while j < n and src[j].isdigit():
                            j += 1
                text = src[i:j]
                try:
                    value = float(text)
                except ValueError:
                    raise ExprSyntaxError(f"bad number '{text}'", i) from None
                if not math.isfinite(value):
                    raise ExprSyntaxError(f"non-finite number '{text}'", i)
                self.tokens.append(("num", value, i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self.tokens.append(("ident", src[i:j], i))
                i = j
                continue
            raise ExprSyntaxError(f"unexpected character '{ch}'", i)
        self.tokens.append(("end", None, n))


class _Parser:
    def __init__(self, source, n):
        self.n = n
        self.tokens = _Tokenizer(source).tokens
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected '{kind}', found '{tok[1]}'", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input '{tok[1]}'", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        # '-' unary | primary ('^' unary)?, read in a loop so that neither
        # minus signs nor exponents recurse: x^-y^z is x^(-(y^z)) and
        # -x^2 is -(x^2)
        chain = []
        while True:
            signs = 0
            while self.peek()[0] == "-":
                self.take()
                signs += 1
            chain.append((signs, self.primary()))
            if self.peek()[0] != "^":
                break
            self.take()
        node = None
        for signs, base in reversed(chain):
            node = base if node is None else ("bin", "^", base, node)
            for _ in range(signs):
                node = ("neg", node)
        return node

    def primary(self):
        tok = self.take()
        kind, value, pos = tok
        if kind == "num":
            return ("num", value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            return self.identifier(value, pos)
        raise ExprSyntaxError(f"expected a value, found '{value}'", pos)

    def identifier(self, name, pos):
        if name in _FUNCTIONS_1 or name in _FUNCTIONS_2:
            self.expect("(")
            first = self.expr()
            if name in _FUNCTIONS_2:
                self.expect(",")
                second = self.expr()
                self.expect(")")
                return ("call", name, (first, second))
            self.expect(")")
            return ("call", name, (first,))
        if name.startswith("x") and name[1:].isdigit():
            index = int(name[1:])
            if not 1 <= index <= self.n:
                raise IndexOutOfRange(name, index, self.n, pos)
            return ("var", index - 1)
        raise UnknownIdentifier(name, pos)


def parse(source, n):
    """Parse `source` into an Expression over x1..xn."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    ast = _Parser(source, n).parse()
    if _height(ast) > MAX_DEPTH:
        raise ExprSyntaxError(
            f"expression more than {MAX_DEPTH} operations deep", 0)
    return Expression(ast, n, source=source)


def _height(ast):
    """The tree's height, found without recursion."""
    height, stack = 0, [(ast, 0)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        kids = {"neg": node[1:], "bin": node[2:], "call": node[-1]}
        stack += [(kid, depth + 1) for kid in kids.get(node[0], ())]
    return height


def evaluate(e, x):
    """Value of the expression at the point x (length n): the bits of x's
    row in `evaluate_batch`.  Raises DomainError naming the subexpression
    for a zero divisor, log of a value <= 0, sqrt of a negative value, or
    an undefined power (0 to a negative power, a negative base to a
    fractional power)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (e.dimension,):
        raise ValueError(
            f"point has length {x.size}, expression has dimension {e.dimension}"
        )
    with np.errstate(all="ignore"):
        return float(_eval_batch(e.ast, x[None], True)[0])


_OPERATIONS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "^": np.power, "min": np.minimum, "max": np.maximum, "sin": np.sin,
    "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs,
}


def _eval_batch(node, X, strict):
    """Values of the AST node at the rows of X.  With `strict` a domain
    fault raises DomainError; without, its rows come back non-finite."""
    kind = node[0]
    if kind == "num":
        return np.full(X.shape[0], node[1])
    if kind == "var":
        return X[:, node[1]]
    if kind == "neg":
        return -_eval_batch(node[1], X, strict)
    op = node[1]
    operands = node[2:] if kind == "bin" else node[2]
    args = [_eval_batch(a, X, strict) for a in operands]
    if strict:
        reason = _domain_fault(op, *args)
        if reason:
            raise DomainError(reason, _node_source(node))
    return _OPERATIONS[op](*args)


def _domain_fault(op, a, b=None):
    """Why some row of `a op b` (or `op(a)`) is undefined, or None."""
    if op == "/" and np.any(b == 0.0):
        return "division by zero"
    if op == "^":
        finite = np.isfinite(b)
        if np.any(finite & (a == 0.0) & (b < 0.0)):
            return "zero raised to a negative power"
        if np.any(finite & np.isfinite(a) & (a < 0.0) & (b != np.floor(b))):
            return "fractional power of a negative base"
    if op == "log" and np.any(a <= 0.0):
        return "log of a non-positive value"
    if op == "sqrt" and np.any(a < 0.0):
        return "sqrt of a negative value"
    return None


def evaluate_batch(e, X):
    """Evaluate at each row of X (shape (m, n)).  Out-of-domain rows come
    back non-finite (nan/inf) instead of raising; callers treat those as
    skipped points."""
    X = np.asarray(X, dtype=float)
    with np.errstate(all="ignore"):
        out = _eval_batch(e.ast, X, False)
    return np.asarray(out, dtype=float)


def to_source(e_or_node):
    """Fully parenthesized text form; reparsing evaluates identically."""
    node = e_or_node.ast if isinstance(e_or_node, Expression) else e_or_node
    return _node_source(node)


def _node_source(node):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return f"x{node[1] + 1}"
    if kind == "neg":
        return f"(-{_node_source(node[1])})"
    if kind == "bin":
        return f"({_node_source(node[2])} {node[1]} {_node_source(node[3])})"
    args = ", ".join(_node_source(a) for a in node[2])
    return f"{node[1]}({args})"

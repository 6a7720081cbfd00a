"""Scalar expression trees over chart coordinates and named parameters.

Grammar (infix):
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # '^' is right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^', so ``-x^2`` means ``-(x^2)``.
Known functions: exp, ln, sin, cos, tan, cot, sqrt.  The names ``pi`` and
``e`` are constants, not symbols.  Everything else is a free symbol to be
bound at evaluation time (a chart coordinate or a named parameter).

Expressions are immutable and hash-consed: every node class interns its
instances on construction, keyed on the node type, its payload and the
identities of its children (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006), so structurally equal expressions are one object
however they were built.  The intern table holds its nodes weakly, so a
node lives exactly as long as something else refers to it.  Each node
caches its simplified form and, weakly, its derivatives, so simplifying or
differentiating a node again, in any call, is one lookup.
Vectorised evaluation (evaluate_many_multi) computes each node once and
runs over the points in fixed-size chunks so that only the roots' values
outlive a chunk.
"""

import math
import operator
import re
import struct
import weakref

import numpy as np

FUNCTIONS = ("exp", "ln", "sin", "cos", "tan", "cot", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}
RESERVED_NAMES = frozenset(FUNCTIONS) | frozenset(CONSTANTS)

# points per chunk of vectorised evaluation: the fastest of 1,024-100k for
# the bundled sasakian3 checks at 100k points (2-vCPU x86, numpy 2.4)
CHUNK_POINTS = 8192

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_FLOAT_BITS = struct.Struct("<d").pack


class ExpressionError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExpressionError):
    """Syntax error; carries the byte offset and the expected-token set."""

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)


class UnknownFunctionError(ParseError):
    """A name was applied like a function but is not a known function."""


class UnboundSymbolError(ExpressionError):
    """Evaluation hit a symbol with no binding in the environment."""

    def __init__(self, name):
        super().__init__(f"unbound symbol {name!r}")
        self.name = name


class DomainError(ExpressionError):
    """Evaluation left the domain of a subexpression at a concrete point."""

    def __init__(self, message, subexpression, point):
        super().__init__(f"{message} in {render(subexpression)!r} at {point}")
        self.subexpression = subexpression
        self.point = dict(point)


class Expression:
    """Base of the interned node classes.

    _simple caches the node's simplify() result (True when the node is its
    own simplification, so no node refers to itself); _derivatives maps a
    variable name to a weak reference to the node's derivative, since a
    derivative may contain its node (d exp(u) = exp(u) * du).
    """

    __slots__ = ("__weakref__", "_simple", "_derivatives")
    precedence = 10

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return pow_(self, _coerce(other))

    def __neg__(self):
        return neg(self)

    def __reduce__(self):
        # copies and unpickled nodes are rebuilt through __new__, so interned
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<{type(self).__name__} {render(self)!r}>"


# The live nodes by structure: (type, payload, id of each child).  Values
# are held weakly, so the table keeps no node alive; a live node keeps its
# children alive, so the child ids in its key cannot be reused meanwhile.
_INTERNED = weakref.WeakValueDictionary()


def _new_node(cls, key):
    node = object.__new__(cls)
    node._simple = node._derivatives = None
    _INTERNED[key] = node
    return node


class Num(Expression):
    __slots__ = _fields = ("value",)
    precedence = 10

    def __new__(cls, value):
        value = float(value)
        # keyed by IEEE bits, so 0.0 and -0.0 (and NaN payloads) stay apart
        key = (cls, _FLOAT_BITS(value))
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls, key)
            node.value = value
        return node


class Sym(Expression):
    __slots__ = _fields = ("name",)
    precedence = 10

    def __new__(cls, name):
        key = (cls, name)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls, key)
            node.name = name
        return node


class Neg(Expression):
    __slots__ = _fields = ("arg",)
    precedence = 1.5

    def __new__(cls, arg):
        key = (cls, id(arg))
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls, key)
            node.arg = arg
        return node


class _Binary(Expression):
    __slots__ = _fields = ("left", "right")
    symbol = "?"

    def __new__(cls, left, right):
        key = (cls, id(left), id(right))
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls, key)
            node.left = left
            node.right = right
        return node


class Add(_Binary):
    __slots__ = ()
    symbol = "+"
    precedence = 1


class Sub(_Binary):
    __slots__ = ()
    symbol = "-"
    precedence = 1


class Mul(_Binary):
    __slots__ = ()
    symbol = "*"
    precedence = 2


class Div(_Binary):
    __slots__ = ()
    symbol = "/"
    precedence = 2


class Pow(_Binary):
    __slots__ = ()
    symbol = "^"
    precedence = 4


class Call(Expression):
    __slots__ = _fields = ("func", "arg")
    precedence = 10

    def __new__(cls, func, arg):
        key = (cls, func, id(arg))
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls, key)
            node.func = func
            node.arg = arg
        return node


ZERO = Num(0.0)
ONE = Num(1.0)


def _coerce(value):
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Num(value)
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


# Smart constructors: prune additive/multiplicative identities at build
# time so derived tensors stay small.  Full rewriting lives in simplify().

def add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Sub(a, b)


def mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def div(a, b):
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return ZERO
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def pow_(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return ONE
    return Pow(a, b)


def neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def call(func, arg):
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    return Call(func, arg)


_SMART = {Add: add, Sub: sub, Mul: mul, Div: div, Pow: pow_}


def free_symbols(e):
    """Set of symbol names appearing in the tree."""
    names = set()
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Sym):
            names.add(node.name)
        else:
            stack.extend(_children(node))
    return frozenset(names)


def differentiate(e, var):
    """Exact derivative of e with respect to the symbol named var."""
    if not isinstance(var, str) or not _NAME_RE.fullmatch(var):
        raise ValueError(f"invalid differentiation variable {var!r}")
    return _derivative(e, var)


def _derivative(node, var):
    cache = node._derivatives
    if cache is None:
        cache = node._derivatives = {}
    else:
        ref = cache.get(var)
        out = None if ref is None else ref()
        if out is not None:
            return out
    if isinstance(node, Num):
        out = ZERO
    elif isinstance(node, Sym):
        out = ONE if node.name == var else ZERO
    elif isinstance(node, Neg):
        out = neg(_derivative(node.arg, var))
    elif isinstance(node, Add):
        out = add(_derivative(node.left, var), _derivative(node.right, var))
    elif isinstance(node, Sub):
        out = sub(_derivative(node.left, var), _derivative(node.right, var))
    elif isinstance(node, Mul):
        out = add(mul(_derivative(node.left, var), node.right),
                  mul(node.left, _derivative(node.right, var)))
    elif isinstance(node, Div):
        da, db = _derivative(node.left, var), _derivative(node.right, var)
        if _is_num(db, 0.0):
            out = div(da, node.right)
        else:
            out = div(sub(mul(da, node.right), mul(node.left, db)),
                      mul(node.right, node.right))
    elif isinstance(node, Pow):
        out = _pow_derivative(node, _derivative(node.left, var),
                              _derivative(node.right, var))
    elif isinstance(node, Call):
        out = _call_derivative(node, _derivative(node.arg, var))
    else:  # pragma: no cover - exhaustive over node kinds
        raise TypeError(f"cannot differentiate {type(node).__name__}")
    cache[var] = weakref.ref(out)
    return out


def _pow_derivative(node, da, db):
    base, expo = node.left, node.right
    if isinstance(expo, Num):
        # power rule keeps negative bases legal for integer exponents
        return mul(mul(expo, pow_(base, Num(expo.value - 1.0))), da)
    terms = ZERO
    if not _is_num(db, 0.0):
        terms = add(terms, mul(db, Call("ln", base)))
    if not _is_num(da, 0.0):
        terms = add(terms, div(mul(expo, da), base))
    return mul(node, terms)


def _call_derivative(node, da):
    a = node.arg
    if node.func == "exp":
        return mul(node, da)
    if node.func == "ln":
        return div(da, a)
    if node.func == "sin":
        return mul(Call("cos", a), da)
    if node.func == "cos":
        return neg(mul(Call("sin", a), da))
    if node.func == "tan":
        return div(da, mul(Call("cos", a), Call("cos", a)))
    if node.func == "cot":
        return neg(div(da, mul(Call("sin", a), Call("sin", a))))
    if node.func == "sqrt":
        return div(da, mul(Num(2.0), node))
    raise ValueError(f"unknown function {node.func!r}")  # pragma: no cover


def simplify(e):
    """Constant folding plus the identity rules x+0, x*1, x*0, 0/x, x^1, x^0.

    Purely structural: the result evaluates identically to the input at
    every point where the input is defined.  The result is cached on each
    node, and simplify(simplify(e)) is simplify(e).
    """
    return _simplified(e)


def _simplified(node):
    cached = node._simple
    if cached is True:
        return node
    if cached is not None:
        return cached
    kind = type(node)
    if kind is Num or kind is Sym:
        out = node
    elif kind is Neg:
        a = _simplified(node.arg)
        if isinstance(a, Num):
            out = Num(-a.value)
        elif isinstance(a, Neg):
            out = a.arg
        else:
            out = Neg(a)
    elif kind is Call:
        out = Call(node.func, _simplified(node.arg))
    else:
        out = _simplify_binary(kind, _simplified(node.left), _simplified(node.right))
    node._simple = True if out is node else out
    return out


def _simplify_binary(kind, a, b):
    if kind is Pow and isinstance(a, Num) and isinstance(b, Num):
        v = _float_pow(a.value, b.value)
        if v is not None:
            return Num(v)
    return _SMART[kind](a, b)


def _float_pow(base, expo):
    try:
        v = math.pow(base, expo)
    except (ValueError, OverflowError):
        return None
    return v if math.isfinite(v) else None


def evaluate(e, env):
    """Scalar IEEE-double evaluation; env maps symbol names to floats.

    Raises DomainError (carrying the offending subexpression and point)
    for ln/sqrt/cot domain violations, division by zero, and fractional
    powers of negative numbers.
    """
    values = {}          # id(node) -> value; e keeps every node alive
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in values:
            stack.pop()
            continue
        # children left to right, except that a quotient evaluates and
        # checks its denominator before its numerator
        kids = (node.right, node.left) if isinstance(node, Div) else _children(node)
        todo = [k for k in kids if id(k) not in values]
        if not todo:
            stack.pop()
            values[id(node)] = _eval_node(node, [values[id(k)] for k in kids], env)
            continue
        if todo[0] is not kids[0] and isinstance(node, Div) and values[id(kids[0])] == 0.0:
            raise DomainError("division by zero", node, env)
        stack.append(todo[0])
    return values[id(e)]


def _eval_node(node, args, env):
    """The value of one node from its children's values, in evaluation order."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Sym):
        try:
            return float(env[node.name])
        except KeyError:
            raise UnboundSymbolError(node.name) from None
    if isinstance(node, Neg):
        return -args[0]
    if isinstance(node, Add):
        return args[0] + args[1]
    if isinstance(node, Sub):
        return args[0] - args[1]
    if isinstance(node, Mul):
        return args[0] * args[1]
    if isinstance(node, Div):
        denom, numer = args
        if denom == 0.0:
            raise DomainError("division by zero", node, env)
        return numer / denom
    if isinstance(node, Pow):
        return _eval_pow(node, args[0], args[1], env)
    return _eval_call(node, args[0], env)


def _eval_pow(node, base, expo, env):
    if base == 0.0 and expo < 0.0:
        raise DomainError("zero raised to a negative power", node, env)
    if base < 0.0 and expo != math.floor(expo):
        raise DomainError("fractional power of a negative number", node, env)
    try:
        return math.pow(base, expo)
    except OverflowError:
        raise DomainError("overflow", node, env) from None


def _eval_call(node, a, env):
    fn = node.func
    if fn == "exp":
        try:
            return math.exp(a)
        except OverflowError:
            raise DomainError("overflow in exp", node, env) from None
    if fn == "ln":
        if a <= 0.0:
            raise DomainError("log of a non-positive number", node, env)
        return math.log(a)
    if fn == "sin":
        return math.sin(a)
    if fn == "cos":
        return math.cos(a)
    if fn == "tan":
        return math.tan(a)
    if fn == "cot":
        s = math.sin(a)
        if s == 0.0:
            raise DomainError("cot at a multiple of pi", node, env)
        return math.cos(a) / s
    if fn == "sqrt":
        if a < 0.0:
            raise DomainError("square root of a negative number", node, env)
        return math.sqrt(a)
    raise ValueError(f"unknown function {fn!r}")  # pragma: no cover


def evaluate_many(e, env, size):
    """Vectorised evaluation over numpy arrays of shape (size,).

    env maps symbol names to scalars or (size,) arrays.  No domain checks
    are performed: invalid operations yield non-finite entries, which the
    caller is expected to mask or diagnose (the scalar evaluator pinpoints
    the offending subexpression for a single point).
    """
    return evaluate_many_multi((e,), env, size)[0]


def evaluate_many_multi(exprs, env, size):
    """Vectorised evaluation of several roots as one plan.

    Each distinct node (and, since nodes are interned, each distinct
    structure) is computed once.  Points are processed in chunks of
    CHUNK_POINTS: intermediate values live for one chunk, and only the
    root columns, each of shape (size,), are kept.  Roots of equal
    structure share one result array.
    """
    return _Plan(exprs).run(env, size)


class _Plan:
    """Distinct nodes of a set of roots, children before parents."""

    def __init__(self, roots):
        numbers = {}                 # id(node) -> value number
        self.steps = []              # (node, child numbers) per value number
        self.roots = [self._number(root, numbers) for root in roots]

    def _number(self, root, numbers):
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in numbers:
                stack.pop()
                continue
            kids = _children(node)
            todo = [k for k in kids if id(k) not in numbers]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            numbers[id(node)] = len(self.steps)
            self.steps.append((node, tuple(numbers[id(k)] for k in kids)))
        return numbers[id(root)]

    def run(self, env, size):
        # nodes that do not depend on a point are computed once; the rest
        # form a per-chunk program of (number, operation, argument numbers)
        values = [None] * len(self.steps)
        columns = {}
        program = []
        for number, (node, args) in enumerate(self.steps):
            if isinstance(node, Num):
                values[number] = node.value
            elif isinstance(node, Sym):
                try:
                    value = env[node.name]
                except KeyError:
                    raise UnboundSymbolError(node.name) from None
                if np.ndim(value):
                    columns[number] = np.broadcast_to(value, (size,))
                else:
                    values[number] = value
            elif any(values[a] is None for a in args):
                program.append((number, _operation(node), args))
            else:
                with np.errstate(all="ignore"):
                    values[number] = _operation(node)(*(values[a] for a in args))
        rows = {number: row for row, number in enumerate(dict.fromkeys(self.roots))}
        # a chunk's intermediate value is dropped right after its last use
        last_use = {a: i for i, (_, _, args) in enumerate(program) for a in args}
        drops = [[] for _ in program]
        for a, i in last_use.items():
            if values[a] is None and a not in rows:
                drops[i].append(a)
        program = [step + (drop,) for step, drop in zip(program, drops)]
        out = np.empty((len(rows), size))
        with np.errstate(all="ignore"):
            for lo in range(0, size, CHUNK_POINTS):
                hi = min(lo + CHUNK_POINTS, size)
                chunk = list(values)
                for number, column in columns.items():
                    chunk[number] = column[lo:hi]
                for number, op, args, drop in program:
                    chunk[number] = op(*[chunk[a] for a in args])
                    for a in drop:
                        chunk[a] = None
                for number, row in rows.items():
                    out[row, lo:hi] = chunk[number]
        return [out[rows[number]] for number in self.roots]


_BINARY_OPS = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: np.divide,
    Pow: np.power,
}


def _cot(a):
    return np.divide(np.cos(a), np.sin(a))


_NUMPY_CALLS = {
    "exp": np.exp,
    "ln": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "cot": _cot,
    "sqrt": np.sqrt,
}


def _operation(node):
    if isinstance(node, Neg):
        return operator.neg
    if isinstance(node, Call):
        return _NUMPY_CALLS[node.func]
    return _BINARY_OPS[type(node)]


def _children(node):
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, _Binary):
        return (node.left, node.right)
    return ()


def render(e):
    """Infix text that reparses to an evaluation-identical tree."""
    if isinstance(e, Num):
        v = e.value
        if v.is_integer() and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, Neg.precedence)
    if isinstance(e, Call):
        return f"{e.func}({render(e.arg)})"
    if isinstance(e, Pow):
        left = _wrap(e.left, Pow.precedence, strict=True)
        right = _wrap(e.right, Pow.precedence)
        return f"{left}^{right}"
    # the parser is left-associative, so a right child of equal precedence
    # must keep its parentheses or reparsing would reassociate the floats
    left = _wrap(e.left, e.precedence)
    right = _wrap(e.right, e.precedence, strict=True)
    return f"{left} {e.symbol} {right}"


def _wrap(child, parent_prec, strict=False):
    text = render(child)
    prec = _effective_precedence(child)
    if prec < parent_prec or (strict and prec == parent_prec):
        return f"({text})"
    return text


def _effective_precedence(e):
    if isinstance(e, Num) and e.value < 0:
        return Neg.precedence
    return e.precedence


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"illegal character {ch!r} at offset {_byte_offset(text, i)}",
                         _byte_offset(text, i),
                         expected=("number", "name", "operator", "parenthesis"))
    tokens.append(_Token("end", "", n))
    return tokens


def _byte_offset(text, char_index):
    return len(text[:char_index].encode("utf-8"))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        offset = _byte_offset(self.text, tok.offset)
        shown = tok.text or "end of input"
        raise ParseError(
            f"expected {' or '.join(expected)}, found {shown!r} at offset {offset}",
            offset, expected=expected)

    def parse(self):
        e = self.expr()
        if self.peek().kind != "end":
            self.fail(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Pow(base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    offset = _byte_offset(self.text, tok.offset)
                    raise UnknownFunctionError(
                        f"unknown function {tok.text!r} at offset {offset}",
                        offset, expected=FUNCTIONS)
                self.advance()
                arg = self.expr()
                if self.peek().kind != ")":
                    self.fail(("')'",))
                self.advance()
                return Call(tok.text, arg)
            if tok.text in CONSTANTS:
                return Num(CONSTANTS[tok.text])
            return Sym(tok.text)
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.advance()
            return e
        self.fail(("number", "name", "'('", "'-'"))


def parse(text):
    """Parse infix text into an Expression.

    Raises ParseError with a byte offset and expected-token set on syntax
    errors, UnknownFunctionError for names applied as functions that are
    not in the known set.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0, expected=("number", "name", "'('", "'-'"))
    return _Parser(text).parse()

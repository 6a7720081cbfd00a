"""Scalar expression trees over chart coordinates and named parameters.

Grammar (infix):
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # '^' is right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^', so ``-x^2`` means ``-(x^2)``, and a
NUMBER too large for a float (``1e400``) is a ParseError.
Known functions: exp, ln, sin, cos, tan, cot, sqrt.  The names ``pi`` and
``e`` are constants, not symbols.  Everything else is a free symbol to be
bound at evaluation time (a chart coordinate or a named parameter).

Expressions are immutable and hash-consed: every node class interns its
instances on construction, keyed on the node type, its payload and the
identities of its children (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006), so structurally equal expressions are one object
however they were built.  The intern table holds a weak reference to each
node, which removes its entry when the node dies, so a node lives exactly
as long as something else refers to it.  Each node carries the tuple of
its children, which every walk reads, and caches its derivatives, so
differentiating a node again, in any call, is one lookup; derivatives are
looked up weakly, and pinned outside the nodes while a hold lasts
(holding()).  The package builds every node through the smart
constructors (add, sub, mul, div, pow_, neg, call), the parser and the
derivative rules included, and they fold constants and the identities
x+0, x*1, x*0, 0/x, x^1 and x^0 as they build, so a tree is folded from
birth and there is no second, raw kind of node.  Every walk over a tree
is a loop, not a recursion, so a tree deeper than Python's recursion
limit is handled like any other.

There is one arithmetic: evaluate, a plan and pow_'s fold of a power
compute a node by its numpy operation (_operation), and + - * / round in
Python floats as in numpy, so evaluate gives the plan's bits at a point.
Vectorised evaluation (evaluate_many_multi) computes each node once and
runs over the points in chunks of one width, the last one shorter or not.
Every value a chunk computes lives in one of a fixed pool of chunk-long
buffers, allocated once per run and reused by a later value after the last
read of an earlier one; each group of root values goes to the sink that
reduces it as soon as the chunk has computed it, and the plan then reuses
its buffers, so no value outlives its chunk unless the sink copies it.
"""

import contextlib
import math
import re
import struct
import weakref

import numpy as np

FUNCTIONS = ("exp", "ln", "sin", "cos", "tan", "cot", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}
RESERVED_NAMES = frozenset(FUNCTIONS) | frozenset(CONSTANTS)

# the most points in a chunk of vectorised evaluation: N points run as
# ceil(N / CHUNK_POINTS) chunks of one width.  `all` on the bundled
# sasakian3 at 100k points, median ms per run (2-vCPU x86, numpy 2.4):
# 4,096: 130-133, 8,192: 120-127, 12,288: 119-125, 16,384: 123-134,
# 32,768: 132-137; 8,192 and 12,288 tie within noise
CHUNK_POINTS = 8192

# characters of a subexpression that a DomainError's message shows
MESSAGE_TEXT_LIMIT = 1000

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
    """Evaluation left the domain of a subexpression at a concrete point.

    The message shows at most MESSAGE_TEXT_LIMIT characters of the
    subexpression's text; the node itself is .subexpression.
    """

    def __init__(self, message, subexpression, point):
        text = render(subexpression, MESSAGE_TEXT_LIMIT)
        super().__init__(f"{message} in {text!r} at {point}")
        self.subexpression = subexpression
        self.point = dict(point)


class Expression:
    """Base of the interned node classes.

    _kids holds the node's children in order (those of its named slots
    arg, left, right); _derivatives maps a variable name to a weak
    reference to the node's derivative, since a derivative may contain its
    node (d exp(u) = exp(u) * du); a hold (holding()) pins it from outside.
    """

    __slots__ = ("__weakref__", "_kids", "_derivatives")
    precedence = 10

    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else add(self, other)

    def __radd__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else add(other, self)

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else sub(self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else sub(other, self)

    def __mul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else mul(self, other)

    def __rmul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else mul(other, self)

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else div(other, self)

    def __pow__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else pow_(self, other)

    def __neg__(self):
        return neg(self)

    def __reduce__(self):
        # copies and unpickled nodes are rebuilt through __new__, so interned
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<{type(self).__name__} {render(self)!r}>"


# The live nodes by structure: (type, payload, id of each child) -> a weak
# reference to the node, which drops its entry when the node dies.  So the
# table keeps no node alive; a live node keeps its children alive, so the
# child ids in its key cannot be reused meanwhile.
_INTERNED = {}

# what a lookup of a key the table does not hold calls: a dead reference
_GONE = weakref.ref(set())


def _forget(ref, interned=_INTERNED):
    # a node died; a new node may hold its key by now if the collector
    # cleared the reference before it called back
    if interned.get(ref.key) is ref:
        del interned[ref.key]


def _new_node(cls, key, kids):
    node = object.__new__(cls)
    node._kids = kids
    node._derivatives = None
    _INTERNED[key] = weakref.KeyedRef(node, _forget, key)
    return node


class Num(Expression):
    __slots__ = _fields = ("value",)
    precedence = 10

    def __new__(cls, value):
        value = float(value)
        # keyed by IEEE bits, so 0.0 and -0.0 (and NaN payloads) stay apart
        key = (cls, _FLOAT_BITS(value))
        node = _INTERNED.get(key, _GONE)()
        if node is None:
            node = _new_node(cls, key, ())
            node.value = value
        return node


class Sym(Expression):
    __slots__ = _fields = ("name",)
    precedence = 10

    def __new__(cls, name):
        key = (cls, name)
        node = _INTERNED.get(key, _GONE)()
        if node is None:
            node = _new_node(cls, key, ())
            node.name = name
        return node


class Neg(Expression):
    __slots__ = _fields = ("arg",)
    precedence = 1.5

    def __new__(cls, arg):
        key = (cls, id(arg))
        node = _INTERNED.get(key, _GONE)()
        if node is None:
            node = _new_node(cls, key, (arg,))
            node.arg = arg
        return node


class _Binary(Expression):
    __slots__ = _fields = ("left", "right")
    symbol = "?"

    def __new__(cls, left, right):
        key = (cls, id(left), id(right))
        node = _INTERNED.get(key, _GONE)()
        if node is None:
            node = _new_node(cls, key, (left, right))
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
        node = _INTERNED.get(key, _GONE)()
        if node is None:
            node = _new_node(cls, key, (arg,))
            node.func = func
            node.arg = arg
        return node


ZERO = Num(0.0)
ONE = Num(1.0)


def _coerce(value):
    """value as an expression, a number as Num; None for anything else, for
    which the operators return NotImplemented, so that an object ndarray
    applies them to each of its elements (Num(0.5) * comps)."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Num(value)
    return None


def as_scalar(f):
    """f as an expression: a string is parsed, a number is a Num."""
    if isinstance(f, Expression):
        return f
    if isinstance(f, str):
        return parse(f)
    if isinstance(f, (int, float)):
        return Num(f)
    raise TypeError(f"cannot interpret {f!r} as a scalar expression")


# Smart constructors: fold constants and prune additive and multiplicative
# identities at build time, so parsed input and derived tensors stay small.
# Each rule reads only its operands, which were folded when they were built.

def add(a, b):
    if type(a) is Num and a.value == 0.0:
        return b
    if type(b) is Num:
        if b.value == 0.0:
            return a
        if type(a) is Num:
            return Num(a.value + b.value)
    return Add(a, b)


def sub(a, b):
    if type(b) is Num:
        if b.value == 0.0:
            return a
        if type(a) is Num:
            return neg(b) if a.value == 0.0 else Num(a.value - b.value)
    elif type(a) is Num and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if type(a) is Num:
        if a.value == 0.0 or type(b) is Num and b.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
        if type(b) is Num:
            return a if b.value == 1.0 else Num(a.value * b.value)
    elif type(b) is Num:
        if b.value == 0.0:
            return ZERO
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a, b):
    if type(b) is Num:
        if type(a) is Num and a.value == 0.0 and b.value != 0.0:
            return ZERO
        if b.value == 1.0:
            return a
        if type(a) is Num and b.value != 0.0:
            return Num(a.value / b.value)
    elif type(a) is Num and a.value == 0.0:
        return ZERO
    return Div(a, b)


def pow_(a, b):
    if type(b) is Num:
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return ONE
        if type(a) is Num:
            v = _float_pow(a.value, b.value)
            if v is not None:
                return Num(v)
    return Pow(a, b)


def _float_pow(base, expo):
    # the plan's ufunc, so a folded power has the bits the plan computes
    with np.errstate(all="ignore"):
        v = float(np.power(base, expo))
    return v if math.isfinite(v) else None


def neg(a):
    if type(a) is Num:
        return Num(-a.value)
    if type(a) is Neg:
        return a.arg
    return Neg(a)


def call(func, arg):
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    return Call(func, arg)


def free_symbols(e):
    """The names of the symbols of e, an expression, a number or a text; of
    a text, the names the parser reads as symbols (names neither called
    nor constants), though the tree it builds may fold some away (0*q)."""
    if isinstance(e, str):
        tokens = _tokenize(e)
        return frozenset(t.text for t, after in zip(tokens, tokens[1:])
                         if t.kind == "name" and after.kind != "(" and t.text not in CONSTANTS)
    return _bottom_up(as_scalar(e), _symbols_rule, _no_cache)


def _symbols_rule(node, kids, _):
    return frozenset((node.name,)) if type(node) is Sym else frozenset().union(*kids)


def is_name(text):
    """Whether text is a name that the parser reads as one symbol."""
    return isinstance(text, str) and _NAME_RE.fullmatch(text) is not None


def differentiate(e, var):
    """Exact derivative of e with respect to the symbol named var."""
    if not is_name(var):
        raise ValueError(f"invalid differentiation variable {var!r}")
    return _derivative(e, var)


_held = None  # the derivatives built in the outermost hold; None outside one


@contextlib.contextmanager
def holding():
    """Keep every derivative built in the block alive until the outermost
    hold ends, on an exception too; a nested hold shares its list."""
    global _held
    outer, _held = _held, [] if _held is None else _held
    try:
        yield
    finally:
        _held = outer


def _derivative(root, var):
    return _bottom_up(root, _derivative_rule, _cached_derivative, var)


def _cached_derivative(node, var):
    ref = None if node._derivatives is None else node._derivatives.get(var)
    return None if ref is None else ref()


def _derivative_rule(node, kids, var):
    """The derivative of node from its children's derivatives, cached on it."""
    kind = type(node)
    if kind is Num:
        out = ZERO
    elif kind is Sym:
        out = ONE if node.name == var else ZERO
    elif kind is Neg:
        out = neg(kids[0])
    elif kind is Add:
        out = add(*kids)
    elif kind is Sub:
        out = sub(*kids)
    elif kind is Mul:
        out = add(mul(kids[0], node.right), mul(node.left, kids[1]))
    elif kind is Div:
        da, db = kids
        if type(db) is Num and db.value == 0.0:
            out = div(da, node.right)
        else:
            out = div(sub(mul(da, node.right), mul(node.left, db)),
                      mul(node.right, node.right))
    elif kind is Pow:
        out = _pow_derivative(node, *kids)
    elif kind is Call:
        out = _call_derivative(node, kids[0])
    else:  # pragma: no cover - exhaustive over node kinds
        raise TypeError(f"cannot differentiate {type(node).__name__}")
    if node._derivatives is None:
        node._derivatives = {}
    node._derivatives[var] = weakref.ref(out)
    if _held is not None:
        _held.append(out)
    return out


def _pow_derivative(node, da, db):
    base, expo = node.left, node.right
    if isinstance(expo, Num):
        # power rule keeps negative bases legal for integer exponents
        return mul(mul(expo, pow_(base, Num(expo.value - 1.0))), da)
    terms = ZERO
    if not (type(db) is Num and db.value == 0.0):
        terms = add(terms, mul(db, call("ln", base)))
    if not (type(da) is Num and da.value == 0.0):
        terms = add(terms, div(mul(expo, da), base))
    return mul(node, terms)


def _call_derivative(node, da):
    a = node.arg
    if node.func == "exp":
        return mul(node, da)
    if node.func == "ln":
        return div(da, a)
    if node.func == "sin":
        return mul(call("cos", a), da)
    if node.func == "cos":
        return neg(mul(call("sin", a), da))
    if node.func == "tan":
        cos = call("cos", a)
        return div(da, mul(cos, cos))
    if node.func == "cot":
        sin = call("sin", a)
        return neg(div(da, mul(sin, sin)))
    if node.func == "sqrt":
        return div(da, mul(Num(2.0), node))
    raise ValueError(f"unknown function {node.func!r}")  # pragma: no cover


def evaluate(e, env):
    """Scalar IEEE-double evaluation; env maps symbol names to floats.

    Each node is computed by the plan's numpy operation, so the value has
    the bits evaluate_many gives at that point.  Raises DomainError
    (carrying the offending subexpression and point) at the first node,
    left to right, whose value is not finite while its arguments are, or
    whose denominator, evaluated before its numerator, is zero.
    """
    values = {}          # id(node) -> value; e keeps every node alive
    stack = [e]
    with np.errstate(all="ignore"):
        while stack:
            # the stack is a path from e, and a node is valued as it is
            # popped, so the top of the stack has no value yet
            node = stack[-1]
            kids = (node.right, node.left) if type(node) is Div else node._kids
            if type(node) is Div and values.get(id(node.right)) == 0.0:
                raise DomainError("division by zero", node, env)
            todo = [k for k in kids if id(k) not in values]
            if todo:
                stack.append(todo[0])
                continue
            stack.pop()
            values[id(node)] = _eval_node(node, [values[id(k)] for k in node._kids], env)
    return values[id(e)]


def _eval_node(node, args, env):
    """The value of one node from its children's values, by the plan's
    operation; a DomainError where it is not finite but its arguments are."""
    if type(node) is Num:
        return node.value
    if type(node) is Sym:
        try:
            return float(env[node.name])
        except KeyError:
            raise UnboundSymbolError(node.name) from None
    value = float(_operation(node)(*args))
    if not math.isfinite(value) and all(map(math.isfinite, args)):
        raise DomainError(_domain_reason(node, args), node, env)
    return value


def _domain_reason(node, args):
    """Why node's value is not finite at finite arguments args."""
    if type(node) is Pow:
        base, expo = args
        if base == 0.0 and expo < 0.0:
            return "zero raised to a negative power"
        if base < 0.0 and not expo.is_integer():
            return "fractional power of a negative number"
    elif type(node) is Call:
        if node.func == "ln":
            return "log of a non-positive number"
        if node.func == "sqrt":
            return "square root of a negative number"
        if node.func == "exp":
            return "overflow in exp"
        if node.func == "cot" and np.sin(args[0]) == 0.0:
            return "cot at a multiple of pi"
    return "overflow"


def evaluate_many(e, env, size):
    """Vectorised evaluation over numpy arrays of shape (size,).

    e is an expression or an array of them, env as in evaluate_many_multi.
    Returns (size, *shape) floats, the transposed view of one
    component-major (k, size) block.  No domain checks: a value outside
    its domain is non-finite, for the caller to mask or diagnose (evaluate
    names the offending node at one point).
    """
    e = np.asarray(e, dtype=object)
    block = np.empty((e.size, size))

    def collect(lo, hi, values):
        for row, value in zip(block, values):
            row[lo:hi] = value

    evaluate_many_multi(e.reshape(-1), env, size, [(e.size, collect)])
    # splits only the last axis of the transposed block: a view
    return block.T.reshape((size,) + e.shape)


def evaluate_many_multi(exprs, env, size, sinks):
    """Vectorised evaluation of several roots as one plan.

    Each distinct node (and, since nodes are interned, each distinct
    structure) is computed once, over ceil(size / CHUNK_POINTS) chunks of
    one width, ceil(size / chunks), the last one shorter or not.  env
    maps a name to a scalar, a (size,) array, or a fill(lo, hi, out) that
    writes its values at points lo..hi-1 into out (chart.Sample.columns).
    sinks is a list of (count, sink) pairs that split exprs, in order, into
    groups; in each chunk, as soon as a group's roots are computed, its
    sink(lo, hi, values) gets their values at points lo..hi-1, each as a
    (hi - lo,) array; a root that does not depend on the point is a
    broadcast view of its scalar.

    The plan is compiled once per call: each value that depends on the
    point gets a slot in a pool of chunk-long buffers, which passes to a
    later value once no step or sink is left to read the value (a use
    count), so the pool holds as many buffers as values are live at once.
    Each step is bound once, at the chunk width, as a numpy call that
    writes its slot, and every chunk replays those calls; a shorter last
    chunk runs them over whole buffers, whose tails nothing reads, and
    feeds views of the heads.  So a sink reduces or copies what it needs
    during the call and keeps no array, nor any view of one.
    """
    roots, values, columns, program, needs = _compile(exprs, env, size)
    groups, start = [], 0
    for count, sink in sinks:
        groups.append((sink, roots[start:start + count]))
        start += count
    chunks = -(-size // CHUNK_POINTS)                   # ceil(size / CHUNK_POINTS)
    width = -(-size // max(chunks, 1))                  # 0 at no point
    _, fills, segments = _bind(columns, program, groups, values, needs, width)
    for lo in range(0, size, max(width, 1)):
        hi = min(lo + width, size)
        n = hi - lo
        for fill, out in fills:
            fill(lo, hi, out[:n])
        for steps, feeds in segments:
            with np.errstate(all="ignore"):
                for op, args, out in steps:
                    op(*args, out=out)
            for sink, values in feeds:
                sink(lo, hi, values if n == width else tuple(v[:n] for v in values))


def _compile(roots, env, size):
    """(roots, values, columns, program, needs) of the distinct nodes under
    roots, numbered children first by _bottom_up: roots[r] the number of
    root r; values[v] the value of node v if it does not depend on the
    point, else None; columns the (v, fill(lo, hi, out)) of each coordinate
    column; program the (v, operation, argument numbers) of every other
    node that depends on the point, in number order; needs[v] the program
    steps node v needs, as bits."""
    numbers = {}                 # node -> value number (nodes hash by identity)
    values, needs, columns, program = [], [], [], []

    def number(node, args, _):
        number = numbers[node] = len(values)
        kind, value, bits = type(node), None, 0
        if kind is Num:
            value = node.value
        elif kind is Sym:
            try:
                value = env[node.name]
            except KeyError:
                raise UnboundSymbolError(node.name) from None
            if callable(value):
                columns.append((number, value))
                value = None
            elif np.ndim(value):
                columns.append((number, _copier(np.broadcast_to(value, (size,)))))
                value = None
            else:
                # as the scalar evaluator reads it: a ufunc would wrap
                # a product of Python ints at 64 bits
                value = float(value)
        elif any(values[a] is None for a in args):
            bits = 1 << len(program)
            for a in args:
                bits |= needs[a]
            program.append((number, _operation(node), tuple(args)))
        else:
            with np.errstate(all="ignore"):
                value = _operation(node)(*(values[a] for a in args))
        values.append(value)
        needs.append(bits)
        return number

    return ([_bottom_up(root, number, numbers.get) for root in roots],
            values, columns, program, needs)


def _copier(column):
    """fill(lo, hi, out) of an array column."""
    def fill(lo, hi, out):
        out[...] = column[lo:hi]
    return fill


def _bind(columns, program, groups, values, needs, width):
    """(pool, fills, segments): the pool of width-long buffers; the (fill,
    buffer) of each coordinate column; and the chunk as (steps, feeds)
    segments, a run of steps, each (ufunc, arguments, out), then the (sink,
    root values) of each group fed after it.  A root that does not depend
    on the point is a broadcast view of its scalar, one per value number.

    The groups go largest first, by the steps they need (needs, from
    _compile), each taking the steps no group before it took, depth first
    from its roots, left operand first.  A group is fed once its last root
    is computed, or before the first step if no root of it is a step.
    Buffers are assigned by linear scan (Poletto & Sarkar, "Linear scan
    register allocation", 1999): each coordinate column takes a buffer,
    then each step the buffer freed last, or a new one.  A value frees its
    buffer when its use count, the reads of it left by steps and groups,
    reaches 0, before the next step takes one, so a step may write over an
    argument it is the last to read.
    """
    entry = [None] * len(values)         # value number -> its step, until bound
    uses = [0] * len(values)
    for step in program:
        entry[step[0]] = step
        for a in step[2]:
            uses[a] += 1
    # per group: minus the steps it needs, and its roots left to compute;
    # a root's number -> its groups, or its broadcast view if it is a scalar
    sizes, left, waiting, broadcast = [], [], {}, {}
    for g, (_, roots) in enumerate(groups):
        bits = count = 0
        for number in roots:
            bits |= needs[number]
            uses[number] += 1
            if entry[number] is not None:
                count += 1
                waiting.setdefault(number, []).append(g)
            elif values[number] is not None and number not in broadcast:
                broadcast[number] = np.broadcast_to(np.float64(values[number]), (width,))
        sizes.append(-bits.bit_count())
        left.append(count)
    sources = list(values)               # each value as a step reads it
    pool = [np.empty(width) for _ in columns]
    fills = []
    for (number, fill), buffer in zip(columns, pool):
        sources[number] = buffer
        fills.append((fill, buffer))
    free = []
    segments = [([], [])]

    def release(numbers):
        for number in numbers:
            uses[number] -= 1
            if not uses[number] and values[number] is None:
                free.append(sources[number])

    def feed(g):
        sink, roots = groups[g]
        segments[-1][1].append((sink, tuple([broadcast.get(n, sources[n]) for n in roots])))
        release(roots)

    for g, count in enumerate(left):
        if not count:
            feed(g)
    for g in sorted(range(len(groups)), key=sizes.__getitem__):
        stack = groups[g][1][::-1]       # ~number: its operands are done
        while stack:
            number = stack.pop()
            if number >= 0:
                if entry[number] is not None:
                    stack.append(~number)
                    stack.extend(entry[number][2][::-1])
                continue
            number, op, args = entry[~number]
            entry[number] = None
            arguments = tuple([sources[a] for a in args])
            release(args)
            if free:
                out = free.pop()
            else:
                out = np.empty(width)
                pool.append(out)
            sources[number] = out
            if segments[-1][1]:
                segments.append(([], []))
            segments[-1][0].append((op, arguments, out))
            for k in waiting.get(number, ()):
                left[k] -= 1
                if not left[k]:
                    feed(k)
    return pool, fills, segments


_OPERATIONS = {
    Neg: np.negative,
    Add: np.add,
    Sub: np.subtract,
    Mul: np.multiply,
    Div: np.divide,
    Pow: np.power,
}


def _cot(a, out=None):
    # out may be a itself, so sin(a) is taken before out is written
    s = np.sin(a)
    return np.divide(np.cos(a, out=out), s, out=out)


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
    if type(node) is Call:
        return _NUMPY_CALLS[node.func]
    return _OPERATIONS[type(node)]


def _bottom_up(root, rule, cached, arg=None):
    """rule(node, its children's results, arg) at every node under root,
    children first, without recursion, so that a deep tree is no deeper a
    stack; a node for which cached(node, arg) is not None takes that
    result, and the walk does not go below it.  Returns root's result."""
    out = cached(root, arg)
    if out is not None:
        return out
    results = {}         # id(node) -> result; root keeps every node alive
    stack = [root]
    while stack:
        node = stack[-1]
        kids = node._kids
        pending = False
        for kid in kids:
            if id(kid) not in results:
                out = cached(kid, arg)
                if out is None:
                    stack.append(kid)
                    pending = True
                else:
                    results[id(kid)] = out
        if not pending:
            stack.pop()
            if id(node) not in results:
                results[id(node)] = rule(node, [results[id(k)] for k in kids], arg)
    return results[id(root)]


def render(e, limit=None):
    """Infix text that reparses to an evaluation-identical tree.

    With a limit, text longer than limit characters is cut to its first
    limit characters and "..." is appended; the cut text is found without
    writing out the rest, whose length grows with the tree unshared.
    """
    keep = None if limit is None else limit + 1
    text = _bottom_up(e, _render_rule, _no_cache, keep)
    return text if keep is None or len(text) < keep else text[:limit] + "..."


def _no_cache(node, _):
    return None


def _render_rule(node, kids, keep):
    """The text of node from its children's texts, cut to keep characters:
    the first keep characters of a text depend only on the first keep of
    each of its parts."""
    if isinstance(node, Num):
        v = node.value
        text = str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    elif isinstance(node, Sym):
        text = node.name
    elif isinstance(node, Neg):
        text = "-" + _wrap(node.arg, kids[0], Neg.precedence)
    elif isinstance(node, Call):
        text = f"{node.func}({kids[0]})"
    elif isinstance(node, Pow):
        left = _wrap(node.left, kids[0], Pow.precedence, strict=True)
        right = _wrap(node.right, kids[1], Pow.precedence)
        text = f"{left}^{right}"
    else:
        # the parser is left-associative, so a right child of equal
        # precedence must keep its parentheses or reparsing would
        # reassociate the floats
        left = _wrap(node.left, kids[0], node.precedence)
        right = _wrap(node.right, kids[1], node.precedence, strict=True)
        text = f"{left} {node.symbol} {right}"
    return text if keep is None else text[:keep]


def _wrap(child, text, parent_prec, strict=False):
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
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            return neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return pow_(base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            if math.isinf(float(tok.text)):
                self.fail(("a number within the float range",))
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
                return call(tok.text, arg)
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
    errors, on a number literal too large for a float and on input nested
    too deeply to descend into,
    UnknownFunctionError for names applied as functions that are not in
    the known set.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0, expected=("number", "name", "'('", "'-'"))
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        # the descent takes a few frames per nesting level
        offset = _byte_offset(text, parser.peek().offset)
        raise ParseError(f"expression nested too deeply at offset {offset}",
                         offset) from None

"""Tagged dual numbers, Taylor jets and array leaves for exact forward-mode derivatives.

A :class:`Dual` carries a value and one derivative slot. Derivatives with
respect to several variables are obtained by re-instrumenting an evaluation
with a fresh tag; tags keep independent differentiation levels from
collapsing into each other (the classic perturbation-confusion failure of
naive nested duals). Plain floats act as constants at every level, so
mixed-depth arithmetic is cheap.

A :class:`Jet` is the second leaf: a truncated Taylor series in one
scalar parameter t whose coefficients are floats or Duals. Higher
derivatives along one variable come from jets only (:func:`taylor`). A Jet
never absorbs a Dual as a scalar: its arithmetic returns NotImplemented,
so the Dual wraps the Jet and the outermost layer always carries the newest
tag. Jets must therefore only meet Duals seeded after their coefficients
were built. A Jet has one power rule, for ``**`` and :func:`pow_` alike: an
integer power multiplies the series by itself, so a zero constant term is
allowed, and any other power runs a recurrence that divides by it. Each
operation computes its coefficients by one rule (the ``_*_terms``
functions), from coefficient 0 up.

A float64 array is the third leaf: one coordinate at many sample points,
so one evaluation differentiates all of them. numpy does its + - * /, which
round like Python floats, and :func:`pow_` an array's powers in one
``np.float_power``, which calls libm's pow. Every math function runs entry by
entry through ``math``, since numpy's own differ from libm in the last bit on
a share of inputs; so does ``np.power``, a bare ``**`` on an array, so every
rule in the package writes its powers through :func:`pow_`. Dual, Jet and
Trace set ``__array_ufunc__`` to None, so an array operand defers to them.
Guards go through :func:`any_true`. Every dispatch settles a float or a Trace
before it tests for an array, so scalar evaluations never load numpy.

A :class:`Trace` is the fourth leaf: a float whose :class:`Tape` records
every operation on it, and every comparison with its outcome. Anything that
would branch on a traced value without a comparison (bool, float, int,
hash) raises; every power is recorded as ``math.pow``, however it was
written. A repeated operation is recorded once, and ``x * 1.0`` is x, which
is exact on every double. The tape writes its record as one straight-line
float program (:attr:`Tape.lines`), which :func:`define` compiles. Traced
through a whole integral (``phase.compile_rule``), whose recursive route
evaluates on Jets of Traces, the program computes each Taylor coefficient
once, however often the evaluation recomputes it, bit for bit as the
evaluation on Jets.

Two seams decide how scalars are computed: :func:`_lift` every unary math
function (Dual -> Jet -> Trace -> float -> array -> ``math``) and :func:`pow_` every
power, with any leaf as its base and a plain number as its exponent. A new
scalar leaf (an mpmath ``mpf``, say) is one more branch in each, before
``math``, whose functions would silently return floats.

A :class:`Tangent` is the dot of a Dual that carries several directions
under one tag: it maps a direction index to that direction's component, so
one evaluation gives every partial (``phase.partials_at``, on every leaf).
A direction the value does not depend on is absent, a structural zero, and
never stored as 0.0. Every present component then runs the same IEEE
operation, in the same order, as the evaluation seeded along that direction
alone, and an absent one acts like the plain value of that evaluation: a
difference whose left side lacks direction j gives -b_j, as ``__rsub__``
does, and a product keeps its operands in the order written, as
``__rmul__`` does, since a Jet product is not commutative bit for bit. So
each component equals the seeded partial bit for bit.
"""

import itertools
import math
import operator

import numpy as np

_fresh_tag = itertools.count(1).__next__


class Dual:
    """Value plus a single tagged derivative slot; components may be Duals."""

    __slots__ = ("val", "dot", "tag")
    # array operands defer to the Dual, which keeps the array as its leaf
    __array_ufunc__ = None

    def __init__(self, val, dot, tag):
        self.val = val
        self.dot = dot
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r}, tag={self.tag})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(self.val + other.val, self.dot + other.dot, self.tag)
            if other.tag > self.tag:
                return Dual(self + other.val, other.dot, other.tag)
        return Dual(self.val + other, self.dot, self.tag)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(self.val - other.val, self.dot - other.dot, self.tag)
            if other.tag > self.tag:
                return Dual(self - other.val, -other.dot, other.tag)
        return Dual(self.val - other, self.dot, self.tag)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dot, self.tag)

    def __neg__(self):
        return Dual(-self.val, -self.dot, self.tag)

    def __mul__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(
                    self.val * other.val,
                    self.val * other.dot + self.dot * other.val,
                    self.tag,
                )
            if other.tag > self.tag:
                return Dual(self * other.val, self * other.dot, other.tag)
        elif isinstance(other, Tangent):
            return NotImplemented  # the tangent scales each component by self
        return Dual(self.val * other, self.dot * other, self.tag)

    def __rmul__(self, other):
        # operands in the order written: a Jet product is not commutative bit for bit
        return Dual(other * self.val, other * self.dot, self.tag)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                q = self.val / other.val
                return Dual(q, (self.dot - q * other.dot) / other.val, self.tag)
            if other.tag > self.tag:
                q = self / other.val
                return Dual(q, -q * other.dot / other.val, other.tag)
        return Dual(self.val / other, self.dot / other, self.tag)

    def __rtruediv__(self, other):
        q = other / self.val
        return Dual(q, -q * self.dot / self.val, self.tag)

    def __pow__(self, r):
        _plain_exponent(r)
        if r == 0:  # a present 0.0 in each direction self has
            dot = self.dot
            zero = Tangent(dict.fromkeys(dot.d, 0.0)) if isinstance(dot, Tangent) else 0.0
            return Dual(1.0, zero, self.tag)
        if r == 1:
            return self
        # no square shortcut: self * self would give the primal x*x, while a
        # float or array base squares through pow_(x, 2), which differs in the
        # last bit on a share of inputs; (2 x) * dot is the tangent of x * x
        # bit for bit, since doubling is exact
        return Dual(pow_(self.val, r), (r * pow_(self.val, r - 1)) * self.dot, self.tag)

    def __abs__(self):
        s = (primal(self) >= 0.0) * 2.0 - 1.0  # 1.0 or -1.0, at a float or each entry of an array
        return Dual(abs(self.val), self.dot * s, self.tag)

    # Comparisons act on the underlying primal value.
    def __lt__(self, other):
        return primal(self) < primal(other)

    def __le__(self, other):
        return primal(self) <= primal(other)

    def __gt__(self, other):
        return primal(self) > primal(other)

    def __ge__(self, other):
        return primal(self) >= primal(other)


class Tangent:
    """The dot of a Dual along several directions: direction index -> component.

    Absent directions are structural zeros. A sum or difference keeps every
    direction either side has; a product or quotient scales each present
    component, with the operands in the order they were written, so Jet and
    Dual components keep their own operand order.
    """

    __slots__ = ("d",)
    # array operands defer to the Tangent, which applies them per component
    __array_ufunc__ = None

    def __init__(self, d):
        self.d = d

    def __add__(self, other):
        a = self.d
        out = dict(a)
        for j, b in other.d.items():
            out[j] = a[j] + b if j in a else b
        return Tangent(out)

    def __sub__(self, other):
        a = self.d
        out = dict(a)
        for j, b in other.d.items():
            out[j] = a[j] - b if j in a else -b
        return Tangent(out)

    def __neg__(self):
        return Tangent({j: -v for j, v in self.d.items()})

    def __mul__(self, other):
        return Tangent({j: v * other for j, v in self.d.items()})

    def __rmul__(self, other):
        return Tangent({j: other * v for j, v in self.d.items()})

    def __truediv__(self, other):
        return Tangent({j: v / other for j, v in self.d.items()})


class Jet:
    """Taylor coefficients c[0..N] of a series in t, truncated after t^N.

    Coefficients may be floats or Duals. Combining jets of different
    lengths keeps the shorter length: beyond it the sum is not known.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.c = list(coeffs)

    def deriv(self):
        """d/dt of the series, known to one order less."""
        c = self.c
        return Jet([k * c[k] for k in range(1, len(c))])

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.c, other.c)])
        if isinstance(other, Dual):
            return NotImplemented
        return Jet([self.c[0] + other] + self.c[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.c])

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet([a - b for a, b in zip(self.c, other.c)])
        if isinstance(other, Dual):
            return NotImplemented
        return Jet([self.c[0] - other] + self.c[1:])

    def __rsub__(self, other):
        return Jet([other - self.c[0]] + [-a for a in self.c[1:]])

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.c, other.c
            return Jet([_cauchy(a, b, k) for k in range(min(len(a), len(b)))])
        if isinstance(other, (Dual, Tangent)):
            return NotImplemented
        return Jet([a * other for a in self.c])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return Jet(_div_terms(self.c, other.c))
        if isinstance(other, Dual):
            return NotImplemented
        return Jet([a / other for a in self.c])

    def __rtruediv__(self, other):
        return Jet([other] + [0.0] * (len(self.c) - 1)) / self

    def __pow__(self, r):
        _plain_exponent(r)
        if r != int(r):
            return Jet(_pow_terms(self.c, r))
        r = int(r)
        if r < 0:
            return 1.0 / self ** (-r)
        # square and multiply, out on the left: a Jet product is not commutative bit for bit
        out, x = Jet([1.0] + [0.0] * (len(self.c) - 1)), self
        while r:
            if r & 1:
                out = out * x
            r >>= 1
            if r:
                x = x * x
        return out


def _cauchy(a, b, k):
    """Coefficient k of the product of two series."""
    total = a[0] * b[k]
    for j in range(1, k + 1):
        total = total + a[j] * b[k - j]
    return total


# -- one rule per operation ----------------------------------------------------
# Each _*_terms returns the coefficients of one operation's result, 0 through
# the last its operands have, each from its operands' coefficients and its own
# lower ones: what the Jet method of that operation computes.


def _div_terms(a, b):
    # q = a/b: q_k = (a_k - sum_{j=1..k} b_j q_{k-j}) / b_0
    q = []
    for k in range(min(len(a), len(b))):
        t = a[k]
        for j in range(1, k + 1):
            t = t - b[j] * q[k - j]
        q.append(t / b[0])
    return q


def _ode_coefficient(a, k, g):
    """Coefficient k >= 1 of f where f' = g a': (1/k) sum_{j=1..k} j a_j g_{k-j}."""
    total = a[1] * g[k - 1]
    for j in range(2, k + 1):
        total = total + j * a[j] * g[k - j]
    return total / k


def _exp_terms(a):
    e = [exp(a[0])]
    for k in range(1, len(a)):
        e.append(_ode_coefficient(a, k, e))
    return e


def _log_terms(a):
    # a l' = a', so l_k = (a_k - (1/k) sum_{j=1..k-1} j l_j a_{k-j}) / a_0
    lg = [log(a[0])]
    for k in range(1, len(a)):
        t = a[k]
        for j in range(1, k):
            t = t - (j / k) * lg[j] * a[k - j]
        lg.append(t / a[0])
    return lg


def _sqrt_terms(a):
    # s * s = a
    s = [sqrt(a[0])]
    for k in range(1, len(a)):
        t = a[k]
        for j in range(1, k):
            t = t - s[j] * s[k - j]
        s.append(t / (s[0] + s[0]))
    return s


def _sin_cos_terms(a, hyperbolic):
    # coupled: s' = c a', c' = -s a' (circular) or +s a' (hyperbolic)
    s = [sinh(a[0]) if hyperbolic else sin(a[0])]
    c = [cosh(a[0]) if hyperbolic else cos(a[0])]
    for k in range(1, len(a)):
        sk = _ode_coefficient(a, k, c)
        ck = _ode_coefficient(a, k, s)
        s.append(sk)
        c.append(ck if hyperbolic else -ck)
    return s, c


def _tanh_terms(a):
    # t' = w a' with w = 1 - t^2
    t = [tanh(a[0])]
    w = [1.0 - t[0] * t[0]]
    for k in range(1, len(a)):
        t.append(_ode_coefficient(a, k, w))
        w.append(-_cauchy(t, t, k))
    return t


def _pow_terms(a, r):
    # a b' = r a' b, so b_k = (1/(k a_0)) sum_{j=1..k} (r j - (k - j)) a_j b_{k-j}
    b = [pow_(a[0], r)]
    for k in range(1, len(a)):
        t = (r - (k - 1)) * a[1] * b[k - 1]
        for j in range(2, k + 1):
            t = t + (r * j - (k - j)) * a[j] * b[k - j]
        b.append(t / (k * a[0]))
    return b


def _entrywise(fn, x, *params):
    """fn(entry, *params) for each entry of the array x, as a float64 array of x's shape."""
    return np.fromiter(map(fn, x.ravel().tolist(), *map(itertools.repeat, params)), float).reshape(x.shape)


_INFIX = {
    operator.add: "{} + {}", operator.sub: "{} - {}", operator.mul: "{} * {}",
    operator.truediv: "{} / {}", operator.neg: "-{}",
    operator.lt: "{} < {}", operator.le: "{} <= {}", operator.gt: "{} > {}",
    operator.ge: "{} >= {}", operator.eq: "{} == {}", operator.ne: "{} != {}",
}


class Tape:
    """The distinct float operations of traced evaluations, in the order they first ran.

    ``params`` names the inputs ``t0``, ``t1``, ..., all made before the first
    operation. ``ops`` is the one record: each operation as (fn, args,
    result), the result a Trace or, for a guard (a comparison the evaluation
    branched on), its outcome. One writer turns it into Python source, the
    float program (:attr:`lines`). Finite numbers are written as literals;
    functions and other constants are passed by reference as ``c0``, ``c1``,
    ... in ``namespace``, named in the order the writer first meets them.
    """

    def __init__(self):
        self.params = []
        self.ops = []
        self.namespace = {}
        self._made = {}
        self._index = itertools.count().__next__

    def inputs(self, values):
        """One new input Trace per value, as a tuple."""
        out = tuple(Trace(self, self._index(), v) for v in values)
        self.params += map(self.atom, out)
        return out

    def record(self, fn, args, guard=False):
        """fn(*args) on the args' values: a Trace, or the outcome of a guard. A repeat
        returns what its first record made, with constants keyed by type and repr (a
        NaN by identity), so 0.0 and -0.0, 2 and 2.0 stay apart; ``x * 1.0`` is x."""
        if fn is operator.mul:
            for x, one in (args, args[::-1]):
                if type(one) is float and one == 1.0:
                    return x
        key = (fn, *[a.i if isinstance(a, Trace) else (type(a), repr(a) if a == a else id(a))
                     for a in args])
        if key not in self._made:
            v = fn(*[a.v if isinstance(a, Trace) else a for a in args])
            self._made[key] = out = v if guard else Trace(self, self._index(), v)
            self.ops.append((fn, args, out))
        return self._made[key]

    @property
    def lines(self):
        """The float program, a statement per operation: ``t<i> = <expr>``, or for a guard
        ``if not (<cmp>): return fallback(<params>)``, without the ``not`` where it came
        out False, so ``namespace`` needs a ``fallback`` before the source runs."""
        out = []
        for fn, args, result in self.ops:
            form = _INFIX.get(fn) or self.atom(fn) + "(" + ", ".join(["{}"] * len(args)) + ")"
            expr = form.format(*map(self.atom, args))
            if isinstance(result, Trace):
                out.append(f"t{result.i} = {expr}")
            else:
                out.append(f"if {'not ' if result else ''}({expr}): "
                           f"return fallback({', '.join(self.params)})")
        return out

    def atom(self, x):
        """x in the source: a Trace's name, a finite number's literal or a reference."""
        if isinstance(x, Trace):
            return f"t{x.i}"
        if type(x) is int or type(x) is float and math.isfinite(x):
            return f"({x!r})" if repr(x).startswith("-") else repr(x)
        for name, c in self.namespace.items():
            if c is x:
                return name
        name = f"c{len(self.namespace)}"
        self.namespace[name] = x
        return name


def define(name, params, lines, namespace, filename):
    """The function ``def name(params): lines``, compiled under filename in namespace."""
    source = f"def {name}({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in lines)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _traced(fn, reflected=False, guard=False):
    """A Trace operator method recording fn; other leaves answer NotImplemented."""

    def method(self, other):
        if not isinstance(other, (Trace, float, int)):
            return NotImplemented
        return self.tape.record(fn, (other, self) if reflected else (self, other), guard)

    return method


def _untraced(self):
    raise TypeError("a traced value cannot be branched on, converted or hashed")


class Trace:
    """A float leaf that records each operation on it in its Tape.

    It holds its concrete value v and its index i in the tape. Arithmetic
    and ``abs`` record a value, every comparison (== and != too) records a
    guard with its outcome, and bool, float, int, index and hash raise, so
    an evaluation that branches on a value in any other way cannot be traced.
    """

    __slots__ = ("tape", "i", "v")
    __array_ufunc__ = None

    def __init__(self, tape, i, v):
        self.tape = tape
        self.i = i
        self.v = v

    __add__ = _traced(operator.add)
    __radd__ = _traced(operator.add, reflected=True)
    __sub__ = _traced(operator.sub)
    __rsub__ = _traced(operator.sub, reflected=True)
    __mul__ = _traced(operator.mul)
    __rmul__ = _traced(operator.mul, reflected=True)
    __truediv__ = _traced(operator.truediv)
    __rtruediv__ = _traced(operator.truediv, reflected=True)
    __lt__ = _traced(operator.lt, guard=True)
    __le__ = _traced(operator.le, guard=True)
    __gt__ = _traced(operator.gt, guard=True)
    __ge__ = _traced(operator.ge, guard=True)
    __eq__ = _traced(operator.eq, guard=True)
    __ne__ = _traced(operator.ne, guard=True)
    __bool__ = __float__ = __int__ = __index__ = __hash__ = _untraced

    def __neg__(self):
        return self.tape.record(operator.neg, (self,))

    def __pow__(self, r):
        _plain_exponent(r)
        return self.tape.record(math.pow, (self, r)) if isinstance(r, (float, int)) else NotImplemented

    def __abs__(self):
        return self.tape.record(abs, (self,))


def any_true(cond):
    """Whether a guard holds: a bool itself, without numpy, or an array at any entry."""
    return cond if isinstance(cond, bool) else cond.any()


def primal(x):
    """Strip every derivative and Taylor layer, returning the plain float value."""
    while True:
        if isinstance(x, Dual):
            x = x.val
        elif isinstance(x, Jet):
            x = x.c[0]
        else:
            return x


def new_tag():
    """Allocate a fresh differentiation level."""
    return _fresh_tag()


def tangent_part(y, tag):
    """Derivative of y with respect to the variable seeded at the given tag."""
    if isinstance(y, Dual) and y.tag == tag:
        return y.dot
    return 0.0


def derivative(f, x):
    """Exact derivative of a scalar function at x (x may itself be a Dual)."""
    tag = _fresh_tag()
    y = f(Dual(x, 1.0, tag))
    return tangent_part(y, tag)


def coefficient(y, k):
    """Taylor coefficient k of y; a non-jet y is a constant along the series."""
    if isinstance(y, Jet):
        return y.c[k]
    return y if k == 0 else 0.0


def taylor(f, x, order):
    """[f(x), f'(x), ..., f^(order)(x)] from one evaluation on the jet x + t (order >= 1).

    x may be a float, a float64 array or a Dual; the k-th derivative is k!
    times the k-th Taylor coefficient, so through order 2 it is exact scaling.
    """
    y = f(Jet([x, 1.0] + [0.0] * (order - 1)))
    return [math.factorial(k) * coefficient(y, k) for k in range(order + 1)]


# -- the seam: every math function dispatches Dual -> Jet -> Trace -> float -> array -> math --


def _lift(fn, jet_rule, tangent):
    """fn on every leaf: a Dual carries tangent(x, fn(x), dx), a Jet runs jet_rule, a Trace
    records fn, a float calls fn itself before any array test, an array applies fn entry by entry."""

    def lifted(x):
        if isinstance(x, Dual):
            y = lifted(x.val)
            return Dual(y, tangent(x.val, y, x.dot), x.tag)
        if isinstance(x, Jet):
            return jet_rule(x)
        if isinstance(x, Trace):
            return x.tape.record(fn, (x,))
        return fn(x) if isinstance(x, float) or not isinstance(x, np.ndarray) else _entrywise(fn, x)

    lifted.__name__ = lifted.__qualname__ = fn.__name__
    return lifted


exp = _lift(math.exp, lambda x: Jet(_exp_terms(x.c)), lambda x, e, dx: e * dx)
log = _lift(math.log, lambda x: Jet(_log_terms(x.c)), lambda x, y, dx: dx / x)
sqrt = _lift(math.sqrt, lambda x: Jet(_sqrt_terms(x.c)), lambda x, s, dx: dx / (s + s))
sin = _lift(math.sin, lambda x: Jet(_sin_cos_terms(x.c, False)[0]), lambda x, y, dx: cos(x) * dx)
cos = _lift(math.cos, lambda x: Jet(_sin_cos_terms(x.c, False)[1]), lambda x, y, dx: -sin(x) * dx)
sinh = _lift(math.sinh, lambda x: Jet(_sin_cos_terms(x.c, True)[0]), lambda x, y, dx: cosh(x) * dx)
cosh = _lift(math.cosh, lambda x: Jet(_sin_cos_terms(x.c, True)[1]), lambda x, y, dx: sinh(x) * dx)
tanh = _lift(math.tanh, lambda x: Jet(_tanh_terms(x.c)), lambda x, t, dx: (1.0 - t * t) * dx)


def _plain_exponent(r):
    """TypeError for a leaf or an array of any size as an exponent: the check of pow_ and every leaf's **."""
    if not isinstance(r, (float, int)) and isinstance(r, (Dual, Jet, Trace, np.ndarray)):
        raise TypeError(f"a power's exponent is a plain number, not {type(r).__name__}")


def pow_(x, r):
    """x ** r, the one rule for every power on every leaf: x is the leaf, r a plain number.

    A Dual, Jet or Trace base runs its own ``**``, an array of any shape takes one
    ``np.float_power``, which is libm's pow (``math.pow`` entry by entry where a result
    is not finite), and anything else calls ``math.pow``. So every power rounds as
    libm does, overflow raises OverflowError and off the real domain ValueError, on
    an array at the first such entry. A leaf or an array exponent raises TypeError.
    """
    if type(r) is not int and type(r) is not float:  # a plain int or float passes the check
        _plain_exponent(r)
    if type(x) is float:  # first: most calls, the closed forms' at floats
        return math.pow(x, r)
    if isinstance(x, (Dual, Jet, Trace)):
        return x**r
    if isinstance(x, np.ndarray):
        with np.errstate(all="ignore"):
            y = np.asarray(np.float_power(x, r))
        return y if np.isfinite(y).all() else _entrywise(math.pow, x, r)
    return math.pow(x, r)


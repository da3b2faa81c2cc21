"""Tagged dual numbers, Taylor jets and batched leaves for exact forward-mode derivatives.

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
were built.

A :class:`Batch` is the third leaf: a float64 array holding one coordinate
at many sample points, so one evaluation differentiates all of them. numpy
does its + - * /, which round like Python floats; its ``**`` and every math
function here apply the ``math`` function entry by entry instead, because
numpy's own power, exp, log, tan and hyperbolic functions differ from libm
in the last bit on a share of inputs. Dual and Jet set ``__array_ufunc__``
to None, so an array operand defers to them. Guards on values go through
:func:`any_true`, which leaves float and Jet evaluations free of numpy calls.

One seam, :func:`_lift`, decides how every unary math function is computed:
Dual -> Jet -> Batch -> ``math``, in that order, so one rule evaluates on
floats, Duals, Jets, Batches and Duals wrapping any of them. A new scalar
leaf (an mpmath ``mpf`` for extended precision, say) is one more branch
there, before ``math``, whose functions would silently return floats.
:func:`pow_` keeps its own two-argument dispatch.

A :class:`Tangent` is the dot of a Dual that carries several directions
under one tag: it maps a direction index to that direction's component, so
one evaluation gives every partial (``phase.partials_at`` on Batch leaves).
A direction the value does not depend on is absent, a structural zero, and
never stored as 0.0. Every present component then runs the same IEEE
operation, in the same order, as the evaluation seeded along that direction
alone, and an absent one acts like the plain value of that evaluation: a
difference whose left side lacks direction j gives -b_j, as ``__rsub__``
does. So each component equals the seeded partial bit for bit.
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

    __rmul__ = __mul__

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
        if r == 0:  # a present 0.0 in each direction self has
            dot = self.dot
            zero = Tangent(dict.fromkeys(dot.d, 0.0)) if isinstance(dot, Tangent) else 0.0
            return Dual(1.0, zero, self.tag)
        if r == 1:
            return self
        # no square shortcut: self * self would give the primal x*x, while a
        # float or Batch base squares through pow(x, 2), which differs in the
        # last bit on a share of inputs; (2 x) * dot is the tangent of x * x
        # bit for bit, since doubling is exact
        return Dual(pow_(self.val, r), (r * pow_(self.val, r - 1)) * self.dot, self.tag)

    def __rpow__(self, base):
        return exp(self * log(base))

    def __abs__(self):
        x = primal(self)
        if isinstance(x, np.ndarray):
            s = batch(np.where(x >= 0.0, 1.0, -1.0))
        else:
            s = 1.0 if x >= 0.0 else -1.0
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

    def __repr__(self):
        return f"Tangent({self.d!r})"

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

    def __repr__(self):
        return f"Jet({self.c!r})"

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
            return _jet_div(self.c, other.c)
        if isinstance(other, Dual):
            return NotImplemented
        return Jet([a / other for a in self.c])

    def __rtruediv__(self, other):
        return _jet_div([other] + [0.0] * (len(self.c) - 1), self.c)

    def __pow__(self, r):
        if r != int(r):
            return _jet_pow(self, r)
        r = int(r)
        if r < 0:
            return 1.0 / self ** (-r)
        out = Jet([1.0] + [0.0] * (len(self.c) - 1))
        base = self
        while r:
            if r & 1:
                out = out * base
            r >>= 1
            if r:
                base = base * base
        return out


def _cauchy(a, b, k):
    """Coefficient k of the product of two series."""
    total = a[0] * b[k]
    for j in range(1, k + 1):
        total = total + a[j] * b[k - j]
    return total


def _jet_div(a, b):
    """Series a/b: q_k = (a_k - sum_{j>=1} b_j q_{k-j}) / b_0."""
    q = []
    for k in range(min(len(a), len(b))):
        t = a[k]
        for j in range(1, k + 1):
            t = t - b[j] * q[k - j]
        q.append(t / b[0])
    return Jet(q)


def _ode_coefficient(a, k, g):
    """Coefficient k >= 1 of f where f' = g a': (1/k) sum_{j=1..k} j a_j g_{k-j}."""
    total = a[1] * g[k - 1]
    for j in range(2, k + 1):
        total = total + j * a[j] * g[k - j]
    return total / k


def _jet_exp(x):
    a = x.c
    e = [exp(a[0])]
    for k in range(1, len(a)):
        e.append(_ode_coefficient(a, k, e))
    return Jet(e)


def _jet_log(x):
    # a l' = a', so l_k = (a_k - (1/k) sum_{j=1..k-1} j l_j a_{k-j}) / a_0
    a = x.c
    lg = [log(a[0])]
    for k in range(1, len(a)):
        t = a[k]
        for j in range(1, k):
            t = t - (j / k) * lg[j] * a[k - j]
        lg.append(t / a[0])
    return Jet(lg)


def _jet_sqrt(x):
    # s * s = a
    a = x.c
    s = [sqrt(a[0])]
    for k in range(1, len(a)):
        t = a[k]
        for j in range(1, k):
            t = t - s[j] * s[k - j]
        s.append(t / (s[0] + s[0]))
    return Jet(s)


def _jet_sin_cos(x, hyperbolic):
    # coupled: s' = c a', c' = -s a' (circular) or +s a' (hyperbolic)
    a = x.c
    if hyperbolic:
        s, c = [sinh(a[0])], [cosh(a[0])]
    else:
        s, c = [sin(a[0])], [cos(a[0])]
    for k in range(1, len(a)):
        sk = _ode_coefficient(a, k, c)
        ck = _ode_coefficient(a, k, s)
        s.append(sk)
        c.append(ck if hyperbolic else -ck)
    return Jet(s), Jet(c)


def _jet_tan(x, hyperbolic):
    # t' = (1 + t^2) a' (tan) or (1 - t^2) a' (tanh)
    a = x.c
    sign = -1.0 if hyperbolic else 1.0
    t = [tanh(a[0]) if hyperbolic else tan(a[0])]
    w = [1.0 + sign * t[0] * t[0]]
    for k in range(1, len(a)):
        t.append(_ode_coefficient(a, k, w))
        w.append(sign * _cauchy(t, t, k))
    return Jet(t)


def _jet_pow(x, r):
    # a b' = r a' b, so b_k = (1/(k a_0)) sum_{j=1..k} (r j - (k - j)) a_j b_{k-j}
    a = x.c
    b = [pow_(a[0], r)]
    for k in range(1, len(a)):
        t = (r - (k - 1)) * a[1] * b[k - 1]
        for j in range(2, k + 1):
            t = t + (r * j - (k - j)) * a[j] * b[k - j]
        b.append(t / (k * a[0]))
    return Jet(b)


class Batch(np.ndarray):
    """One coordinate at many sample points: a float64 array leaf.

    Only ``**`` differs from a plain array: it is Python's float power,
    entry by entry, so a batched evaluation rounds like the float one.
    """

    def __pow__(self, r):
        if isinstance(r, (Dual, Jet)):
            return NotImplemented
        return _entrywise(operator.pow, self, r)

    def __rpow__(self, base):
        return _entrywise(operator.pow, base, self)


def batch(values):
    """values (a sequence or array of floats) as a Batch leaf."""
    return np.asarray(values, dtype=float).view(Batch)


def _entrywise(fn, *args):
    """fn applied entry by entry; array arguments are zipped, scalars repeated."""
    cols = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a) for a in args]
    return batch([fn(*vals) for vals in zip(*cols)])


def any_true(cond):
    """Whether a guard holds: cond itself for a scalar, at any entry for an array.

    Scalar conditions never reach numpy, so float and Jet evaluations pay
    nothing for the array case.
    """
    return cond.any() if isinstance(cond, np.ndarray) else cond


def primal(x):
    """Strip every derivative and Taylor layer, returning the plain float value."""
    while True:
        if isinstance(x, Dual):
            x = x.val
        elif isinstance(x, Jet):
            x = x.c[0]
        else:
            return x


def seed(x, tag):
    """Wrap x as the variable of differentiation for the given tag."""
    return Dual(x, 1.0, tag)


def new_tag():
    """Allocate a fresh differentiation level."""
    return _fresh_tag()


def value_part(y, tag):
    """Value of y with the given tag's derivative layer removed."""
    if isinstance(y, Dual) and y.tag == tag:
        return y.val
    return y


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

    x may be a float, a Batch or a Dual; the k-th derivative is k! times the
    k-th Taylor coefficient, so through order 2 it is exact scaling.
    """
    y = f(Jet([x, 1.0] + [0.0] * (order - 1)))
    return [math.factorial(k) * coefficient(y, k) for k in range(order + 1)]


# -- the seam: every math function dispatches Dual -> Jet -> Batch -> math --


def _lift(fn, jet_rule, tangent):
    """fn on every leaf: a Dual carries tangent(x, fn(x), dx), a Jet runs jet_rule,
    a Batch applies fn entry by entry and a float calls fn itself."""

    def lifted(x):
        if isinstance(x, Dual):
            y = lifted(x.val)
            return Dual(y, tangent(x.val, y, x.dot), x.tag)
        if isinstance(x, Jet):
            return jet_rule(x)
        if isinstance(x, np.ndarray):
            return _entrywise(fn, x)
        return fn(x)

    lifted.__name__ = lifted.__qualname__ = fn.__name__
    return lifted


exp = _lift(math.exp, _jet_exp, lambda x, e, dx: e * dx)
log = _lift(math.log, _jet_log, lambda x, y, dx: dx / x)
sqrt = _lift(math.sqrt, _jet_sqrt, lambda x, s, dx: dx / (s + s))
sin = _lift(math.sin, lambda x: _jet_sin_cos(x, False)[0], lambda x, y, dx: cos(x) * dx)
cos = _lift(math.cos, lambda x: _jet_sin_cos(x, False)[1], lambda x, y, dx: -sin(x) * dx)
tan = _lift(math.tan, lambda x: _jet_tan(x, False), lambda x, t, dx: (1.0 + t * t) * dx)
sinh = _lift(math.sinh, lambda x: _jet_sin_cos(x, True)[0], lambda x, y, dx: cosh(x) * dx)
cosh = _lift(math.cosh, lambda x: _jet_sin_cos(x, True)[1], lambda x, y, dx: sinh(x) * dx)
tanh = _lift(math.tanh, lambda x: _jet_tan(x, True), lambda x, t, dx: (1.0 - t * t) * dx)


def pow_(x, r):
    """x**r for real r; raises ValueError off the real domain (negative base)."""
    if isinstance(x, Dual):
        return x**r
    if isinstance(x, Jet):
        return _jet_pow(x, r)
    if isinstance(x, np.ndarray):
        return _entrywise(math.pow, x, r)
    return math.pow(x, r)

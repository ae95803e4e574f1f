"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values.  Over Q a scalar is an ``int`` when it
is integral and otherwise a ``fractions.Fraction`` whose denominator is
not 1; every field operation and every ``linalg`` result keeps to this.
A result that is computed is put into this form whatever its inputs;
an entry that is only moved (by ``neg``, ``linalg.transpose`` or
``linalg.stack``, or left alone by ``linalg.reduce_vector``) keeps the
form it came in, so it keeps the contract when its input does.
Over F_p a scalar is an int in ``range(p)``.  The field object carries
the arithmetic so matrix code can stay generic.  Both kinds of scalar
are falsy exactly when zero, so generic code tests ``if x:`` rather than
comparing with ``field.zero``.
"""

from fractions import Fraction

from .errors import FixtureValidationError

_MAX_PRIME = 2**31


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _norm(x):
    """A rational as a scalar of Q: an int when it is integral."""
    if type(x) is not int and x.denominator == 1:
        return x.numerator
    return x


class RationalField:
    """The field Q, elements are ints and non-integral Fractions."""

    name = "Q"
    char = 0

    zero = 0
    one = 1

    def add(self, a, b):
        return _norm(a + b)

    def sub(self, a, b):
        return _norm(a - b)

    def mul(self, a, b):
        return _norm(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        return _norm(Fraction(1, a))

    def of(self, num, den=1):
        if den == 1 and type(num) is int:
            return num
        return _norm(Fraction(num, den))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p, elements are ints in range(p)."""

    char = None  # set per instance

    def __init__(self, p):
        if not _is_prime(p) or p >= _MAX_PRIME:
            raise FixtureValidationError("field modulus must be prime and < 2^31: %r" % (p,))
        self.p = p
        self.char = p
        self.name = "Fp:%d" % p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def of(self, num, den=1):
        v = num % self.p
        if den % self.p == 0:
            raise FixtureValidationError("denominator divisible by p in %s" % self.name)
        if den % self.p != 1:
            v = (v * self.inv(den % self.p)) % self.p
        return v

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def field_from_spec(spec):
    """Parse a field spec string: "Q" or "Fp:<p>"."""
    if spec == "Q":
        return QQ
    if isinstance(spec, str) and spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise FixtureValidationError("bad prime in field spec %r" % spec)
        return PrimeField(p)
    raise FixtureValidationError("unknown field spec %r" % (spec,))

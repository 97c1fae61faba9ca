"""Complex scalars in log-magnitude/phase form.

Block amplitudes are products of factors whose magnitudes span hundreds of
orders of magnitude at small torus radius, so products are accumulated as
(log|x|, arg x) pairs and only exponentiated after a global scale has been
split off.
"""
import math


class LogComplex:
    """A complex number x stored as (log|x|, arg x); log = -inf encodes 0."""

    __slots__ = ("log", "arg")

    def __init__(self, log, arg):
        self.log = float(log)
        self.arg = float(arg)

    @classmethod
    def from_value(cls, z):
        z = complex(z)
        if z == 0:
            return cls.zero()
        # atan2, not cmath.phase, which raises when the phase underflows
        return cls(math.log(abs(z)), math.atan2(z.imag, z.real))

    @classmethod
    def zero(cls):
        return cls(-math.inf, 0.0)

    @classmethod
    def one(cls):
        return cls(0.0, 0.0)

    @property
    def is_zero(self):
        return self.log == -math.inf

    @property
    def value(self):
        """The plain complex value; overflows to inf beyond double range."""
        if self.is_zero:
            return 0j
        try:
            r = math.exp(self.log)
        except OverflowError:
            r = math.inf
        return complex(r * math.cos(self.arg), r * math.sin(self.arg))

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log + other.log, self.arg + other.arg)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by a zero LogComplex")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log - other.log, self.arg - other.arg)

    def __neg__(self):
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log, self.arg + math.pi)

    @staticmethod
    def _coerce(x):
        if isinstance(x, LogComplex):
            return x
        return LogComplex.from_value(x)

    def __repr__(self):
        return f"LogComplex(log={self.log!r}, arg={self.arg!r})"

"""Arithmetic in the extension field F_{q^n}, q prime.

An element is a plain int in [0, q^n): the coefficients (c_0, ..., c_{n-1})
of c_0 + c_1*a + ... + c_{n-1}*a^(n-1), where a is a root of the modulus,
read as base-q digits with c_0 most significant.  The same digits encode a
vector of F_q^n (`pack`, `unpack`), so a symbol and its vector are one int:
for q = 2 addition is XOR, and a symbol is already the bit-packed row that
F_2 rank computations use.  The prime field F_q is FieldCtx(q, 1), whose
elements are the residues 0 .. q-1, so a row over F_q and a row over
F_{q^n} are the same kind of object.  The coefficient form appears only in
`element` (coefficients in, validated), `coefficients` (out) and the
polynomial multiplication that builds the tables and serves larger fields.

The modulus is a monic irreducible polynomial stored constant-term-first
(modulus[i] = coefficient of x^i).  When omitted it defaults to the
lexicographically smallest monic irreducible of the requested degree, with
coefficients compared constant-term-first, so a (q, n) pair always denotes
one reproducible field without external polynomial tables.

Element order, wherever a "first" element or a deterministic enumeration is
needed, is the order of the ints, which is lexicographic on the coefficients
with c_0 most significant: zero is 0 and one is q^(n-1).

Fields with at most 2^16 elements precompute discrete log/exp tables, which
multiplication, inversion, powers and Frobenius index directly; larger
fields fall back to polynomial reduction.  The tables come from the first
int g of full multiplicative order (g^((q^n-1)/p) != 1 for every prime p
dividing q^n - 1, computed without tables) and one walk through its powers,
whose F_q-linear step y -> g*y sums precomputed images of chunks of digits.
A modulus is checked with Rabin's test: f of degree n is irreducible iff f
divides x^(q^n) - x and x^(q^(n/p)) - x is coprime to f for every prime p
dividing n.  A FieldCtx is immutable after construction and every operation
is a pure function of its inputs.
"""

from __future__ import annotations

import functools
import itertools

from .errors import InvalidParams, SearchTooLarge

_TABLE_LIMIT = 1 << 16
_MAX_DEGREE = 24
_MAX_CHARACTERISTIC = _TABLE_LIMIT  # keeps is_prime's trial division short


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, in increasing order (trial division)."""
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    return primes


def is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == [p]


def pack(digits, q: int) -> int:
    """The int whose base-q digits are `digits`, the first most significant."""
    x = 0
    for d in digits:
        x = x * q + d
    return x


def unpack(x: int, q: int, length: int) -> tuple:
    """The `length` base-q digits of x, the most significant first."""
    digits = [0] * length
    for i in range(length - 1, -1, -1):
        x, digits[i] = divmod(x, q)
    return tuple(digits)


def add_packed(a: int, b: int, q: int, sign: int = 1) -> int:
    """a + sign * b for vectors packed into ints: coefficient by coefficient
    mod q, which for q = 2 is XOR."""
    if q == 2:
        return a ^ b
    if a < q and b < q:  # one coefficient each
        return (a + sign * b) % q
    out, place = 0, 1
    while a or b:
        a, da = divmod(a, q)
        b, db = divmod(b, q)
        out += (da + sign * db) % q * place
        place *= q
    return out


# -- polynomials over F_q as degree-indexed int lists (constant term first) --

def _poly_rem(num: list[int], monic: list[int], q: int) -> list[int]:
    """num mod a monic polynomial, as deg(monic) coefficients (zeros kept)."""
    num = list(num)
    deg = len(monic) - 1
    for i in range(len(num) - 1, deg - 1, -1):
        c = num[i]
        if c:
            for j, mj in enumerate(monic):
                num[i - deg + j] = (num[i - deg + j] - c * mj) % q
    return num[:deg]


def _reduction_rows(modulus, q: int) -> tuple:
    """Rows x^(n+j) mod the monic modulus of degree n, as coefficient vectors,
    for j = 0 .. n-2: the degrees a raw product can reach."""
    n = len(modulus) - 1
    rows, cur = [], [0] * (n - 1) + [1]  # x^(n-1)
    for _ in range(n - 1):
        cur = _poly_rem([0] + cur, modulus, q)  # x * cur mod modulus
        rows.append(tuple(cur))
    return tuple(rows)


def _mul_mod(a: tuple, b: tuple, red: tuple, q: int) -> tuple:
    """Product of coefficient vectors of length n, reduced by the rows `red`."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    res = [c % q for c in prod[:n]]
    for j in range(n, 2 * n - 1):
        c = prod[j] % q
        if c:
            row = red[j - n]
            for i in range(n):
                res[i] = (res[i] + c * row[i]) % q
    return tuple(res)


def _pow_mod(a: tuple, e: int, red: tuple, q: int) -> tuple:
    """a^e for e >= 0 by square-and-multiply with _mul_mod."""
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _mul_mod(result, a, red, q)
        e >>= 1
        if e:
            a = _mul_mod(a, a, red, q)
    return result


def _coprime(a: list[int], b: list[int], q: int) -> bool:
    """Whether two polynomials over F_q share no factor of positive degree (Euclid)."""
    while any(b):
        b = b[:max(i for i, c in enumerate(b) if c) + 1]
        inv = pow(b[-1], q - 2, q)
        a, b = b, _poly_rem(a, [c * inv % q for c in b], q)
    return not any(a[1:])  # a nonzero constant


def check_characteristic(q: int) -> None:
    """Raise InvalidParams unless q is an int prime of at most _MAX_CHARACTERISTIC."""
    if type(q) is not int:  # a bool (or any other subclass of int) is not one
        raise InvalidParams(f"q={q!r} is not an int")
    if q > _MAX_CHARACTERISTIC:
        raise InvalidParams(f"q={q} exceeds supported maximum {_MAX_CHARACTERISTIC}")
    if not is_prime(q):
        raise InvalidParams(f"q={q} is not prime")


def _is_irreducible(f: list[int], q: int) -> bool:
    """Rabin's test for a monic f of degree n >= 1: f divides x^(q^n) - x, and
    gcd(x^(q^(n/p)) - x, f) = 1 for every prime p dividing n."""
    n = len(f) - 1
    red = _reduction_rows(f, q)
    x = tuple(_poly_rem([0, 1] + [0] * (n - 1), f, q))  # x mod f: a constant when n = 1
    h = x
    for k in range(1, n + 1):
        h = _pow_mod(h, q, red, q)  # x^(q^k) mod f
        if n % k == 0 and is_prime(n // k) and not _coprime(f, [a - b for a, b in zip(h, x)], q):
            return False
    return h == x


def _smallest_irreducible(q: int, n: int) -> tuple[int, ...]:
    # for n > 1 every candidate with c_0 = 0 is divisible by x, so the scan starts at c_0 = 1
    for tail in itertools.product(range(1 if n > 1 else 0, q), *[range(q)] * (n - 1)):
        cand = list(tail) + [1]
        if _is_irreducible(cand, q):
            return tuple(cand)
    raise InvalidParams(f"no irreducible of degree {n} over F_{q}")  # unreachable


class Value:
    """An immutable record whose fields are its __slots__, in order: equal to
    a record of the same class with equal fields, hashed as their tuple and
    shown as Name(field=value, ...).  The constructor takes the fields by
    position or name, trailing ones defaulting from `_defaults`; a class with
    checks makes its own, which checks first and then calls this one.  Word,
    FoldedWord and Subspace, built and hashed in bulk, spell out their fields."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *values, **named):
        names, defaults = self.__slots__, self._defaults
        if len(values) < len(names):
            values += tuple(named.pop(k) if k in named else defaults[k]
                            for k in names[len(values):] if k in named or k in defaults)
        if named or len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._fields()


class FieldCtx:
    """The field F_{q^n} with a fixed monic irreducible modulus."""

    __slots__ = ("q", "n", "modulus", "order", "zero", "one",
                 "_unit_order", "_red", "_exp", "_log")

    def __init__(self, q: int, n: int, modulus=None):
        check_characteristic(q)
        if type(n) is not int:
            raise InvalidParams(f"extension degree n={n!r} is not an int")
        if n < 1:
            raise InvalidParams(f"extension degree n={n} must be >= 1")
        if n > _MAX_DEGREE:
            raise InvalidParams(f"extension degree n={n} exceeds supported maximum {_MAX_DEGREE}")
        if modulus is None:
            modulus = _smallest_irreducible(q, n)
        else:
            modulus = tuple(modulus)
            if not all(type(c) is int and 0 <= c < q for c in modulus):
                raise InvalidParams(f"modulus coefficient not in [0, {q}): {list(modulus)}")
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise InvalidParams(f"modulus must be monic of degree {n}")
            if not _is_irreducible(list(modulus), q):
                raise InvalidParams(f"modulus {list(modulus)} is reducible over F_{q}")
        self.q = q
        self.n = n
        self.modulus = tuple(modulus)
        self.order = q ** n
        self.zero = 0
        self.one = q ** (n - 1)
        self._unit_order = self.order - 1
        self._red = _reduction_rows(self.modulus, q)
        self._exp = None
        self._log = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    # -- identity / ordering ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.q, self.n, self.modulus) == (other.q, other.n, other.modulus))

    def __hash__(self):
        return hash((self.q, self.n, self.modulus))

    def __repr__(self):
        return f"FieldCtx(q={self.q}, n={self.n}, modulus={list(self.modulus)})"

    def element(self, coeffs) -> int:
        """The element with coefficients (c_0, ..., c_{n-1}), each an int in [0, q)."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n:
            raise InvalidParams(f"element needs {self.n} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not (type(c) is int and 0 <= c < self.q):
                raise InvalidParams(f"coefficient {c!r} is not in [0, {self.q})")
        return pack(coeffs, self.q)

    def coefficients(self, x: int) -> tuple:
        """The coefficients (c_0, ..., c_{n-1}) of x: its vector in F_q^n."""
        return unpack(x, self.q, self.n)

    def check_elements(self, xs, what: str = "symbol") -> None:
        """Raise InvalidParams unless every x in xs is an element, an int in [0, q^n)."""
        for x in xs:
            if not (type(x) is int and 0 <= x < self.order):
                raise InvalidParams(f"{what} {x!r} is not an int in [0, {self.order})")

    def element_at(self, index: int) -> int:
        """The index-th element in lexicographic order (c_0 most significant)."""
        if not (type(index) is int and 0 <= index < self.order):
            raise InvalidParams(f"element index {index!r} out of range [0, {self.order})")
        return index

    def elements(self) -> range:
        """All q^n elements in lexicographic order."""
        return range(self.order)

    def basis(self) -> list[int]:
        """Power basis 1, a, a^2, ..., a^(n-1)."""
        return [self.q ** (self.n - 1 - i) for i in range(self.n)]

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return add_packed(a, b, self.q)

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return add_packed(a, b, self.q, -1)

    def _mul_raw(self, a: tuple, b: tuple) -> tuple:
        """Product of coefficient vectors by polynomial reduction."""
        return _mul_mod(a, b, self._red, self.q)

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] + self._log[b]) % self._unit_order]
        return pack(self._mul_raw(self.coefficients(a), self.coefficients(b)), self.q)

    def inv(self, a: int) -> int:
        if not a:
            raise InvalidParams("0 has no multiplicative inverse")
        if self._log is not None:
            return self._exp[-self._log[a] % self._unit_order]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e > 0:
                return 0
            if e == 0:
                return self.one
            raise InvalidParams("0 cannot be raised to a negative power")
        e %= self._unit_order
        if self._log is not None:
            return self._exp[self._log[a] * e % self._unit_order]
        return pack(_pow_mod(self.coefficients(a), e, self._red, self.q), self.q)

    def frobenius(self, x: int, i: int) -> int:
        """x^(q^i); the i-fold Frobenius automorphism."""
        if i < 0:
            raise InvalidParams("frobenius exponent must be >= 0")
        if not x:
            return 0
        return self.pow(x, pow(self.q, i, self._unit_order))

    def trace(self, x: int) -> int:
        """Sum of the n Frobenius conjugates; always lies in the prime field."""
        acc = 0
        cur = x
        for _ in range(self.n):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur, 1)
        c0, rest = divmod(acc, self.one)
        if rest:
            raise InvalidParams(f"trace of {x} left the prime field: {acc}")
        return c0

    def primitive_element(self) -> int:
        """The first int of full multiplicative order: g^((q^n-1)/p) != 1 for
        every prime p dividing q^n - 1.  The log tables are powers of it."""
        unit = self._unit_order
        primes = _prime_factors(unit)
        return next(g for g in range(1, self.order)
                    if all(self.pow(g, unit // p) != self.one for p in primes))

    def log(self, a: int) -> int:
        """The s in [0, q^n - 1) with primitive_element()^s = a, for a nonzero;
        read from the log table, so only fields with tables have it."""
        if self._log is None:
            raise SearchTooLarge(f"no log table for a field of {self.order} elements")
        if not a:
            raise InvalidParams("0 has no discrete logarithm")
        return self._log[a]

    def multiplication_matrix(self, x: int) -> tuple:
        """Matrix of y -> x*y in the power basis, as packed rows: row i is
        x * basis_i, whose int is its coefficient vector."""
        return tuple(self.mul(x, b) for b in self.basis())

    # -- internals -----------------------------------------------------------

    def _build_tables(self):
        # pow runs without tables until they exist
        q, unit = self.q, self._unit_order
        gen = self.primitive_element()
        # y -> gen*y is F_q-linear, so it is a sum over chunks of w digits (the
        # largest w >= 1 with q^w <= 256) of images[j][v] = gen * (v * size^j)
        w = max([1] + [k for k in range(1, 9) if q ** k <= 256])
        size = q ** w
        basis = [self.mul(gen, q ** i) for i in range(self.n)]  # no tables yet
        images = []
        for k in range(0, self.n, w):
            table = [0]
            for b in basis[k:k + w]:  # the digit of b is the most significant so far
                multiples = itertools.accumulate([b] * (q - 1), lambda u, v: add_packed(u, v, q),
                                                 initial=0)
                table = [add_packed(m, x, q) for m in multiples for x in table]
            images.append(table)
        exp = [0] * unit
        log = [0] * self.order
        cur = self.one
        t0, t1 = (images + [[0]])[:2]
        for k in range(unit):
            exp[k] = cur
            log[cur] = k
            if q == 2:  # w = 8 and n <= 16: at most two byte tables
                cur = t0[cur & 255] ^ t1[cur >> 8]
            else:
                cur, low = divmod(cur, size)
                nxt = t0[low]
                for t in images[1:]:
                    cur, low = divmod(cur, size)
                    nxt = add_packed(nxt, t[low], q)
                cur = nxt
        self._exp = exp
        self._log = log


@functools.lru_cache(maxsize=16)
def prime_field(q: int) -> FieldCtx:
    """F_q as FieldCtx(q, 1), built once per q (the last 16 kept); its elements
    are the residues."""
    return FieldCtx(q, 1)

"""Arithmetic in the extension field F_{q^n}, q prime.

Elements are plain tuples (c_0, ..., c_{n-1}) of integers in [0, q): the
coefficient vector of c_0 + c_1*a + ... + c_{n-1}*a^(n-1) where a is a root
of the modulus.  Tuples are hashable and immutable, so elements can be used
directly as set members and dict keys, which the subset-metric and orbit
computations rely on heavily.

The modulus is a monic irreducible polynomial stored constant-term-first
(modulus[i] = coefficient of x^i).  When omitted it defaults to the
lexicographically smallest monic irreducible of the requested degree, with
coefficients compared constant-term-first, so a (q, n) pair always denotes
one reproducible field without external polynomial tables.

Element order, wherever a "first" element or a deterministic enumeration is
needed, is lexicographic on the coefficient tuple with c_0 most significant.
``element_at`` / ``index_of`` realize that order as integers 0 .. q^n - 1.

Fields with at most 2^16 elements precompute discrete log/exp tables for
O(1) multiplication; larger fields fall back to polynomial reduction.
A FieldCtx is immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import itertools

from .errors import InvalidParams, SearchTooLarge
from .linalg import FqMatrix

Element = tuple  # length-n tuple of ints in [0, q)

_TABLE_LIMIT = 1 << 16
_MAX_DEGREE = 24
_MAX_CHARACTERISTIC = _TABLE_LIMIT  # keeps is_prime's trial division short
_IRREDUCIBILITY_GUARD = 1 << 20  # cap on the trial divisors of one modulus


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- polynomials over F_q as degree-indexed int lists (constant term first) --

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list[int], den: list[int], q: int) -> tuple[list[int], list[int]]:
    num = list(num)
    dlead = den[-1]
    dinv = pow(dlead, q - 2, q)
    deg_d = len(den) - 1
    quot = [0] * max(len(num) - deg_d, 0)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i] % q
        if c == 0:
            continue
        f = (c * dinv) % q
        quot[i - deg_d] = f
        for j, dj in enumerate(den):
            num[i - deg_d + j] = (num[i - deg_d + j] - f * dj) % q
    return _poly_trim(quot), _poly_trim(num)


def check_characteristic(q: int) -> None:
    """Raise InvalidParams unless q is a prime of at most _MAX_CHARACTERISTIC."""
    if q > _MAX_CHARACTERISTIC:
        raise InvalidParams(f"q={q} exceeds supported maximum {_MAX_CHARACTERISTIC}")
    if not is_prime(q):
        raise InvalidParams(f"q={q} is not prime")


def _is_irreducible(poly: list[int], q: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    divisors = sum(q ** d for d in range(1, deg // 2 + 1))
    if divisors > _IRREDUCIBILITY_GUARD:
        raise SearchTooLarge(f"irreducibility test of degree {deg} over F_{q} needs "
                             f"{divisors} trial divisions (guard {_IRREDUCIBILITY_GUARD})")
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(q), repeat=d):
            div = list(tail) + [1]
            _, rem = _poly_divmod(poly, div, q)
            if not rem:
                return False
    return True


def _smallest_irreducible(q: int, n: int) -> tuple[int, ...]:
    for tail in itertools.product(range(q), repeat=n):
        cand = list(tail) + [1]
        if _is_irreducible(cand, q):
            return tuple(cand)
    raise InvalidParams(f"no irreducible of degree {n} over F_{q}")  # unreachable


class FieldCtx:
    """The field F_{q^n} with a fixed monic irreducible modulus."""

    __slots__ = ("q", "n", "modulus", "order", "zero", "one",
                 "_unit_order", "_red", "_exp", "_log")

    def __init__(self, q: int, n: int, modulus=None):
        check_characteristic(q)
        if n < 1:
            raise InvalidParams(f"extension degree n={n} must be >= 1")
        if n > _MAX_DEGREE:
            raise InvalidParams(f"extension degree n={n} exceeds supported maximum {_MAX_DEGREE}")
        if modulus is None:
            modulus = _smallest_irreducible(q, n)
        else:
            modulus = tuple(int(c) for c in modulus)
            if not all(0 <= c < q for c in modulus):
                raise InvalidParams(f"modulus coefficient not in [0, {q}): {list(modulus)}")
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise InvalidParams(f"modulus must be monic of degree {n}")
            if not _is_irreducible(list(modulus), q):
                raise InvalidParams(f"modulus {list(modulus)} is reducible over F_{q}")
        self.q = q
        self.n = n
        self.modulus = tuple(modulus)
        self.order = q ** n
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)
        self._unit_order = self.order - 1
        # reduction rows: _red[j] = coefficient vector of x^(n+j) mod modulus,
        # for j = 0 .. n-2 (the degrees a raw product can reach)
        if n > 1:
            red = [tuple((-m) % q for m in self.modulus[:n])]  # x^n
            for _ in range(n - 2):
                prev = red[-1]
                shifted = [0] + list(prev[:-1])
                if prev[-1]:
                    top = prev[-1]
                    for i, b in enumerate(red[0]):
                        shifted[i] = (shifted[i] + top * b) % q
                red.append(tuple(shifted))
            self._red = tuple(red)
        else:
            self._red = ()
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

    def element(self, coeffs) -> Element:
        """Validate and reduce a coefficient sequence into an element."""
        coeffs = tuple(int(c) % self.q for c in coeffs)
        if len(coeffs) != self.n:
            raise InvalidParams(f"element needs {self.n} coefficients, got {len(coeffs)}")
        return coeffs

    def element_at(self, index: int) -> Element:
        """The index-th element in lexicographic order (c_0 most significant)."""
        if not 0 <= index < self.order:
            raise InvalidParams(f"element index {index} out of range [0, {self.order})")
        coeffs = [0] * self.n
        for pos in range(self.n - 1, -1, -1):
            coeffs[pos] = index % self.q
            index //= self.q
        return tuple(coeffs)

    def index_of(self, x: Element) -> int:
        idx = 0
        for c in x:
            idx = idx * self.q + c
        return idx

    def elements(self):
        """All q^n elements in lexicographic order."""
        return (self.element_at(i) for i in range(self.order))

    def basis(self) -> list[Element]:
        """Power basis 1, a, a^2, ..., a^(n-1)."""
        out = []
        for i in range(self.n):
            v = [0] * self.n
            v[i] = 1
            out.append(tuple(v))
        return out

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        q = self.q
        return tuple((-x) % q for x in a)

    def scalar_mul(self, c: int, a: Element) -> Element:
        q = self.q
        c %= q
        return tuple((c * x) % q for x in a)

    def _mul_raw(self, a: Element, b: Element) -> Element:
        q, n = self.q, self.n
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
                row = self._red[j - n]
                for i in range(n):
                    res[i] = (res[i] + c * row[i]) % q
        return tuple(res)

    def mul(self, a: Element, b: Element) -> Element:
        if self._log is not None:
            if a == self.zero or b == self.zero:
                return self.zero
            k = (self._log[self.index_of(a)] + self._log[self.index_of(b)]) % self._unit_order
            return self._exp[k]
        return self._mul_raw(a, b)

    def inv(self, a: Element) -> Element:
        if a == self.zero:
            raise InvalidParams("0 has no multiplicative inverse")
        if self._log is not None:
            k = (-self._log[self.index_of(a)]) % self._unit_order
            return self._exp[k]
        return self.pow(a, self.order - 2)

    def pow(self, a: Element, e: int) -> Element:
        if a == self.zero:
            if e > 0:
                return self.zero
            if e == 0:
                return self.one
            raise InvalidParams("0 cannot be raised to a negative power")
        e %= self._unit_order if self._unit_order else 1
        if self._log is not None:
            return self._exp[(self._log[self.index_of(a)] * e) % self._unit_order]
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self._mul_raw(result, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return result

    def frobenius(self, x: Element, i: int) -> Element:
        """x^(q^i); the i-fold Frobenius automorphism."""
        if i < 0:
            raise InvalidParams("frobenius exponent must be >= 0")
        if x == self.zero:
            return self.zero
        if self._unit_order <= 1:
            return x
        return self.pow(x, pow(self.q, i, self._unit_order))

    def trace(self, x: Element) -> int:
        """Sum of the n Frobenius conjugates; always lies in the prime field."""
        acc = self.zero
        cur = x
        for _ in range(self.n):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur, 1)
        if any(acc[1:]):
            raise InvalidParams(f"trace of {x} left the prime field: {acc}")
        return acc[0]

    def subfield_member(self, x: Element, k: int) -> bool:
        """True iff x lies in the subfield F_{q^k} (requires k | n)."""
        if k < 1 or self.n % k != 0:
            raise InvalidParams(f"k={k} does not divide n={self.n}")
        return self.frobenius(x, k) == x

    def multiplication_matrix(self, x: Element) -> FqMatrix:
        """Matrix of y -> x*y in the power basis; row i is x * basis_i."""
        rows = [self.mul(x, b) for b in self.basis()]
        return FqMatrix(self.q, tuple(rows), self.n)

    # -- internals -----------------------------------------------------------

    def _build_tables(self):
        unit = self._unit_order
        if unit <= 1:
            # F_2: the unit group is trivial
            self._exp = [self.one]
            self._log = [0] * self.order
            return
        gen = None
        for i in range(1, self.order):
            cand = self.element_at(i)
            cur = cand
            count = 1
            while cur != self.one and count <= unit:
                cur = self._mul_raw(cur, cand)
                count += 1
            if count == unit:
                gen = cand
                break
        if gen is None:
            raise InvalidParams("no primitive element found (internal error)")
        exp = [self.one] * unit
        log = [0] * self.order
        cur = self.one
        for k in range(unit):
            exp[k] = cur
            log[self.index_of(cur)] = k
            cur = self._mul_raw(cur, gen)
        self._exp = exp
        self._log = log


class LinearEmbedding:
    """The F_q-linear injection F_{q^k} -> F_{q^(k+h)} sending basis_i to basis_i.

    This is coefficient padding: it is injective and F_q-linear but not a ring
    homomorphism, which is all the rectangular code construction needs.
    """

    __slots__ = ("src", "dst")

    def __init__(self, src: FieldCtx, dst: FieldCtx):
        if src.q != dst.q:
            raise InvalidParams("embedding requires matching base characteristic")
        if dst.n < src.n:
            raise InvalidParams(f"cannot embed degree {src.n} into degree {dst.n}")
        self.src = src
        self.dst = dst

    def __call__(self, x: Element) -> Element:
        return tuple(x) + (0,) * (self.dst.n - self.src.n)


def embed_linear(src_ctx: FieldCtx, dst_ctx: FieldCtx) -> LinearEmbedding:
    return LinearEmbedding(src_ctx, dst_ctx)

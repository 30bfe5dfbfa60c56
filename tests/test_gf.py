"""Field arithmetic: worked examples plus exhaustive axiom checks."""

import hashlib
import itertools
import random
import time

import pytest

from fqcodes.errors import InvalidParams, SearchTooLarge
from fqcodes.gf import (FieldCtx, _is_irreducible, _poly_rem, _prime_factors, pack,
                        prime_field, unpack)
from fqcodes.linalg import ext_matmul, rref
from fqcodes.rankmetric import LinearizedPoly

# the GF(8) used in the worked examples: x^3 + x + 1
GF8 = FieldCtx(2, 3, [1, 1, 0, 1])
ALPHA = GF8.element((0, 1, 0))


def _cubic_has_gf2_root(tail):
    c0, c1, c2 = tail
    return c0 == 0 or (c0 + c1 + c2 + 1) % 2 == 0


def test_prime_field_default_modulus_is_x():
    f2 = FieldCtx(2, 1)
    assert f2.modulus == (0, 1)
    assert f2.order == 2
    assert f2.one == f2.element((1,))


def test_default_gf8_modulus_is_lex_smallest():
    # a cubic over F_2 is irreducible iff it has no root; every candidate
    # below the default must be reducible by this independent criterion
    f8 = FieldCtx(2, 3)
    assert f8.modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    for tail in itertools.product(range(2), repeat=3):
        if tail < (1, 0, 1):
            assert _cubic_has_gf2_root(tail)
    assert not _cubic_has_gf2_root((1, 0, 1))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_default_odd_moduli_are_the_first_without_a_root(q):
    # below degree 4 a polynomial is irreducible iff it has no root
    def has_root(coeffs):
        return any(sum(c * x ** i for i, c in enumerate(coeffs)) % q == 0 for x in range(q))
    for n in (2, 3):
        first = next(t for t in itertools.product(range(q), repeat=n) if not has_root(t + (1,)))
        assert FieldCtx(q, n).modulus == first + (1,)


def test_explicit_moduli_accepted():
    assert FieldCtx(2, 3, [1, 1, 0, 1]).modulus == (1, 1, 0, 1)
    assert FieldCtx(2, 3, [1, 0, 1, 1]).modulus == (1, 0, 1, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(InvalidParams, match=r"modulus \[1, 1, 1, 1\] is reducible over F_2"):
        FieldCtx(2, 3, [1, 1, 1, 1])  # has the root 1
    with pytest.raises(InvalidParams, match=r"modulus \[0, 1, 1\] is reducible over F_2"):
        FieldCtx(2, 2, [0, 1, 1])  # x^2 + x = x(x+1)


def test_non_prime_characteristic_rejected():
    with pytest.raises(InvalidParams, match="q=4 is not prime"):
        FieldCtx(4, 1)
    with pytest.raises(InvalidParams, match="q=1 is not prime"):
        FieldCtx(1, 3)


def test_characteristic_capped():
    with pytest.raises(InvalidParams, match="q=65537 exceeds supported maximum 65536"):
        FieldCtx(2 ** 16 + 1, 1)  # prime, one past the cap


def test_fields_of_a_large_characteristic_build_quickly():
    # trial division would need 65521 + 65521^2 divisors per candidate modulus;
    # Rabin's test needs four Frobenius powers
    for modulus in ([3, 1, 0, 0, 1], None):
        start = time.perf_counter()
        ctx = FieldCtx(65521, 4, modulus)
        assert time.perf_counter() - start < 1
        assert ctx._log is None
    assert ctx.modulus == (1, 0, 0, 3, 1)


def test_non_canonical_modulus_rejected():
    with pytest.raises(InvalidParams, match=r"modulus coefficient not in \[0, 2\)"):
        FieldCtx(2, 3, [1, 1, 0, 3])


@pytest.mark.parametrize("q, n, modulus, message", [
    (2, 3, [1, 1.9, 0, True], r"modulus coefficient not in \[0, 2\)"),
    (2, 3, [1, 1, 0, True], r"modulus coefficient not in \[0, 2\)"),
    (2, 3, [1.0, 1, 0, 1], r"modulus coefficient not in \[0, 2\)"),
    (2.0, 3, None, r"q=2.0 is not an int"),
    (True, 1, None, r"q=True is not an int"),
    (2, 3.0, None, r"extension degree n=3.0 is not an int"),
    (3, True, None, r"extension degree n=True is not an int"),
])
def test_non_int_field_parameters_rejected(q, n, modulus, message):
    with pytest.raises(InvalidParams, match=message):
        FieldCtx(q, n, modulus)


def test_mul_example():
    alpha2 = GF8.mul(ALPHA, ALPHA)
    assert GF8.mul(ALPHA, alpha2) == GF8.element((1, 1, 0))  # alpha^3 = alpha + 1


def test_mul_identity_all_elements():
    for a in GF8.elements():
        assert GF8.mul(a, GF8.one) == a


def test_inv_example_and_brute_force_oracle():
    assert GF8.inv(ALPHA) == GF8.element((1, 0, 1))  # alpha^6 = 1 + alpha^2
    for a in GF8.elements():
        if a == GF8.zero:
            continue
        oracle = [b for b in GF8.elements() if GF8.mul(a, b) == GF8.one]
        assert oracle == [GF8.inv(a)]


def test_zero_inverse_raises():
    with pytest.raises(InvalidParams, match="0 has no multiplicative inverse"):
        GF8.inv(GF8.zero)
    with pytest.raises(InvalidParams, match="0 cannot be raised to a negative power"):
        GF8.pow(GF8.zero, -1)


def test_pow_negative_exponent():
    a = GF8.element((1, 1, 0))
    assert GF8.pow(a, -1) == GF8.inv(a)
    assert GF8.mul(GF8.pow(a, -2), GF8.pow(a, 2)) == GF8.one


def test_frobenius_examples():
    assert GF8.frobenius(ALPHA, 1) == GF8.mul(ALPHA, ALPHA)
    assert GF8.frobenius(ALPHA, 3) == ALPHA
    assert GF8.frobenius(GF8.element((1, 1, 0)), 1) == GF8.element((1, 0, 1))  # (a+1)^2 = a^2 + 1


@pytest.mark.parametrize("ctx", [GF8, FieldCtx(3, 2), FieldCtx(2, 4)])
def test_frobenius_is_linear_automorphism(ctx):
    elems = list(ctx.elements())
    for x in elems:
        assert ctx.frobenius(x, ctx.n) == x
    for x in elems[:8]:
        for y in elems[:8]:
            assert ctx.frobenius(ctx.add(x, y), 1) == \
                ctx.add(ctx.frobenius(x, 1), ctx.frobenius(y, 1))
            assert ctx.frobenius(ctx.mul(x, y), 1) == \
                ctx.mul(ctx.frobenius(x, 1), ctx.frobenius(y, 1))


def test_trace_examples():
    assert GF8.trace(GF8.one) == 1  # n mod q = 3 mod 2
    assert GF8.trace(ALPHA) == 0    # alpha + alpha^2 + alpha^4 = 0
    assert GF8.trace(GF8.zero) == 0


@pytest.mark.parametrize("ctx", [GF8, FieldCtx(3, 2), FieldCtx(2, 4)])
def test_trace_linear_surjective_frobenius_invariant(ctx):
    values = set()
    for x in ctx.elements():
        t = ctx.trace(x)
        values.add(t)
        assert ctx.trace(ctx.frobenius(x, 1)) == t
    assert values == set(range(ctx.q))  # surjective onto the prime field
    elems = list(ctx.elements())
    for x in elems[:6]:
        for y in elems[:6]:
            assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % ctx.q


def test_multiplication_matrix_examples():
    ident = GF8.multiplication_matrix(GF8.one)
    assert ident == (0b100, 0b010, 0b001)
    assert GF8.multiplication_matrix(GF8.zero) == (0,) * 3
    f4 = FieldCtx(2, 2)
    assert f4.multiplication_matrix(f4.element((0, 1))) == (0b01, 0b11)


@pytest.mark.parametrize("ctx", [FieldCtx(2, 2), GF8])
def test_multiplication_matrix_is_multiplicative(ctx):
    for x in ctx.elements():
        for y in ctx.elements():
            lhs = ctx.multiplication_matrix(ctx.mul(x, y))
            mx, my = ([unpack(r, ctx.q, ctx.n) for r in ctx.multiplication_matrix(z)]
                      for z in (x, y))
            rhs = tuple(pack(r, ctx.q) for r in ext_matmul(mx, my, ctx.n, prime_field(ctx.q)))
            assert lhs == rhs


def test_multiplication_matrix_invertible_iff_nonzero():
    for x in GF8.elements():
        rk = rref(GF8.multiplication_matrix(x), 3, 2)[1]
        assert (rk == 3) == (x != GF8.zero)


def test_embed_dimension_guard():
    # a map on F_{q^k} with coefficients in F_{q^n} embeds its argument by
    # coefficient padding, which needs the same q and k <= n
    with pytest.raises(InvalidParams, match="cannot embed degree 3 into degree 2"):
        LinearizedPoly(FieldCtx(2, 2), (0,), FieldCtx(2, 3))
    with pytest.raises(InvalidParams, match="embedding requires matching base characteristic"):
        LinearizedPoly(FieldCtx(2, 2), (0,), FieldCtx(3, 1))


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(q, n):
    ctx = FieldCtx(q, n)
    elems = list(ctx.elements())
    for a in elems:
        for b in elems:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in elems:
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == \
                    ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_field_axioms_gf256_sampled():
    import random
    ctx = FieldCtx(2, 8)
    rng = random.Random(1)
    for x in ctx.elements():
        if x != ctx.zero:
            assert ctx.mul(x, ctx.inv(x)) == ctx.one
    for _ in range(5000):
        a, b, c = (ctx.element_at(rng.randrange(ctx.order)) for _ in range(3))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_arithmetic_without_tables():
    # above the table threshold the polynomial fallback must still satisfy
    # the group laws
    big = FieldCtx(2, 17)
    assert big._log is None
    x = big.element_at(12345)
    y = big.element_at(54321)
    assert big.mul(x, big.inv(x)) == big.one
    assert big.mul(x, y) == big.mul(y, x)
    assert big.frobenius(x, 17) == x
    assert big.pow(x, big.order - 1) == big.one
    assert big.trace(x) in (0, 1)
    with pytest.raises(SearchTooLarge, match="no log table"):
        big.log(x)


def test_log_of_zero_raises():
    with pytest.raises(InvalidParams, match="0 has no discrete logarithm"):
        GF8.log(GF8.zero)


def test_element_ordering_constant_term_most_significant():
    f4 = FieldCtx(2, 2)
    assert [f4.coefficients(f4.element_at(i)) for i in range(4)] == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i in range(4):
        assert f4.element_at(i) == i


def test_element_rejects_non_canonical_coefficients():
    for coeffs in ((2, 0, 0), (0, -1, 0), (1, 0, 3)):
        with pytest.raises(InvalidParams, match=r"coefficient -?\d is not in \[0, 2\)"):
            GF8.element(coeffs)
    with pytest.raises(InvalidParams, match=r"coefficient 0.5 is not in \[0, 2\)"):
        GF8.element((0.5, 0, 0))
    with pytest.raises(InvalidParams, match="element needs 3 coefficients, got 2"):
        GF8.element((1, 0))
    for x in GF8.elements():
        assert GF8.element(GF8.coefficients(x)) == x


@pytest.mark.parametrize("reject, message", [
    (lambda: GF8.element((True, 0, False)), r"coefficient True is not in \[0, 2\)"),
    (lambda: GF8.element_at(True), r"element index True out of range \[0, 8\)"),
])
def test_bools_are_not_elements(reject, message):
    # True == 1, so an isinstance(x, int) test alone would accept bools
    with pytest.raises(InvalidParams, match=message):
        reject()


# -- the int arithmetic against schoolbook polynomial arithmetic --------------

def _school_mul(a, b, modulus, q):
    """Product of coefficient lists (constant term first) reduced by the monic modulus."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % q
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d]
        for i, m in enumerate(modulus):
            prod[d - n + i] = (prod[d - n + i] - c * m) % q
    return prod[:n]


def _school_pow(a, e, modulus, q):
    result = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _school_mul(result, a, modulus, q)
        a = _school_mul(a, a, modulus, q)
        e >>= 1
    return result


BIG = FieldCtx(2, 17, [1, 0, 0, 1] + [0] * 13 + [1])  # x^17 + x^3 + 1, no tables


@pytest.mark.parametrize("ctx", [GF8, FieldCtx(3, 2), FieldCtx(5, 2), FieldCtx(2, 8), BIG],
                         ids=["2^3", "3^2", "5^2", "2^8", "2^17"])
def test_int_arithmetic_matches_schoolbook_polynomials(ctx):
    assert (ctx._log is None) == (ctx.order > 1 << 16)
    q, n, mod = ctx.q, ctx.n, ctx.modulus
    rng = random.Random(ctx.order)
    if ctx.order <= 64:
        pairs = list(itertools.product(ctx.elements(), repeat=2))
    else:
        pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(100)]
    for x, y in pairs:
        a, b = ctx.coefficients(x), ctx.coefficients(y)
        assert list(ctx.coefficients(ctx.add(x, y))) == [(u + v) % q for u, v in zip(a, b)]
        assert list(ctx.coefficients(ctx.sub(x, y))) == [(u - v) % q for u, v in zip(a, b)]
        assert list(ctx.coefficients(ctx.mul(x, y))) == _school_mul(a, b, mod, q)
        e = y % 50
        assert list(ctx.coefficients(ctx.pow(x, e))) == _school_pow(a, e, mod, q)
        if x:
            assert list(ctx.coefficients(ctx.inv(x))) == _school_pow(a, ctx.order - 2, mod, q)
        i = y % (n + 1)
        assert list(ctx.coefficients(ctx.frobenius(x, i))) == _school_pow(a, q ** i, mod, q)


# -- the table build against the order walk it replaced ----------------------

def _order_walk_tables(ctx):
    """exp/log tables from the first element whose powers reach one only after
    q^n - 1 steps, found by walking the powers of every candidate."""
    one, unit = ctx.coefficients(ctx.one), ctx.order - 1
    for g in range(1, ctx.order):
        gc = ctx.coefficients(g)
        cur, count = gc, 1
        while cur != one:
            cur = ctx._mul_raw(cur, gc)
            count += 1
        if count == unit:
            break
    exp, log, cur = [], [0] * ctx.order, one
    for k in range(unit):
        x = pack(cur, ctx.q)
        exp.append(x)
        log[x] = k
        cur = ctx._mul_raw(cur, gc)
    return g, exp, log


ORACLE_FIELDS = sorted({(q, n) for q in (2, 3, 5, 7) for n in range(1, 13) if q ** n <= 2 ** 12}
                       | {(p, 1) for p in range(2, 258) if _prime_factors(p) == [p]})


def test_tables_match_the_order_walk():
    for q, n in ORACLE_FIELDS:
        ctx = FieldCtx(q, n)
        gen, exp, log = _order_walk_tables(ctx)
        assert ctx._exp[1 % len(exp)] == gen, (q, n)  # F_2's generator is 1 = exp[0]
        assert (ctx._exp, ctx._log) == (exp, log), (q, n)
        assert ctx.primitive_element() == gen, (q, n)
        assert [ctx.log(x) for x in range(1, ctx.order)] == log[1:], (q, n)


def test_prime_factors_match_a_sieve():
    limit = 5000
    factors = [[] for _ in range(limit)]
    for p in range(2, limit):
        if not factors[p]:  # no smaller prime divides p
            for m in range(p, limit, p):
                factors[m].append(p)
    for m in range(1, limit):
        assert _prime_factors(m) == factors[m], m


# -- Rabin's irreducibility test against the trial division it replaced -------

def _trial_division_irreducible(poly, q):
    """Whether no monic polynomial of degree 1 .. deg/2 divides poly."""
    deg = len(poly) - 1
    return all(any(_poly_rem(poly, list(tail) + [1], q))
               for d in range(1, deg // 2 + 1)
               for tail in itertools.product(range(q), repeat=d))


@pytest.mark.parametrize("q, max_degree", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_rabin_agrees_with_trial_division(q, max_degree):
    for deg in range(1, max_degree + 1):
        for tail in itertools.product(range(q), repeat=deg):
            poly = list(tail) + [1]
            assert _is_irreducible(poly, q) == _trial_division_irreducible(poly, q), poly


def _trial_division_default_modulus(q, n):
    """The first monic irreducible of degree n, scanning every candidate."""
    return next(tail + (1,) for tail in itertools.product(range(q), repeat=n)
                if _trial_division_irreducible(list(tail) + [1], q))


# recorded from the trial-division scan, which takes seconds on these degrees
LARGE_DEFAULT_MODULI = {
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (2, 17): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 20): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
}


def test_default_moduli_are_unchanged():
    for q, n in ORACLE_FIELDS:
        assert FieldCtx(q, n).modulus == _trial_division_default_modulus(q, n), (q, n)
    for (q, n), modulus in LARGE_DEFAULT_MODULI.items():
        assert FieldCtx(q, n).modulus == modulus, (q, n)


# the field list of the one-walk table build: every modulus, exp and log table
PINNED_FIELDS = sorted(
    {(2, n) for n in range(1, 13)} | {(3, n) for n in range(1, 8)}
    | {(5, n) for n in range(1, 6)} | {(7, n) for n in range(1, 5)}
    | {(p, 1) for p in range(2, 258) if _prime_factors(p) == [p]}
    | {(2, 16), (3, 10), (257, 2), (2, 17), (2, 20)})
PINNED_TABLES_SHA256 = "2f86791220add062db094425ba9ebc46b328a1c7db08f6fcff6ef2ca4ef5c19e"


def test_moduli_and_tables_match_the_pinned_dump():
    digest = hashlib.sha256()
    for q, n in PINNED_FIELDS:
        ctx = FieldCtx(q, n)
        digest.update(repr((q, n, ctx.modulus, ctx._exp, ctx._log)).encode() + b"\n")
    assert len(PINNED_FIELDS) == 84
    assert digest.hexdigest() == PINNED_TABLES_SHA256

"""Linear algebra over F_q: RREF canonicity, kernels, subspace enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcodes import linalg
from fqcodes.errors import InvalidParams, SearchTooLarge
from fqcodes.gf import FieldCtx, pack, prime_field, unpack
from fqcodes.linalg import (
    Subspace,
    enumerate_subspaces,
    ext_kernel_basis,
    ext_rank,
    ext_rref,
    gf2_rank,
    kernel,
    packed_rank,
    rref,
    span,
    span_distance,
    subspace_count,
    subspace_pair_distance,
)


def test_rref_identity_and_zero():
    ident = (0b10, 0b01)
    assert rref(ident, 2, 2) == (ident, 2)
    zero = (0, 0)
    assert rref(zero, 3, 3) == (zero, 0)


def test_rref_row_sum_dependency():
    _, rank = rref([0b110, 0b011, 0b101], 3, 2)
    assert rank == 2


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(3)
    for q in (2, 3, 5):
        for _ in range(25):
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(3)]
            first, rank1 = rref([pack(r, q) for r in rows], 4, q)
            second, rank2 = rref(first, 4, q)
            assert first == second and rank1 == rank2


def test_span_examples():
    assert span([], 3, 2).dim == 0
    full = span([0b10, 0b01, 0b11], 2, 2)
    assert full.dim == 2
    s = span([0b110, 0b001], 3, 2)
    assert s.rows == (0b110, 0b001)


def test_span_order_and_duplicate_independent():
    rng = random.Random(7)
    for _ in range(30):
        vecs = [pack([rng.randrange(2) for _ in range(4)], 2) for _ in range(3)]
        a = span(vecs, 4, 2)
        b = span(list(reversed(vecs)) + vecs, 4, 2)
        assert a == b


def test_span_length_mismatch():
    # a packed vector with more coordinates than the ambient space is out of range
    with pytest.raises(InvalidParams, match=r"vector 4 is not an int in \[0, 4\)"):
        span([0b10, 0b100], 2, 2)


def _sum(u, v):
    """U + V, the span of both bases."""
    return span(u.rows + v.rows, u.ambient, u.q)


def _intersection_dim(u, v):
    """dim(U ∩ V) by the dimension formula dim U + dim V - dim(U + V)."""
    return u.dim + v.dim - _sum(u, v).dim


def test_sum_intersection_examples():
    u = span([0b100, 0b010], 3, 2)
    v = span([0b010, 0b001], 3, 2)
    assert _sum(u, v).dim == 3
    assert _intersection_dim(u, v) == 1
    assert subspace_pair_distance(u, v) == 2
    # oracle: count common vectors by enumeration
    common = set(u.vectors()) & set(v.vectors())
    assert len(common) == 2  # q^1
    assert _intersection_dim(u, u) == u.dim
    assert subspace_pair_distance(u, u) == 0
    l1 = span([0b10], 2, 2)
    l2 = span([0b01], 2, 2)
    assert _sum(l1, l2).dim == 2
    assert _intersection_dim(l1, l2) == 0
    assert subspace_pair_distance(l1, l2) == 2


def test_dimension_formula_exhaustive_f2_4():
    subs = []
    for k in range(5):
        subs.extend(enumerate_subspaces(2, 4, k))
    assert len(subs) == 67
    # the common-vector census is the independent oracle for dim(U ∩ V)
    members = {u.rows: set(u.vectors()) for u in subs}
    for u in subs:
        for v in subs:
            common = members[u.rows] & members[v.rows]
            inter = len(common).bit_length() - 1
            assert len(common) == 2 ** inter == 2 ** _intersection_dim(u, v)
            assert subspace_pair_distance(u, v) == _sum(u, v).dim - inter


def test_kernel_examples():
    assert kernel([0b10, 0b01], 2, 2).dim == 0
    assert kernel([0, 0], 3, 2).dim == 3
    k = kernel([0b111], 3, 2)
    assert k.dim == 2
    assert 0b110 in k.vectors()


def test_kernel_annihilation_and_rank_nullity():
    rng = random.Random(11)
    for q in (2, 3):
        for _ in range(20):
            rows = [[rng.randrange(q) for _ in range(5)] for _ in range(3)]
            m = [pack(r, q) for r in rows]
            ker = kernel(m, 5, q)
            _, rk = rref(m, 5, q)
            assert ker.dim == 5 - rk
            for v in (unpack(x, q, 5) for x in ker.rows):
                prod = [sum(r[i] * v[i] for i in range(5)) % q for r in rows]
                assert not any(prod)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("ambient", [1, 2, 3, 4, 5])
def test_enumeration_count_matches_gaussian_binomial(q, ambient):
    for dim in range(ambient + 1):
        subs = list(enumerate_subspaces(q, ambient, dim))
        assert len(subs) == subspace_count(ambient, dim, q)
        assert len({s.rows for s in subs}) == len(subs)
        assert all(s.dim == dim for s in subs)


def test_enumeration_sorted_and_restartable():
    first = [s.rows for s in enumerate_subspaces(2, 4, 2)]
    second = [s.rows for s in enumerate_subspaces(2, 4, 2)]
    assert first == second == sorted(first)


def test_enumeration_guard():
    with pytest.raises(SearchTooLarge, match=r"q\^ambient = 33554432 exceeds"):
        enumerate_subspaces(2, 25, 1)


def test_zero_dim_enumeration():
    subs = list(enumerate_subspaces(3, 4, 0))
    assert len(subs) == 1 and subs[0].dim == 0


def test_field_elements_as_vectors():
    f8 = FieldCtx(2, 3, [1, 1, 0, 1])
    assert f8.coefficients(f8.zero) == (0, 0, 0)
    assert f8.coefficients(f8.element((0, 1, 0))) == (0, 1, 0)
    a3 = f8.pow(f8.element((0, 1, 0)), 3)
    assert f8.coefficients(a3) == (1, 1, 0)


@pytest.mark.parametrize("vector", [(3, 0, -1), (1, 0, 1), -1, -2, 8, 2 ** 70, 1.0, "5", None,
                                    True])
def test_span_rejects_a_vector_that_is_not_a_packed_int_in_range(vector):
    # (3, 0, -1) used to be reduced mod 2 to the line through (1, 0, 1)
    with pytest.raises(InvalidParams, match=r"is not an int in \[0, 8\)"):
        span([0b100, vector], 3, 2)
    with pytest.raises(InvalidParams, match=r"is not an int in \[0, 8\)"):
        rref([vector], 3, 2)
    with pytest.raises(InvalidParams, match=r"is not an int in \[0, 8\)"):
        kernel([vector], 3, 2)
    # F_2 elimination never returns on [3, -2]: -2 ^ 3 keeps the top bit of 3
    with pytest.raises(InvalidParams, match=r"is not an int in \[0, 8\)"):
        packed_rank([3, vector], 3, 2)
    with pytest.raises(InvalidParams, match=r"is not an int in \[0, 8\)"):
        span_distance([3, vector], [], 3, 2)
    with pytest.raises(InvalidParams, match=r"is not an int in \[0, 8\)"):
        span_distance([1], [vector], 3, 2)


@pytest.mark.parametrize("vector", [(3, 0, 2), (1, 0, 0), -4, 8, 12, True])
def test_contains_rejects_a_vector_that_is_not_a_packed_int_in_range(vector):
    # (3, 0, 2) used to be reduced mod 2 to (1, 0, 0), a member
    line = span([0b100], 3, 2)
    with pytest.raises(InvalidParams, match=r"is not an int in \[0, 8\)"):
        span(line.rows + (vector,), 3, 2)
    assert vector not in line.vectors() and line.vectors() == [0, 0b100]


def test_vectors_are_the_packed_linear_combinations():
    for q in (2, 3, 5):
        s = span([pack((1, 0, 2 % q), q), pack((0, 1, 1), q)], 3, q)
        vectors = s.vectors()
        assert len(vectors) == len(set(vectors)) == q ** 2 and vectors[0] == 0
        combos = {tuple((a * x + b * y) % q for x, y in zip((1, 0, 2 % q), (0, 1, 1)))
                  for a in range(q) for b in range(q)}
        assert {unpack(v, q, 3) for v in vectors} == combos


def _digit_rref(packed, width: int):
    """The oracle for F_2: `ext_rref` over prime_field(2) on the digit rows,
    packed back; (rows with zero rows last, rank)."""
    rows, rank, _ = ext_rref([unpack(v, 2, width) for v in packed], width, prime_field(2))
    return tuple(pack(r, 2) for r in rows), rank


def _binary_rows(width: int):
    """0-14 packed rows of F_2^width: zero rows, rows repeated within the
    list, and lists that reach full rank before they end."""
    row = st.integers(0, (1 << width) - 1)
    some = st.lists(st.one_of(row, st.just(0)), max_size=7)
    repeated = st.lists(row, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool + [0]), max_size=14))
    full = st.tuples(some, st.permutations([1 << i for i in range(width)]), some).map(
        lambda t: (t[0] + t[1] + t[2])[:14])
    return st.one_of(some, repeated, full)


@settings(max_examples=600, deadline=None)
@given(st.integers(0, 12).flatmap(lambda w: st.tuples(st.just(w), _binary_rows(w))))
def test_binary_rref_and_span_match_the_digit_oracle(case):
    width, rows = case
    want_rows, want_rank = _digit_rref(rows, width)
    assert rref(rows, width, 2) == (want_rows, want_rank)
    assert rref(iter(rows), width, 2) == (want_rows, want_rank)
    assert span(rows, width, 2).rows == want_rows[:want_rank]


def test_binary_rref_and_span_never_unpack(monkeypatch):
    """Over F_2 the packed rows are reduced as ints, with no digits and no
    general kernel; q = 3 still goes through `ext_rref`."""
    general, calls = linalg.ext_rref, []

    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called")
        return call

    for name in ("ext_rref", "unpack", "pack"):
        monkeypatch.setattr(linalg, name, refuse(name))
    assert rref([0b110, 0b011, 0b101, 0], 3, 2) == ((0b101, 0b011, 0, 0), 2)
    assert span([0b110, 0b011], 3, 2).rows == (0b101, 0b011)
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "ext_rref", lambda *args: calls.append(1) or general(*args))
    assert rref([5, 1], 2, 3) == ((pack((1, 0), 3), pack((0, 1), 3)), 2)
    assert calls == [1]


def test_gf2_fast_rank_matches_generic():
    """0-12 rows of width 1-20, with zero rows and repeated rows mixed in."""
    rng = random.Random(5)
    for _ in range(1000):
        width = rng.randint(1, 20)
        packed = []
        for _ in range(rng.randint(0, 12)):
            kind = rng.randrange(4)
            if kind == 0:
                packed.append(0)
            elif kind == 1 and packed:
                packed.append(rng.choice(packed))
            else:
                packed.append(rng.randrange(1 << width))
        assert gf2_rank(packed) == _digit_rref(packed, width)[1]


def test_ext_rank_and_kernel_over_extension_field():
    f4 = FieldCtx(2, 2)
    one, alpha = f4.one, f4.element((0, 1))
    rows = [(one, alpha, f4.zero), (alpha, f4.mul(alpha, alpha), f4.zero)]
    # second row = alpha * first row, so rank 1 and kernel dim 2
    assert ext_rank(rows, 3, f4) == 1
    basis = ext_kernel_basis(rows, 3, f4)
    assert len(basis) == 2
    for v in basis:
        for r in rows:
            acc = f4.zero
            for e, x in zip(r, v):
                acc = f4.add(acc, f4.mul(e, x))
            assert acc == f4.zero


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_span_distance_is_the_subspace_distance(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    ambient = data.draw(st.integers(1, 4))
    vector = st.lists(st.integers(0, q - 1), min_size=ambient, max_size=ambient)
    pool = data.draw(st.lists(vector, min_size=1, max_size=3))
    # empty lists, zero vectors and vectors repeated within and across the lists
    rows = st.lists(st.one_of(vector, st.just([0] * ambient), st.sampled_from(pool)),
                    max_size=5)
    a, b = data.draw(rows), data.draw(rows)
    a, b = [pack(r, q) for r in a], [pack(r, q) for r in b]
    u, v = span(a, ambient, q), span(b, ambient, q)
    expected = 2 * _sum(u, v).dim - u.dim - v.dim
    assert span_distance(a, b, ambient, q) == expected
    assert subspace_pair_distance(u, v) == expected


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_binary_span_distance_is_the_rank_formula(data):
    ambient = data.draw(st.integers(1, 10))
    row = st.integers(0, (1 << ambient) - 1)
    pool = data.draw(st.lists(row, min_size=1, max_size=4))
    full = [1 << i for i in range(ambient)]  # the unit vectors: rank ambient
    some = st.lists(st.one_of(row, st.sampled_from(pool)), max_size=2 * ambient)
    # empty lists, rows repeated within and across the lists, and lists that
    # reach full rank before they end, with random rows before and after
    rows = st.one_of(some, st.permutations(full).map(lambda p: p + [p[0]]),
                     st.tuples(some, st.permutations(full), some)
                     .map(lambda t: t[0] + t[1] + t[2]))
    a, b = data.draw(rows), data.draw(rows)
    expected = (2 * _digit_rref(a + b, ambient)[1]
                - _digit_rref(a, ambient)[1] - _digit_rref(b, ambient)[1])
    assert span_distance(a, b, ambient, 2) == expected
    assert span_distance(tuple(a), iter(b), ambient, 2) == expected


def _rref_rows(rows: list[list[int]], cols: int, q: int):
    """The former F_q kernel, kept as the oracle: in-place Gauss-Jordan with
    residue arithmetic; returns (rows, rank, pivot_columns)."""
    rank = 0
    pivots = []
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        if inv != 1:
            rows[rank] = [(e * inv) % q for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, rank, pivots


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ext_rref_over_the_prime_field_matches_the_residue_kernel(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    cols = data.draw(st.integers(0, 6))
    vector = st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols)
    pool = data.draw(st.lists(vector, min_size=1, max_size=3))
    # zero rows and rows repeated within the matrix
    rows = data.draw(st.lists(st.one_of(vector, st.just([0] * cols), st.sampled_from(pool)),
                              max_size=7))
    want_rows, want_rank, want_pivots = _rref_rows([list(r) for r in rows], cols, q)
    got_rows, got_rank, got_pivots = ext_rref(rows, cols, prime_field(q))
    assert got_rows == [tuple(r) for r in want_rows]
    assert (got_rank, got_pivots) == (want_rank, want_pivots)


@pytest.mark.parametrize("rows", [(-2, 3), (3, -1), (8,), (1 << 100,), (True,), (1.0,)])
def test_a_subspace_refuses_a_row_that_is_not_a_packed_vector(rows):
    # gf2_rank never returns on a negative row, so a pair distance would hang
    with pytest.raises(InvalidParams, match=r"^member row .* is not an int in \[0, 2\^3\)$"):
        Subspace(2, 3, rows)


def test_a_subspace_takes_rows_up_to_q_to_the_ambient():
    top = Subspace(3, 2, (3 ** 2 - 1,))  # not in RREF, but a packed vector
    assert subspace_pair_distance(top, span([1], 2, 3)) == 2
    with pytest.raises(InvalidParams, match=r"^member row 9 is not an int in \[0, 3\^2\)$"):
        Subspace(3, 2, (3 ** 2,))

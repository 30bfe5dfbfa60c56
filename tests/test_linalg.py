"""Linear algebra over F_q: RREF canonicity, kernels, subspace enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcodes.errors import InvalidParams, SearchTooLarge
from fqcodes.gf import FieldCtx, pack, prime_field
from fqcodes.linalg import (
    FqMatrix,
    Subspace,
    enumerate_subspaces,
    ext_kernel_basis,
    ext_rank,
    ext_rref,
    gf2_rank,
    kernel,
    rref,
    span,
    span_distance,
    subspace_count,
    subspace_intersection_dim,
    subspace_pair_distance,
    subspace_sum,
)
from fqcodes.rankmetric import gaussian_binomial


def test_rref_identity_and_zero():
    ident = FqMatrix.from_rows(2, [[1, 0], [0, 1]])
    assert rref(ident) == (ident, 2)
    zero = FqMatrix.from_rows(3, [[0, 0, 0], [0, 0, 0]])
    assert rref(zero) == (zero, 0)


def test_rref_row_sum_dependency():
    m = FqMatrix.from_rows(2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    _, rank = rref(m)
    assert rank == 2


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(3)
    for q in (2, 3, 5):
        for _ in range(25):
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(3)]
            first, rank1 = rref(FqMatrix.from_rows(q, rows, 4))
            second, rank2 = rref(first)
            assert first == second and rank1 == rank2


def test_span_examples():
    assert span([], 3, 2).dim == 0
    full = span([(1, 0), (0, 1), (1, 1)], 2, 2)
    assert full.dim == 2
    s = span([(1, 1, 0), (0, 0, 1)], 3, 2)
    assert s.basis.rows == ((1, 1, 0), (0, 0, 1))


def test_span_order_and_duplicate_independent():
    rng = random.Random(7)
    for _ in range(30):
        vecs = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(3)]
        a = span(vecs, 4, 2)
        b = span(list(reversed(vecs)) + vecs, 4, 2)
        assert a == b


def test_span_length_mismatch():
    with pytest.raises(InvalidParams, match="vector of length 3 in ambient 2"):
        span([(1, 0), (1, 0, 0)], 2, 2)


def test_sum_intersection_examples():
    u = span([(1, 0, 0), (0, 1, 0)], 3, 2)
    v = span([(0, 1, 0), (0, 0, 1)], 3, 2)
    assert subspace_sum(u, v).dim == 3
    assert subspace_intersection_dim(u, v) == 1
    # oracle: count common vectors by enumeration
    common = set(u.vectors()) & set(v.vectors())
    assert len(common) == 2  # q^1
    assert subspace_intersection_dim(u, u) == u.dim
    l1 = span([(1, 0)], 2, 2)
    l2 = span([(0, 1)], 2, 2)
    assert subspace_sum(l1, l2).dim == 2
    assert subspace_intersection_dim(l1, l2) == 0


def test_dimension_formula_exhaustive_f2_4():
    subs = []
    for k in range(5):
        subs.extend(enumerate_subspaces(2, 4, k))
    assert len(subs) == 67
    for u in subs:
        for v in subs:
            inter = subspace_intersection_dim(u, v)
            assert subspace_sum(u, v).dim + inter == u.dim + v.dim
            # independent oracle on a sample: common-vector census
    rng = random.Random(0)
    for _ in range(50):
        u, v = rng.choice(subs), rng.choice(subs)
        common = set(u.vectors()) & set(v.vectors())
        assert len(common) == 2 ** subspace_intersection_dim(u, v)


def test_kernel_examples():
    ident = FqMatrix.from_rows(2, [[1, 0], [0, 1]])
    assert kernel(ident).dim == 0
    zero = FqMatrix.from_rows(2, [[0, 0, 0], [0, 0, 0]], 3)
    assert kernel(zero).dim == 3
    k = kernel(FqMatrix.from_rows(2, [[1, 1, 1]]))
    assert k.dim == 2
    assert k.contains((1, 1, 0))


def test_kernel_annihilation_and_rank_nullity():
    rng = random.Random(11)
    for q in (2, 3):
        for _ in range(20):
            rows = [[rng.randrange(q) for _ in range(5)] for _ in range(3)]
            m = FqMatrix.from_rows(q, rows, 5)
            ker = kernel(m)
            _, rk = rref(m)
            assert ker.dim == 5 - rk
            for v in ker.basis.rows:
                prod = [sum(r[i] * v[i] for i in range(5)) % q for r in rows]
                assert not any(prod)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("ambient", [1, 2, 3, 4, 5])
def test_enumeration_count_matches_gaussian_binomial(q, ambient):
    for dim in range(ambient + 1):
        subs = list(enumerate_subspaces(q, ambient, dim))
        assert len(subs) == gaussian_binomial(ambient, dim, q)
        assert len(subs) == subspace_count(ambient, dim, q)
        assert len({s.flat_key() for s in subs}) == len(subs)
        assert all(s.dim == dim for s in subs)


def test_enumeration_sorted_and_restartable():
    first = [s.flat_key() for s in enumerate_subspaces(2, 4, 2)]
    second = [s.flat_key() for s in enumerate_subspaces(2, 4, 2)]
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


def test_subspace_validation_rejects_non_rref():
    with pytest.raises(Exception):
        Subspace(2, 3, FqMatrix.from_rows(2, [[1, 1, 0], [1, 0, 0]], 3))


def test_gf2_fast_rank_matches_generic():
    rng = random.Random(5)
    for _ in range(200):
        rows = [[rng.randrange(2) for _ in range(6)] for _ in range(4)]
        m = FqMatrix.from_rows(2, rows, 6)
        assert gf2_rank([pack(r, 2) for r in rows]) == rref(m)[1]


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
    u, v = span(a, ambient, q), span(b, ambient, q)
    expected = 2 * subspace_sum(u, v).dim - u.dim - v.dim
    assert span_distance([pack(r, q) for r in a], [pack(r, q) for r in b], ambient, q) == expected
    assert subspace_pair_distance(u, v) == expected


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

"""Gabidulin codes, rank census versus the closed-form distribution."""

import itertools

import pytest

from fqcodes.errors import InvalidParams, SearchTooLarge
from fqcodes.gf import FieldCtx
from fqcodes import rankmetric
from fqcodes.linalg import rref, subspace_count
from fqcodes.metrics import pairwise_min_report
from fqcodes.rankmetric import (
    LinearizedPoly,
    RankCode,
    delsarte_rank_distribution,
    empirical_rank_distribution,
    gabidulin_code,
    gabidulin_rect,
    linearized_eval,
    poly_rank,
    poly_to_matrix,
    rank_distance_of_code,
)
from fqcodes.serialize import load_file, save_file
from sweep_oracle import pairwise_oracle

GF8 = FieldCtx(2, 3, [1, 1, 0, 1])


def _sub(a, b):
    """a - b, coefficient by coefficient: the polynomial whose matrix is the
    difference of theirs, so its rank is their rank distance."""
    if (a.ctx, a.src) != (b.ctx, b.src) or len(a.coeffs) != len(b.coeffs):
        raise InvalidParams("mismatched linearized polynomials")
    return LinearizedPoly(a.ctx, tuple(a.ctx.sub(x, y) for x, y in zip(a.coeffs, b.coeffs)),
                          a.src)


def test_eval_identity_and_zero():
    ident = LinearizedPoly(GF8, (GF8.one,))
    zero = LinearizedPoly(GF8, (GF8.zero, GF8.zero))
    for x in GF8.elements():
        assert linearized_eval(ident, x) == x
        assert linearized_eval(zero, x) == GF8.zero


def test_eval_squaring_example():
    square = LinearizedPoly(GF8, (GF8.zero, GF8.one))  # x^q
    assert linearized_eval(square, GF8.element((1, 1, 0))) == \
        GF8.element((1, 0, 1))  # (a+1)^2 = a^2+1


def test_eval_is_additive():
    p = LinearizedPoly(GF8, (GF8.element((1, 1, 0)), GF8.element((0, 1, 0))))
    for x in GF8.elements():
        for y in GF8.elements():
            assert linearized_eval(p, GF8.add(x, y)) == \
                GF8.add(linearized_eval(p, x), linearized_eval(p, y))


def test_poly_to_matrix_examples():
    ident = LinearizedPoly(GF8, (GF8.one,))
    assert poly_to_matrix(ident) == (0b100, 0b010, 0b001)
    zero = LinearizedPoly(GF8, (GF8.zero,))
    assert poly_to_matrix(zero) == (0,) * 3
    square = LinearizedPoly(GF8, (GF8.zero, GF8.one))
    assert rref(poly_to_matrix(square), 3, 2)[1] == 3  # Frobenius is a bijection


def test_poly_to_matrix_additive_and_injective():
    code = gabidulin_code(GF8, 1)
    seen = set()
    for p in code.members:
        seen.add(poly_to_matrix(p))
    assert len(seen) == len(code)
    a, b = code.members[5], code.members[9]
    summed = LinearizedPoly(GF8, tuple(GF8.add(x, y) for x, y in zip(a.coeffs, b.coeffs)))
    lhs = poly_to_matrix(summed)
    # over F_2, adding packed rows coordinate by coordinate is XOR
    rhs = tuple(r1 ^ r2 for r1, r2 in zip(poly_to_matrix(a), poly_to_matrix(b)))
    assert lhs == rhs


def test_gabidulin_examples():
    code = gabidulin_code(GF8, 1)
    assert len(code) == 64
    assert rank_distance_of_code(code) == 2
    t0 = gabidulin_code(GF8, 0)
    assert len(t0) == 8
    assert rank_distance_of_code(t0) == 3
    big = gabidulin_code(FieldCtx(2, 4), 2)
    assert len(big) == 4096
    assert rank_distance_of_code(big) == 2


def test_gabidulin_rank_lower_bound():
    for ctx, t in ((GF8, 1), (GF8, 2)):
        code = gabidulin_code(ctx, t)
        for p in code.members:
            if not p.is_zero():
                assert poly_rank(p) >= ctx.n - t


def test_gabidulin_guard():
    with pytest.raises(SearchTooLarge, match="members exceed the materialization guard"):
        gabidulin_code(FieldCtx(2, 12), 1)


def test_rank_distance_requires_members():
    singleton = RankCode(GF8, [LinearizedPoly(GF8, (GF8.zero,))], 0)
    with pytest.raises(InvalidParams, match="rank distance needs at least two members"):
        rank_distance_of_code(singleton)


def test_rank_distance_pairwise_matches_linear_scan():
    code = gabidulin_code(GF8, 1)
    pairwise = pairwise_oracle(code.members, lambda a, b: poly_rank(_sub(a, b)), "rank")
    assert rank_distance_of_code(code) == pairwise.minimum


def _full_rank_pair_at_rank_distance_2():
    """Two rank-3 members of Gabidulin (2, 3, 1) whose difference has rank 2."""
    code = gabidulin_code(FieldCtx(2, 3), 1)
    full = [p for p in code.members if poly_rank(p) == 3]
    return next((a, b) for a, b in itertools.combinations(full, 2)
                if poly_rank(_sub(a, b)) == 2)


def test_rank_distance_of_a_non_linear_code_is_pairwise(tmp_path):
    a, b = _full_rank_pair_at_rank_distance_2()
    pair = RankCode(a.ctx, [a, b], 1)
    assert rank_distance_of_code(pair) == 2  # not the minimum rank weight, 3
    path = str(tmp_path / "pair.json")
    save_file(path, pair)
    assert rank_distance_of_code(load_file(path)) == 2


def test_pairwise_rank_distance_over_f3_subtracts_matrices():
    code = gabidulin_code(FieldCtx(3, 2), 1)
    sub = RankCode(code.ctx, code.members[1:40], 1)  # 39 members: not a power of 3
    expected = pairwise_oracle(sub.members, lambda a, b: poly_rank(_sub(a, b)), "rank")
    assert rank_distance_of_code(sub) == expected.minimum


def test_members_with_one_matrix_are_at_distance_zero():
    # x and x + 0 x^q are distinct polynomials with one matrix; the four
    # matrices span a 2-dimensional space, but they are not a linear code
    one, zero = GF8.one, GF8.zero
    members = [LinearizedPoly(GF8, c) for c in ((zero,), (one,), (one, zero), (zero, one))]
    assert rank_distance_of_code(RankCode(GF8, members, 1)) == 0


@pytest.mark.parametrize("members, linear", [
    (lambda code: code.members, True),
    (lambda code: code.members[:32], True),   # a0 in a 2-dim F_2-subspace
    (lambda code: code.members[1:], False),   # zero removed
    (lambda code: code.members[:48], False),  # 48 is not a power of 2
    (lambda code: code.members[1:33], False),  # 32 members spanning more than 2^5
])
def test_member_scan_runs_only_on_linear_codes(monkeypatch, members, linear):
    code = gabidulin_code(GF8, 1)
    sub = RankCode(GF8, members(code), 1)
    expected = pairwise_oracle(sub.members, lambda a, b: poly_rank(_sub(a, b)), "rank")
    assert rank_distance_of_code(sub) == expected.minimum

    def no_sweep(*args, **kwargs):
        raise AssertionError("pairwise sweep")

    monkeypatch.setattr(rankmetric, "pairwise_min_report", no_sweep)
    if linear:
        assert rank_distance_of_code(sub) == expected.minimum
    else:
        with pytest.raises(AssertionError, match="pairwise sweep"):
            rank_distance_of_code(sub)


# Rows of rank distances: [1, 3, 1], [2, 2], [3] (a tie in row 0, the first
# j wins); [2, 3, 3], [2, 2], [3] (the minimum again in row 1, row 0 keeps
# it); [3, 2, 2], [3, 2], [1] (only in the last row).  No set holds zero,
# so none is a linear code and each is swept.
@pytest.mark.parametrize("coeffs, witness", [
    ([(0, 7, 4), (4, 6, 1), (2, 0, 0), (3, 3, 1)], (0, 1)),
    ([(7, 7, 3), (7, 1, 4), (7, 4, 3), (6, 0, 4)], (0, 1)),
    ([(2, 1, 2), (5, 3, 3), (6, 6, 7), (3, 3, 2)], (2, 3)),
])
def test_rank_sweep_reports_the_first_attaining_pair(monkeypatch, coeffs, witness):
    reports = []

    def recorded(*args, **kwargs):
        reports.append(pairwise_min_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(rankmetric, "pairwise_min_report", recorded)
    members = [LinearizedPoly(GF8, c) for c in coeffs]
    for sub, first in ((members, witness), (members[:2], (0, 1))):  # and m = 2
        oracle = pairwise_oracle(sub, lambda a, b: poly_rank(_sub(a, b)), "rank")
        assert rank_distance_of_code(RankCode(GF8, sub, 2)) == oracle.minimum
        rep = reports.pop()
        assert (rep.minimum, rep.witness_indices, rep.pairs) == \
            (oracle.minimum, oracle.witness_indices, oracle.pairs)
        assert rep.witness_indices == first


def test_gaussian_binomial_examples():
    # the Delsarte distribution counts subspaces with linalg.subspace_count
    assert subspace_count(4, 0, 2) == 1
    assert subspace_count(4, 2, 2) == 35
    assert subspace_count(5, 2, 2) == 155
    for n in range(6):
        for k in range(n + 1):
            assert subspace_count(n, k, 2) == subspace_count(n, n - k, 2)
    assert subspace_count(3, 4, 2) == 0  # no 4-dimensional subspace of F_2^3


def test_delsarte_examples():
    dist = delsarte_rank_distribution(3, 2, 2)
    assert dist.counts == (1, 0, 49, 14)
    assert dist.total() == 64
    full = delsarte_rank_distribution(3, 3, 2)
    assert full.counts == (1, 0, 0, 7)  # rank_n = q^n - 1
    assert delsarte_rank_distribution(4, 2, 2).total() == 2 ** 12


@pytest.mark.parametrize("q,n,t", [(2, 3, 1), (2, 3, 2), (2, 3, 0), (2, 4, 2), (3, 2, 1)])
def test_delsarte_matches_census(q, n, t):
    code = gabidulin_code(FieldCtx(q, n), t)
    census = empirical_rank_distribution(code)
    formula = delsarte_rank_distribution(n, n - t, q)
    assert census.counts == formula.counts


def test_empirical_distribution_examples():
    zero_code = RankCode(GF8, [LinearizedPoly(GF8, (GF8.zero,))], 0)
    assert empirical_rank_distribution(zero_code).counts == (1, 0, 0, 0)
    census = empirical_rank_distribution(gabidulin_code(FieldCtx(2, 4), 2))
    assert census.total() == 4096


def _understated_degree_code():
    # t = 0 is accepted although two members have degree 2
    ctx = FieldCtx(3, 3)
    return RankCode(ctx, [LinearizedPoly(ctx, (1, 2, 3)), LinearizedPoly(ctx, (0, 0, 5)),
                          LinearizedPoly(ctx, (4,)), LinearizedPoly(ctx, (0,))], 0)


MATRIX_CODES = {
    "gabidulin-2-3-1": lambda: gabidulin_code(FieldCtx(2, 3), 1),
    "gabidulin-2-4-2": lambda: gabidulin_code(FieldCtx(2, 4), 2),
    "gabidulin-3-2-1": lambda: gabidulin_code(FieldCtx(3, 2), 1),
    "gabidulin-3-3-1": lambda: gabidulin_code(FieldCtx(3, 3), 1),
    "gabidulin-5-2-0": lambda: gabidulin_code(FieldCtx(5, 2), 0),
    "rect-2-2-to-2-4": lambda: gabidulin_rect(FieldCtx(2, 2), FieldCtx(2, 4), 1),
    "rect-3-2-to-3-3": lambda: gabidulin_rect(FieldCtx(3, 2), FieldCtx(3, 3), 1),
    "understated-t": _understated_degree_code,
}


@pytest.mark.parametrize("build", MATRIX_CODES.values(), ids=MATRIX_CODES.keys())
def test_code_matrices_are_the_member_matrices(build):
    code = build()
    assert list(code.matrices()) == [poly_to_matrix(p) for p in code.members]


@pytest.mark.parametrize("build", MATRIX_CODES.values(), ids=MATRIX_CODES.keys())
def test_census_is_the_per_member_rank_census(build):
    code = build()
    counts = [0] * (min(code.nrows, code.ncols) + 1)
    for p in code.members:
        counts[poly_rank(p)] += 1
    assert empirical_rank_distribution(code).counts == tuple(counts)


def test_rect_coincides_with_square_when_h_zero():
    square = gabidulin_code(GF8, 1)
    rect = gabidulin_rect(GF8, GF8, 1)
    assert {p.coeffs for p in rect.members} == {p.coeffs for p in square.members}
    assert rect.src is None


def test_rect_example_k2_h1_t0():
    f4 = FieldCtx(2, 2)
    f8 = FieldCtx(2, 3)
    rect = gabidulin_rect(f4, f8, 0)
    assert len(rect) == 8  # q^((k+h)(t+1))
    assert rect.nrows == 2 and rect.ncols == 3
    assert rank_distance_of_code(rect) == 2
    for p in rect.members:
        if not p.is_zero():
            # kernel dimension at most t = 0
            assert poly_rank(p) == 2


def test_rect_member_count_formula():
    f4 = FieldCtx(2, 2)
    f16 = FieldCtx(2, 4)
    rect = gabidulin_rect(f4, f16, 1)
    assert len(rect) == 2 ** (4 * 2)
    assert rank_distance_of_code(rect) == 1


def test_rank_code_rejects_members_of_another_field_or_domain():
    f8, f16 = FieldCtx(2, 3), FieldCtx(2, 4)
    # F_16 maps read as 3 x 3 matrices: rank 4 would be reported, and a
    # saved file would drop their top coefficients
    with pytest.raises(InvalidParams, match="share the code's field and domain"):
        RankCode(f8, [LinearizedPoly(f16, (a,)) for a in (1, 3, 7, 15)], 0)
    rect = LinearizedPoly(f16, (1,), FieldCtx(2, 2))
    with pytest.raises(InvalidParams, match="share the code's field and domain"):
        RankCode(f16, [LinearizedPoly(f16, (1,)), rect], 0)
    assert len(RankCode(f16, [LinearizedPoly(f16, (a,)) for a in (1, 3, 7, 15)], 0)) == 4


@pytest.mark.parametrize("coeffs", [((1, 1, 0),), (8,), (-1,), (0, 2.0), (True,)])
def test_linearized_poly_rejects_a_coefficient_that_is_not_an_element(coeffs):
    with pytest.raises(InvalidParams, match=r"coefficient .* is not an int in \[0, 8\)"):
        LinearizedPoly(GF8, coeffs)

"""Subspace code constructions: lifting, spreads, Sidon orbits, enlargement."""

import random

import pytest

from fqcodes import metrics
from fqcodes.errors import InvalidParams, SearchTooLarge
from fqcodes.gf import FieldCtx, is_prime, pack, prime_field, unpack
from fqcodes.linalg import (
    Subspace,
    enumerate_subspaces,
    ext_matmul,
    kernel,
    span,
    subspace_pair_distance,
)
from fqcodes.constructions import (
    SubspaceCode,
    _greedy_row_disjoint_multipliers,
    _lifted,
    _orbit,
    _stabilizer_degree,
    _subfield_basis,
    block_enlarged_family,
    lift_rank_code,
    orbit_cyclic_code,
    sidon_check,
    sidon_search,
    spread,
    subspace_code_min_distance,
)
from fqcodes.metrics import row0_report
from fqcodes.rankmetric import (
    LinearizedPoly,
    RankCode,
    gabidulin_code,
    poly_to_matrix,
)
from fqcodes.serialize import subspace_code_from_obj, subspace_code_to_obj
from sweep_oracle import expand, pairwise_oracle

GF8 = FieldCtx(2, 3, [1, 1, 0, 1])


def _subfield_member(ctx, x, k):
    """Oracle: x lies in the subfield F_{q^k} of ctx = F_{q^n} (k | n)
    iff it is fixed by the k-fold Frobenius."""
    if k < 1 or ctx.n % k != 0:
        raise InvalidParams(f"k={k} does not divide n={ctx.n}")
    return ctx.frobenius(x, k) == x


def _mult_order(ctx, x):
    cur = x
    k = 1
    while cur != ctx.one:
        cur = ctx.mul(cur, x)
        k += 1
    return k


def test_subfield_member_gf16():
    f16 = FieldCtx(2, 4)
    assert _subfield_member(f16, f16.zero, 2)
    beta = next(x for x in f16.elements()
                if x != f16.zero and _mult_order(f16, x) == 15)
    assert not _subfield_member(f16, beta, 2)
    assert _subfield_member(f16, f16.pow(beta, 5), 2)  # order 3 = 2^2 - 1
    members = sum(1 for x in f16.elements() if _subfield_member(f16, x, 2))
    assert members == 4
    with pytest.raises(InvalidParams, match="k=3 does not divide n=4"):
        _subfield_member(f16, beta, 3)


def test_subfield_member_counts():
    f26 = FieldCtx(2, 6)
    for k in (1, 2, 3, 6):
        count = sum(1 for x in f26.elements() if _subfield_member(f26, x, k))
        assert count == 2 ** k


def test_min_distance_disjoint_planes():
    u = span([0b1000, 0b0100], 4, 2)
    v = span([0b0010, 0b0001], 4, 2)
    sc = SubspaceCode(2, 4, [u, v], constant_dim=2)
    assert subspace_code_min_distance(sc).minimum == 4


def test_fast_path_matches_generic_sweep():
    sc = spread(2, 2, 4)
    fast = subspace_code_min_distance(sc)
    generic = pairwise_oracle(sc.members, subspace_pair_distance, "subspace")
    assert (fast.minimum, fast.witness_indices) == (generic.minimum, generic.witness_indices)


@pytest.mark.parametrize("rows", [(-2, 3), (3, -1), (1 << 22,), (1 << 100,), (True,), (1.0,)])
def test_a_subspace_code_refuses_a_member_row_that_is_not_a_packed_vector(rows):
    # past 2^20 vectors the sweep scores a pair by rank, and gf2_rank never
    # returned on a negative row
    big = span([1 << i for i in range(21)], 22, 2)
    with pytest.raises(InvalidParams, match=r"^member row .* is not an int in \[0, 2\^22\)$"):
        subspace_code_min_distance(SubspaceCode(2, 22, [big, Subspace(2, 22, rows)]))


def test_a_subspace_code_takes_rows_up_to_q_to_the_ambient():
    top = Subspace(3, 2, (3 ** 2 - 1,))  # not in RREF, but a packed vector
    assert SubspaceCode(3, 2, [top]).members == (top,)
    with pytest.raises(InvalidParams, match=r"member row 9 is not an int in \[0, 3\^2\)"):
        SubspaceCode(3, 2, [Subspace(3, 2, (3 ** 2,))])


def test_lift_zero_code():
    zero = RankCode(GF8, [LinearizedPoly(GF8, (GF8.zero,))], 0)
    sc = lift_rank_code(zero)
    assert len(sc) == 1
    basis = sc.members[0].rows
    assert basis == (0b100000, 0b010000, 0b001000)


def test_lift_gabidulin_231():
    code = gabidulin_code(GF8, 1)
    sc = lift_rank_code(code)
    assert len(sc) == 64
    assert sc.ambient == 6 and sc.constant_dim == 3
    rep = subspace_code_min_distance(sc)
    assert rep.minimum == 4
    assert rep.pairs == 2016


def test_lift_injective():
    code = gabidulin_code(GF8, 1)
    sc = lift_rank_code(code)
    assert len({s.rows for s in sc.members}) == len(code)


def test_lift_min_distance_at_least_twice_rank_distance():
    f4 = FieldCtx(2, 2)
    for t in (0, 1):
        rc = gabidulin_code(f4, t)
        sc = lift_rank_code(rc)
        assert subspace_code_min_distance(sc).minimum >= 2 * (f4.n - t)


def test_spread_224():
    sc = spread(2, 2, 4)
    assert len(sc) == 5
    cover = {}
    for s in sc.members:
        for v in s.vectors():
            if v != 0:
                cover[v] = cover.get(v, 0) + 1
    assert len(cover) == 15
    assert set(cover.values()) == {1}
    assert subspace_code_min_distance(sc).minimum == 4


def test_spread_whole_space():
    sc = spread(2, 4, 4)
    assert len(sc) == 1
    assert sc.members[0].dim == 4


def test_spread_226():
    sc = spread(2, 2, 6)
    assert len(sc) == 21
    assert subspace_code_min_distance(sc).minimum == 4


def test_spread_divisibility_guard():
    with pytest.raises(InvalidParams, match=r"spread needs 2 \| 5"):
        spread(2, 2, 5)


def test_sidon_dim_one_always():
    ctx = FieldCtx(2, 5)
    for s in enumerate_subspaces(2, 5, 1):
        assert sidon_check(ctx, s)


def test_subfield_is_not_sidon():
    f16 = FieldCtx(2, 4)
    subfield_vecs = [x for x in f16.elements() if _subfield_member(f16, x, 2)]
    v = span([x for x in subfield_vecs if x], 4, 2)
    assert v.dim == 2
    assert not sidon_check(f16, v)


def test_sidon_search_finds_witness():
    ctx = FieldCtx(2, 5)
    v = sidon_search(ctx, 2)
    assert v.dim == 2
    assert sidon_check(ctx, v)
    # quadruple-level oracle on the found space
    nonzero = [x for x in v.vectors() if x != 0]
    for a in nonzero:
        for b in nonzero:
            for c in nonzero:
                for d in nonzero:
                    if ctx.mul(a, b) == ctx.mul(c, d):
                        pa = {_line(ctx, a), _line(ctx, b)}
                        pb = {_line(ctx, c), _line(ctx, d)}
                        assert pa == pb


def _line(ctx, x):
    from fqcodes.constructions import _projective_rep
    return _projective_rep(ctx, x)


def test_sidon_search_precondition():
    with pytest.raises(InvalidParams, match="need 0 < k < n/2, got k=2, n=4"):
        sidon_search(FieldCtx(2, 4), 2)


def test_sidon_search_k1():
    ctx = FieldCtx(2, 5)
    v = sidon_search(ctx, 1)
    assert v.dim == 1
    assert v == next(iter(enumerate_subspaces(2, 5, 1)))


def test_orbit_of_line_is_all_lines():
    line = next(iter(enumerate_subspaces(2, 3, 1)))
    orbit = orbit_cyclic_code(GF8, line)
    assert len(orbit) == 7
    assert subspace_code_min_distance(orbit).minimum == 2


def test_orbit_of_sidon_space():
    ctx = FieldCtx(2, 5)
    v = sidon_search(ctx, 2)
    orbit = orbit_cyclic_code(ctx, v)
    assert len(orbit) == 31  # stabilizer is exactly F_q^*
    assert subspace_code_min_distance(orbit).minimum == 2


def test_orbit_of_subfield_collapses():
    f16 = FieldCtx(2, 4)
    subfield_vecs = [x for x in f16.elements() if _subfield_member(f16, x, 2)]
    v = span([x for x in subfield_vecs if x], 4, 2)
    orbit = orbit_cyclic_code(f16, v)
    assert len(orbit) == 5  # (2^4 - 1) / (2^2 - 1)


def test_orbit_closed_under_multiplication():
    ctx = FieldCtx(2, 5)
    v = sidon_search(ctx, 2)
    orbit = orbit_cyclic_code(ctx, v)
    keys = {s.rows for s in orbit.members}
    prim = next(x for x in ctx.elements()
                if x not in (ctx.zero, ctx.one))
    for s in orbit.members:
        image = span([ctx.mul(prim, r) for r in s.rows], 5, 2)
        assert image.rows in keys


def _orbit_by_full_scan(ctx, v):
    """The former orbit loop, kept as the oracle: every nonzero x, no stop."""
    members, seen = [], set()
    for x in range(1, ctx.order):
        member = span([ctx.mul(x, b) for b in v.rows], ctx.n, ctx.q)
        if member.rows not in seen:
            seen.add(member.rows)
            members.append(member)
    return members


ORBIT_CASES = {
    "zero space": (2, 4, lambda ctx: [span([], 4, 2)]),
    "lines of F_8": (2, 3, lambda ctx: list(enumerate_subspaces(2, 3, 1))),
    "F_4 in F_16": (2, 4, lambda ctx: [span(_subfield_basis(ctx, 2), 4, 2)]),
    "F_8 in F_64": (2, 6, lambda ctx: [span(_subfield_basis(ctx, 3), 6, 2)]),
    "F_9 in F_81": (3, 4, lambda ctx: [span(_subfield_basis(ctx, 2), 4, 3)]),
    "Sidon in F_32": (2, 5, lambda ctx: [sidon_search(ctx, 2)]),
    "Sidon in F_243": (3, 5, lambda ctx: [sidon_search(ctx, 2)]),
    "whole space": (3, 3, lambda ctx: [span(ctx.basis(), 3, 3)]),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_stops_with_the_full_scan_members_in_order(case):
    q, n, subspaces = ORBIT_CASES[case]
    ctx = FieldCtx(q, n)
    for v in subspaces(ctx):
        assert list(orbit_cyclic_code(ctx, v).members) == _orbit_by_full_scan(ctx, v)


def _stabilizer_by_brute_force(ctx, v):
    """|{x != 0 : xV = V}|, by testing every x against V's vectors."""
    vectors = set(v.vectors())
    return sum(all(ctx.mul(x, r) in vectors for r in v.rows) for x in range(1, ctx.order))


@pytest.mark.parametrize("q,n", [(q, n) for q in range(2, 65) if is_prime(q)
                                 for n in range(1, 7) if q ** n <= 64])
def test_stabilizer_order_matches_a_brute_force_count(q, n):
    ctx = FieldCtx(q, n)
    for dim in range(n + 1):
        for v in enumerate_subspaces(q, n, dim):
            assert q ** _stabilizer_degree(ctx, v) - 1 == _stabilizer_by_brute_force(ctx, v)


def test_whole_space_spread_builds_its_one_member():
    sc = spread(2, 17, 17)
    assert len(sc) == 1
    assert sc.members[0].dim == 17


def test_block_enlarged_small_instance():
    ctx = FieldCtx(2, 2)
    fam = block_enlarged_family(ctx, 1)
    assert len(fam) == 16
    assert fam.provenance["raw_pairs"] == 32
    assert subspace_code_min_distance(fam).minimum == 2


def test_block_enlarged_collapses_to_lifted_code():
    ctx = FieldCtx(2, 4)
    fam = block_enlarged_family(ctx, 2)
    lifted = lift_rank_code(gabidulin_code(ctx, 2))
    assert {s.rows for s in fam.members} == {s.rows for s in lifted.members}
    assert fam.provenance["h1_count"] == 4
    assert fam.provenance["h2_count"] == 1  # all other multipliers share a row
    assert fam.provenance["raw_pairs"] == 4096 * 4
    assert fam.provenance["formula_value"] == "12288"


def _matmul(a, b, cols, q):
    """Product over F_q of matrices given as packed rows; b has cols columns."""
    rows = ext_matmul([unpack(r, q, len(b)) for r in a], [unpack(r, q, cols) for r in b],
                      cols, prime_field(q))
    return [pack(r, q) for r in rows]


def _raw_block_enlarged(ctx, t):
    """The family built the long way: the span of (G | GA) for every block
    matrix G = [[I, H1], [0, H2]] and Gabidulin member A, deduplicated."""
    q, n, h = ctx.q, ctx.n, ctx.n // 2
    half = FieldCtx(q, h)
    h1s = [poly_to_matrix(p) for p in gabidulin_code(half, t - h).members]
    h2s = _greedy_row_disjoint_multipliers(half)
    gs = []
    for h1 in h1s:
        for h2 in h2s:
            # rows (e_i | H1_i), then (0 | H2_i)
            gs.append([q ** (n - 1 - i) + h1[i] for i in range(h)] + list(h2))
    members = [span([gr * q ** n + ar for gr, ar in zip(g, _matmul(g, a, n, q))], 2 * n, q)
               for a in gabidulin_code(ctx, t).matrices() for g in gs]
    return SubspaceCode(q, 2 * n, members, constant_dim=n), len(members), len(h1s), len(h2s)


@pytest.mark.parametrize("q, n, t", [(2, 2, 1), (3, 2, 1), (5, 2, 1), (2, 4, 2)])
def test_block_enlarged_matches_raw_build(q, n, t):
    ctx = FieldCtx(q, n)
    fam = block_enlarged_family(ctx, t)
    raw, raw_pairs, h1_count, h2_count = _raw_block_enlarged(ctx, t)
    assert [s.rows for s in fam.members] == [s.rows for s in raw.members]
    prov = fam.provenance
    assert (prov["raw_pairs"], prov["h1_count"], prov["h2_count"]) == \
        (raw_pairs, h1_count, h2_count)


def test_block_enlarged_sampled_distance():
    ctx = FieldCtx(2, 4)
    fam = block_enlarged_family(ctx, 2)
    import random
    rng = random.Random(17)
    members = fam.members
    for _ in range(300):
        i, j = rng.randrange(len(members)), rng.randrange(len(members))
        if i != j:
            assert subspace_pair_distance(members[i], members[j]) >= 4


def test_block_enlarged_formula_value():
    assert block_enlarged_family(FieldCtx(2, 4), 2).provenance["formula_value"] == "12288"
    assert block_enlarged_family(FieldCtx(2, 2), 1).provenance["formula_value"] == "32"


def test_declared_distances_reverified():
    for sc in (spread(2, 2, 4), lift_rank_code(gabidulin_code(GF8, 1))):
        rep = subspace_code_min_distance(sc)
        assert rep.minimum >= sc.declared_distance


def _spread_by_all_multiples(q, k, n):
    """The former construction, kept as the oracle: find the subfield by a
    scan of the field and span c times every nonzero subfield element."""
    ctx = FieldCtx(q, n)
    sub = [x for x in ctx.elements() if x and _subfield_member(ctx, x, k)]
    expected = (q ** n - 1) // (q ** k - 1)
    members, seen = [], set()
    for c in range(1, ctx.order):
        member = span([ctx.mul(c, s) for s in sub], n, q)
        if member.rows not in seen:
            seen.add(member.rows)
            members.append(member)
            if len(members) == expected:
                break
    return members


@pytest.mark.parametrize("q,k,n", [(2, 2, 4), (2, 2, 6), (3, 2, 4), (2, 3, 6), (2, 4, 8)])
def test_spread_matches_the_all_multiples_build(q, k, n):
    assert list(spread(q, k, n).members) == _spread_by_all_multiples(q, k, n)


@pytest.mark.parametrize("q,k,n", [(2, 1, 3), (2, 2, 4), (3, 2, 4), (2, 3, 6), (2, 6, 6)])
def test_subfield_basis_spans_the_subfield(q, k, n):
    ctx = FieldCtx(q, n)
    basis = _subfield_basis(ctx, k)
    assert len(basis) == k
    vectors = span(basis, n, q).vectors()
    assert sorted(vectors) == \
        [x for x in ctx.elements() if _subfield_member(ctx, x, k)]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_every_subspace_is_its_canonical_span(q):
    """A Subspace is not re-reduced when it is built, so every producer must
    hand over packed rows that are already the RREF basis of their span."""
    rng = random.Random(q)
    subspaces = []
    for _ in range(30):
        vectors = [rng.randrange(q ** 4) for _ in range(rng.randrange(5))]
        subspaces += [span(vectors, 4, q), kernel(vectors, 4, q)]
    for dim in range(4):
        subspaces += enumerate_subspaces(q, 3, dim)
    f2, f3 = FieldCtx(q, 2), FieldCtx(q, 3)
    subspaces += lift_rank_code(gabidulin_code(f2, 1)).members
    subspaces += lift_rank_code(gabidulin_code(f3, 0)).members
    subspaces += spread(q, 1, 3).members + spread(q, 2, 4).members
    sidon = sidon_search(f3, 1)
    subspaces += [sidon, *orbit_cyclic_code(f3, sidon).members]
    if q == 2:
        f5 = FieldCtx(2, 5)
        sidon = sidon_search(f5, 2)
        subspaces += [sidon, *orbit_cyclic_code(f5, sidon).members]
    subspaces += block_enlarged_family(f2, 1).members
    for s in subspaces:
        assert all(isinstance(r, int) for r in s.rows)
        assert s == span(s.rows, s.ambient, s.q)
        alone = subspace_code_to_obj(SubspaceCode(s.q, s.ambient, [s]))
        assert subspace_code_from_obj(expand(alone)).members == (s,)
    by_ambient = {}
    for s in subspaces:
        by_ambient.setdefault(s.ambient, []).append(s)
    for ambient, members in by_ambient.items():
        code = SubspaceCode(q, ambient, members)
        loaded = subspace_code_from_obj(expand(subspace_code_to_obj(code)))
        assert loaded.members == code.members
        assert all(s == span(s.rows, s.ambient, s.q) for s in loaded.members)


# -- row 0 gives the minimum once a transitive isometry group is checked ------

def _lifted_mrd(q, n, t):
    return lift_rank_code(gabidulin_code(FieldCtx(q, n), t))


def _sidon_orbit(q, n, k):
    ctx = FieldCtx(q, n)
    return orbit_cyclic_code(ctx, sidon_search(ctx, k))


STRUCTURED_CODES = {
    "lifted (2,3,2)": lambda: _lifted_mrd(2, 3, 2),
    "lifted (2,4,1)": lambda: _lifted_mrd(2, 4, 1),
    "lifted (3,3,1)": lambda: _lifted_mrd(3, 3, 1),
    "block-enlarged (3,2,1)": lambda: block_enlarged_family(FieldCtx(3, 2), 1),
    "spread (2,2,4)": lambda: spread(2, 2, 4),
    "spread (2,2,6)": lambda: spread(2, 2, 6),
    "spread (3,2,4)": lambda: spread(3, 2, 4),
    "sidon orbit (2,5,2)": lambda: _sidon_orbit(2, 5, 2),
    "sidon orbit (2,7,3)": lambda: _sidon_orbit(2, 7, 3),
}


@pytest.fixture
def no_sweep(monkeypatch):
    """A pair-count guard of 0: every full sweep raises SearchTooLarge, and
    only a row-0 report, which the guard does not cover, comes back."""
    monkeypatch.setattr(metrics, "PAIR_GUARD", 0)


def _oracle(sc):
    """pairwise_oracle over the members, each pair scored from the vector
    sets of its two members, dim U + dim V - 2 log_q |U ∩ V|: no row
    reduction, and fast enough for the 729 members of lifted (3,3,1)."""
    vectors = {s.rows: frozenset(s.vectors()) for s in sc.members}
    log_q = {sc.q ** k: k for k in range(sc.ambient + 1)}
    return pairwise_oracle(
        sc.members,
        lambda u, v: u.dim + v.dim - 2 * log_q[len(vectors[u.rows] & vectors[v.rows])],
        "subspace")


def _assert_swept(sc):
    """Both premises fail on sc, so it takes the full sweep (past the guard
    only with force), and the sweep's report is the oracle's."""
    assert _lifted(sc) is False
    assert sc.field is None or _orbit(sc.field, sc) is False
    with pytest.raises(SearchTooLarge):
        subspace_code_min_distance(sc)
    assert subspace_code_min_distance(sc, force=True) == _oracle(sc)


@pytest.mark.parametrize("build", STRUCTURED_CODES.values(), ids=STRUCTURED_CODES)
def test_structural_distance_equals_the_exhaustive_sweep(build, no_sweep):
    sc = build()
    assert _lifted(sc) is True or _orbit(sc.field, sc) is True
    assert subspace_code_min_distance(sc) == _oracle(sc)


def _without(sc, index, field):
    members = sc.members[:index] + sc.members[index + 1:]
    return SubspaceCode(sc.q, sc.ambient, members, sc.constant_dim, field=field)


@pytest.mark.parametrize("build", [lambda: spread(2, 2, 6), lambda: _sidon_orbit(2, 5, 2),
                                   lambda: _lifted_mrd(2, 3, 1), lambda: _lifted_mrd(3, 2, 1)],
                         ids=["spread", "sidon orbit", "lifted", "lifted over F_3"])
def test_a_code_missing_one_member_is_not_certified(build, no_sweep):
    sc = build()
    _assert_swept(_without(sc, 3, sc.field))


def test_an_orbit_code_needs_its_field(no_sweep):
    sc = _sidon_orbit(2, 5, 2)
    _assert_swept(_without(sc, len(sc), None))  # all members
    _assert_swept(_without(sc, len(sc), FieldCtx(2, 6)))
    _assert_swept(_without(sc, len(sc), FieldCtx(2, 4)))  # members outside the field


def test_an_orbit_certificate_needs_closure_and_the_orbit_size(no_sweep):
    ctx = FieldCtx(2, 4)
    sc = spread(2, 2, 4)
    # as many members as the orbit of members[0], but one is not in it
    outsider = next(s for s in enumerate_subspaces(2, 4, 2) if s.rows not in
                    {m.rows for m in sc.members})
    _assert_swept(SubspaceCode(2, 4, sc.members[:-1] + (outsider,), 2, field=ctx))
    # two whole orbits: closed under multiplication, but twice the orbit size
    ctx5 = FieldCtx(2, 5)
    first = orbit_cyclic_code(ctx5, sidon_search(ctx5, 2))
    seen = {m.rows for m in first.members}
    second = orbit_cyclic_code(ctx5, next(s for s in enumerate_subspaces(2, 5, 2)
                                          if s.rows not in seen))
    both = SubspaceCode(2, 5, first.members + second.members, 2, field=ctx5)
    _assert_swept(both)
    assert subspace_code_min_distance(both, force=True).minimum == 2


def test_lifted_certificate_reads_the_identity_block(no_sweep):
    sc = _lifted_mrd(2, 3, 1)
    # the same linear space of A's, lifted as rowspan(A | I): no identity block
    flipped = [span([(r % 8) * 8 + r // 8 for r in s.rows], 6, 2) for s in sc.members]
    _assert_swept(SubspaceCode(2, 6, flipped, 3))


def test_a_random_half_of_a_lifted_code_is_swept_though_row_0_matches(no_sweep):
    full = _lifted_mrd(5, 2, 1)
    keep = sorted(random.Random(0).sample(range(len(full)), len(full) // 2))
    half = SubspaceCode(5, full.ambient, [full.members[i] for i in keep], 2)
    # row 0 happens to give the sweep's report here, which is why the premise
    # is checked from the members rather than assumed
    assert row0_report(half.members, subspace_pair_distance, "subspace") == _oracle(half)
    _assert_swept(half)

"""Closed-form bounds and the constructive zero-distance witness.

The witness construction realizes the rate-1/2 barrier: for a linear code
of dimension k > n/2 over its alphabet field, stacking the parity-check
matrix with its column rotation leaves a 2(n-k) x n system, which is
underdetermined, so some nonzero codeword and its cyclic shift both lie in
the code.  Position-independent distances cannot separate a word from its
rotation, so the subspace and subset distances of such a code are zero.

Bound violations observed by verify_bounds are reported as findings in the
returned table, never raised: the measurement is the product.
"""

from __future__ import annotations

from .errors import InvalidParams, PropertyViolation
from .gf import Value
from .linalg import ext_kernel_basis
from .metrics import (
    VectorCode,
    Word,
    code_min_distance,
    generalized_hamming_weights,
)

_HALVED_METRICS = ("insdel", "subspace", "subset")


class BoundReport(Value):
    """One evaluated bound (or measurement) with optional satisfaction flag."""

    __slots__ = ("bound", "parameters", "value", "satisfied")
    _defaults = {"satisfied": None}


def singleton_bound(n: int, d: int, q: int, metric: str) -> BoundReport:
    """Cardinality bound q^(n-d+1) (Hamming) or q^(n-d/2+1) (halved metrics)."""
    if n < 1 or q < 2:
        raise InvalidParams(f"bad parameters n={n}, q={q}")
    if metric == "hamming":
        if not 1 <= d <= n:
            raise InvalidParams(f"hamming distance {d} out of range [1, {n}]")
        value = q ** (n - d + 1)
    elif metric in _HALVED_METRICS:
        if d % 2 or not 2 <= d <= 2 * n:
            raise InvalidParams(
                f"{metric} distance {d} must be even in [2, {2 * n}]")
        value = q ** (n - d // 2 + 1)
    else:
        raise InvalidParams(f"unknown metric {metric!r}")
    return BoundReport(f"singleton_{metric}", {"n": n, "d": d, "q": q}, value)


def half_singleton(n: int, k: int) -> int:
    """Insdel-distance cap max{2(n - 2k + 2), 2} for linear [n, k] codes."""
    if not 1 <= k <= n:
        raise InvalidParams(f"k={k} out of range [1, {n}]")
    return max(2 * (n - 2 * k + 2), 2)


def strong_half_singleton(ghw) -> int:
    """min over r of (d_r - 2r + 2), a cap on d_subset; twice it is the
    published cap on d_insdel (see verify_bounds)."""
    ghw = list(ghw)
    if not ghw or any(b <= a for a, b in zip(ghw, ghw[1:])):
        raise InvalidParams("generalized Hamming weights must be strictly increasing")
    terms = [d - 2 * (r + 1) + 2 for r, d in enumerate(ghw)]
    return min(terms)


def levenshtein_bound(n: int, q: int) -> int:
    """Size cap for single-deletion-correcting codes of length n over q symbols."""
    if n < 2 or q < 2:
        raise InvalidParams(f"need n >= 2 and q >= 2, got n={n}, q={q}")
    return (q ** (n - 1) + (n - 2) * q ** (n - 2) + q) // n


def klo_bound(q: int) -> int:
    """Improved length-4 single-deletion cap q^2 (q+1) / 4; q must be even."""
    if q < 2 or q % 2:
        raise InvalidParams(f"this bound needs even q, got {q}")
    value, rem = divmod(q * q * (q + 1), 4)
    if rem:
        raise PropertyViolation("length-4 bound was not integral")
    return value


def cyclic_shift_witness(c: VectorCode) -> Word:
    """A nonzero codeword whose left cyclic shift is also a codeword.

    Exists whenever the code is linear over its alphabet field with
    k > n/2.  Built from the first kernel vector of the parity-check matrix
    stacked with its column rotation; membership of both the witness and
    its shift is re-verified before returning.
    """
    if not c.linear:
        raise InvalidParams("the witness construction needs a generator")
    n = c.length
    k = c.dimension
    if 2 * k <= n:
        raise InvalidParams(f"need k > n/2, got k={k}, n={n}")
    ctx = c.ctx
    gen_rows = [g.symbols for g in c.generator]
    h_rows = ext_kernel_basis(gen_rows, n, ctx)
    h_rot = [tuple(r[(i + 1) % n] for i in range(n)) for r in h_rows]
    stacked = h_rows + h_rot
    kernel = ext_kernel_basis(stacked, n, ctx)
    if not kernel:
        raise PropertyViolation("stacked parity system had full rank despite k > n/2")
    x = kernel[0]
    witness = Word(ctx, (x[-1],) + x[:-1])  # x rotated right
    shifted = Word(ctx, x)
    if not (any(s != ctx.zero for s in x)
            and c.contains(witness) and c.contains(shifted)):
        raise PropertyViolation("witness failed the membership re-check")
    return witness


def verify_bounds(c: VectorCode, force: bool = False) -> list[BoundReport]:
    """Measure all four distances, check the chain, evaluate applicable bounds.

    Violations come back as reports with satisfied=False; only internal
    inconsistencies raise.
    """
    reports: list[BoundReport] = []
    measured = {}
    for metric in ("hamming", "subspace", "subset", "insdel"):
        rep = code_min_distance(c, metric, force=force)
        measured[metric] = rep.minimum
        reports.append(BoundReport(f"min_{metric}",
                                   {"length": c.length, "size": len(c)},
                                   rep.minimum))
    chain_ok = (measured["subspace"] <= measured["subset"]
                <= measured["insdel"] <= 2 * measured["hamming"])
    reports.append(BoundReport("chain", dict(measured),
                               measured["insdel"], satisfied=chain_ok))
    big_q = c.ctx.order
    m = len(c)
    for metric, d in measured.items():
        try:
            rep = singleton_bound(c.length, d, big_q, metric)
        except InvalidParams:  # no Singleton bound takes this d
            continue
        reports.append(BoundReport(rep.bound, rep.parameters, rep.value,
                                   satisfied=m <= rep.value))
    if c.linear:
        n, k = c.length, c.dimension
        hs = half_singleton(n, k)
        reports.append(BoundReport("half_singleton", {"n": n, "k": k}, hs,
                                   satisfied=measured["insdel"] <= hs))
        if 2 * k <= n:
            reports.append(BoundReport("half_singleton_subset", {"n": n, "k": k}, hs,
                                       satisfied=measured["subset"] <= hs))
        else:
            try:
                cyclic_shift_witness(c)
                ok = True
            except PropertyViolation:
                ok = False
            reports.append(BoundReport("zero_distance_witness", {"n": n, "k": k}, 0,
                                       satisfied=ok))
        ghw = generalized_hamming_weights(c)
        s = strong_half_singleton(ghw)
        reports.append(BoundReport("strong_half_singleton_doubled", {"ghw": list(ghw)}, 2 * s,
                                   satisfied=measured["insdel"] <= 2 * s))
        reports.append(BoundReport("strong_half_singleton_subset", {"ghw": list(ghw)}, s,
                                   satisfied=measured["subset"] <= s))
    return reports

"""The oracles the library's kernels are tested against: the exhaustive
per-pair sweep, the O(|a||b|) LCS DP, the word-by-word sampling of the
verify suites, and `expand`, which turns the packed leaves of a serialize
writer's tree into the lists that json.dumps writes."""

import random

from fqcodes.gf import FieldCtx, unpack
from fqcodes.metrics import MetricReport, Word
from fqcodes.serialize import _Packed


def pairwise_oracle(items, dist, metric: str, notes: dict | None = None) -> MetricReport:
    """Minimum of dist over unordered pairs by a plain double loop; the
    witness is the first attaining pair in (i, j) order."""
    items = list(items)
    m = len(items)
    best = idx = None
    for i in range(m):
        for j in range(i + 1, m):
            d = dist(items[i], items[j])
            if best is None or d < best:
                best, idx = d, (i, j)
    i, j = idx
    return MetricReport(metric, best, (items[i], items[j]), idx, m * (m - 1) // 2, notes)


def lcs_dp(a, b) -> int:
    """Longest common subsequence length by the standard O(|a||b|) DP."""
    m, n = len(a), len(b)
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        cur = [0] * (n + 1)
        ai = a[i - 1]
        for j in range(1, n + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prev[n]


def random_word(ctx: FieldCtx, length: int, rng: random.Random) -> Word:
    """A word of `length` symbols, each one rng.randrange(ctx.order) call."""
    return Word(ctx, tuple(rng.randrange(ctx.order) for _ in range(length)))


def expand(tree):
    """tree with lists for tuples and each _Packed leaf as the nested lists it
    stands for, unpacked here by gf.unpack rather than by the emitter: an int
    as its n digits, or, for per > 0, as per lists of n digits each."""
    if isinstance(tree, _Packed):
        n, per = tree.n, tree.per
        digits = [list(unpack(x, tree.q, n * (per or 1))) for x in tree.ints]
        return [[d[i * n:(i + 1) * n] for i in range(per)] if per else d for d in digits]
    if isinstance(tree, dict):
        return {k: expand(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [expand(v) for v in tree]
    return tree

"""The exhaustive per-pair sweep that the library's sweeps are tested against."""

from fqcodes.metrics import MetricReport


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

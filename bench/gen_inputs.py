"""Seeded input files for the benchmark, written with fqcodes' own writer.

    python3 bench/gen_inputs.py SEED KIND=PATH [KIND=PATH ...]

Each KIND draws from its own `random.Random(f"{KIND}:{SEED}")`, so a seed
always gives the same bytes.  The CLI only ever sees these files.
"""

from __future__ import annotations

import random
import sys

from fqcodes.constructions import SubspaceCode, lift_rank_code
from fqcodes.gf import FieldCtx
from fqcodes.linalg import ext_rank
from fqcodes.metrics import VectorCode, Word
from fqcodes.rankmetric import gabidulin_code
from fqcodes.serialize import save_file


def random_vector_code(rng: random.Random, seed: int) -> VectorCode:
    """256 distinct random words of length 5 over F_{2^8}: no structure to exploit."""
    ctx = FieldCtx(2, 8)
    words = {}
    while len(words) < 256:
        symbols = tuple(ctx.element_at(rng.randrange(ctx.order)) for _ in range(5))
        words.setdefault(symbols, Word(ctx, symbols))
    return VectorCode(ctx, 5, list(words.values()),
                      provenance={"construction": "bench_random_words", "seed": seed})


def lifted_half(rng: random.Random, seed: int) -> SubspaceCode:
    """A random half (312 of 625 members, in code order) of lifted Gabidulin q=5, n=2, t=1.

    A subset of a linear code is not linear, so symmetry shortcuts must not fire.
    """
    full = lift_rank_code(gabidulin_code(FieldCtx(5, 2), 1))
    keep = sorted(rng.sample(range(len(full)), len(full) // 2))
    return SubspaceCode(full.q, full.ambient, [full.members[i] for i in keep],
                        constant_dim=full.constant_dim,
                        declared_distance=full.declared_distance,
                        provenance={"construction": "bench_lifted_half", "seed": seed,
                                    "source": full.provenance})


def linear_f4(rng: random.Random, seed: int) -> VectorCode:
    """A random [5, 3] linear code over F_4 (rate 3/5 > 1/2) with its generator."""
    ctx = FieldCtx(2, 2)
    n, k = 5, 3
    while True:
        rows = [tuple(ctx.element_at(rng.randrange(ctx.order)) for _ in range(n))
                for _ in range(k)]
        if ext_rank(rows, n, ctx) == k:
            return VectorCode.from_generator(
                ctx, [Word(ctx, r) for r in rows],
                provenance={"construction": "bench_random_linear", "seed": seed})


GENERATORS = {
    "random-vector": random_vector_code,
    "lifted-half": lifted_half,
    "linear-f4": linear_f4,
}


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    for spec in argv[1:]:
        kind, path = spec.split("=", 1)
        save_file(path, GENERATORS[kind](random.Random(f"{kind}:{seed}"), seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

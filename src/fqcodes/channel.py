"""Seeded insertion-deletion channel and exhaustive nearest-codeword decoding.

The channel applies the requested number of symbol deletions, then
insertions of uniformly random symbols, at uniformly random positions,
all driven by Python's Mersenne Twister seeded from the spec, so every
transcript is reproducible from (seed, trial index).  Decoding is a full
scan for the insdel-nearest codeword: the code's packed match masks
(VectorCode.lcs_masks, built once per code) let one pass of
metrics.packed_lcs over the received word score every codeword.  A tied
minimum decodes to AMBIGUOUS on purpose, because inside the correction
radius ties are impossible and therefore diagnostic.
"""

from __future__ import annotations

import random

from .errors import InvalidParams
from .gf import Value
from .metrics import VectorCode, Word, code_min_distance, packed_lcs

PRNG_NAME = "mt19937"


class _Ambiguous:
    __slots__ = ()

    def __repr__(self):
        return "AMBIGUOUS"


AMBIGUOUS = _Ambiguous()


class ChannelSpec(Value):
    __slots__ = ("insertions", "deletions", "seed")

    def __init__(self, insertions: int, deletions: int, seed: int):
        if insertions < 0 or deletions < 0:
            raise InvalidParams("channel counts must be >= 0")
        Value.__init__(self, insertions, deletions, seed)


def _apply_with_rng(w: Word, insertions: int, deletions: int,
                    rng: random.Random) -> Word:
    if deletions > len(w):
        raise InvalidParams(f"cannot delete {deletions} symbols from length {len(w)}")
    symbols = list(w.symbols)
    for _ in range(deletions):
        del symbols[rng.randrange(len(symbols))]
    ctx = w.ctx
    for _ in range(insertions):
        pos = rng.randrange(len(symbols) + 1)
        symbols.insert(pos, ctx.element_at(rng.randrange(ctx.order)))
    return Word(ctx, tuple(symbols))


def decode_nearest(c: VectorCode, received: Word):
    """The unique insdel-nearest codeword, or AMBIGUOUS on a tie.

    Every codeword has length c.length, so the insdel-nearest codewords
    are those with the longest common subsequence with the received word.
    """
    if received.ctx is not c.ctx and received.ctx != c.ctx:
        raise InvalidParams("words live in different fields")
    if not c.codewords:
        raise InvalidParams("cannot decode with a code that has no codewords")
    scores = packed_lcs(c.lcs_masks, received.symbols)
    best = max(scores)
    return AMBIGUOUS if scores.count(best) > 1 else c.codewords[scores.index(best)]


def correction_capability(c: VectorCode, force: bool = False) -> int:
    """Largest e with 2e < d_insdel(C)."""
    return (code_min_distance(c, "insdel", force=force).minimum - 1) // 2


class TrialSummary(Value):
    __slots__ = ("trials", "successes", "wrong", "ambiguous", "capability", "within_guarantee",
                 "insertions", "deletions", "seed", "prng", "records")

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 1.0

    def transcript_csv(self) -> str:
        return "\n".join(("trial,seed,ins,del,result", *self.records)) + "\n"


def run_trials(c: VectorCode, spec: ChannelSpec, trials: int,
               force: bool = False) -> TrialSummary:
    """Seeded transmission trials; trial i uses seed spec.seed + i.

    Within the correction capability a non-ok result is a bug, not noise.
    """
    if trials < 0:
        raise InvalidParams("trial count must be >= 0")
    capability = correction_capability(c, force=force)
    within = spec.insertions + spec.deletions <= capability
    records = []
    successes = wrong = ambiguous = 0
    for i in range(trials):
        trial_seed = spec.seed + i
        rng = random.Random(trial_seed)
        sent = c.codewords[rng.randrange(len(c.codewords))]
        received = _apply_with_rng(sent, spec.insertions, spec.deletions, rng)
        decoded = decode_nearest(c, received)
        if decoded is AMBIGUOUS:
            ambiguous += 1
            result = "ambiguous"
        elif decoded.symbols == sent.symbols:
            successes += 1
            result = "ok"
        else:
            wrong += 1
            result = "wrong"
        records.append(f"{i},{trial_seed},{spec.insertions},{spec.deletions},{result}")
    return TrialSummary(trials, successes, wrong, ambiguous, capability,
                        within, spec.insertions, spec.deletions, spec.seed,
                        PRNG_NAME, tuple(records))

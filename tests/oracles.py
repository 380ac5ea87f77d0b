"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: the assignment oracle is
an exhaustive permutation search, and the feature oracle is a plain-Python
re-derivation with fsum accumulation. If the fast paths drift, these catch it.
"""

import itertools
import math


def brute_force_assignment(costs):
    """Exhaustive maximum-cardinality minimum-cost matching.

    costs: list of row lists; float('inf') marks a forbidden pairing.
    Returns (cardinality, total_cost, pairs): pairs is the lexicographically
    smallest row-sorted pair list among the optima, whose totals are compared
    exactly with math.fsum, and total_cost is its sum accumulated in
    ascending row order. Only sensible up to ~7x7.
    """
    rows = len(costs)
    cols = len(costs[0]) if rows else 0
    best = None
    for perm in itertools.permutations(range(max(rows, cols))):
        pairs = [
            (i, perm[i]) for i in range(rows)
            if perm[i] < cols and math.isfinite(costs[i][perm[i]])
        ]
        key = (-len(pairs), math.fsum(costs[i][j] for i, j in pairs), pairs)
        if best is None or key < best:
            best = key
    pairs = best[2]
    total = 0.0
    for i, j in pairs:
        total += costs[i][j]
    return len(pairs), total, pairs


def direct_weighted_feature(history, tau):
    """Straight re-derivation of the score-weighted history feature.

    history: sequence of (embedding, score) pairs, oldest first; embeddings
    may be any indexable of floats. Uses only the most recent min(len, tau)
    entries: sum of score-scaled embeddings over the sum of scores, then
    scaled to unit length. Returns a plain list of floats.
    """
    recent = list(history)[-tau:]
    if not recent:
        raise ValueError("empty history")
    dim = len(recent[0][0])
    denom = math.fsum(float(s) for _, s in recent)
    mean = [
        math.fsum(float(e[k]) * float(s) for e, s in recent) / denom
        for k in range(dim)
    ]
    norm = math.sqrt(math.fsum(v * v for v in mean))
    return [v / norm for v in mean]

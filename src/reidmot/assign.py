"""Gated minimum-cost bipartite assignment.

The heavy lifting is scipy's Hungarian solver; this module adds the semantics
the tracker needs on top of it: an explicit FORBIDDEN sentinel (never a large
finite cost the solver could trade away), rectangular inputs, maximum-cardinality
-then-minimum-cost optimality with totals compared exactly, and one
deterministic choice among the optima: the lexicographically smallest
row-sorted pair list.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

# Sentinel for pairings that must never be made, regardless of other costs.
FORBIDDEN = float("inf")


@dataclass(frozen=True)
class AssignmentResult:
    """Matched (row, col) pairs plus the leftovers, sorted ascending."""

    matches: tuple[tuple[int, int], ...]
    unmatched_rows: tuple[int, ...]
    unmatched_cols: tuple[int, ...]
    total_cost: float


def gate_costs(costs: np.ndarray, max_cost: float) -> np.ndarray:
    """Return a copy of `costs` with every entry above `max_cost` FORBIDDEN.

    Entries exactly at max_cost stay admissible.
    """
    if not max_cost >= 0:
        raise ValueError(f"max_cost must be >= 0, got {max_cost}")
    costs = np.asarray(costs, dtype=np.float64)
    return np.where(costs > max_cost, FORBIDDEN, costs)


def _validate(costs: np.ndarray) -> np.ndarray:
    if costs.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {costs.shape}")
    if np.any(np.isnan(costs)):
        raise ValueError("cost matrix contains NaN")
    if np.any(costs < 0):
        raise ValueError("costs must be non-negative (FORBIDDEN is +inf)")
    return costs != FORBIDDEN


def _solve(costs: np.ndarray, allowed: np.ndarray):
    """One rectangular solve: the pairs it makes and their key.

    The key is (-cardinality, exact total), so a lower key is a better
    matching and equal totals compare equal whatever the summation order.
    """
    # Disallowed entries cost more than every allowed entry together, so one
    # more allowed pair always lowers the total: the solver maximizes the
    # number of allowed pairs before it minimizes their cost, and the pairs
    # left after dropping disallowed ones form a maximum-cardinality
    # minimum-cost matching.
    big = float(costs[allowed].sum()) + 1.0
    r, c = linear_sum_assignment(np.where(allowed, costs, big))
    keep = allowed[r, c]
    r, c = r[keep], c[keep]
    return list(zip(r.tolist(), c.tolist())), (-len(r), math.fsum(costs[r, c]))


def _fix_rows(costs: np.ndarray, allowed: np.ndarray, pairs, key):
    """The lexicographically smallest optimum, one row at a time.

    Each row, in ascending order, takes the lowest column that still admits a
    matching with a key no worse than `key`, or stays unmatched if none does.
    `pairs` is always an optimum that agrees with the rows fixed so far, so
    its column for the current row needs no trial solve.
    """
    allowed = allowed.copy()
    for i in range(costs.shape[0]):
        col = dict(pairs).get(i)
        for j in np.flatnonzero(allowed[i]).tolist():
            if j == col:
                break
            trial = allowed.copy()
            trial[i] = False
            trial[:, j] = False
            trial[i, j] = True
            trial_pairs, trial_key = _solve(costs, trial)
            if trial_key <= key:
                pairs, key, col = trial_pairs, trial_key, j
                break
        allowed[i] = False
        if col is not None:
            allowed[:, col] = False
            allowed[i, col] = True
    return pairs


def solve_assignment(costs: np.ndarray) -> AssignmentResult:
    """Optimal matching of rows to columns under FORBIDDEN constraints.

    Among all matchings that avoid FORBIDDEN entries, takes those of maximum
    cardinality and, among them, minimum total cost, with totals compared
    exactly. Of these it returns the one whose row-sorted pair list is
    lexicographically smallest: the lowest row that can be matched is, and
    to its lowest possible column, then the next row, and so on. Rows and
    columns left over are reported unmatched.
    """
    costs = np.asarray(costs, dtype=np.float64)
    allowed = _validate(costs)
    rows, cols = costs.shape
    pairs, key = _solve(costs, allowed)

    # Any lexicographically smaller optimum uses a lower entry: an allowed
    # entry left of its row's matched column, or any entry of an unmatched row.
    matched_col = np.full(rows, cols)
    for i, j in pairs:
        matched_col[i] = j
    lower = allowed & (np.arange(cols) < matched_col[:, None])
    if lower.any():
        # Making every non-lower entry eps dearer makes such an optimum at
        # least eps cheaper than `pairs`. Scaled with the solve's largest
        # entry, eps stays above the solver's rounding, so getting `pairs`
        # back proves no such optimum exists.
        eps = 1e-9 * (float(costs[allowed].sum()) + 1.0)
        if _solve(np.where(lower, costs, costs + eps), allowed)[0] != pairs:
            pairs = _fix_rows(costs, allowed, pairs, key)

    matched_r = {i for i, _ in pairs}
    matched_c = {j for _, j in pairs}
    return AssignmentResult(
        matches=tuple(pairs),
        unmatched_rows=tuple(i for i in range(rows) if i not in matched_r),
        unmatched_cols=tuple(j for j in range(cols) if j not in matched_c),
        # row-ascending accumulation keeps totals reproducible
        total_cost=float(sum(costs[i, j] for i, j in pairs)),
    )

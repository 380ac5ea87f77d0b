"""Gated minimum-cost bipartite assignment.

The heavy lifting is scipy's Hungarian solver; this module adds the semantics
the tracker needs on top of it: an explicit FORBIDDEN sentinel (never a large
finite cost the solver could trade away), rectangular inputs, maximum-cardinality
-then-minimum-cost optimality with totals compared exactly, and one
deterministic choice among the optima: the lexicographically smallest
row-sorted pair list.

Admissibility is one bool mask. _match takes a cost matrix and that mask
and returns the matching as (rows, cols) intp arrays in row order; it
leaves at the first of four exits that settles the matrix: forced (each
row and each column admits at most one entry, so those entries are the
only optimum and no solve runs), one solve (no lower entry could give a
smaller optimum), a check solve (one that would find such an optimum
returns the first), and otherwise _fix_rows, one row at a time.
solve_assignment checks a matrix (_validate), matches it on
`costs != FORBIDDEN` and wraps the arrays in an AssignmentResult (_result).
Tracker._stage and the evaluation's fresh solve call _match directly with
their own masks, so neither builds a gated copy or a result of tuples.
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


def _validate(costs: np.ndarray):
    """Raise ValueError unless `costs` is 2-D with no NaN and no negative entry."""
    if costs.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {costs.shape}")
    # min propagates NaN, so one pass finds NaN and negative entries alike.
    if costs.size and not costs.min() >= 0:
        if np.any(np.isnan(costs)):
            raise ValueError("cost matrix contains NaN")
        raise ValueError("costs must be non-negative (FORBIDDEN is +inf)")


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


def _forced(allowed: np.ndarray):
    """The entries of `allowed` as (rows, cols) index arrays, in row order,
    when every row and every column holds at most one; else None."""
    rows, cols = allowed.shape
    if not cols:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    first = allowed.argmax(1)
    r = np.flatnonzero(allowed[np.arange(rows), first])
    c = first[r]
    col_hit = np.zeros(cols, dtype=bool)
    col_hit[c] = True
    # Each hit row holds one entry iff the hits count every entry, and the
    # hits use distinct columns iff they mark as many columns as rows.
    if np.count_nonzero(allowed) == len(r) == np.count_nonzero(col_hit):
        return r, c
    return None


def _result(costs: np.ndarray, r: np.ndarray, c: np.ndarray) -> AssignmentResult:
    """The result of matching rows `r` (ascending) to columns `c`."""
    free_r = np.ones(costs.shape[0], dtype=bool)
    free_r[r] = False
    free_c = np.ones(costs.shape[1], dtype=bool)
    free_c[c] = False
    return AssignmentResult(
        matches=tuple(zip(r.tolist(), c.tolist())),
        unmatched_rows=tuple(np.flatnonzero(free_r).tolist()),
        unmatched_cols=tuple(np.flatnonzero(free_c).tolist()),
        # np.float64 scalars added one at a time in row order: neither
        # np.sum's pairwise sum nor a compensated float sum, so totals are
        # reproducible
        total_cost=float(sum(costs[r, c])),
    )


def _match(costs: np.ndarray, allowed: np.ndarray):
    """solve_assignment's matching of `costs` over the bool mask `allowed`.

    Returns (rows, cols) intp arrays, rows ascending. The admissible
    entries of `costs` must be finite and non-negative; the entries the
    mask leaves out do not affect the result.

    The exits, in order: a forced mask (at most one admissible entry in
    each row and each column) returns its entries without a solve, since
    every matching is a subset of them; otherwise one solve, kept when no
    lower entry exists; then a check solve, kept when it returns the same
    pairs; then _fix_rows.
    """
    forced = _forced(allowed)
    if forced is not None:
        return forced
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

    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def solve_assignment(costs: np.ndarray) -> AssignmentResult:
    """Optimal matching of rows to columns under FORBIDDEN constraints.

    Among all matchings that avoid FORBIDDEN entries, takes those of maximum
    cardinality and, among them, minimum total cost, with totals compared
    exactly. Of these it returns the one whose row-sorted pair list is
    lexicographically smallest: the lowest row that can be matched is, and
    to its lowest possible column, then the next row, and so on. Rows and
    columns left over are reported unmatched.

    The matrix is checked (_validate), matched by _match on the mask of its
    non-FORBIDDEN entries, and the pairs wrapped by _result.
    """
    costs = np.asarray(costs, dtype=np.float64)
    _validate(costs)
    return _result(costs, *_match(costs, costs != FORBIDDEN))

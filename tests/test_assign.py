import numpy as np
import pytest

from reidmot import FORBIDDEN, gate_costs, solve_assignment

from oracles import brute_force_assignment


def test_simple_diagonal():
    res = solve_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert res.matches == ((0, 0), (1, 1))
    assert res.total_cost == 2.0
    assert res.unmatched_rows == ()
    assert res.unmatched_cols == ()


def test_forbidden_is_never_matched():
    costs = np.array([[FORBIDDEN, 3.0], [2.0, FORBIDDEN]])
    res = solve_assignment(costs)
    assert res.matches == ((0, 1), (1, 0))
    assert res.total_cost == 5.0

    res = solve_assignment(np.full((3, 3), FORBIDDEN))
    assert res.matches == ()
    assert res.unmatched_rows == (0, 1, 2)
    assert res.unmatched_cols == (0, 1, 2)


def test_forbidden_cannot_be_outbid_by_accumulation():
    # A huge finite cost must still be preferred over any forbidden pairing.
    costs = np.array([[1e12, FORBIDDEN], [FORBIDDEN, 1e12]])
    res = solve_assignment(costs)
    assert res.matches == ((0, 0), (1, 1))


def test_cardinality_beats_cost():
    # Matching both rows costs 4; matching only the cheap row costs 2.
    costs = np.array([[1.0, FORBIDDEN], [2.0, 3.0]])
    res = solve_assignment(costs)
    assert res.matches == ((0, 0), (1, 1))
    assert res.total_cost == 4.0


def test_rectangular_shapes():
    res = solve_assignment(np.array([[5.0], [3.0]]))
    assert res.matches == ((1, 0),)
    assert res.unmatched_rows == (0,)

    res = solve_assignment(np.array([[5.0, 3.0, 1.0]]))
    assert res.matches == ((0, 2),)
    assert set(res.unmatched_cols) == {0, 1}


def test_empty_matrices():
    for shape in ((0, 0), (0, 3), (3, 0)):
        res = solve_assignment(np.zeros(shape))
        assert res.matches == ()
        assert res.total_cost == 0.0
        assert len(res.unmatched_rows) == shape[0]
        assert len(res.unmatched_cols) == shape[1]


def test_validation():
    with pytest.raises(ValueError):
        solve_assignment(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):  # only +inf means FORBIDDEN
        solve_assignment(np.array([[-np.inf, 1.0]]))


def test_deterministic_tie_break_low_row_then_low_col():
    res = solve_assignment(np.ones((2, 2)))
    assert res.matches == ((0, 0), (1, 1))

    # both rows tie for the single column: lowest row wins
    res = solve_assignment(np.array([[5.0], [5.0]]))
    assert res.matches == ((0, 0),)
    assert res.unmatched_rows == (1,)

    # equal-cost columns: lowest col wins
    res = solve_assignment(np.array([[7.0, 7.0, 7.0]]))
    assert res.matches == ((0, 0),)

    # tie through equal sums, not equal entries
    res = solve_assignment(np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert res.matches == ((0, 0), (1, 1))
    assert res.total_cost == 4.0

    # the lower row takes its lowest column even though that pushes the
    # other row to a higher one
    res = solve_assignment(np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]))
    assert res.matches == ((0, 0), (1, 2))


def test_repeated_runs_identical():
    rng = np.random.default_rng(3)
    costs = rng.uniform(0, 1, (5, 7))
    first = solve_assignment(costs)
    for _ in range(5):
        again = solve_assignment(costs)
        assert again == first


def test_gate_costs():
    costs = np.array([[0.2, 0.9], [0.5, 0.1]])
    gated = gate_costs(costs, 0.5)
    assert gated[0, 0] == 0.2
    assert gated[0, 1] == FORBIDDEN
    assert gated[1, 0] == 0.5  # boundary stays admissible
    assert gated[1, 1] == 0.1
    # pure: input untouched
    assert costs[0, 1] == 0.9
    with pytest.raises(ValueError):
        gate_costs(costs, -0.1)
    with pytest.raises(ValueError):
        gate_costs(costs, float("nan"))


def _random_matrix(rng):
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(1, 7))
    costs = rng.uniform(0.0, 1.0, (rows, cols))
    if rng.random() < 0.5:
        mask = rng.random((rows, cols)) < rng.uniform(0.1, 0.7)
        costs = np.where(mask, FORBIDDEN, costs)
    return costs


def test_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(12345)
    for _ in range(300):
        costs = _random_matrix(rng)
        res = solve_assignment(costs)
        card, total, pairs = brute_force_assignment(costs.tolist())
        assert len(res.matches) == card
        assert res.total_cost == total  # exact, same accumulation order
        assert res.matches == tuple(pairs)


def test_matches_brute_force_pairs_on_tie_heavy_matrices():
    # Integer costs 0-2 make many optima tie exactly; the solver must return
    # the oracle's lexicographically smallest one every time.
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        rows, cols = rng.integers(1, 6, size=2)
        costs = rng.integers(0, 3, (rows, cols)).astype(float)
        costs[rng.random((rows, cols)) < 0.2] = FORBIDDEN
        res = solve_assignment(costs)
        card, total, pairs = brute_force_assignment(costs.tolist())
        assert (res.matches, res.total_cost) == (tuple(pairs), total), costs


def test_row_permutation_permutes_matches():
    rng = np.random.default_rng(99)
    for _ in range(50):
        costs = rng.uniform(0.0, 1.0, (4, 6))
        res = solve_assignment(costs)
        perm = rng.permutation(4)
        permuted = solve_assignment(costs[perm])
        # row i of the permuted matrix is row perm[i] of the original
        expect = sorted((list(perm).index(i), j) for i, j in res.matches)
        assert sorted(permuted.matches) == expect
        assert permuted.total_cost == pytest.approx(res.total_cost, abs=1e-9)


def test_constant_shift_keeps_argmin():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        costs = rng.uniform(0.0, 1.0, (5, 5))
        res = solve_assignment(costs)
        shifted = solve_assignment(costs + 0.75)
        assert shifted.matches == res.matches
        assert shifted.total_cost == pytest.approx(res.total_cost + 5 * 0.75, abs=1e-9)


def _full_result(costs):
    """brute_force_assignment's optimum as (matches, unmatched rows, unmatched
    cols, total_cost) for the cost array `costs`."""
    _, total, pairs = brute_force_assignment(costs.tolist())
    rows, cols = costs.shape
    matched_r, matched_c = {i for i, _ in pairs}, {j for _, j in pairs}
    return (tuple(pairs), tuple(i for i in range(rows) if i not in matched_r),
            tuple(j for j in range(cols) if j not in matched_c), total)


def _fields(res):
    return res.matches, res.unmatched_rows, res.unmatched_cols, res.total_cost


def test_forced_matrices_match_brute_force():
    # A partial-permutation mask admits at most one entry per row and per
    # column: those entries are the only maximum matching, which the forced
    # exit returns without a solve. Uniform and exactly tied costs alike.
    rng = np.random.default_rng(77)
    for trial in range(400):
        rows, cols = (int(n) for n in rng.integers(0, 7, size=2))
        if trial % 2:
            costs = rng.uniform(0.0, 1.0, (rows, cols))
        else:
            costs = rng.integers(0, 3, (rows, cols)).astype(float)
        k = min(rows, cols)
        keep = rng.random(k) < rng.uniform(0.0, 1.0)
        r, c = rng.permutation(rows)[:k][keep], rng.permutation(cols)[:k][keep]
        forced = np.full((rows, cols), FORBIDDEN)
        forced[r, c] = costs[r, c]
        res = solve_assignment(forced)
        want = _full_result(forced)
        assert _fields(res) == want, forced
        assert np.float64(res.total_cost).tobytes() == np.float64(want[3]).tobytes()


@pytest.mark.parametrize("costs, matches", [
    (np.full((3, 4), FORBIDDEN), ()),
    (np.array([[FORBIDDEN, FORBIDDEN], [FORBIDDEN, 0.5]]), ((1, 1),)),  # empty row 0
    (np.array([[FORBIDDEN, 0.5], [0.25, FORBIDDEN], [FORBIDDEN, FORBIDDEN]]),
     ((0, 1), (1, 0))),  # empty row 2
    (np.array([[FORBIDDEN, 0.5, FORBIDDEN], [0.25, FORBIDDEN, FORBIDDEN]]),
     ((0, 1), (1, 0))),  # empty column 2
    (np.zeros((0, 4)), ()),
    (np.zeros((4, 0)), ()),
    (np.array([[0.75]]), ((0, 0),)),
    (np.array([[FORBIDDEN]]), ()),
])
def test_forced_edge_cases(costs, matches):
    res = solve_assignment(costs)
    assert _fields(res) == _full_result(costs)
    assert res.matches == matches


@pytest.mark.parametrize("costs", [
    np.array([[0.5, 0.25], [FORBIDDEN, FORBIDDEN]]),  # one row with two entries
    np.array([[0.5, FORBIDDEN], [0.25, FORBIDDEN]]),  # one column with two entries
])
def test_near_forced_matrices_are_solved(monkeypatch, costs):
    import reidmot.assign as assign

    solves = []
    solve = assign._solve
    monkeypatch.setattr(assign, "_solve", lambda *args: solves.append(1) or solve(*args))
    res = solve_assignment(costs)
    assert solves
    assert _fields(res) == _full_result(costs)


def test_forced_matrices_never_reach_the_solver(monkeypatch):
    import reidmot.assign as assign

    def refuse(costs, allowed):
        raise AssertionError("a forced matrix reached _solve")

    monkeypatch.setattr(assign, "_solve", refuse)
    rng = np.random.default_rng(5)
    costs = np.full((250, 240), FORBIDDEN)
    r, c = rng.permutation(250)[:230], rng.permutation(240)[:230]
    costs[r, c] = rng.uniform(0.0, 1.0, 230)
    res = solve_assignment(costs)
    assert res.matches == tuple(sorted(zip(r.tolist(), c.tolist())))
    assert len(res.unmatched_rows) == 20 and len(res.unmatched_cols) == 10
    with pytest.raises(AssertionError, match="reached _solve"):
        solve_assignment(np.ones((2, 2)))

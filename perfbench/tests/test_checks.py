"""Each output check rejects a planted bad result and accepts a good one."""

import numpy as np

import checks


def test_valid_schedule_passes_with_back_to_back_jobs():
    # job 1 starts exactly when job 0 frees the whole machine
    assert checks.schedule_problems(
        submit=[0.0, 0.0], start=[0.0, 5.0], runtime=[5.0, 1.0], size=[4, 4], capacity=4
    ) == []


def test_oversubscribed_schedule_is_rejected():
    found = checks.schedule_problems(
        submit=[0.0, 0.0], start=[0.0, 4.0], runtime=[5.0, 1.0], size=[4, 1], capacity=4
    )
    assert found == ["5 busy cores exceed capacity 4"]


def test_start_before_submit_is_rejected():
    found = checks.schedule_problems(
        submit=[3.0], start=[2.0], runtime=[1.0], size=[1], capacity=1
    )
    assert found == ["job 0 starts before it is submitted"]


def test_unstarted_job_is_rejected():
    found = checks.schedule_problems(
        submit=[0.0], start=[np.nan], runtime=[1.0], size=[1], capacity=1
    )
    assert found == ["1 job(s) never started"]


def test_capacity_is_per_leaf_when_partitioned():
    # 2 + 2 cores overlap: fine on separate 2-core leaves, not on one
    args = dict(submit=[0, 0], start=[0, 0], runtime=[1, 1], size=[2, 2], capacity=2)
    assert checks.schedule_problems(**args, leaf=np.array([0, 1])) == []
    assert checks.schedule_problems(**args, leaf=np.array([1, 1])) == [
        "4 busy cores on leaf 1 exceed capacity 2"
    ]


def test_scores_not_summing_to_one_fail_their_tuple():
    failed, problems = checks.train_problems(
        [np.array([0.5, 0.5]), np.array([0.5, 0.6])], [0.1, 0.2]
    )
    assert failed == 1
    assert problems[0].startswith("tuple 1:")


def test_unsorted_or_all_infinite_candidates_fail():
    assert checks.train_problems([np.array([1.0])], [0.2, 0.1])[0] == 1
    assert checks.train_problems([np.array([1.0])], [np.inf, np.inf])[0] == 2
    assert checks.train_problems([np.array([1.0])], [0.1, 0.2, np.inf]) == (0, [])


def test_table4_rejects_missing_rows_and_bad_medians():
    medians = {"a": {"X": 1.0, "Y": 2.5}, "b": {"X": 0.9, "Y": 2.0}}
    failed, problems = checks.table4_problems(medians, ["a", "b", "c"], ["X", "Y"])
    assert failed == 2
    assert problems == ["row b: bad medians for X", "row c missing"]


def _full_matrix(n_windows=2, policies=("P",), backfills=("none", "easy")):
    return [(w, p, b, 1.5) for w in range(n_windows) for p in policies for b in backfills]


def test_missing_cell_fails():
    cells = _full_matrix()[:-1]
    failed, problems = checks.matrix_problems(
        cells, n_windows=2, policies=("P",), backfills=("none", "easy"),
        n_cached=0, expected_cached=0,
    )
    assert (failed, problems) == (1, ["1 of 4 cells missing"])


def test_cell_below_one_fails_and_wrong_split_fails_all():
    cells = _full_matrix()
    cells[0] = (0, "P", "none", 0.5)
    kw = dict(n_windows=2, policies=("P",), backfills=("none", "easy"))
    assert checks.matrix_problems(cells, **kw, n_cached=0, expected_cached=0)[0] == 1
    assert checks.matrix_problems(_full_matrix(), **kw, n_cached=4, expected_cached=0)[0] == 4
    assert checks.matrix_problems(_full_matrix(), **kw, n_cached=0, expected_cached=0) == (0, [])

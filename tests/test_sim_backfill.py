"""Tests for the EASY aggressive-backfilling reference (tests/easy_reference.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easy_reference import easy_backfill, shadow_schedule


class TestShadowSchedule:
    def test_single_running_job(self):
        shadow, extra = shadow_schedule(
            now=0.0, free=1, head_size=4, running_end=[10.0], running_size=[3]
        )
        assert shadow == 10.0
        assert extra == 0

    def test_extra_cores(self):
        # head needs 2; when the size-3 job ends, 1+3=4 available -> extra 2
        shadow, extra = shadow_schedule(0.0, 1, 2, [10.0], [3])
        assert shadow == 10.0
        assert extra == 2

    def test_accumulates_until_enough(self):
        shadow, extra = shadow_schedule(
            0.0, 0, 4, running_end=[5.0, 10.0, 20.0], running_size=[2, 2, 2]
        )
        assert shadow == 10.0  # 2 at t=5, 4 at t=10
        assert extra == 0

    def test_past_expected_ends_clamped_to_now(self):
        """Overrunning jobs (estimate expired) count as ending now."""
        shadow, extra = shadow_schedule(100.0, 0, 2, [50.0], [4])
        assert shadow == 100.0
        assert extra == 2

    def test_head_fits_now_rejected(self):
        with pytest.raises(ValueError, match="head fits now"):
            shadow_schedule(0.0, 4, 4, [10.0], [1])

    def test_never_enough_cores_raises_value_error(self):
        # An unsatisfiable head is an input-validation failure, not an
        # internal invariant violation: it points at the missing
        # validate_for_machine call instead of dying mid-simulation.
        with pytest.raises(ValueError, match="can ever become free"):
            shadow_schedule(0.0, 0, 8, [10.0], [2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shadow_schedule(0.0, 0, 2, [10.0], [2, 3])


class TestEasyBackfill:
    def _scenario(self):
        """free=2, head needs 4; one running job (size 3) ends at t=10."""
        return dict(
            now=0.0,
            free=2,
            head_size=4,
            running_end=[10.0],
            running_size=[3],
        )

    def test_short_job_backfills(self):
        chosen = easy_backfill(
            candidates=[7], cand_size=[2], cand_proc=[5.0], **self._scenario()
        )
        assert chosen == [7]

    def test_long_wide_job_blocked(self):
        # ends after shadow (10) and needs 2 > extra (2+3-4 = 1)
        chosen = easy_backfill(
            candidates=[7], cand_size=[2], cand_proc=[50.0], **self._scenario()
        )
        assert chosen == []

    def test_long_narrow_job_uses_extra(self):
        # extra = 1, so a 1-core job may run past the shadow
        chosen = easy_backfill(
            candidates=[7], cand_size=[1], cand_proc=[50.0], **self._scenario()
        )
        assert chosen == [7]

    def test_extra_budget_consumed(self):
        # two 1-core long jobs: only the first fits in extra=1
        chosen = easy_backfill(
            candidates=[7, 8],
            cand_size=[1, 1],
            cand_proc=[50.0, 50.0],
            **self._scenario(),
        )
        assert chosen == [7]

    def test_short_jobs_do_not_consume_extra(self):
        # short jobs return cores before the shadow; both fit in free=2
        chosen = easy_backfill(
            candidates=[7, 8],
            cand_size=[1, 1],
            cand_proc=[5.0, 5.0],
            **self._scenario(),
        )
        assert chosen == [7, 8]

    def test_candidate_bigger_than_free_skipped(self):
        chosen = easy_backfill(
            candidates=[7, 8],
            cand_size=[3, 1],
            cand_proc=[1.0, 1.0],
            **self._scenario(),
        )
        assert chosen == [8]

    def test_exact_fit_at_shadow_boundary(self):
        # job ends exactly at the shadow time -> allowed
        chosen = easy_backfill(
            candidates=[7], cand_size=[2], cand_proc=[10.0], **self._scenario()
        )
        assert chosen == [7]

    def test_priority_order_respected(self):
        """Earlier candidates get first pick of the free cores."""
        chosen = easy_backfill(
            candidates=[5, 6, 7],
            cand_size=[2, 1, 1],
            cand_proc=[5.0, 5.0, 5.0],
            **self._scenario(),
        )
        assert chosen == [5]  # free=2 consumed; later 1-core jobs skipped

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_head_never_delayed(self, data):
        """Backfilled jobs leave >= head_size cores available at the shadow.

        This is THE safety property of EASY: the reservation made for the
        queue head is honoured no matter what gets backfilled.
        """
        nmax = data.draw(st.integers(4, 32))
        n_running = data.draw(st.integers(1, 6))
        running_size = [data.draw(st.integers(1, nmax // 2)) for _ in range(n_running)]
        while sum(running_size) > nmax:
            running_size.pop()
        if not running_size:
            running_size = [nmax]
        running_end = [data.draw(st.floats(1.0, 100.0)) for _ in running_size]
        free = nmax - sum(running_size)
        head_size = data.draw(st.integers(free + 1, nmax))
        n_cand = data.draw(st.integers(0, 8))
        cand = list(range(n_cand))
        cand_size = [data.draw(st.integers(1, nmax)) for _ in cand]
        cand_proc = [data.draw(st.floats(0.5, 200.0)) for _ in cand]

        shadow, _ = shadow_schedule(0.0, free, head_size, running_end, running_size)
        chosen = easy_backfill(
            0.0, free, head_size, cand, cand_size, cand_proc, running_end, running_size
        )

        # Cores available at the shadow instant after starting chosen jobs:
        avail = free
        for e, s in zip(running_end, running_size):
            if max(e, 0.0) <= shadow + 1e-9:
                avail += s
        for i in chosen:
            if 0.0 + cand_proc[i] > shadow + 1e-9:
                avail -= cand_size[i]  # still occupying cores at the shadow
        assert avail >= head_size

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chosen_fit_now(self, data):
        """The chosen set never exceeds the currently free cores."""
        nmax = 16
        running_size = [8]
        running_end = [50.0]
        free = nmax - 8
        head_size = data.draw(st.integers(free + 1, nmax))
        n_cand = data.draw(st.integers(1, 10))
        cand = list(range(n_cand))
        cand_size = [data.draw(st.integers(1, 8)) for _ in cand]
        cand_proc = [data.draw(st.floats(0.5, 200.0)) for _ in cand]
        chosen = easy_backfill(
            0.0, free, head_size, cand, cand_size, cand_proc, running_end, running_size
        )
        assert sum(cand_size[i] for i in chosen) <= free

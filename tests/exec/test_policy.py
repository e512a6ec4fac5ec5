"""Unit tests for the supervision policy (pure logic, no processes)."""

import random

import pytest

from repro.exec import SupervisionPolicy


class TestValidation:
    def test_defaults_are_valid(self):
        policy = SupervisionPolicy()
        assert policy.deadline_s == 120.0
        assert policy.max_retries == 2
        assert policy.max_task_kills == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"max_retries": -1},
            {"max_task_kills": 0},
            {"backoff_base_s": -0.1},
            {"backoff_base_s": 3.0, "backoff_cap_s": 2.0},
            {"backoff_jitter": 1.5},
            {"backoff_jitter": -0.1},
            {"memory_limit_mb": 0},
            {"poll_interval_s": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_none_disables_deadline_and_ceiling(self):
        policy = SupervisionPolicy(deadline_s=None, memory_limit_mb=None)
        assert policy.deadline_s is None
        assert policy.memory_limit_mb is None


class TestBackoff:
    def test_exponential_then_capped(self):
        policy = SupervisionPolicy(
            backoff_base_s=0.1, backoff_cap_s=1.0, backoff_jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.backoff_s(n, rng) for n in (1, 2, 3, 4, 5, 6)]
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert delays[4] == pytest.approx(1.0)  # capped
        assert delays[5] == pytest.approx(1.0)

    def test_jitter_is_bounded_and_seeded(self):
        policy = SupervisionPolicy(
            backoff_base_s=0.1, backoff_cap_s=1.0, backoff_jitter=0.5
        )
        a = [policy.backoff_s(2, random.Random(7)) for _ in range(5)]
        b = [policy.backoff_s(2, random.Random(7)) for _ in range(5)]
        assert a == b  # same seed -> same schedule
        for delay in a:
            assert 0.2 <= delay <= 0.2 * 1.5

    def test_zero_failures_rejected(self):
        with pytest.raises(ValueError):
            SupervisionPolicy().backoff_s(0, random.Random(0))


class TestRespawnBudget:
    def test_default_scales_with_jobs(self):
        policy = SupervisionPolicy()
        assert policy.respawn_budget(1) == 6
        assert policy.respawn_budget(4) == 12
        assert policy.respawn_budget(0) == 6  # clamped to one job

    def test_explicit_budget_wins(self):
        assert SupervisionPolicy(max_respawns=3).respawn_budget(16) == 3
        assert SupervisionPolicy(max_respawns=0).respawn_budget(4) == 0


class TestChaosField:
    def test_chaos_plan_does_not_break_construction(self):
        policy = SupervisionPolicy(chaos={"t1": ("hang",)})
        assert policy.chaos["t1"] == ("hang",)

    def test_policies_compare_by_value(self):
        assert SupervisionPolicy() == SupervisionPolicy()
        assert SupervisionPolicy(seed=1) != SupervisionPolicy(seed=2)


class TestProgressAndSpanKnobs:
    def test_progress_defaults_off_and_interval_validated(self):
        import pytest

        from repro.exec import SupervisionPolicy

        policy = SupervisionPolicy()
        assert policy.progress is None
        with pytest.raises(ValueError, match="progress_interval_s"):
            SupervisionPolicy(progress_interval_s=0.0)

    def test_progress_heartbeat_repaints_and_finishes_line(self):
        import io

        from repro.exec import SupervisionPolicy, Supervisor
        from repro.exec.task import TaskOutcome

        stream = io.StringIO()
        sup = Supervisor(
            jobs=2,
            policy=SupervisionPolicy(progress=stream,
                                     progress_interval_s=0.01),
        )
        outs = sup.run(lambda p: TaskOutcome(value=p * 2),
                       payloads=list(range(6)))
        assert [o.value for o in outs] == [0, 2, 4, 6, 8, 10]
        text = stream.getvalue()
        assert "\r[exec] " in text
        assert "6/6 tasks" in text
        assert text.endswith("\n")   # the final paint closes the line

"""Tests for the resilient campaign runner."""

import threading
import time

import pytest

from repro.runtime.errors import (
    CampaignError,
    ConfigError,
    SimulationError,
    UnitTimeout,
)
from repro.runtime.runner import (
    CampaignRunner,
    UnitResult,
    WorkUnit,
    call_with_timeout,
)


def make_runner(**kwargs):
    """A runner whose backoff sleeps are recorded, not slept."""
    slept = []
    kwargs.setdefault("sleep", slept.append)
    runner = CampaignRunner(**kwargs)
    return runner, slept


def ok_units(n, log=None):
    def make(i):
        def run():
            if log is not None:
                log.append(i)
            return i * 10
        return run
    return [WorkUnit(unit_id=f"u{i}", run=make(i)) for i in range(n)]


# ----------------------------------------------------------------------
# call_with_timeout
# ----------------------------------------------------------------------
def test_call_with_timeout_passes_value_through():
    assert call_with_timeout(lambda: 42, timeout=None) == 42
    assert call_with_timeout(lambda: 42, timeout=5.0) == 42


def test_call_with_timeout_reraises_exceptions():
    def boom():
        raise SimulationError("no")
    with pytest.raises(SimulationError):
        call_with_timeout(boom, timeout=5.0)


def test_call_with_timeout_expires():
    with pytest.raises(UnitTimeout):
        call_with_timeout(lambda: time.sleep(5), timeout=0.02)


# ----------------------------------------------------------------------
# Plain execution and accounting
# ----------------------------------------------------------------------
def test_run_all_ok():
    runner, slept = make_runner()
    report = runner.run(ok_units(4))
    counts = report.counts()
    assert counts == {"ok": 4, "degraded": 0, "quarantined": 0,
                      "total": 4, "executed": 4, "resumed": 0,
                      "retried": 0, "leaked": 0}
    assert report.value("u2") == 20
    assert report["u0"].status == "ok"
    assert not report.interrupted
    assert slept == []


def test_duplicate_unit_ids_rejected():
    runner, _ = make_runner()
    units = [WorkUnit(unit_id="same", run=lambda: 1),
             WorkUnit(unit_id="same", run=lambda: 2)]
    with pytest.raises(CampaignError):
        runner.run(units)


@pytest.mark.parametrize("field", ["unit_timeout", "fallback_timeout"])
@pytest.mark.parametrize("bad", [0, 0.0, -1, float("nan"), float("inf")])
def test_unusable_timeouts_rejected(field, bad):
    """A budget no unit can finish within would quarantine every unit
    (0, negative) or fail every attempt (NaN, inf): rejected up front."""
    with pytest.raises(ConfigError, match=field):
        CampaignRunner(**{field: bad})


def test_max_units_cutoff_marks_interrupted():
    log = []
    runner, _ = make_runner()
    report = runner.run(ok_units(5, log), max_units=2)
    assert report.interrupted
    assert log == [0, 1]
    assert report.counts()["executed"] == 2


# ----------------------------------------------------------------------
# Retry with exponential backoff
# ----------------------------------------------------------------------
def test_backoff_schedule_shape():
    runner = CampaignRunner(max_retries=5, backoff_base=0.1,
                            backoff_factor=2.0, backoff_max=0.5,
                            sleep=lambda _: None)
    assert runner.backoff_schedule() == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_transient_failure_retried_to_success():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise SimulationError("transient")
        return "fine"

    runner, slept = make_runner(max_retries=3, backoff_base=0.1,
                                backoff_factor=3.0, backoff_max=10.0)
    report = runner.run([WorkUnit(unit_id="flaky", run=flaky)])
    result = report["flaky"]
    assert result.status == "ok"
    assert result.value == "fine"
    assert result.attempts == 3
    assert slept == pytest.approx([0.1, 0.3])  # before attempts 2 and 3
    assert report.counts()["retried"] == 1


def test_poisoned_unit_quarantined_not_fatal():
    def boom():
        raise SimulationError("poisoned")

    log = []
    runner, slept = make_runner(max_retries=2, backoff_base=0.05,
                                backoff_factor=2.0, backoff_max=2.0)
    units = [WorkUnit(unit_id="bad", run=boom)] + ok_units(2, log)
    report = runner.run(units)
    bad = report["bad"]
    assert bad.status == "quarantined"
    assert bad.attempts == 3
    assert bad.value is None
    assert "poisoned" in bad.error
    assert slept == [0.05, 0.1]          # full backoff schedule consumed
    assert log == [0, 1]                 # later units still ran
    assert report.counts()["quarantined"] == 1
    assert report.counts()["ok"] == 2


def test_unexpected_exception_also_quarantined():
    def boom():
        raise KeyError("not a ReproError")

    runner, _ = make_runner(max_retries=0)
    report = runner.run([WorkUnit(unit_id="bad", run=boom)])
    assert report["bad"].status == "quarantined"
    assert "KeyError" in report["bad"].error


# ----------------------------------------------------------------------
# Timeout → graceful degradation
# ----------------------------------------------------------------------
def test_timeout_falls_back_to_degraded():
    runner, _ = make_runner(unit_timeout=0.02, max_retries=1)
    unit = WorkUnit(unit_id="slow", run=lambda: time.sleep(5),
                    fallback=lambda: "behavioural")
    report = runner.run([unit])
    result = report["slow"]
    assert result.status == "degraded"
    assert result.value == "behavioural"
    assert result.timeouts == 2          # both gate-level attempts timed out
    assert "UnitTimeout" in result.error
    assert report.counts()["degraded"] == 1


def test_failure_without_timeout_does_not_degrade():
    """The fallback is a timeout escape hatch, not an error handler."""
    def boom():
        raise SimulationError("broken, not slow")

    runner, _ = make_runner(max_retries=1)
    unit = WorkUnit(unit_id="bad", run=boom, fallback=lambda: "nope")
    report = runner.run([unit])
    assert report["bad"].status == "quarantined"


def test_failing_fallback_quarantines():
    def slow():
        time.sleep(5)

    def bad_fallback():
        raise SimulationError("fallback broken too")

    runner, _ = make_runner(unit_timeout=0.02, max_retries=0)
    report = runner.run([WorkUnit(unit_id="u", run=slow,
                                  fallback=bad_fallback)])
    assert report["u"].status == "quarantined"
    assert "fallback broken" in report["u"].error


def test_timeout_without_fallback_quarantines():
    runner, _ = make_runner(unit_timeout=0.02, max_retries=0)
    report = runner.run([WorkUnit(unit_id="u", run=lambda: time.sleep(5))])
    assert report["u"].status == "quarantined"
    assert report["u"].timeouts == 1


# ----------------------------------------------------------------------
# Checkpointing and resume
# ----------------------------------------------------------------------
def test_kill_and_resume_executes_nothing_twice(tmp_path):
    path = str(tmp_path / "run.jsonl")
    fingerprint = {"kind": "unit-test", "n": 5}
    log = []

    runner, _ = make_runner(checkpoint=path)
    first = runner.run(ok_units(5, log), fingerprint=fingerprint,
                       max_units=3)
    assert first.interrupted
    assert log == [0, 1, 2]

    runner2, _ = make_runner(checkpoint=path)
    second = runner2.run(ok_units(5, log), fingerprint=fingerprint,
                         resume=True)
    assert not second.interrupted
    assert log == [0, 1, 2, 3, 4]       # units 0-2 never re-ran
    counts = second.counts()
    assert counts["resumed"] == 3
    assert counts["executed"] == 2
    assert [second.value(f"u{i}") for i in range(5)] == [0, 10, 20, 30, 40]

    # A third resume of the complete campaign executes nothing at all.
    runner3, _ = make_runner(checkpoint=path)
    third = runner3.run(ok_units(5, log), fingerprint=fingerprint,
                        resume=True)
    assert log == [0, 1, 2, 3, 4]
    assert third.counts()["executed"] == 0
    assert third.counts()["resumed"] == 5


def test_resume_fingerprint_mismatch_rejected(tmp_path):
    path = str(tmp_path / "run.jsonl")
    runner, _ = make_runner(checkpoint=path)
    runner.run(ok_units(2), fingerprint={"n": 2})
    runner2, _ = make_runner(checkpoint=path)
    with pytest.raises(CampaignError):
        runner2.run(ok_units(3), fingerprint={"n": 3}, resume=True)


def test_resume_without_existing_checkpoint_starts_fresh(tmp_path):
    path = str(tmp_path / "new.jsonl")
    runner, _ = make_runner(checkpoint=path)
    report = runner.run(ok_units(2), fingerprint={"n": 2}, resume=True)
    assert report.counts() == {"ok": 2, "degraded": 0, "quarantined": 0,
                               "total": 2, "executed": 2, "resumed": 0,
                               "retried": 0, "leaked": 0}


def test_run_without_resume_restarts_campaign(tmp_path):
    path = str(tmp_path / "run.jsonl")
    log = []
    runner, _ = make_runner(checkpoint=path)
    runner.run(ok_units(3, log), fingerprint={"n": 3})
    runner2, _ = make_runner(checkpoint=path)
    runner2.run(ok_units(3, log), fingerprint={"n": 3})  # resume not given
    assert log == [0, 1, 2, 0, 1, 2]


def test_quarantined_units_resume_without_retry(tmp_path):
    path = str(tmp_path / "run.jsonl")
    calls = []

    def boom():
        calls.append(1)
        raise SimulationError("still poisoned")

    units = [WorkUnit(unit_id="bad", run=boom)]
    runner, _ = make_runner(checkpoint=path, max_retries=0)
    runner.run(units, fingerprint={})
    assert len(calls) == 1

    runner2, _ = make_runner(checkpoint=path, max_retries=0)
    report = runner2.run(units, fingerprint={}, resume=True)
    assert len(calls) == 1               # not retried by default
    assert report["bad"].status == "quarantined"
    assert report["bad"].resumed

    runner3, _ = make_runner(checkpoint=path, max_retries=0)
    report = runner3.run(units, fingerprint={}, resume=True,
                         retry_quarantined=True)
    assert len(calls) == 2               # explicitly retried
    assert not report["bad"].resumed


def test_degraded_status_survives_resume(tmp_path):
    path = str(tmp_path / "run.jsonl")
    runner, _ = make_runner(checkpoint=path, unit_timeout=0.02,
                            max_retries=0)
    units = [WorkUnit(unit_id="slow", run=lambda: time.sleep(5),
                      fallback=lambda: "cheap")]
    runner.run(units, fingerprint={})

    runner2, _ = make_runner(checkpoint=path)
    report = runner2.run(units, fingerprint={}, resume=True)
    result = report["slow"]
    assert result.resumed
    assert result.status == "degraded"
    assert result.value == "cheap"
    assert report.counts()["degraded"] == 1


def test_summary_line_mentions_every_status():
    report_ok = CampaignRunner(sleep=lambda _: None).run(ok_units(2))
    text = report_ok.summary()
    assert "2 units" in text and "2 ok" in text
    report_ok.interrupted = True
    assert "[interrupted]" in report_ok.summary()


def test_unit_result_record_roundtrip():
    original = UnitResult(unit_id="u", status="degraded", value=[1, 2],
                          attempts=3, timeouts=2, error="UnitTimeout: x",
                          elapsed=1.25)
    restored = UnitResult.from_record(original.record())
    assert restored.unit_id == "u"
    assert restored.status == "degraded"
    assert restored.value == [1, 2]
    assert restored.attempts == 3
    assert restored.timeouts == 2
    assert restored.resumed


# ----------------------------------------------------------------------
# Leaked-thread accounting and state isolation
# ----------------------------------------------------------------------
def test_timeout_attaches_zombie_thread():
    release = threading.Event()
    try:
        with pytest.raises(UnitTimeout) as info:
            call_with_timeout(release.wait, timeout=0.02)
        thread = info.value.thread
        assert thread.daemon
        assert thread.is_alive()
    finally:
        release.set()


def test_timed_out_unit_records_leaked_threads():
    release = threading.Event()
    try:
        runner, _ = make_runner(unit_timeout=0.02, max_retries=1)
        report = runner.run([WorkUnit(unit_id="hang", run=release.wait)])
        result = report["hang"]
        assert result.status == "quarantined"
        assert result.timeouts == 2
        assert result.leaked_threads == 2     # one zombie per attempt
        assert runner.leaked_thread_count() == 2
    finally:
        release.set()
    for _ in range(100):                      # zombies die once released
        if runner.leaked_thread_count() == 0:
            break
        time.sleep(0.01)
    assert runner.leaked_thread_count() == 0


def test_fast_unit_leaks_nothing():
    runner, _ = make_runner(unit_timeout=5.0)
    report = runner.run(ok_units(3))
    assert all(r.leaked_threads == 0 for r in report.results.values())
    assert runner.leaked_thread_count() == 0


def test_leaked_threads_survive_checkpoint_roundtrip(tmp_path):
    release = threading.Event()
    path = str(tmp_path / "run.jsonl")
    try:
        runner, _ = make_runner(checkpoint=path, unit_timeout=0.02,
                                max_retries=0)
        runner.run([WorkUnit(unit_id="hang", run=release.wait,
                             fallback=lambda: "cheap")])
    finally:
        release.set()
    runner2, _ = make_runner(checkpoint=path)
    report = runner2.run([WorkUnit(unit_id="hang", run=lambda: 1)],
                         resume=True)
    assert report["hang"].resumed
    assert report["hang"].leaked_threads >= 1


def test_reset_hook_called_per_timeout_before_next_attempt():
    release = threading.Event()
    events = []
    try:
        runner, _ = make_runner(unit_timeout=0.02, max_retries=1)
        unit = WorkUnit(
            unit_id="hang",
            run=lambda: (events.append("attempt"), release.wait())[1],
            fallback=lambda: events.append("fallback") or "ok",
            reset=lambda: events.append("reset"),
        )
        report = runner.run([unit])
    finally:
        release.set()
    assert report["hang"].status == "degraded"
    # Shared state is restored after every timed-out attempt, before
    # the next attempt (or the fallback) can observe it.
    assert events == ["attempt", "reset", "attempt", "reset", "fallback"]


def test_reset_hook_failure_is_swallowed():
    release = threading.Event()
    try:
        runner, _ = make_runner(unit_timeout=0.02, max_retries=0)
        unit = WorkUnit(
            unit_id="hang", run=release.wait,
            fallback=lambda: "cheap",
            reset=lambda: (_ for _ in ()).throw(RuntimeError("reset boom")),
        )
        report = runner.run([unit])
    finally:
        release.set()
    assert report["hang"].status == "degraded"
    assert report["hang"].value == "cheap"


def test_reset_not_called_on_clean_units():
    calls = []
    runner, _ = make_runner(unit_timeout=5.0)
    units = [WorkUnit(unit_id="ok", run=lambda: 1,
                      reset=lambda: calls.append("reset"))]
    report = runner.run(units)
    assert report["ok"].status == "ok"
    assert calls == []

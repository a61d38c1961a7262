"""Regression pins for the leaks the lifecycle analysis surfaced.

The VIA501/VIA502 audit over the serve pool and the eval supervisor
found three spawn-failure paths that stranded pipe file descriptors.
Both pools now spawn through one path — :class:`repro.pool._WorkerHandle`
inside :class:`repro.pool.SupervisedPool` — and each fix is pinned there:

* ``SupervisedPool._spawn`` used to close its pipe ends only on
  ``OSError`` — any other exception out of ``Process(...)``/``start()``
  leaked both;
* ``_WorkerHandle.__init__`` had no guard at all around process
  construction;
* pool start-up built its workers in a list comprehension, so a failure
  on the Nth spawn left the N-1 live workers unreachable by the teardown.

Each test drives the real production code through the failing path with
real pipes and scripted processes, and asserts every descriptor ends up
closed.  Leaked fds compound: under fd exhaustion (the very condition
that makes spawns fail) a leak per retry turns a transient stall into a
permanent one — which is why an ``OSError`` spawn failure backs off and
respawns instead of failing the sweep.
"""

import multiprocessing as mp

import pytest

from repro.eval import RunnerConfig, run_units, spmv_units
from repro.matrices import small_collection
from repro.pool import SupervisedPool, _WorkerHandle


def _echo(request):
    return "ok", request


def _pool(workers=1):
    return SupervisedPool(
        _echo, workers=workers, retries=0, backoff_s=0.0, retry_timeouts=False
    )


class _InertProc:
    """A process double: records lifecycle calls, runs nothing."""

    def __init__(self):
        self.started = False
        self.reaped = False

    def start(self):
        self.started = True

    def kill(self):
        self.reaped = True

    def terminate(self):
        self.reaped = True

    def join(self, timeout=None):
        self.reaped = True

    def is_alive(self):
        return False


class _FailsOnStart(_InertProc):
    def start(self):
        raise RuntimeError("start refused")


class _RecordingCtx:
    """Real pipes, scripted process construction.

    ``outcomes`` is consumed one entry per ``Process(...)`` call: an
    exception instance is raised from the constructor, the string
    ``"start-fail"`` yields a process whose ``start()`` raises, and
    ``"ok"`` yields an inert process.
    """

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.pipes = []
        self.procs = []

    def Pipe(self, duplex=True):
        pair = mp.get_context("spawn").Pipe(duplex)
        self.pipes.append(pair)
        return pair

    def Process(self, *args, **kwargs):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        proc = _FailsOnStart() if outcome == "start-fail" else _InertProc()
        self.procs.append(proc)
        return proc

    def all_pipe_ends_closed(self):
        return all(conn.closed for pair in self.pipes for conn in pair)


class TestPoolSpawn:
    def test_non_oserror_from_start_closes_both_pipe_ends(self):
        pool = _pool()
        pool._ctx = _RecordingCtx(["start-fail"])
        with pytest.raises(RuntimeError):
            pool._spawn(0)
        assert pool._ctx.all_pipe_ends_closed()

    def test_non_oserror_from_process_ctor_closes_both_pipe_ends(self):
        pool = _pool()
        pool._ctx = _RecordingCtx([RuntimeError("unpicklable target")])
        with pytest.raises(RuntimeError):
            pool._spawn(0)
        assert pool._ctx.all_pipe_ends_closed()

    def test_oserror_still_backs_off_and_closes_pipes(self):
        pool = _pool()
        pool._ctx = _RecordingCtx([OSError(24, "too many open files")])
        pool._spawn(0)  # retryable: schedules a respawn, does not raise
        assert pool._ctx.all_pipe_ends_closed()
        assert pool._workers[0] is None
        assert 0 in pool._respawn_at


class TestWorkerHandleSpawn:
    def test_failed_process_ctor_closes_both_pipe_ends(self):
        ctx = _RecordingCtx([RuntimeError("spawn refused")])
        with pytest.raises(RuntimeError):
            _WorkerHandle(ctx, 0, ())
        assert ctx.all_pipe_ends_closed()

    def test_failed_start_closes_both_pipe_ends(self):
        ctx = _RecordingCtx(["start-fail"])
        with pytest.raises(RuntimeError):
            _WorkerHandle(ctx, 0, ())
        assert ctx.all_pipe_ends_closed()

    def test_successful_spawn_keeps_only_the_parent_end(self):
        ctx = _RecordingCtx(["ok"])
        handle = _WorkerHandle(ctx, 0, ())
        ((parent, child),) = ctx.pipes
        assert not parent.closed and child.closed
        handle.kill()
        assert ctx.all_pipe_ends_closed()


class TestSupervisorPartialPool:
    def test_nth_spawn_failure_reaps_the_live_workers(self):
        pool = _pool(workers=3)
        ctx = _RecordingCtx(["ok", "ok", RuntimeError("third spawn fails")])
        pool._ctx = ctx
        with pytest.raises(RuntimeError):
            pool.start()
        assert pool._workers == {}
        assert pool._wake_r is None and pool._wake_w is None
        assert ctx.all_pipe_ends_closed()
        assert all(proc.reaped for proc in ctx.procs)


class _FirstSpawnFails:
    """The real start context, except the first ``Process()`` hits EMFILE."""

    def __init__(self, real):
        self.real = real
        self.failed = False

    def Pipe(self, duplex=True):
        return self.real.Pipe(duplex)

    def Process(self, *args, **kwargs):
        if not self.failed:
            self.failed = True
            raise OSError(24, "too many open files")
        return self.real.Process(*args, **kwargs)


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork workers"
)
class TestSweepSpawnBackoff:
    def test_emfile_on_first_spawn_backs_off_and_completes_bit_identically(
        self, monkeypatch
    ):
        units = spmv_units(small_collection(3, seed=41, max_n=128), formats=("csr",))
        inline = run_units(units)
        ctx = _FirstSpawnFails(mp.get_context("fork"))
        monkeypatch.setattr(mp, "get_context", lambda method=None: ctx)
        supervised = run_units(units, RunnerConfig(workers=2))
        assert ctx.failed
        assert supervised.counters.units_failed == 0
        assert [r.to_dict() for r in supervised.records] == [
            r.to_dict() for r in inline.records
        ]

"""Chaos suite: the serving stack under deterministic fault injection.

Unit level: the :class:`~repro.chaos.ChaosConfig` plan grammar and
its token-claim protocol (each rule fires exactly ``times`` times across
every worker process, bounded by ``O_CREAT | O_EXCL`` token files).

End-to-end level, against a real ``python -m repro.serve serve``
process booted with ``--chaos``:

* **mid-load murder** — workers crash, stall, and garble replies while
  32 concurrent clients drive mixed load: zero lost responses, every
  job terminal, and every result **bit-identical** to the same job on
  an undisturbed server;
* **hang** — a wedged worker is SIGKILLed by the per-job timeout and
  the slot respawns (the next job succeeds);
* **poison** — a job spec that reliably kills workers trips the
  circuit breaker (``poison_job``), later identical submissions fail
  fast, and the pool keeps serving other work.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.chaos import ChaosConfig
from repro.errors import ServeError
from repro.serve.client import ServeClient
from tests.test_serve_e2e import _spawn_server, _stop


# ----------------------------------------------------------------------
# plan grammar + token protocol
# ----------------------------------------------------------------------
class TestChaosConfig:
    def test_parse_full_grammar(self):
        cfg = ChaosConfig.parse(
            "crash:kind=replay:times=2;hang:delay=60;slow_start:delay=1.5"
        )
        crash, hang, slow = cfg.rules
        assert (crash.fault, crash.kind, crash.times) == ("crash", "replay", 2)
        assert (hang.fault, hang.delay_s) == ("hang", 60.0)
        assert (slow.fault, slow.delay_s) == ("slow_start", 1.5)
        assert cfg.budget() == 4

    def test_parse_defaults(self):
        cfg = ChaosConfig.parse("hang;slow_start")
        assert cfg.rules[0].delay_s == 3600.0  # effectively forever
        assert cfg.rules[1].delay_s == 0.5
        assert all(r.times == 1 and r.kind == "*" for r in cfg.rules)

    @pytest.mark.parametrize(
        "spec",
        [
            "teleport",            # unknown fault
            "crash:times=zero",    # non-int budget
            "hang:delay=soon",     # non-float delay
            "crash:times=0",       # budget must be >= 1
            "crash:color=red",     # unknown field
            "crash:times",         # not key=value
            ";;",                  # no rules at all
        ],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ServeError) as info:
            ChaosConfig.parse(spec)
        assert info.value.code == "bad_chaos_spec"

    def test_from_env(self):
        assert ChaosConfig.from_env({}) is None
        cfg = ChaosConfig.from_env(
            {"REPRO_SERVE_CHAOS": "crash:times=3",
             "REPRO_SERVE_CHAOS_DIR": "/tmp/chaos-state"}
        )
        assert cfg.rules[0].times == 3
        assert cfg.state_dir == "/tmp/chaos-state"

    def test_claims_are_bounded_by_the_token_budget(self, tmp_path):
        cfg = ChaosConfig.parse("crash:times=2", str(tmp_path))
        assert cfg.job_fault("simulate") is not None
        assert cfg.job_fault("simulate") is not None
        assert cfg.job_fault("simulate") is None  # budget spent
        assert cfg.tokens_claimed() == 2
        # tokens persist: a "new worker process" (fresh object, same
        # directory) sees the plan already consumed
        again = ChaosConfig.parse("crash:times=2", str(tmp_path))
        assert again.job_fault("simulate") is None

    def test_kind_filter(self, tmp_path):
        cfg = ChaosConfig.parse("crash:kind=replay:times=5", str(tmp_path))
        assert cfg.job_fault("simulate") is None
        assert cfg.job_fault("replay") is not None

    def test_no_state_dir_fails_closed(self):
        cfg = ChaosConfig.parse("crash:times=5")
        assert cfg.state_dir is None
        assert cfg.job_fault("simulate") is None
        assert cfg.start_fault() is None

    def test_start_fault_only_claims_slow_start(self, tmp_path):
        cfg = ChaosConfig.parse(
            "crash:times=1;slow_start:times=1:delay=0.1", str(tmp_path)
        )
        rule = cfg.start_fault()
        assert rule is not None and rule.fault == "slow_start"
        assert cfg.start_fault() is None  # budget spent
        # the crash budget is untouched by bootstrap claims
        assert cfg.job_fault("simulate").fault == "crash"


# ----------------------------------------------------------------------
# end-to-end, against a real server under --chaos
# ----------------------------------------------------------------------
def _simulate_specs():
    """Eight distinct simulate specs — the shared chaos/baseline load."""
    return [
        {
            "kind": "simulate",
            "kernel": "spma",
            "count": 1,
            "max_n": 96,
            "seed": 100 + (i % 4),
            "ports": 1 + (i % 4),
        }
        for i in range(8)
    ]


class TestChaosEndToEnd:
    def test_mid_load_faults_zero_lost_bit_identical(self, tmp_path):
        """The headline chaos test: crash, stall, and garble workers
        while 32 clients drive load — nothing lost, nothing different."""
        specs = _simulate_specs()

        baseline_proc, baseline_addr = _spawn_server(tmp_path, name="calm")
        try:
            with ServeClient(**baseline_addr, timeout_s=120) as client:
                baseline = [
                    client.submit(spec, wait=True, wait_timeout_s=120)["result"]
                    for spec in specs
                ]
        finally:
            _stop(baseline_proc)

        chaos_proc, chaos_addr = _spawn_server(
            tmp_path,
            "--max-queue", "128",
            "--chaos", "crash:times=3;corrupt:times=2;hang:times=2:delay=2",
            name="chaos",
        )
        try:
            def one(i):
                spec = specs[i % len(specs)]
                with ServeClient(**chaos_addr, timeout_s=120) as client:
                    job = client.submit(spec)
                    done = client.result(job["job_id"], timeout_s=120)
                return i, done["state"], done.get("result")

            with ThreadPoolExecutor(max_workers=32) as pool:
                results = list(pool.map(one, range(32)))

            assert len(results) == 32  # zero lost responses
            for i, state, result in results:
                assert state == "done", (i, state)
                # bit-identical numbers vs the undisturbed server, fault
                # or not ("counters" is runtime bookkeeping — duplicate
                # specs hit the result cache here — so it is excluded)
                calm = baseline[i % len(specs)]
                assert result["records"] == calm["records"], i
                assert result["geomean_speedup"] == calm["geomean_speedup"], i

            with ServeClient(**chaos_addr) as client:
                snap = client.metrics()
            # the faults really fired: workers were replaced and their
            # jobs retried, yet nothing above noticed
            assert snap["pool_worker_restarts"] >= 3
            assert snap["pool_retries"] >= 3
            assert snap["pool_corrupt_replies"] >= 1
        finally:
            _stop(chaos_proc)

    def test_hung_worker_is_killed_and_slot_respawns(self, tmp_path):
        proc, addr = _spawn_server(
            tmp_path,
            "--workers", "1",
            "--chaos", "hang:kind=sleep:delay=60",
            name="hang",
        )
        try:
            with ServeClient(**addr, timeout_s=60) as client:
                wedged = client.submit(
                    {"kind": "sleep", "duration_s": 0.05, "timeout_s": 2.0},
                    wait=True, wait_timeout_s=60,
                )
                assert wedged["state"] == "failed"
                assert wedged["error"]["code"] == "timeout"

                # the killed slot respawned: the next job sails through
                ok = client.submit(
                    {"kind": "sleep", "duration_s": 0.05},
                    wait=True, wait_timeout_s=60,
                )
                assert ok["state"] == "done"
                snap = client.metrics()
                assert snap["pool_timeout_kills"] >= 1
        finally:
            _stop(proc)

    def test_poison_job_trips_the_breaker_and_pool_survives(self, tmp_path):
        proc, addr = _spawn_server(
            tmp_path,
            "--workers", "1",
            "--pool-retries", "5",
            "--poison-threshold", "2",
            "--chaos", "crash:kind=sleep:times=99",
            name="poison",
        )
        try:
            with ServeClient(**addr, timeout_s=60) as client:
                poison = client.submit(
                    {"kind": "sleep", "duration_s": 0.05},
                    wait=True, wait_timeout_s=60,
                )
                assert poison["state"] == "failed"
                assert poison["error"]["code"] == "poison_job"

                # identical spec: refused at submit time by the breaker
                again = client.submit(
                    {"kind": "sleep", "duration_s": 0.05},
                    wait=True, wait_timeout_s=60,
                )
                assert again["state"] == "failed"
                assert again["error"]["code"] == "poison_job"

                # the chaos rule filters on kind=sleep: other work is
                # untouched and the pool is still healthy
                ok = client.submit(
                    {"kind": "report"}, wait=True, wait_timeout_s=60
                )
                assert ok["state"] == "done"

                snap = client.metrics()
                assert snap["pool_poison_jobs"] >= 2
                stats = client.stats()
                assert stats["pool"]["quarantined_keys"]
        finally:
            _stop(proc)


def test_crash_exit_code_is_visible_in_chaos_module():
    # pinned so supervisor logs/health dumps stay greppable
    from repro.chaos import CHAOS_CRASH_EXIT

    assert CHAOS_CRASH_EXIT == 23
    assert os.WEXITSTATUS(CHAOS_CRASH_EXIT << 8) == 23

"""Job-spec validation, batching keys, and the structured error mapping.

The serving layer's contract is that *every* rejection and failure is a
structured payload — so the spec validator must catch malformed requests
with ``bad_request``, and :func:`repro.serve.jobs.error_payload` must map
the whole exception surface (admission shedding, cancellation, the eval
layer's ``SweepError``/``SweepInterrupted``, timeouts) onto stable codes.
"""

import asyncio

import pytest

from repro.errors import (
    AdmissionError,
    ConfigError,
    FormatError,
    JobCancelled,
    ReproError,
    ServeError,
    SweepError,
    SweepInterrupted,
)
from repro.serve.jobs import (
    Job,
    JobSpec,
    JobState,
    error_payload,
    expand_sweep,
)


class TestJobSpecValidation:
    def test_minimal_simulate_spec(self):
        spec = JobSpec.from_payload({"kind": "simulate"})
        assert spec.kernel == "spmv"
        assert spec.formats == ("csr",)
        assert spec.priority == 0

    def test_lists_coerce_to_tuples(self):
        spec = JobSpec.from_payload(
            {"kind": "sweep", "port_sweep": [1, 2, 4], "formats": ["csr", "csb"]}
        )
        assert spec.port_sweep == (1, 2, 4)
        assert spec.formats == ("csr", "csb")

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"kind": "teleport"}, "unknown job kind"),
            ({"kind": "simulate", "kernel": "gemm"}, "unknown kernel"),
            ({"kind": "simulate", "count": 0}, "count"),
            ({"kind": "simulate", "count": 10_000}, "count"),
            ({"kind": "simulate", "min_n": 512, "max_n": 64}, "min_n"),
            ({"kind": "simulate", "formats": ["bogus"]}, "formats"),
            ({"kind": "simulate", "formats": []}, "formats"),
            ({"kind": "simulate", "sram_kb": 0}, "sram_kb"),
            ({"kind": "sweep"}, "port_sweep"),
            ({"kind": "sweep", "port_sweep": [0]}, "positive"),
            ({"kind": "sweep", "port_sweep": list(range(1, 40))}, "capped"),
            ({"kind": "sleep", "duration_s": -1}, "duration_s"),
            ({"kind": "simulate", "deadline_s": 0}, "deadline_s"),
            ({"kind": "simulate", "timeout_s": -2}, "timeout_s"),
            ({"kind": "simulate", "prioritty": 3}, "unknown job spec field"),
            ({}, "kind"),
            ("not-a-dict", "must be an object"),
            # the retired replay-engine knob is just another unknown field
            ({"kind": "replay", "engine": "columnar"}, "unknown job spec field"),
        ],
    )
    def test_bad_specs_raise_bad_request(self, payload, fragment):
        with pytest.raises(ServeError) as info:
            JobSpec.from_payload(payload)
        assert info.value.code == "bad_request"
        assert fragment in str(info.value)

    def test_payload_round_trip(self):
        spec = JobSpec.from_payload(
            {"kind": "replay", "kernel": "spma", "count": 3, "priority": 5}
        )
        assert JobSpec.from_payload(spec.to_payload()) == spec


class TestBatchKeys:
    def test_replay_key_ignores_ports(self):
        a = JobSpec(kind="replay", kernel="spma", ports=2)
        b = JobSpec(kind="replay", kernel="spma", ports=8)
        assert a.batch_key() == b.batch_key()

    def test_sweep_and_replay_share_a_family(self):
        sweep = JobSpec(kind="sweep", kernel="spma", port_sweep=(1, 2))
        replay = JobSpec(kind="replay", kernel="spma")
        assert sweep.batch_key() == replay.batch_key()

    def test_simulate_key_depends_on_ports(self):
        a = JobSpec(kind="simulate", ports=2)
        b = JobSpec(kind="simulate", ports=4)
        assert a.batch_key() != b.batch_key()

    def test_capacity_always_splits_batches(self):
        a = JobSpec(kind="replay", sram_kb=4)
        b = JobSpec(kind="replay", sram_kb=16)
        assert a.batch_key() != b.batch_key()

    def test_different_workloads_never_share(self):
        a = JobSpec(kind="replay", kernel="spma", seed=1)
        b = JobSpec(kind="replay", kernel="spma", seed=2)
        c = JobSpec(kind="replay", kernel="spmm", seed=1)
        assert len({a.batch_key(), b.batch_key(), c.batch_key()}) == 3

    def test_expand_sweep_preserves_priority_and_order(self):
        spec = JobSpec(kind="sweep", kernel="spma", port_sweep=(1, 4, 2),
                       priority=7)
        subs = expand_sweep(spec)
        assert [s.ports for s in subs] == [1, 4, 2]
        assert all(s.kind == "replay" and s.priority == 7 for s in subs)


class TestJobEnvelope:
    def test_ids_are_unique_and_states_start_pending(self):
        jobs = [Job(spec=JobSpec(kind="report")) for _ in range(10)]
        assert len({j.job_id for j in jobs}) == 10
        assert all(j.state is JobState.PENDING and not j.terminal for j in jobs)

    def test_deadline_check(self):
        job = Job(spec=JobSpec(kind="report", deadline_s=10.0))
        assert not job.deadline_exceeded(now=job.submitted_at + 9.0)
        assert job.deadline_exceeded(now=job.submitted_at + 11.0)
        no_deadline = Job(spec=JobSpec(kind="report"))
        assert not no_deadline.deadline_exceeded(now=1e12)

    def test_payload_includes_error_and_result(self):
        job = Job(spec=JobSpec(kind="report"))
        job.state = JobState.FAILED
        job.error = {"code": "timeout", "reason": "too slow"}
        payload = job.to_payload()
        assert payload["state"] == "failed"
        assert payload["error"]["code"] == "timeout"


class TestErrorMapping:
    """The satellite: SweepInterrupted/SweepError → structured payloads."""

    @pytest.mark.parametrize(
        "exc, code, has_retry",
        [
            (AdmissionError("full", code="queue_full", retry_after_s=0.25),
             "queue_full", True),
            (AdmissionError("bye", code="draining"), "draining", False),
            (JobCancelled("stop"), "cancelled", False),
            (JobCancelled("drained", code="drained"), "drained", False),
            (ServeError("no such job", code="not_found"), "not_found", False),
            (ServeError("slow", code="timeout", retry_after_s=1.0),
             "timeout", True),
            (SweepInterrupted("SIGTERM mid-sweep"), "interrupted", True),
            (SweepError("unit exploded"), "sweep_error", False),
            (ConfigError("sram_kb must be positive"), "bad_request", False),
            (FormatError("row_ptr not monotone"), "bad_request", False),
            (TimeoutError("wait_for"), "timeout", True),
            (asyncio.TimeoutError(), "timeout", True),
            (ReproError("generic library failure"), "repro_error", False),
            (RuntimeError("programming error"), "internal", False),
        ],
    )
    def test_exception_to_code(self, exc, code, has_retry):
        payload = error_payload(exc)
        assert payload["code"] == code
        assert payload["reason"]  # never empty
        assert ("retry_after_s" in payload) == has_retry

    def test_interrupted_is_marked_retryable(self):
        # the runner's SIGINT/SIGTERM flush means the work is resumable:
        # clients must be told to retry, not to give up
        payload = error_payload(SweepInterrupted("interrupted"))
        assert payload["retry_after_s"] > 0

    def test_sweep_error_is_permanent(self):
        # deterministic kernel failures repeat on retry; no retry hint
        assert "retry_after_s" not in error_payload(SweepError("boom"))

    def test_reason_falls_back_to_type_name(self):
        assert error_payload(RuntimeError())["reason"] == "RuntimeError"

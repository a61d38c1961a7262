"""Differential harness pinning the columnar engine to the scalar reference.

Production replay prices through the columnar engine
(:mod:`repro.sim.columnar`), which promises *bit-identical* results to
walking ``Op.apply`` one op at a time — not approximately equal,
identical down to the last float bit (DESIGN.md Section 9).  This suite
enforces that contract over the same matrix as
``test_ops_replay_differential.py``: every kernel family and SpMV format,
the four Fig. 9 DSE configurations, cross-machine (memory-pass) replays,
disk round-trips, the capacity-invariant SpMA/SpMM shared-baseline path,
and the end-to-end Fig. 9 DSE.  Each case compares three ways — direct
execution, the scalar reference (``tests/scalar_reference.py``), and
production replay — all under ``validate=True`` so the invariant checks
ride along and must never trip or perturb a bit.  Whole-pipeline cases
take their scalar side from per-op narration (batch-incapable backends).

Also pins what makes the integer-arithmetic contract hold: configs with
a non-integral cache or DRAM latency are refused when they are built, and
the cross-machine memo keeps one entry per machine.
"""

import dataclasses
import tempfile

import numpy as np
import pytest

from repro.errors import ConfigError, ReplayMismatchError
from repro.eval import RunnerConfig, run_units
from repro.eval.dse import run_dse
from repro.eval.units import replay_units, spma_units, spmm_units
from repro.formats.csb import CSBMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.csr5 import CSR5Matrix
from repro.formats.sellcs import SellCSigmaMatrix
from repro.formats.spc5 import SPC5Matrix
from repro.kernels.csr5_spmv import spmv_csr5_via
from repro.kernels.histogram import histogram_via
from repro.kernels.spma import spma_via
from repro.kernels.spmm import spmm_via
from repro.kernels.spmv import SPMV_VARIANTS
from repro.kernels.stencil import stencil_via
from repro.matrices.collection import small_collection
from repro.sim.backends import RecorderBackend, replay_recording
from repro.sim.config import DEFAULT_MACHINE, CacheConfig
from repro.sim.core import narration_flush_count
from repro.sim.ops import load_recordings, save_recordings
from repro.via.config import (
    VIA_4_2P,
    VIA_4_4P,
    VIA_16_2P,
    VIA_16_4P,
    dse_configs,
)

from tests.scalar_reference import per_op_narration, replay_scalar
from tests.test_ops_replay_differential import _bits, assert_result_identical

pytestmark = [pytest.mark.smoke, pytest.mark.columnar]


@pytest.fixture(scope="module")
def coo():
    return small_collection(2, seed=11, max_n=160).specs[0].build()


@pytest.fixture(scope="module")
def x(coo):
    return np.random.default_rng(3).standard_normal(coo.cols)


def _record(run):
    """Run a kernel callable with a recorder; return (result, recording)."""
    backend = RecorderBackend()
    result = run(backend)
    return result, backend.recording


def _replay_both(recording, **kwargs):
    """Replay in production and by the scalar reference, both validated;
    assert they agree.

    Returns the production result for further comparison against direct
    execution — one call checks both halves of the contract.
    """
    scalar = replay_scalar(recording, validate=True, **kwargs)
    columnar = replay_recording(recording, validate=True, **kwargs)
    assert_result_identical(columnar, scalar)
    return columnar


# ----------------------------------------------------------------------
# per-kernel-family identity, recorded at 2 ports and replayed at 4
# ----------------------------------------------------------------------
class TestKernelFamilies:
    REC, TGT = VIA_16_2P, VIA_16_4P

    def _check(self, make_run):
        _, recording = _record(make_run(self.REC))
        want = make_run(self.TGT)(None)
        got = _replay_both(recording, via_config=self.TGT)
        assert_result_identical(got, want)

    @pytest.mark.parametrize("fmt", sorted(SPMV_VARIANTS))
    def test_spmv_format(self, coo, x, fmt):
        def make_run(cfg):
            if fmt == "csr":
                mat = CSRMatrix.from_coo(coo)
            elif fmt == "csb":
                mat = CSBMatrix.from_coo(coo, block_size=cfg.csb_block_size)
            elif fmt == "spc5":
                mat = SPC5Matrix.from_coo(coo, vl=DEFAULT_MACHINE.vl)
            else:
                mat = SellCSigmaMatrix.from_coo(
                    coo, c=DEFAULT_MACHINE.vl, sigma=16 * DEFAULT_MACHINE.vl
                )
            _, via_fn = SPMV_VARIANTS[fmt]
            return lambda backend=None: via_fn(
                mat, x, DEFAULT_MACHINE, cfg, backend=backend
            )

        self._check(make_run)

    def test_spma(self, coo):
        a = CSRMatrix.from_coo(coo)
        self._check(
            lambda cfg: lambda backend=None: spma_via(
                a, a, DEFAULT_MACHINE, cfg, backend=backend
            )
        )

    def test_spmm(self, coo):
        a = CSRMatrix.from_coo(coo)
        b = CSCMatrix.from_coo(coo)
        self._check(
            lambda cfg: lambda backend=None: spmm_via(
                a, b, DEFAULT_MACHINE, cfg, backend=backend
            )
        )

    def test_histogram(self):
        keys = np.random.default_rng(5).integers(0, 256, size=1500)
        self._check(
            lambda cfg: lambda backend=None: histogram_via(
                keys, 256, DEFAULT_MACHINE, cfg, backend=backend
            )
        )

    def test_stencil(self):
        image = np.random.default_rng(6).standard_normal((40, 40))
        self._check(
            lambda cfg: lambda backend=None: stencil_via(
                image, None, DEFAULT_MACHINE, cfg, backend=backend
            )
        )

    def test_csr5(self, coo, x):
        m = CSR5Matrix.from_coo(coo)
        self._check(
            lambda cfg: lambda backend=None: spmv_csr5_via(
                m, x, DEFAULT_MACHINE, cfg, backend=backend
            )
        )


# ----------------------------------------------------------------------
# the four Fig. 9 configurations, and the integral-latency contract
# ----------------------------------------------------------------------
class TestDseConfigsAndEngines:
    def test_every_config_replays_from_its_shape_group(self, coo, x):
        reps = {}
        for cfg in dse_configs():
            reps.setdefault(cfg.sram_kb, cfg)
        for cfg in dse_configs():
            rep = reps[cfg.sram_kb]
            csb = CSBMatrix.from_coo(coo, block_size=rep.csb_block_size)
            _, recording = _record(
                lambda backend=None: SPMV_VARIANTS["csb"][1](
                    csb, x, DEFAULT_MACHINE, rep, backend=backend
                )
            )
            want = SPMV_VARIANTS["csb"][1](csb, x, DEFAULT_MACHINE, cfg)
            got = _replay_both(recording, via_config=cfg)
            assert_result_identical(got, want)

    def test_cross_capacity_replay_refuses(self, coo, x):
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        for cfg in (VIA_4_2P, VIA_4_4P):
            with pytest.raises(ReplayMismatchError):
                replay_recording(recording, via_config=cfg)
            with pytest.raises(ReplayMismatchError):
                replay_scalar(recording, via_config=cfg)

    @pytest.mark.parametrize("level", ["l1", "l2", "l3", "dram"])
    def test_nonintegral_latency_rejected(self, level):
        """Columnar miss-latency sums are order-free only because every
        latency is a whole number of cycles, so a fractional latency (or a
        ``bool`` posing as one) must never reach pricing: the config
        refuses it when it is built."""
        m = DEFAULT_MACHINE
        for bad in (100.5, 12.0, True):
            with pytest.raises(ConfigError, match="integer"):
                if level == "dram":
                    dataclasses.replace(m, dram_latency=bad)
                else:
                    cache = getattr(m, level)
                    CacheConfig(cache.size_kb, cache.ways, bad)
        # integral numpy scalars are integers too
        assert dataclasses.replace(m, dram_latency=np.int64(150)).dram_latency == 150


# ----------------------------------------------------------------------
# artifact round-trip, cross-machine slow path, and the memo discipline
# ----------------------------------------------------------------------
class TestRoundTripAndMachines:
    def test_disk_roundtrip_is_bit_identical(self, coo, x, tmp_path):
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        want = SPMV_VARIANTS["csb"][1](csb, x, DEFAULT_MACHINE, VIA_16_4P)
        path = tmp_path / "rec.npz"
        save_recordings(path, {"k": recording})
        loaded, _ = load_recordings(path)
        got = _replay_both(loaded["k"], via_config=VIA_16_4P)
        assert_result_identical(got, want)
        np.testing.assert_array_equal(got.output, want.output)

    def test_cross_machine_replay_is_bit_identical(self, coo, x):
        # pricing knobs differ, stream shape does not: this exercises the
        # columnar memory pass (sequential cache walk + vector attribution)
        target = dataclasses.replace(
            DEFAULT_MACHINE,
            dram_latency=DEFAULT_MACHINE.dram_latency + 60,
            mlp_stream=DEFAULT_MACHINE.mlp_stream / 2,
        )
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        want = SPMV_VARIANTS["csb"][1](csb, x, target, VIA_16_4P)
        got = _replay_both(recording, machine=target, via_config=VIA_16_4P)
        assert_result_identical(got, want)

    def test_cross_machine_memo_is_per_machine(self, coo, x):
        """One memo entry per target machine: repeated replays (any port
        variant) reuse it, a second machine adds its own, and the
        same-machine tier never touches the memo."""
        target = dataclasses.replace(
            DEFAULT_MACHINE,
            dram_latency=DEFAULT_MACHINE.dram_latency + 60,
        )
        other = dataclasses.replace(target, mlp_stream=target.mlp_stream / 2)
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        replay_recording(recording, via_config=VIA_16_4P)
        assert len(recording._machine_memo) == 0
        for cfg in (VIA_16_2P, VIA_16_4P, VIA_16_4P):
            replay_recording(recording, machine=target, via_config=cfg)
        assert list(recording._machine_memo) == [target]
        replay_recording(recording, machine=other, via_config=VIA_16_4P)
        assert list(recording._machine_memo) == [target, other]


# ----------------------------------------------------------------------
# the capacity-invariant SpMA/SpMM shared-baseline path
# ----------------------------------------------------------------------
class TestSharedBaseline:
    @pytest.mark.parametrize("make_units", [spma_units, spmm_units])
    def test_shared_baseline_replays_columnar_identically(
        self, make_units, tmp_path
    ):
        """SpMA/SpMM baselines drop the SSPM capacity from their key: the
        4KB group's baseline replays the 16KB group's artifact.  That
        replay must reproduce the direct run bit for bit, batched and
        per-op narrated alike."""
        coll = small_collection(2, seed=41, max_n=128)
        rdir = str(tmp_path / "rec")
        direct = run_units(
            make_units(coll, via_config=VIA_4_2P, validate=True),
            RunnerConfig(),
        )
        with per_op_narration():
            scalar = run_units(
                make_units(coll, via_config=VIA_4_2P, validate=True),
                RunnerConfig(),
            )
        assert scalar.records == direct.records
        # warm the store with the *other* capacity group only
        warm = replay_units(
            make_units(coll, via_config=VIA_16_2P), record_dir=rdir
        )
        run_units(warm, RunnerConfig())
        replays = replay_units(
            make_units(coll, via_config=VIA_4_2P, validate=True),
            record_dir=rdir,
        )
        got = run_units(replays, RunnerConfig())
        assert got.records == direct.records


# ----------------------------------------------------------------------
# end-to-end: the Fig. 9 DSE priced by the columnar engine
# ----------------------------------------------------------------------
class TestDseEndToEnd:
    def test_columnar_dse_matches_direct_and_scalar(self):
        """Direct (batched narration), direct under per-op narration, and
        record/replay from both a batched and a per-op recorded store all
        produce the same cycle tables."""
        coll = small_collection(3, seed=9, max_n=128)
        direct = run_dse(coll)
        with tempfile.TemporaryDirectory() as td:
            flushes = narration_flush_count()
            with per_op_narration():
                scalar = run_dse(coll, validate=True)
                per_op_recorded = run_dse(coll, record_dir=td)
            # no columnar flush priced anything on the scalar side
            assert narration_flush_count() == flushes
            replayed = run_dse(coll, record_dir=td, validate=True)
        with tempfile.TemporaryDirectory() as td:
            columnar = run_dse(coll, record_dir=td, validate=True)
        for kernel, per_config in direct.cycles.items():
            for cfg_name, want in per_config.items():
                for got in (scalar, per_op_recorded, replayed, columnar):
                    assert _bits(got.cycles[kernel][cfg_name]) == _bits(want)

"""Work pins for the record/replay Fig. 9 DSE.

The differential suites pin what the DSE computes; this one pins how much
work it does.  Per kernel, every configuration is one ``run_units`` call
(no separate record pass), a cold store builds each matrix's plan once per
SSPM-capacity group, and a warm store builds no plan at all.
"""

import pytest

from repro.eval import runner as runner_mod
from repro.eval import units as units_mod
from repro.eval.dse import DSE_KERNELS, run_dse
from repro.matrices.collection import small_collection
from repro.via.config import dse_configs

pytestmark = pytest.mark.smoke


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def test_dse_runs_each_cell_once_and_warm_store_builds_nothing(
    tmp_path, monkeypatch
):
    coll = small_collection(2, seed=17, max_n=96)
    configs = dse_configs()
    groups = {cfg.sram_kb for cfg in configs}
    assert (len(configs), len(groups)) == (4, 2)
    calls = {}
    monkeypatch.setattr(
        runner_mod, "run_units", _counting(calls, "run_units", runner_mod.run_units)
    )
    for kind, build in list(units_mod.PLAN_KINDS.items()):
        monkeypatch.setitem(units_mod.PLAN_KINDS, kind, _counting(calls, kind, build))

    cold = run_dse(coll, record_dir=str(tmp_path))
    assert calls.pop("run_units") == len(DSE_KERNELS) * len(configs)
    assert calls == {kind: len(groups) * len(coll.specs) for kind in DSE_KERNELS}

    calls.clear()
    warm = run_dse(coll, record_dir=str(tmp_path))
    assert calls == {"run_units": len(DSE_KERNELS) * len(configs)}
    assert warm.cycles == cold.cycles

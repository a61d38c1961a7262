"""Deterministic fault injection for the supervised worker pool.

Production claims about crash isolation are worthless without a way to
*cause* the crashes on demand.  This module is a small, declarative
fault plan that the worker processes of :mod:`repro.pool` consult at
well-defined points — worker startup and the moment a job is about to
execute — so tests and ``bench_serve`` can murder, wedge, stall, and
garble workers on a schedule and then assert that not a single response
was lost.  The serve adapter (:mod:`repro.serve.pool`) is the one that
arms it.

Four fault kinds:

========== ==========================================================
fault      worker behaviour at the injection point
========== ==========================================================
crash      ``os._exit(CHAOS_CRASH_EXIT)`` — indistinguishable from a
           segfault/OOM kill from the supervisor's side (pipe EOF)
hang       sleep ``delay_s`` before executing — drives the per-job
           timeout watchdog (SIGKILL + respawn) when ``delay_s``
           exceeds the job timeout, or models a stall when it doesn't
slow_start sleep ``delay_s`` during worker bootstrap, before the
           ready handshake — visible in the respawn-latency histogram
           and, past the 60 s spawn budget, in the spawn watchdog
corrupt    reply with a malformed message instead of the result —
           exercises the supervisor's protocol-violation path
========== ==========================================================

**Determinism.**  A rule fires at most ``times`` times *across the whole
pool*, even though workers are separate processes that respawn.  Each
injection claims a token file in ``state_dir`` with ``O_CREAT | O_EXCL``
— an atomic, race-free filesystem CAS — so exactly ``times`` injections
happen no matter how execution interleaves.  Tests can count the token
files afterwards to assert the plan was fully consumed.

The plan is a one-line spec, e.g.::

    crash:kind=replay:times=2;hang:kind=sleep:delay=60;slow_start:delay=1.5

parsed by :meth:`ChaosConfig.parse`, or supplied through the environment
(``REPRO_SERVE_CHAOS`` + ``REPRO_SERVE_CHAOS_DIR``) so a server booted as
a subprocess — the e2e suites, ``bench_serve`` — can be put under chaos
without any code changes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ServeError

#: the faults a rule may name
FAULTS = ("crash", "hang", "slow_start", "corrupt")

#: exit code used by the ``crash`` fault, chosen to be recognisable in
#: supervisor logs/health dumps (and distinct from Python's 0/1)
CHAOS_CRASH_EXIT = 23

#: environment knobs honoured by :meth:`ChaosConfig.from_env`
ENV_SPEC = "REPRO_SERVE_CHAOS"
ENV_DIR = "REPRO_SERVE_CHAOS_DIR"

_DEFAULT_DELAYS = {"hang": 3600.0, "slow_start": 0.5}


def _bad_spec(reason: str) -> ServeError:
    return ServeError(f"invalid chaos spec: {reason}", code="bad_chaos_spec")


@dataclass(frozen=True)
class ChaosRule:
    """One fault with its trigger filter and injection budget."""

    fault: str
    kind: str = "*"  # job kind filter; "*" matches every job
    times: int = 1
    delay_s: float = 0.0  # hang/slow_start duration

    def __post_init__(self) -> None:
        if self.fault not in FAULTS:
            raise _bad_spec(
                f"unknown fault {self.fault!r}; expected one of {FAULTS}"
            )
        if self.times < 1:
            raise _bad_spec(f"times must be >= 1, got {self.times}")
        if self.delay_s < 0:
            raise _bad_spec(f"delay must be >= 0, got {self.delay_s}")

    def matches(self, kind: str) -> bool:
        return self.kind in ("*", kind)


@dataclass(frozen=True)
class ChaosConfig:
    """A parsed fault plan plus the shared token directory.

    ``state_dir`` holds the claim tokens that bound each rule to its
    ``times`` budget across every worker process.  It must be shared by
    the whole pool; :class:`~repro.pool.SupervisedPool` creates a
    per-pool temp directory when the plan does not name one.
    """

    rules: Tuple[ChaosRule, ...]
    state_dir: Optional[str] = None

    # ------------------------------------------------------------------
    @classmethod
    def parse(
        cls, spec: str, state_dir: Optional[str] = None
    ) -> "ChaosConfig":
        """Parse ``fault[:key=value]*`` rules separated by ``;``."""
        rules = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            fault, _, rest = chunk.partition(":")
            fields: Dict[str, Any] = {"fault": fault.strip()}
            for part in filter(None, (p.strip() for p in rest.split(":"))):
                key, eq, value = part.partition("=")
                if not eq:
                    raise _bad_spec(f"expected key=value, got {part!r}")
                key = key.strip()
                if key == "kind":
                    fields["kind"] = value.strip()
                elif key == "times":
                    try:
                        fields["times"] = int(value)
                    except ValueError:
                        raise _bad_spec(f"times must be an int, got {value!r}") from None
                elif key == "delay":
                    try:
                        fields["delay_s"] = float(value)
                    except ValueError:
                        raise _bad_spec(f"delay must be a number, got {value!r}") from None
                else:
                    raise _bad_spec(f"unknown rule field {key!r}")
            if "delay_s" not in fields:
                fields["delay_s"] = _DEFAULT_DELAYS.get(fields["fault"], 0.0)
            rules.append(ChaosRule(**fields))
        if not rules:
            raise _bad_spec("no rules in spec")
        return cls(rules=tuple(rules), state_dir=state_dir)

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None
    ) -> Optional["ChaosConfig"]:
        """The plan named by ``REPRO_SERVE_CHAOS``, or ``None``."""
        env = os.environ if env is None else env
        spec = env.get(ENV_SPEC)
        if not spec:
            return None
        return cls.parse(spec, env.get(ENV_DIR) or None)

    def with_state_dir(self, state_dir: str) -> "ChaosConfig":
        return ChaosConfig(rules=self.rules, state_dir=state_dir)

    # ------------------------------------------------------------------
    # injection points (called from worker processes)

    def _claim(self, index: int, rule: ChaosRule) -> bool:
        """Atomically claim one of ``rule.times`` tokens; False when spent."""
        if self.state_dir is None:
            # no shared state: the plan was built programmatically without
            # a directory — fail closed rather than inject unboundedly
            return False
        for n in range(rule.times):
            path = os.path.join(self.state_dir, f"chaos-{index}-{n}.token")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False  # unreadable state dir: fail closed
            os.close(fd)
            return True
        return False

    def start_fault(self) -> Optional[ChaosRule]:
        """The ``slow_start`` rule to apply at worker bootstrap, if any."""
        for index, rule in enumerate(self.rules):
            if rule.fault == "slow_start" and self._claim(index, rule):
                return rule
        return None

    def job_fault(self, kind: str) -> Optional[ChaosRule]:
        """The fault to inject before executing a job of ``kind``, if any."""
        for index, rule in enumerate(self.rules):
            if rule.fault == "slow_start" or not rule.matches(kind):
                continue
            if self._claim(index, rule):
                return rule
        return None

    # ------------------------------------------------------------------
    def tokens_claimed(self) -> int:
        """How many injections have happened so far (test helper)."""
        if self.state_dir is None or not os.path.isdir(self.state_dir):
            return 0
        return sum(
            1 for name in os.listdir(self.state_dir)
            if name.startswith("chaos-") and name.endswith(".token")
        )

    def budget(self) -> int:
        """Total injections the plan allows."""
        return sum(rule.times for rule in self.rules)


def apply_start_fault(chaos: Optional[ChaosConfig]) -> None:
    """Worker bootstrap hook: apply ``slow_start`` before the handshake."""
    if chaos is None:
        return
    rule = chaos.start_fault()
    if rule is not None:
        time.sleep(rule.delay_s)

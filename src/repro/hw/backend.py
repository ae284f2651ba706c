"""Simulator backend selection.

One documented knob chooses which execution engine the simulators use:

* ``REPRO_SIM_BACKEND=translate`` (the default) — every basic block is
  compiled to one generated Python function (:mod:`repro.hw.translate`);
* ``REPRO_SIM_BACKEND=interp`` — the pre-decoded flat-tuple fast
  interpreters from the PR-2 fast paths;
* ``REPRO_SIM_BACKEND=reference`` — the readable reference interpreters
  (one :class:`Instruction` attribute lookup at a time).

The legacy ``REPRO_FAST_SIM=0`` escape hatch is kept as an alias for
``REPRO_SIM_BACKEND=reference``; an explicit ``REPRO_SIM_BACKEND`` wins when
both are set.  The environment is consulted at *simulator construction*
time, never at import time, so tests and harnesses can flip the knob
per-run (``monkeypatch.setenv`` works).

All three backends are observably identical — same output, same counters,
same traps — and the test suite pins that equivalence
(``tests/hw/test_fastpath.py``, ``tests/hw/test_translate.py``).
"""

from __future__ import annotations

import os

__all__ = ["BACKENDS", "backend_choice", "resolve_backend"]

BACKENDS = ("reference", "interp", "translate")

_ENV = "REPRO_SIM_BACKEND"
_LEGACY_ENV = "REPRO_FAST_SIM"


def backend_choice() -> str:
    """The environment-selected backend name.

    Raises :class:`ValueError` on an unknown ``REPRO_SIM_BACKEND`` value so
    a typo'd knob fails loudly instead of silently benchmarking the wrong
    engine.
    """
    env = os.environ.get(_ENV)
    if env:
        if env not in BACKENDS:
            raise ValueError(
                f"{_ENV}={env!r}: unknown backend "
                f"(choose from {', '.join(BACKENDS)})")
        return env
    if os.environ.get(_LEGACY_ENV, "1") == "0":
        return "reference"
    return "translate"


def resolve_backend(backend, fast) -> str:
    """Combine an explicit ``backend=`` argument with the legacy ``fast=``
    argument and the environment into one backend name.

    Precedence: an explicit ``backend`` wins; then ``fast=False`` forces the
    reference interpreter and ``fast=True`` forces a fast engine (the
    environment picks *which* fast engine, never demoting to reference);
    then the environment decides.
    """
    if backend is not None:
        if backend not in BACKENDS:
            raise ValueError(
                f"backend={backend!r}: unknown backend "
                f"(choose from {', '.join(BACKENDS)})")
        return backend
    if fast is False:
        return "reference"
    choice = backend_choice()
    if fast is True and choice == "reference":
        return "interp"
    return choice

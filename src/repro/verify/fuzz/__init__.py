"""Generative differential fuzzing for the boosting pipeline.

Three pieces, one loop:

* :mod:`repro.verify.fuzz.generator` — a seeded, grammar-driven Minic
  program generator.  Every program is guaranteed to compile and terminate;
  branch predictability is tuned across the paper's 72–98% spread; loops
  nest irregularly; excepting instructions (div/rem, raw memory) and
  store-to-load aliasing patterns are emitted on purpose, because those are
  the legality edges of boosting and the trap and memory edges of the
  translating backend's generated code.
* :mod:`repro.verify.fuzz.fuzzcampaign` — the differential campaign
  (``python -m repro fuzz``): each generated program runs through the full
  cross-product oracle — {reference, interp, translate} backends ×
  {functional, superscalar-per-boost-model, dynamic} machines × seeded
  fault plans — riding the same supervised pool, journal/``--resume``,
  ``--jobs`` and ``--chaos`` machinery the bench/verify campaigns use,
  with byte-identical merged reports at any parallelism.
* :mod:`repro.verify.fuzz.reduce` — an automatic Minic source reducer
  (delta debugging over statements, blocks, and operands, re-checking the
  divergence signature each step) feeding a persistent triage corpus
  bucketed by signature.

See ``docs/fuzzing.md`` for the runbook.
"""

from repro.verify.fuzz.generator import (  # noqa: F401
    GenConfig, GeneratedProgram, SIZE_PROFILES, generate_program,
)
from repro.verify.fuzz.fuzzcampaign import (  # noqa: F401
    DYNAMIC_FUZZ_VARIANTS, FuzzCampaign, FuzzDivergence, FuzzSummary,
    SABOTAGES,
)
from repro.verify.fuzz.reduce import (  # noqa: F401
    ReduceResult, reduce_source, unparse,
)

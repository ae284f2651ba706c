"""On-disk compile cache.

``bench`` and ``verify`` recompile the same (workload source, config) cells
from Minic on every run — and, with the parallel executor, once per worker
process.  Compilation dominates an end-to-end sweep, so the results are
memoized on disk, keyed by everything that could change the output:

* :data:`CODE_VERSION` — bumped whenever the compiler/scheduler/simulator
  semantics change, invalidating every prior entry;
* the interpreter's bytecode magic (``importlib.util.MAGIC_NUMBER``) —
  entries carry marshalled code objects of generated code, which only an
  interpreter with the same magic can load;
* the kind of artifact ("compiled" for a full :class:`CompiledProgram`,
  "reference" for a functional-reference run);
* a SHA-256 of the Minic source text;
* a fingerprint of the :class:`CompileConfig` (machine, model, scheduler,
  register allocator, optimization and unroll settings);
* a fingerprint of the training inputs used for profiling.

Entries are pickled to ``<cache_dir>/<key>.pkl`` with an atomic
tempfile-fsync-rename write, so concurrent workers never observe a partial
file and a crash never leaves a torn entry.  A file that fails to load —
truncated, corrupted, or written by an incompatible pickle — is **discarded
with a warning and deleted**, never trusted.

A key whose entry fails to load repeatedly (:data:`CompileCache.
QUARANTINE_STRIKES` consecutive failures, tracked in a ``<key>.strikes``
sidecar) is **quarantined**: loads short-circuit to a miss without touching
the file and stores become no-ops, so a systematically corrupting entry —
bad disk sector, hostile tmpfs, chaos testing — degrades to "compile every
time" instead of hot-looping on store → corrupt → discard → store.  One
clean load clears the strikes.

Instruction uids are process-local counters, so a cached program's uids can
collide with instructions created later in a loading process (corrupting
fault-plan and recovery-code indexing).  Each entry therefore records the
maximum uid it contains, and loading bumps the global counter past it via
:func:`~repro.isa.instruction.ensure_uid_floor`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pickle
import sys
import warnings
from pathlib import Path
from typing import Optional

from repro.frontend import compile_source
from repro.harness.fsutil import atomic_write_bytes, atomic_write_text
from repro.harness.pipeline import (
    CompileConfig, CompiledProgram, InputSet, compile_ir, prepare_ir,
)
from repro.isa.instruction import ensure_uid_floor
from repro.program.procedure import Program

__all__ = ["CODE_VERSION", "CompileCache", "default_cache_dir"]

#: Version tag of the whole compile pipeline.  Bump on any change to the
#: front end, optimizer, register allocator, profiler, or schedulers that
#: can alter their output for unchanged source + config, and on any change
#: to the cached translation units' layout.
CODE_VERSION = 7

_ENV_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-boost``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-boost"


def _version_tag() -> str:
    """:data:`CODE_VERSION` and this interpreter's bytecode magic, the two
    things an entry is only valid under."""
    return f"{CODE_VERSION} {importlib.util.MAGIC_NUMBER.hex()}"


def _fingerprint_config(config: CompileConfig) -> str:
    """A stable text form of every semantically relevant config field."""
    return "|".join([
        config.machine.name, str(config.machine.issue_width),
        str(config.machine.recovery_overhead),
        config.model.name, str(config.model.max_level),
        str(config.model.boost_stores), str(config.model.multi_shadow_files),
        str(config.model.squash_only),
        config.scheduler, config.regalloc,
        str(config.optimize), str(config.unroll),
    ])


def _fingerprint_prepare(config: CompileConfig) -> str:
    """Fingerprint of only the fields :func:`prepare_ir` depends on.

    Preparation (optimize, allocate, profile) is independent of the machine
    model and scheduler, so every model in a campaign shares one entry.
    """
    return "|".join([config.regalloc, str(config.optimize),
                     str(config.unroll)])


def _fingerprint_inputs(inputs: Optional[InputSet]) -> str:
    if not inputs:
        return "-"
    parts = []
    for name in sorted(inputs):
        value = inputs[name]
        if isinstance(value, bytes):
            parts.append(f"{name}=b:{value.hex()}")
        elif isinstance(value, int):
            parts.append(f"{name}=i:{value}")
        else:
            parts.append(f"{name}=l:{','.join(str(v) for v in value)}")
    return ";".join(parts)


def _max_uid(*programs) -> int:
    """Largest instruction uid reachable from the given programs/schedules."""
    best = 0
    for obj in programs:
        if obj is None:
            continue
        if isinstance(obj, Program):
            for proc in obj.procedures.values():
                for instr in proc.instructions():
                    if instr.uid > best:
                        best = instr.uid
            continue
        # ScheduledProgram: issue rows plus recovery code.
        for proc in obj.procedures.values():
            for block in proc.blocks:
                for row in block.cycles:
                    for instr in row:
                        if instr is not None and instr.uid > best:
                            best = instr.uid
            for recov in proc.recovery.values():
                for instr in recov.instructions:
                    if instr.uid > best:
                        best = instr.uid
    return best


class CompileCache:
    """Pickle-on-disk memoization of the compile pipeline.

    ``hits``/``misses`` count lookups; ``discarded`` counts cache files that
    existed but could not be trusted (and were deleted); ``quarantined``
    counts lookups that skipped a key with too many consecutive load
    failures.
    """

    #: consecutive load failures after which a key is quarantined
    QUARANTINE_STRIKES = 3

    def __init__(self, cache_dir: Optional[Path | str] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.discarded = 0
        self.quarantined = 0
        self.purged = 0
        self._version_checked = False

    # --------------------------------------------------------------- versions
    def _check_version(self) -> None:
        """Purge entries left behind by an older :data:`CODE_VERSION` or by
        an interpreter with another bytecode magic.

        Both participate in every key hash, so stale entries can never be
        *loaded* — but without this sweep a version bump or a toolchain
        change leaves them on disk forever, silently unreachable.  The
        cache directory carries a ``VERSION`` marker (``<version>
        <magic>``); on mismatch every entry is deleted with a one-line
        stderr note.
        """
        if self._version_checked:
            return
        self._version_checked = True
        marker = self.cache_dir / "VERSION"
        try:
            on_disk = marker.read_text().strip()
        except OSError:
            on_disk = None
        tag = _version_tag()
        if on_disk == tag:
            return
        entries = list(self.cache_dir.glob("*.pkl"))
        if entries:
            for path in entries:
                try:
                    path.unlink()
                except OSError:
                    continue
                self.purged += 1
            for path in self.cache_dir.glob("*.strikes"):
                try:
                    path.unlink()
                except OSError:
                    pass
            old_version, _, old_magic = (on_disk or "").partition(" ")
            if old_version == str(CODE_VERSION):
                stale = (f"bytecode magic {old_magic or 'unknown'} "
                         f"(now {importlib.util.MAGIC_NUMBER.hex()})")
            else:
                stale = (f"code version {old_version or 'unknown'} "
                         f"(now {CODE_VERSION})")
            print(f"compile cache: purged {self.purged} entr"
                  f"{'y' if self.purged == 1 else 'ies'} from {stale}",
                  file=sys.stderr)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(marker, f"{tag}\n")
        except OSError:
            pass

    # ------------------------------------------------------------------ keys
    def key(self, kind: str, source: str, config: Optional[CompileConfig],
            train_inputs: Optional[InputSet] = None, extra: str = "") -> str:
        text = "\x00".join([
            f"v{_version_tag()}", kind,
            hashlib.sha256(source.encode()).hexdigest(),
            _fingerprint_config(config) if config is not None else "-",
            _fingerprint_inputs(train_inputs),
            extra,
        ])
        return hashlib.sha256(text.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    # ------------------------------------------------------------ quarantine
    def _strikes_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.strikes"

    def _strikes(self, key: str) -> int:
        try:
            return int(self._strikes_path(key).read_text().strip() or 0)
        except (OSError, ValueError):
            return 0

    def _record_strike(self, key: str) -> None:
        strikes = self._strikes(key) + 1
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self._strikes_path(key), f"{strikes}\n")
        except OSError:
            return
        if strikes >= self.QUARANTINE_STRIKES:
            warnings.warn(f"quarantining compile-cache key {key[:12]}… after "
                          f"{strikes} consecutive load failures; it will be "
                          "recompiled uncached from now on")

    def _clear_strikes(self, key: str) -> None:
        try:
            self._strikes_path(key).unlink()
        except OSError:
            pass

    def is_quarantined(self, key: str) -> bool:
        return self._strikes(key) >= self.QUARANTINE_STRIKES

    # ------------------------------------------------------------- load/store
    def load(self, key: str):
        """The cached payload for ``key``, or None on miss.

        Any failure to read or unpickle discards the file: a cache entry
        that cannot be loaded cleanly must not be trusted.  A key that
        keeps failing is quarantined — skipped entirely — instead of being
        discarded and rebuilt forever.
        """
        self._check_version()
        if self.is_quarantined(key):
            self.quarantined += 1
            self.misses += 1
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload, max_uid = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:  # corrupted / truncated / incompatible
            self.discarded += 1
            self.misses += 1
            warnings.warn(f"discarding corrupted compile-cache entry "
                          f"{path.name}: {exc}")
            self._record_strike(key)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        if self._strikes(key):
            self._clear_strikes(key)
        ensure_uid_floor(max_uid + 1)
        return payload

    def store(self, key: str, payload) -> None:
        """Atomically persist ``payload`` under ``key`` (temp, fsync,
        rename — a crash mid-store can never leave a torn entry).

        Best effort: an unwritable cache directory degrades to a no-op
        rather than failing the experiment, and a quarantined key is not
        rewritten (writing it again is what a corruption hot-loop is made
        of).
        """
        self._check_version()
        if self.is_quarantined(key):
            return
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self._path(key),
                pickle.dumps((payload, self._payload_max_uid(payload)),
                             protocol=pickle.HIGHEST_PROTOCOL))
        except OSError as exc:
            warnings.warn(f"compile cache write failed ({exc}); continuing "
                          "uncached")

    @staticmethod
    def _payload_max_uid(payload) -> int:
        if isinstance(payload, CompiledProgram):
            return _max_uid(payload.program, payload.reference, payload.sched)
        if isinstance(payload, Program):
            return _max_uid(payload)
        return 0

    # ------------------------------------------------------------ memoization
    def compile_minic(self, source: str, config: CompileConfig,
                      train_inputs: Optional[InputSet] = None,
                      ) -> CompiledProgram:
        """Memoized :func:`repro.harness.pipeline.compile_minic`."""
        key = self.key("compiled", source, config, train_inputs)
        cached = self.load(key)
        if cached is not None:
            return cached
        compiled = compile_ir(compile_source(source), config, train_inputs)
        self.store(key, compiled)
        return compiled

    def prepare_ir(self, source: str, config: CompileConfig,
                   train_inputs: Optional[InputSet] = None) -> Program:
        """Memoized front-end + :func:`prepare_ir` (schedulable, unscheduled).

        Returns a program the caller may mutate: the cache keeps its own
        pickled copy, so each load materializes a fresh object graph.
        """
        key = self.key("prepared", source, None, train_inputs,
                       extra=_fingerprint_prepare(config))
        cached = self.load(key)
        if cached is not None:
            return cached
        prepared = prepare_ir(compile_source(source), config, train_inputs)
        self.store(key, prepared)
        return prepared

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "discarded": self.discarded,
            "quarantined": self.quarantined,
            "purged": self.purged,
            "hit_rate": self.hits / total if total else 0.0,
        }

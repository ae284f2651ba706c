"""The on-disk compile cache: keying, invalidation, corruption handling."""

import importlib.util
import pickle
import warnings

import pytest

from repro.harness import cache as cache_mod
from repro.harness.cache import CODE_VERSION, CompileCache
from repro.harness.experiments import CONFIGS
from repro.harness.pipeline import make_input_image
from repro.hw.superscalar import SuperscalarSim
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

SOURCE = """
global xs[4] = { 2, 7, 1, 8 };
func main() {
    var s = 0;
    for (var i = 0; i < 4; i = i + 1) { s = s + xs[i]; }
    print(s);
}
"""

SOURCE2 = SOURCE.replace("s + xs[i]", "s + xs[i] + 1")


@pytest.fixture
def cache(tmp_path):
    return CompileCache(tmp_path)


def _run(cp):
    sim = SuperscalarSim(cp.sched,
                         input_image=make_input_image(cp.program, None))
    return sim.run()


def test_miss_then_hit(cache):
    cp1 = cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 1
    cp2 = cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert cache.stats()["hits"] == 1
    assert _run(cp1).output == _run(cp2).output
    assert _run(cp1).cycle_count == _run(cp2).cycle_count


def test_config_change_misses(cache):
    cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    cache.compile_minic(SOURCE, CONFIGS["boost7"])
    assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 2


def test_source_change_misses(cache):
    cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    cache.compile_minic(SOURCE2, CONFIGS["minboost3"])
    assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 2


def test_train_inputs_change_misses(cache):
    cache.compile_minic(SOURCE, CONFIGS["minboost3"], {"xs": [1, 2, 3, 4]})
    cache.compile_minic(SOURCE, CONFIGS["minboost3"], {"xs": [4, 3, 2, 1]})
    assert cache.stats()["misses"] == 2


def test_code_version_bump_invalidates(cache, monkeypatch):
    cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    monkeypatch.setattr(cache_mod, "CODE_VERSION", CODE_VERSION + 1)
    fresh = CompileCache(cache.cache_dir)
    fresh.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert fresh.stats()["hits"] == 0 and fresh.stats()["misses"] == 1


def test_key_carries_the_bytecode_magic(cache, monkeypatch):
    """Entries hold marshalled code objects, which another interpreter's
    bytecode magic cannot load: the magic is part of every key."""
    key = cache.key("compiled", SOURCE, CONFIGS["minboost3"])
    monkeypatch.setattr(importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n")
    assert cache.key("compiled", SOURCE, CONFIGS["minboost3"]) != key


def test_corrupted_entry_discarded_with_warning(cache):
    cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    key = cache.key("compiled", SOURCE, CONFIGS["minboost3"], None)
    path = cache.cache_dir / f"{key}.pkl"
    assert path.exists()
    path.write_bytes(b"\x80\x04 this is not a valid pickle")
    fresh = CompileCache(cache.cache_dir)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cp = fresh.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert any("corrupt" in str(w.message) for w in caught)
    assert fresh.stats()["discarded"] == 1
    assert fresh.stats()["hits"] == 0
    # The poisoned file is gone and replaced by a fresh, loadable entry.
    with open(path, "rb") as fh:
        pickle.load(fh)
    assert _run(cp).output == [18]


def test_truncated_entry_discarded(cache):
    cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    key = cache.key("compiled", SOURCE, CONFIGS["minboost3"], None)
    path = cache.cache_dir / f"{key}.pkl"
    path.write_bytes(path.read_bytes()[:20])
    fresh = CompileCache(cache.cache_dir)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fresh.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert any("corrupt" in str(w.message) for w in caught)
    assert fresh.stats()["discarded"] == 1


def test_loaded_program_bumps_uid_counter(cache):
    cp = cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    cache2 = CompileCache(cache.cache_dir)
    loaded = cache2.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert cache2.stats()["hits"] == 1
    cached_max = max(i.uid for p in loaded.program.procedures.values()
                     for i in p.instructions())
    fresh_instr = Instruction(Opcode.NOP)
    assert fresh_instr.uid > cached_max
    del cp


def test_prepare_ir_shared_across_models(cache):
    """Preparation is model-independent, so every campaign model hits the
    same entry."""
    cache.prepare_ir(SOURCE, CONFIGS["boost1"])
    cache.prepare_ir(SOURCE, CONFIGS["boost7"])
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1


def test_prepare_ir_returns_fresh_object_graph(cache):
    one = cache.prepare_ir(SOURCE, CONFIGS["minboost3"])
    two = cache.prepare_ir(SOURCE, CONFIGS["minboost3"])
    assert one is not two  # callers may mutate (scheduling does)


def test_repeated_corruption_quarantines_the_key(cache):
    """A key that keeps failing to load is quarantined: no more loads, no
    more stores — graceful degradation instead of a corruption hot-loop."""
    cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    key = cache.key("compiled", SOURCE, CONFIGS["minboost3"], None)
    path = cache.cache_dir / f"{key}.pkl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(CompileCache.QUARANTINE_STRIKES):
            path.write_bytes(b"\x80\x04 sector gone bad")
            fresh = CompileCache(cache.cache_dir)
            fresh.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert any("quarantin" in str(w.message) for w in caught)
    assert cache.is_quarantined(key)
    # Loads short-circuit to a miss and stores stay no-ops: the bad sector
    # is never touched again, each use recompiles from source.
    quarantined = CompileCache(cache.cache_dir)
    cp = quarantined.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert quarantined.stats()["quarantined"] == 1
    assert quarantined.stats()["hits"] == 0
    assert not path.exists()
    assert _run(cp).output == [18]


def test_one_clean_load_clears_the_strikes(cache):
    cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    key = cache.key("compiled", SOURCE, CONFIGS["minboost3"], None)
    path = cache.cache_dir / f"{key}.pkl"
    path.write_bytes(b"garbage")
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        CompileCache(cache.cache_dir).compile_minic(
            SOURCE, CONFIGS["minboost3"])  # strike 1, then clean re-store
    assert (cache.cache_dir / f"{key}.strikes").exists()
    reloaded = CompileCache(cache.cache_dir)
    reloaded.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert reloaded.stats()["hits"] == 1
    assert not (cache.cache_dir / f"{key}.strikes").exists()


def test_unwritable_cache_dir_degrades_to_uncached(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the cache dir should be")
    cache = CompileCache(target)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cp = cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert any("cache write failed" in str(w.message) for w in caught)
    assert _run(cp).output == [18]


# ------------------------------------------------------- concurrent access
# The ``--jobs N`` worker processes share one content-addressed cache, so
# simultaneous store/load of the same key is the norm, not a race to
# apologize for.  Atomic tempfile-fsync-rename stores must make a torn read
# impossible, and the churn must never charge quarantine strikes against a
# healthy key.

def _cache_churn(cache_dir, key, payload, rounds, fail_flag):
    import os as _os
    cache = CompileCache(cache_dir)
    for _ in range(rounds):
        cache.store(key, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # discard/quarantine warns: fail
            try:
                loaded = cache.load(key)
            except Warning:
                _os._exit(2)  # a torn entry was discarded — must not happen
        if loaded is not None and loaded != payload:
            _os._exit(3)  # torn/foreign payload observed
    _os._exit(0)


def test_concurrent_store_load_is_never_torn(tmp_path):
    from multiprocessing import get_context
    ctx = get_context("fork")
    key = CompileCache(tmp_path).key("compiled", SOURCE, CONFIGS["boost1"])
    # A payload big enough that a non-atomic write would have a wide torn
    # window (~1 MB pickled).
    payload = {"table": list(range(120_000)), "tag": "concurrent"}
    procs = [ctx.Process(target=_cache_churn,
                         args=(tmp_path, key, payload, 25, None))
             for _ in range(4)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    codes = [p.exitcode for p in procs]
    assert codes == [0, 0, 0, 0], f"churn workers exited {codes}"
    # After the dust settles: one clean hit, no strikes, no quarantine.
    cache = CompileCache(tmp_path)
    assert cache.load(key) == payload
    assert cache.stats()["hits"] == 1
    assert not cache.is_quarantined(key)
    assert not list(tmp_path.glob("*.strikes"))


def test_concurrent_compile_minic_same_key(tmp_path):
    # Two processes compiling the same cell race store vs load of one key;
    # both must come back with a working program and no quarantine marks.
    from multiprocessing import get_context
    ctx = get_context("fork")

    def compile_one():
        import os as _os
        cache = CompileCache(tmp_path)
        cp = cache.compile_minic(SOURCE, CONFIGS["minboost3"])
        _os._exit(0 if _run(cp).output == [18] else 1)

    procs = [ctx.Process(target=compile_one) for _ in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert [p.exitcode for p in procs] == [0, 0]
    assert not list(tmp_path.glob("*.strikes"))
    # The surviving entry is a clean hit for a third reader.
    cache = CompileCache(tmp_path)
    cp = cache.compile_minic(SOURCE, CONFIGS["minboost3"])
    assert cache.stats()["hits"] == 1
    assert _run(cp).output == [18]

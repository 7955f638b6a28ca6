"""P100 cross-device invariance: the registry refactor changed nothing.

The device registry generalized constants that used to be hard-wired to
the P100 (warp width, DRAM transaction sector, spill access rate, L2
inter-block factor, scheduler count).  On the P100 itself every one of
those knobs must resolve to the seed implementation's value, so the
committed benchmark artifacts are replayable *exactly*: same winners,
same EvalStats counts, same TFLOPS — not merely within tolerance.

These tests re-run the committed benches in-process and compare every
deterministic field byte-for-byte (wall-clock fields excluded, machine
speed is not under test).  A failure means a device knob leaked a
different value into the P100 model — a silent re-pricing of every
committed artifact.
"""

import json
import os

from repro.suite.bench import run_bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
BENCH_SEARCH = os.path.join(REPO_ROOT, "BENCH_search.json")

#: Machine-speed fields, excluded from the byte-for-byte comparison.
VOLATILE = ("wall_s", "engine_wall_s")


def _stable(entry):
    return {k: v for k, v in entry.items() if k not in VOLATILE}


def test_bench_search_profile_is_byte_identical():
    with open(BENCH_SEARCH, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    current = run_bench(top_k=committed["top_k"])
    assert current["schema"] == committed["schema"]
    assert current["device"] == committed["device"] == "P100"
    assert set(current["benchmarks"]) == set(committed["benchmarks"])
    for name, base in committed["benchmarks"].items():
        assert _stable(current["benchmarks"][name]) == _stable(base), name


"""Frozen counters, occupancy and timing of the performance model.

``golden_model.json`` holds every :class:`SimulationResult` field
(floats as ``repr``) that :func:`repro.gpu.simulator.simulate` gives for
each Table I kernel's pragma seed plans and its P100 winner, on every
registered device profile; a plan a profile refuses records the
refusal's message and rule.  Any change to the model's arithmetic,
however small, moves a pinned float, so the snapshot is the behaviour
anchor a refactor of the model must leave byte-identical.

The snapshot is taken and compared under ``PYTHONHASHSEED=0`` in a
fresh interpreter; the model itself must not depend on the hash seed
(per-array float terms are summed in sorted array order), which
:func:`test_seed_plans_price_identically_under_two_hash_seeds` checks.
Regenerate after a *deliberate* model change::

    PYTHONPATH=src python tests/gpu/regen_golden_model.py
"""

import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.codegen.resources import seed_plan_from_pragma
from repro.gpu.device import device_names, get_device
from repro.gpu.simulator import PlanInfeasible, simulate
from repro.resilience.checkpoint import plan_from_dict, plan_to_dict
from repro.suite import BENCHMARK_ORDER, load_ir

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_model.json")
REGEN = os.path.join(os.path.dirname(__file__), "regen_golden_model.py")


def _value(value):
    return repr(value) if isinstance(value, float) else value


def _record(record) -> dict:
    return {f.name: _value(getattr(record, f.name)) for f in fields(record)}


def priced(ir, plan, device) -> dict:
    """One plan's model output on one device, as the golden stores it."""
    try:
        result = simulate(ir, plan, device)
    except PlanInfeasible as exc:
        return {"refused": str(exc), "context": dict(exc.context)}
    return {
        "counters": _record(result.counters),
        "occupancy": _record(result.occupancy),
        "timing": _record(result.timing),
        "time_s": repr(result.time_s),
        "tflops": repr(result.tflops),
    }


def variant_ir(name: str, variant: str):
    """The IR a P100 winner of ``variant`` was tuned on."""
    ir = load_ir(name)
    if variant in ("tuned", "global") or (
        variant == "deep-tuned" and len(ir.kernels) == 1
    ):
        return ir
    from repro.tuning.fusion import maxfuse

    if variant in ("dag-fused", "deep-tuned", "maxfuse"):
        return maxfuse(ir)
    from repro.tuning.fission import generate_fission_candidates

    (candidate,) = [
        c for c in generate_fission_candidates(ir) if c.label == variant
    ]
    return candidate.ir


def cases(winners: dict):
    """``(key, ir, plan)`` for every pinned plan.

    ``winners`` maps a kernel name to its P100 winner ``{"variant",
    "plans"}`` (plan dicts), as the golden records it.
    """
    for name in BENCHMARK_ORDER:
        ir = load_ir(name)
        for instance in ir.kernels:
            yield f"{name}/seed/{instance.name}", ir, seed_plan_from_pragma(
                ir, instance
            )
        winner = winners[name]
        ir = variant_ir(name, winner["variant"])
        for i, data in enumerate(winner["plans"]):
            yield f"{name}/winner/{i}", ir, plan_from_dict(data)


def p100_winners() -> dict:
    """Each kernel's P100 ``optimize`` winner (variant and plans)."""
    from repro.pipeline import optimize

    winners = {}
    for name in BENCHMARK_ORDER:
        outcome = optimize(load_ir(name))
        winners[name] = {
            "variant": outcome.variant,
            "plans": [plan_to_dict(p) for p in outcome.schedule.plans],
        }
    return winners


def snapshot(winners: dict) -> dict:
    model = {}
    for key, ir, plan in cases(winners):
        model[key] = {
            "plan": plan_to_dict(plan),
            "devices": {
                device: priced(ir, plan, get_device(device))
                for device in device_names()
            },
        }
    return {"winners": winners, "model": model}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_model_matches_snapshot(golden):
    run = subprocess.run(
        [sys.executable, REGEN, "--stdout"],
        capture_output=True, text=True, check=True,
    )
    fresh = json.loads(run.stdout)
    assert sorted(fresh["model"]) == sorted(golden["model"])
    for key, entry in golden["model"].items():
        assert fresh["model"][key] == entry, key


def test_snapshot_covers_the_registry_and_the_suite(golden):
    assert set(golden["winners"]) == set(BENCHMARK_ORDER)
    for entry in golden["model"].values():
        assert set(entry["devices"]) == set(device_names())


#: Seed plans whose float sums span several arrays per stage.
HASH_SEED_KERNELS = ("addsgd4", "hypterm", "miniflux")


def test_seed_plans_price_identically_under_two_hash_seeds():
    # Two processes with different hash seeds must price every seed
    # plan to the same bytes on every device profile.
    script = (
        "import json\n"
        "from repro.codegen.resources import seed_plan_from_pragma\n"
        "from repro.gpu.device import device_names, get_device\n"
        "from repro.suite import load_ir\n"
        "from tests.gpu.test_golden_model import priced\n"
        "out = {}\n"
        f"for name in {HASH_SEED_KERNELS!r}:\n"
        "    ir = load_ir(name)\n"
        "    for instance in ir.kernels:\n"
        "        plan = seed_plan_from_pragma(ir, instance)\n"
        "        for device in device_names():\n"
        "            out[f'{name}/{instance.name}/{device}'] = priced(\n"
        "                ir, plan, get_device(device)\n"
        "            )\n"
        "print(json.dumps(out, sort_keys=True))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(GOLDEN_PATH)))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert "addsgd4/addsgd4.0/MI100" in outputs[0]

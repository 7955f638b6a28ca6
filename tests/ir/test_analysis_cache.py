"""Cache-parity guard for the memoized analysis and geometry layers.

The evaluation engine leans on two cache tiers: identity-memoized pure
analyses in ``ir.analysis`` and per-(IR, plan-family) geometry caches in
``codegen.tiling``.  Both must be invisible — every cached value must
equal what a cold computation produces — across the full 11-kernel
suite.
"""

import pytest

from repro.codegen.resources import auto_assign, seed_plan_from_pragma
from repro.codegen.tiling import (
    build_stages,
    buffer_requirements,
    clear_plan_cache,
    distinct_read_offsets,
    launch_geometry,
    read_footprint,
    shmem_bytes_per_block,
)
from repro.gpu.registers import register_demand
from repro.ir.analysis import (
    access_patterns,
    access_summary,
    clear_analysis_cache,
    combined_halo,
    kernel_flops_per_point,
    read_halos,
    stencil_order,
)
from repro.suite import BENCHMARKS, load_ir

ALL = list(BENCHMARKS)


@pytest.mark.parametrize("name", ALL)
def test_analysis_results_survive_cache_clear(name):
    ir = load_ir(name)
    warm = []
    for instance in ir.kernels:
        warm.append(
            (
                access_patterns(ir, instance),
                access_summary(ir, instance),
                read_halos(ir, instance),
                combined_halo(ir, instance),
                stencil_order(ir, instance),
                kernel_flops_per_point(instance),
            )
        )
        # Second call must serve the identical object from the cache.
        assert access_patterns(ir, instance) is warm[-1][0]
        assert access_summary(ir, instance) is warm[-1][1]
    clear_analysis_cache()
    for instance, cached in zip(ir.kernels, warm):
        cold = (
            access_patterns(ir, instance),
            access_summary(ir, instance),
            read_halos(ir, instance),
            combined_halo(ir, instance),
            stencil_order(ir, instance),
            kernel_flops_per_point(instance),
        )
        assert cold == cached


@pytest.mark.parametrize("name", ALL)
def test_geometry_caches_match_uncached(name):
    ir = load_ir(name)
    for instance in ir.kernels:
        plan = seed_plan_from_pragma(ir, instance)
        stages = build_stages(ir, plan)
        warm_geometry = launch_geometry(ir, plan)
        warm = {
            "geometry": warm_geometry,
            "stages": stages,
            "buffers": buffer_requirements(ir, plan),
            "shmem": shmem_bytes_per_block(ir, plan),
            "demand": register_demand(ir, plan),
            "offsets": {
                array: distinct_read_offsets(ir, instance, array)
                for array in instance.arrays_read()
            },
            "footprints": {
                (stage.index, array): read_footprint(
                    ir, plan, stage, warm_geometry, array
                )
                for stage in stages
                for array in stage.instance.arrays_read()
            },
        }
        clear_plan_cache()
        clear_analysis_cache()
        cold_stages = build_stages(ir, plan)
        cold_geometry = launch_geometry(ir, plan)
        assert cold_geometry == warm["geometry"]
        assert cold_stages == warm["stages"]
        assert buffer_requirements(ir, plan) == warm["buffers"]
        assert shmem_bytes_per_block(ir, plan) == warm["shmem"]
        assert register_demand(ir, plan) == warm["demand"]
        for array, cached in warm["offsets"].items():
            assert distinct_read_offsets(ir, instance, array) == cached
        for (index, array), cached in warm["footprints"].items():
            stage = cold_stages[index]
            assert (
                read_footprint(ir, plan, stage, cold_geometry, array)
                == cached
            )

"""Tests for the KernelPlan value type."""

import pytest

from repro.codegen.plan import KernelPlan, ProgramPlan


def _plan(**kw):
    base = dict(kernel_names=("k.0",), block=(32, 16))
    base.update(kw)
    return KernelPlan(**base)


class TestValidation:
    def test_requires_kernels(self):
        with pytest.raises(ValueError):
            _plan(kernel_names=())

    def test_bad_streaming(self):
        with pytest.raises(ValueError):
            _plan(streaming="diagonal")

    def test_bad_perspective(self):
        with pytest.raises(ValueError):
            _plan(perspective="sideways")

    def test_bad_time_tile(self):
        with pytest.raises(ValueError):
            _plan(time_tile=0)

    def test_bad_block(self):
        with pytest.raises(ValueError):
            _plan(block=(0, 16))

    def test_bad_registers(self):
        with pytest.raises(ValueError):
            _plan(max_registers=300)

    def test_bad_storage(self):
        with pytest.raises(ValueError):
            _plan(placements=(("A", "l3"),))


#: One invalid value per checked field.
INVALID_FIELDS = [
    ("kernel_names", ()),
    ("streaming", "diagonal"),
    ("perspective", "sideways"),
    ("time_tile", 0),
    ("concurrent_chunks", 0),
    ("max_registers", 0),
    ("max_registers", 256),
    ("block", (0, 16)),
    ("unroll", (1, -2)),
    ("placements", (("in", "tape"),)),
]


class TestReplaceValidation:
    """``replace`` checks only the fields it changes, with the
    constructor's messages."""

    @pytest.mark.parametrize("field, value", INVALID_FIELDS)
    def test_same_message_as_constructor(self, field, value):
        with pytest.raises(ValueError) as built:
            _plan(**{field: value})
        with pytest.raises(ValueError) as replaced:
            _plan().replace(**{field: value})
        assert str(replaced.value) == str(built.value)

    def test_several_invalid_fields_fail_in_constructor_order(self):
        changes = dict(block=(0,), streaming="diagonal", time_tile=0)
        with pytest.raises(ValueError) as built:
            _plan(**changes)
        with pytest.raises(ValueError) as replaced:
            _plan().replace(**changes)
        assert str(replaced.value) == str(built.value)

    def test_valid_replace_equals_constructor(self):
        changes = dict(block=(8, 8), unroll=(1, 2), max_registers=64)
        assert _plan().replace(**changes) == _plan(**changes)

    def test_unknown_field(self):
        with pytest.raises(TypeError, match="colour"):
            _plan().replace(colour="red")


class TestGeometryHelpers:
    def test_block_threads(self):
        assert _plan(block=(32, 16)).block_threads() == 512

    def test_tiled_axes_streaming(self):
        plan = _plan(streaming="serial", stream_axis=0)
        assert plan.tiled_axes(3) == (1, 2)

    def test_tiled_axes_non_streaming(self):
        assert _plan().tiled_axes(3) == (0, 1, 2)

    def test_block_on_axis_streaming(self):
        # block=(16, 32) maps to axes (j, i) when streaming along k.
        plan = _plan(block=(16, 32), streaming="serial", stream_axis=0)
        assert plan.block_on_axis(0, 3) == 1
        assert plan.block_on_axis(1, 3) == 16
        assert plan.block_on_axis(2, 3) == 32

    def test_tile_extent_includes_unroll(self):
        plan = _plan(block=(16, 32), streaming="serial", stream_axis=0,
                     unroll=(1, 2, 4))
        assert plan.tile_extent(1, 3) == 32
        assert plan.tile_extent(2, 3) == 128

    def test_unroll_factor_defaults(self):
        assert _plan().unroll_factor(2) == 1
        assert _plan(unroll=(2,)).unroll_factor(0) == 2

    def test_total_unroll(self):
        assert _plan(unroll=(1, 2, 4)).total_unroll() == 8

    def test_placement_default_gmem(self):
        assert _plan().placement_of("anything") == "gmem"
        plan = _plan(placements=(("A", "shmem"),))
        assert plan.placement_of("A") == "shmem"

    def test_describe_mentions_key_facts(self):
        plan = _plan(time_tile=3, streaming="serial", prefetch=True,
                     placements=(("A", "shmem"),))
        text = plan.describe()
        assert "tt=3" in text and "prefetch" in text and "shm(A)" in text


class TestProgramPlan:
    def test_counts_default_to_one(self):
        schedule = ProgramPlan(plans=(_plan(), _plan()))
        assert schedule.counts == (1, 1)

    def test_total_time_steps(self):
        schedule = ProgramPlan(
            plans=(_plan(time_tile=4), _plan(time_tile=1)),
            launch_counts=(3, 1),
        )
        assert schedule.total_time_steps() == 13

    def test_count_length_mismatch(self):
        with pytest.raises(ValueError):
            ProgramPlan(plans=(_plan(),), launch_counts=(1, 2))

"""The composed IR analyses against the per-access walks they replaced.

``repro.ir.analysis`` builds every kernel analysis from per-statement
access facts, and the tiling and pricing layers read one per-array
access table; ``reference_analysis.py`` keeps the old walks.  Every
analysis must agree with its reference exactly, dict order included, on
the 11 suite kernels, on their fission candidates, and on generated
programs with repeated-iterator reads (``A[i-1][i+1]``), skewed and
constant subscripts, lower-rank arrays, ``+=`` local chains and reads of
arrays an earlier statement of the same kernel wrote.  The recompute
fission helpers (memoized output slices, subscript halos read from the
facts) are checked the same way.

CI runs the generated-program property with ``--hypothesis-profile=fuzz
--hypothesis-seed=0`` for about 2,000 examples.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ir.analysis as analysis
from repro.codegen import tiling
from repro.dsl import parse
from repro.gpu import pricing
from repro.gpu.registers import _expression_registers
from repro.ir import build_ir
from repro.suite import BENCHMARKS
from repro.ir.dag import statements_for_output
from repro.tuning import fission
from repro.tuning.fission import generate_fission_candidates

from tests.ir import reference_analysis as ref


def check_instance(ir, instance) -> None:
    """Every composed analysis of one kernel equals its reference."""
    patterns = ref.access_patterns(ir, instance)
    assert analysis.access_patterns(ir, instance) == patterns
    assert list(analysis.read_halos(ir, instance).items()) == list(
        ref.read_halos(ir, instance).items()
    )
    assert analysis.combined_halo(ir, instance) == ref.combined_halo(
        ir, instance
    )
    assert analysis.stencil_order(ir, instance) == ref.stencil_order(
        ir, instance
    )
    assert analysis.kernel_flops_per_point(
        instance
    ) == ref.kernel_flops_per_point(instance)
    assert _expression_registers(instance) == ref.expression_registers(
        instance
    )
    assert list(analysis.array_offset_sets(ir, instance).items()) == list(
        ref.array_offset_sets(ir, instance).items()
    )
    assert analysis.statement_geometry(ir, instance) == ref.statement_geometry(
        ir, instance
    )
    assert analysis.internal_reach(ir, instance) == ref.internal_reach(
        ir, instance
    )

    assert [
        (s.array, s.reads_total, s.reads_distinct, s.writes, s.offsets)
        for s in analysis.access_summary(ir, instance).values()
    ] == ref.access_summary(ir, instance)
    stage = SimpleNamespace(instance=instance)
    arrays = sorted({p.array for p in patterns} | {"absent"})
    for axis in range(ir.ndim):
        planes = ref.plane_reads(ir, instance, axis)
        streaming = SimpleNamespace(uses_streaming=True, stream_axis=axis)
        for array in arrays:
            assert tiling._array_indexes_axis(
                ir, instance, array, axis
            ) == ref.array_indexes_axis(ir, instance, array, axis)
            assert tiling.is_star_along(
                ir, instance, array, axis
            ) == ref.is_star_along(ir, instance, array, axis)
            assert tiling._consumer_read_counts(
                ir, instance, array, streaming
            ) == ref.consumer_read_counts(ir, instance, array, streaming)
            inplane, center = planes.get(array, (0, 0))
            assert (
                pricing._inplane_distinct_reads(ir, stage, array, axis)
                == inplane
            )
            assert (
                pricing._center_plane_reads(ir, streaming, stage, array)
                == center
            )
    flat = SimpleNamespace(uses_streaming=False, stream_axis=0)
    for array in arrays:
        assert tiling._consumer_read_counts(
            ir, instance, array, flat
        ) == ref.consumer_read_counts(ir, instance, array, flat)
        assert tiling.distinct_read_offsets(
            ir, instance, array
        ) == ref.distinct_read_offsets(ir, instance, array)
    check_fission_helpers(ir, instance)


def check_fission_helpers(ir, instance) -> None:
    """Slices, halos and chaining of recompute fission equal the walks."""
    assert fission._max_statement_order(ir, instance) == ref.max_statement_order(
        instance
    )
    outputs = instance.arrays_written()
    for position, output in enumerate(outputs):
        for _ in range(2):  # the second read comes from the pinned memo
            assert statements_for_output(
                instance, output
            ) == ref.statements_for_output(instance, output)
        assert fission._output_halo(ir, instance, output) == ref.output_halo(
            instance, output
        )
        prior = outputs[:position]
        assert fission._consumes_prior_output(
            ir, instance, output, prior
        ) == ref.consumes_prior_output(instance, output, prior)


def check_program(ir) -> None:
    """:func:`check_instance` on every kernel and fission candidate."""
    for instance in ir.kernels:
        check_instance(ir, instance)
    for candidate in generate_fission_candidates(ir):
        for instance in candidate.ir.kernels:
            check_instance(candidate.ir, instance)


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_suite_kernels_and_fission_candidates_match_reference(name):
    check_program(build_ir(parse(BENCHMARKS[name].dsl())))


def test_statements_shared_by_fission_candidates_are_analysed_once(
    monkeypatch,
):
    built = []
    real = analysis._statement_facts

    def counting(iterators, stmt):
        built.append(stmt)
        return real(iterators, stmt)

    monkeypatch.setattr(analysis, "_statement_facts", counting)
    ir = build_ir(parse(BENCHMARKS["rhs4sgcurv"].dsl()))
    irs = [ir] + [c.ir for c in generate_fission_candidates(ir)]
    statements = {
        id(stmt): stmt
        for program in irs
        for instance in program.kernels
        for stmt in instance.statements
    }
    for _round in range(2):
        for program in irs:
            for instance in program.kernels:
                analysis.access_summary(program, instance)
                analysis.read_halos(program, instance)
                analysis.statement_geometry(program, instance)
                analysis.kernel_flops_per_point(instance)
                _expression_registers(instance)
    assert len(built) == len({id(stmt) for stmt in built})
    assert len(built) == len(statements)
    # The candidates replicate statements: far fewer facts than uses.
    uses = sum(
        len(instance.statements)
        for program in irs
        for instance in program.kernels
    )
    assert len(statements) < uses


def test_repeated_iterator_read_keeps_both_halo_semantics():
    """``A[i-1][i+1]``: the pattern keeps the last subscript, the
    statement geometry every subscript."""
    ir = build_ir(
        parse(
            """
            parameter N=16;
            iterator j, i;
            double a[N,N], b[N,N];
            copyin a;
            stencil s (b, a) {
              b[j][i] = a[i-1][i+1] + a[j][i];
            }
            s (b, a);
            copyout b;
            """
        )
    )
    instance = ir.kernels[0]
    assert analysis.read_halos(ir, instance)["a"] == ((0, 0), (0, 1))
    assert analysis.statement_geometry(ir, instance)[0][1] == (
        (0, 0),
        (1, 1),
    )
    check_program(ir)


# -- generated programs --------------------------------------------------------

ITERATORS = ("k", "j", "i")
#: array -> rank; ``o*`` are written, the rest only read
INPUTS = {"u": 3, "v": 3, "p": 2, "c": 1}
OUTPUTS = ("o0", "o1", "o2")


@st.composite
def subscript(draw, position: int):
    form = draw(
        st.sampled_from(
            ("home", "home", "home", "iterator", "constant", "skewed")
        )
    )
    const = draw(st.integers(-3, 3))
    if form == "constant":
        return str(abs(const))
    if form == "skewed":
        first, second = draw(
            st.lists(st.sampled_from(ITERATORS), min_size=2, max_size=2,
                     unique=True)
        )
        return f"{first}+{second}"
    # "home" keeps the canonical iterator of the position; "iterator"
    # may repeat one the access already uses (``a[i-1][i+1]``).
    iterator = (
        ITERATORS[position]
        if form == "home"
        else draw(st.sampled_from(ITERATORS))
    )
    if const == 0:
        return iterator
    return f"{iterator}{const:+d}"


@st.composite
def read(draw, written):
    array = draw(st.sampled_from(sorted(INPUTS) + sorted(written)))
    rank = INPUTS.get(array, 3)
    positions = range(3 - rank, 3)
    return array + "".join(f"[{draw(subscript(p))}]" for p in positions)


@st.composite
def expression(draw, written, scalars):
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("read", "read", "read", "scalar")))
        if kind == "scalar" and scalars:
            terms.append(draw(st.sampled_from(sorted(scalars))))
        else:
            terms.append(draw(read(written)))
    ops = [draw(st.sampled_from(("+", "-", "*"))) for _ in terms[1:]]
    text = terms[0]
    for op, term in zip(ops, terms[1:]):
        text += f" {op} {term}"
    return text


@st.composite
def stencil_body(draw):
    lines = []
    written: set = set()
    scalars = {"w"}
    locals_: list = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("local", "accumulate", "grid", "grid")))
        if kind == "accumulate" and locals_:
            target = draw(st.sampled_from(locals_))
            rhs = draw(expression(written, scalars))
            lines.append(f"{target} += {rhs};")
        elif kind in ("local", "accumulate"):
            target = f"t{len(locals_)}"
            rhs = draw(expression(written, scalars))
            lines.append(f"double {target} = {rhs};")
            locals_.append(target)
            scalars.add(target)
        else:
            target = draw(st.sampled_from(OUTPUTS))
            shift = draw(st.sampled_from(("", "", "+1", "-1")))
            op = draw(st.sampled_from(("=", "=", "+=")))
            rhs = draw(expression(written, scalars))
            lines.append(f"{target}[k][j][i{shift}] {op} {rhs};")
            written.add(target)
    if not written:
        lines.append(f"o0[k][j][i] = {draw(expression(written, scalars))};")
        written.add("o0")
    return lines, written


@st.composite
def programs(draw):
    kernels = draw(st.integers(1, 2))
    arrays = ", ".join(
        [f"{name}[N,N,N]" for name in ("u", "v") + OUTPUTS]
        + ["p[N,N]", "c[N]", "w"]
    )
    params = "o0, o1, o2, u, v, p, c, w"
    text = [
        "parameter N=16;",
        "iterator k, j, i;",
        f"double {arrays};",
        "copyin u, v, p, c, w;",
    ]
    calls = []
    outputs: set = set()
    for index in range(kernels):
        lines, written = draw(stencil_body())
        outputs |= written
        text.append(f"stencil s{index} ({params}) {{")
        text.extend(f"  {line}" for line in lines)
        text.append("}")
        calls.append(f"s{index} ({params});")
    text.extend(calls)
    text.append(f"copyout {', '.join(sorted(outputs))};")
    return "\n".join(text) + "\n"


@settings(deadline=None)
@given(programs())
def test_generated_programs_match_reference(source):
    check_program(build_ir(parse(source)))

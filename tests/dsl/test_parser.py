"""Unit tests for the program-level parser, pragmas and validation."""

import pytest

from repro.dsl import (
    ArrayAccess,
    Assignment,
    LocalDecl,
    ParseError,
    ValidationError,
    parse,
)
from repro.dsl.pragmas import parse_assign, parse_pragma
from repro.dsl.validate import MAX_ITERATIONS, reach_limit

JACOBI = """
parameter L=512, M=512, N=512;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, h2inv;
copyin out, in, h2inv, a, b;
iterate 12;
#pragma stream k block (32,16) unroll j=2
stencil jacobi (B, A, h2inv, a, b) {
  double c = b * h2inv;
  B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1]
    + A[k][j][i-1] + A[k][j+1][i] + A[k][j-1][i] +
    A[k+1][j][i] + A[k-1][j][i] - A[k][j][i]*6.0);
}
jacobi (out, in, h2inv, a, b);
copyout out;
"""


class TestJacobiProgram:
    def test_parses(self):
        program = parse(JACOBI)
        assert program.parameter_map == {"L": 512, "M": 512, "N": 512}
        assert program.iterators == ("k", "j", "i")
        assert program.time_iterations == 12

    def test_decls(self):
        program = parse(JACOBI)
        decls = program.decl_map
        assert decls["in"].dims == ("L", "M", "N")
        assert not decls["a"].is_array

    def test_copy_lists(self):
        program = parse(JACOBI)
        assert "h2inv" in program.copyin
        assert program.copyout == ("out",)

    def test_stencil_body(self):
        stencil = parse(JACOBI).stencils[0]
        assert isinstance(stencil.body[0], LocalDecl)
        stmt = stencil.body[1]
        assert isinstance(stmt, Assignment)
        assert isinstance(stmt.lhs, ArrayAccess)
        assert stmt.lhs.name == "B"

    def test_pragma_attached(self):
        stencil = parse(JACOBI).stencils[0]
        assert stencil.pragma.stream_dim == "k"
        assert stencil.pragma.block == (32, 16)
        assert stencil.pragma.unroll_map == {"j": 2}

    def test_call(self):
        program = parse(JACOBI)
        assert program.calls[0].args == ("out", "in", "h2inv", "a", "b")

    def test_array_shape(self):
        program = parse(JACOBI)
        assert program.array_shape("in") == (512, 512, 512)


class TestPragmaParsing:
    def test_full_pragma(self):
        pragma = parse_pragma("#pragma stream k block (32,16) unroll j=2 occupancy 0.5")
        assert pragma.stream_dim == "k"
        assert pragma.block == (32, 16)
        assert pragma.unroll_map == {"j": 2}
        assert pragma.occupancy == 0.5

    def test_clause_order_free(self):
        pragma = parse_pragma("#pragma unroll i=4 stream j")
        assert pragma.stream_dim == "j"
        assert pragma.unroll_map == {"i": 4}

    def test_unroll_comma_list(self):
        pragma = parse_pragma("#pragma unroll j=2, i=4")
        assert pragma.unroll_map == {"j": 2, "i": 4}

    def test_block_3d(self):
        pragma = parse_pragma("#pragma block (16,4,4)")
        assert pragma.block == (16, 4, 4)

    def test_occupancy_out_of_range(self):
        with pytest.raises(ParseError):
            parse_pragma("#pragma occupancy 1.5")
        with pytest.raises(ParseError):
            parse_pragma("#pragma occupancy 0")

    def test_unknown_clause(self):
        with pytest.raises(ParseError):
            parse_pragma("#pragma vectorize i")

    @pytest.mark.parametrize(
        "text",
        [
            "#pragma block (3²,16)",
            "#pragma unroll j=2²",
            "#pragma occupancy 1e+",
            "#pragma occupancy 5²",
        ],
    )
    def test_unconvertible_number(self, text):
        # The lexer accepts these as numbers; conversion refuses them.
        with pytest.raises(ParseError, match="malformed number") as info:
            parse_pragma(text, line=7)
        assert info.value.context["line"] == 7


class TestAssignParsing:
    def test_two_groups(self):
        assign = parse_assign("#assign shmem (u0,u1,u2), gmem (mu,la)")
        assert assign.placement_map == {
            "u0": "shmem",
            "u1": "shmem",
            "u2": "shmem",
            "mu": "gmem",
            "la": "gmem",
        }

    def test_register_class(self):
        assign = parse_assign("#assign register (A)")
        assert assign.placement_map == {"A": "register"}

    def test_unknown_class(self):
        with pytest.raises(ParseError):
            parse_assign("#assign l2cache (A)")

    def test_duplicate_name(self):
        with pytest.raises(ParseError):
            parse_assign("#assign shmem (A), gmem (A)")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_assign("#assign")


class TestValidation:
    def _program(self, body, decls="double A[N,N], B[N,N];", extra=""):
        return f"""
        parameter N=64;
        iterator j, i;
        {decls}
        copyin A;
        {extra}
        stencil s (B, A) {{
          {body}
        }}
        s (B, A);
        copyout B;
        """

    def test_valid_minimal(self):
        parse(self._program("B[j][i] = A[j][i+1] + A[j][i-1];"))

    def test_undeclared_array_read(self):
        with pytest.raises(ValidationError):
            parse(self._program("B[j][i] = C[j][i];"))

    def test_rank_mismatch(self):
        with pytest.raises(ValidationError):
            parse(self._program("B[j][i] = A[j][i][i];"))

    def test_scalar_subscripted(self):
        src = self._program(
            "B[j][i] = a[j][i];", decls="double A[N,N], B[N,N], a;"
        )
        with pytest.raises(ValidationError):
            parse(src)

    def test_subscript_with_non_iterator(self):
        with pytest.raises(ValidationError):
            parse(self._program("B[j][i] = A[j][q+1];"))

    def test_write_subscript_must_be_simple(self):
        with pytest.raises(ValidationError):
            parse(self._program("B[2*j][i] = A[j][i];"))

    def test_write_repeated_iterator(self):
        with pytest.raises(ValidationError):
            parse(self._program("B[j][j] = A[j][i];"))

    def test_subscript_reach_is_bounded(self):
        # Two iterators over 64 x 64 points: (1 + 2r)**2 * 4096 * 8 bytes
        # stay below 2**63 up to r = 2**23 - 1.
        r = 2**23 - 1
        parse(self._program(f"B[j][i+{r}] = A[j-{r}][i] + A[16][-{r}+i];"))
        for body, where, array in (
            (f"B[j][i] = A[j][i] + A[j][i+{r + 1}];", f"i+{r + 1}", "A"),
            (f"B[j][i-{r + 1}] = A[j][i];", f"i-{r + 1}", "B"),
            (f"B[j][i] = A[j][{r + 1}*i];", f"{r + 1}*i", "A"),
        ):
            with pytest.raises(ValidationError) as info:
                parse(self._program(body))
            assert info.value.message == (
                f"stencil 's': subscript {where} of {array!r} "
                f"has a coefficient or constant larger than {r} in magnitude, "
                "the reach 2 iterators over 4096 points allow"
            ), body
            assert (info.value.line, info.value.col) == (8, 11)
        with pytest.raises(ValidationError) as info:
            parse(self._program("B[j][i] = A[j][68719476737];"))
        assert info.value.message == (
            "stencil 's': subscript 68719476737 of 'A' has a coefficient or "
            "constant larger than 68719476736 in magnitude, the largest extent"
        )

    def test_reach_limit_shrinks_with_each_iterator(self):
        # 2**36 points: reach 127 over three iterators, 31 over four.
        assert reach_limit(2**36, 3) == 127
        assert reach_limit(2**36, 4) == 31
        src = """
        parameter N=512;
        iterator l, k, j, i;
        double A[N,N,N,N], B[N,N,N,N];
        copyin A;
        stencil s (B, A) {{ B[l][k][j][i] = A[l][k][j][i+{c}] + A[l-{c}][k][j][i]; }}
        s (B, A);
        copyout B;
        """
        parse(src.format(c=31))
        with pytest.raises(ValidationError) as info:
            parse(src.format(c=32))
        assert info.value.message.startswith(
            "stencil 's': subscript i+32 of 'A' has a coefficient or "
            "constant larger than 31 in magnitude"
        )

    def test_extents_are_bounded(self):
        at_bound = self._program("B[j][i] = A[j][i];").replace(
            "N=64", "N=262144"
        )
        parse(at_bound)  # 2**36 elements
        with pytest.raises(ValidationError) as info:
            parse(at_bound.replace("N=262144", "N=262145"))
        assert info.value.message.startswith("array 'A' has 68720001025 elements")
        assert (info.value.line, info.value.col) == (4, 16)
        with pytest.raises(ValidationError) as info:
            parse(at_bound.replace("N=262144", "N=68719476737"))
        assert info.value.message.startswith("parameter 'N' is 68719476737,")
        assert (info.value.line, info.value.col) == (2, 19)

    def test_size_bounds_leave_earlier_failures_first(self):
        src = self._program("B[j][i] = C[j][i+99];").replace(
            "N=64", "N=99999999999999999999"
        )
        with pytest.raises(ValidationError) as info:
            parse(src)
        assert "reads undeclared array 'C'" in info.value.message

    def test_call_arity_mismatch(self):
        src = """
        parameter N=64;
        iterator i;
        double A[N], B[N];
        stencil s (X, Y) { X[i] = Y[i]; }
        s (A);
        """
        with pytest.raises(ValidationError):
            parse(src)

    def test_call_undeclared_arg(self):
        src = """
        parameter N=64;
        iterator i;
        double A[N];
        stencil s (X) { X[i] = X[i]; }
        s (Q);
        """
        with pytest.raises(ValidationError):
            parse(src)

    def test_call_undefined_stencil(self):
        src = """
        parameter N=64;
        iterator i;
        double A[N];
        t (A);
        """
        with pytest.raises(ValidationError):
            parse(src)

    def test_undefined_scalar_read(self):
        with pytest.raises(ValidationError):
            parse(self._program("B[j][i] = A[j][i] * zeta;"))

    def test_local_before_use_ok(self):
        parse(self._program("double c = 2.0; B[j][i] = c * A[j][i];"))

    def test_implicit_local_scalar(self):
        # Figure 3c style: 'mux1 = ...;' without declaration.
        parse(self._program("mux1 = A[j][i] + A[j][i+1]; B[j][i] = mux1;"))

    def test_plus_equals_before_assignment_rejected(self):
        with pytest.raises(ValidationError):
            parse(self._program("r += A[j][i]; B[j][i] = r;"))

    def test_plus_equals_after_assignment_ok(self):
        parse(self._program("r = A[j][i]; r += A[j][i+1]; B[j][i] = r;"))

    def test_local_shadowing_rejected(self):
        src = self._program(
            "double a = 1.0; B[j][i] = a * A[j][i];",
            decls="double A[N,N], B[N,N], a;",
        )
        with pytest.raises(ValidationError):
            parse(src)

    def test_stream_dim_must_be_iterator(self):
        src = """
        parameter N=64;
        iterator j, i;
        double A[N,N], B[N,N];
        #pragma stream z
        stencil s (B, A) { B[j][i] = A[j][i]; }
        s (B, A);
        """
        with pytest.raises(ValidationError):
            parse(src)

    def test_assign_unknown_array(self):
        src = self._program(
            "#assign shmem (Q)\n B[j][i] = A[j][i];"
        )
        with pytest.raises(ValidationError):
            parse(src)

    def test_duplicate_variable(self):
        src = """
        parameter N=64;
        iterator i;
        double A[N], A[N];
        stencil s (A) { A[i] = A[i]; }
        s (A);
        """
        with pytest.raises(ValidationError):
            parse(src)

    def test_copyout_scalar_rejected(self):
        src = """
        parameter N=64;
        iterator i;
        double A[N], c;
        stencil s (A) { A[i] = A[i]; }
        s (A);
        copyout c;
        """
        with pytest.raises(ValidationError):
            parse(src)

    def test_iterate_must_be_positive(self):
        with pytest.raises(ParseError):
            parse("parameter N=4;\niterator i;\ndouble A[N];\niterate 0;")

    def test_iterate_count_is_bounded_at_the_count(self):
        with pytest.raises(ParseError) as info:
            parse(f"parameter N=4;\niterator i;\niterate {MAX_ITERATIONS + 1};")
        assert (info.value.line, info.value.col) == (3, 9)

    def test_iterate_count_at_the_bound_parses(self):
        src = self.SRC_ITERATE.format(count=MAX_ITERATIONS)
        assert parse(src).time_iterations == MAX_ITERATIONS

    SRC_ITERATE = """
    parameter N=4;
    iterator i;
    iterate {count};
    double A[N], B[N];
    copyin A;
    stencil s (B, A) {{ B[i] = A[i]; }}
    s (B, A);
    copyout B;
    """


class TestMultiStencilPrograms:
    SRC = """
    parameter N=128;
    iterator k, j, i;
    double a[N,N,N], b[N,N,N], c[N,N,N];
    copyin a;
    stencil first (out, inp) {
      out[k][j][i] = inp[k][j][i+1] + inp[k][j][i-1];
    }
    stencil second (out, inp) {
      out[k][j][i] = 0.5 * (inp[k+1][j][i] + inp[k-1][j][i]);
    }
    first (b, a);
    second (c, b);
    copyout c;
    """

    def test_two_stencils_two_calls(self):
        program = parse(self.SRC)
        assert [s.name for s in program.stencils] == ["first", "second"]
        assert [c.name for c in program.calls] == ["first", "second"]

    def test_same_stencil_called_twice(self):
        src = self.SRC + "\nfirst (c, b);"
        program = parse(src)
        assert len(program.calls) == 3

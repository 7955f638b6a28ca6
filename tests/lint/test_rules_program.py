"""Adversarial tests for the program rules (RL1xx).

Each case is a minimal ill-formed DSL program that must fire its exact
rule code.  Co-firing with RL102 (semantic validation) is expected for
the AST rules — they run *before* validation precisely so their precise
codes survive — hence the ``code in report.codes()`` idiom.
"""

from repro.lint import lint_source

VALID = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], B[N,N,N];
copyin A;
stencil s (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
s (B, A);
copyout B;
"""


def codes_of(source):
    return lint_source(source).codes()


def rl104_message(source):
    (finding,) = [d for d in lint_source(source) if d.rule.code == "RL104"]
    return finding.message


def cycle_message(chain):
    return (
        f"array dataflow between kernels is circular: {chain} \u2014 the "
        "stencil DAG cannot be scheduled"
    )


def test_valid_program_is_clean():
    assert codes_of(VALID) == ()


class TestRL101SyntaxError:
    def test_missing_semicolon(self):
        src = VALID.replace("copyin A;", "copyin A")
        report = lint_source(src)
        assert report.codes() == ("RL101",)
        assert report.has_errors

    def test_garbage(self):
        assert codes_of("this is not a stencil program") == ("RL101",)

    def test_syntax_error_carries_position(self):
        report = lint_source(VALID.replace("iterator k, j, i;", "iterator ;"))
        (finding,) = report
        assert finding.span is not None and finding.span.line > 0


class TestRL102InvalidProgram:
    def test_copyin_of_undeclared_array(self):
        src = VALID.replace("copyin A;", "copyin A, ghost;")
        assert "RL102" in codes_of(src)

    def test_call_of_unknown_stencil(self):
        src = VALID.replace("s (B, A);", "t (B, A);")
        assert "RL102" in codes_of(src)


class TestRL103InPlaceRace:
    SRC = """
parameter N=64;
iterator k, j, i;
double A[N,N,N];
copyin A;
stencil s (X) { X[k][j][i] = X[k][j][i+1]; }
s (A);
copyout A;
"""

    def test_offset_in_place_read_fires(self):
        report = lint_source(self.SRC)
        assert "RL103" in report.codes()
        assert report.has_errors

    def test_center_in_place_read_is_legal(self):
        # The pointwise `X += ...` idiom (SW4's addsgd kernels): a
        # zero-offset self-read never races.
        src = self.SRC.replace("X[k][j][i+1]", "X[k][j][i] * 2.0")
        assert "RL103" not in codes_of(src)


class TestRL104DependenceCycle:
    SRC = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], B[N,N,N];
copyin A, B;
stencil f (Y, X) { Y[k][j][i] = X[k][j][i+1]; }
f (A, B);
f (B, A);
copyout A, B;
"""

    def test_two_kernel_cycle_fires(self):
        report = lint_source(self.SRC)
        assert "RL104" in report.codes()
        assert report.has_errors

    def test_linear_chain_is_clean(self):
        src = self.SRC.replace("f (B, A);", "")
        assert "RL104" not in codes_of(src)

    def test_cycle_through_shared_writer_fires(self):
        # Regression: k1 reads X and writes both X and Y; k2 reads Y and
        # writes X back.  The old pure-input graph dropped the X -> Y
        # edge because k1 also writes X, missing the X -> Y -> X cycle —
        # X is *not* k1's exclusive array (k2 writes it too), so the
        # read is a genuine cross-kernel input.
        src = """
parameter N=64;
iterator k, j, i;
double X[N,N,N], Y[N,N,N];
copyin X;
stencil fwd (P, Q, S) { P[k][j][i] = S[k][j][i] + 1.0;
                        Q[k][j][i] = S[k][j][i] * 2.0; }
stencil back (P, S) { P[k][j][i] = S[k][j][i] - 1.0; }
fwd (X, Y, X);
back (X, Y);
copyout X;
"""
        report = lint_source(src)
        assert "RL104" in report.codes()
        assert report.has_errors
        assert rl104_message(src) == cycle_message("X -> Y -> X")

    def test_two_kernel_cycle_message(self):
        assert rl104_message(self.SRC) == cycle_message("B -> A -> B")

    def test_three_kernel_cycle_message(self):
        src = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], B[N,N,N], C[N,N,N], D[N,N,N];
copyin A, D;
stencil f (Y, X) { Y[k][j][i] = X[k][j][i+1]; }
stencil g (Y, X, Z) { Y[k][j][i] = X[k][j][i] + Z[k][j][i]; }
f (B, A);
g (C, B, D);
f (A, C);
copyout A, B, C;
"""
        assert rl104_message(src) == cycle_message("A -> B -> C -> A")

    def test_exclusive_in_place_writer_stays_silent(self):
        # The legal accumulate idiom (up += ...) must not read as a
        # cycle when no other kernel writes the accumulator.
        src = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], U[N,N,N];
copyin A, U;
stencil acc (Y, X) { Y[k][j][i] += X[k][j][i]; }
acc (U, A);
copyout U;
"""
        assert "RL104" not in codes_of(src)


class TestRL105HaloOutOfBounds:
    SRC = """
parameter N=3;
iterator k, j, i;
double A[N,N,N], B[N,N,N];
copyin A;
stencil s (Y, X) { Y[k][j][i] = X[k][j][i+2] + X[k][j][i-1]; }
s (B, A);
copyout B;
"""

    def test_halo_meets_extent_fires(self):
        report = lint_source(self.SRC)
        assert "RL105" in report.codes()
        assert report.has_errors

    def test_halo_within_extent_is_clean(self):
        src = self.SRC.replace("parameter N=3;", "parameter N=4;")
        assert "RL105" not in codes_of(src)


class TestRL106UnusedArray:
    def test_untouched_declaration_warns(self):
        src = VALID.replace(
            "double A[N,N,N], B[N,N,N];",
            "double A[N,N,N], B[N,N,N], C[N,N,N];",
        )
        report = lint_source(src)
        assert "RL106" in report.codes()
        assert not report.has_errors  # warning only


class TestRL107DeadWrite:
    SRC = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], B[N,N,N], C[N,N,N];
copyin A;
stencil s (Y, Z, X) {
  Y[k][j][i] = X[k][j][i+1];
  Z[k][j][i] = X[k][j][i-1];
}
s (B, C, A);
copyout B;
"""

    def test_written_never_consumed_warns(self):
        report = lint_source(self.SRC)
        assert "RL107" in report.codes()
        assert not report.has_errors

    def test_copied_out_write_is_live(self):
        src = self.SRC.replace("copyout B;", "copyout B, C;")
        assert "RL107" not in codes_of(src)


class TestRL108UninitializedRead:
    SRC = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], B[N,N,N], C[N,N,N];
copyin A;
stencil s (Y, X) { Y[k][j][i] = X[k][j][i+1]; }
s (B, C);
s (C, A);
copyout B;
"""

    def test_read_before_any_write_warns(self):
        # First kernel consumes C, which is produced only by the second
        # call — in a single-sweep program the first sweep reads garbage.
        report = lint_source(self.SRC)
        assert "RL108" in report.codes()
        assert not report.has_errors

    def test_iterative_feedback_is_initialized(self):
        # Under `iterate` the previous time step initializes every
        # written array, so the same shape is clean.
        src = self.SRC.replace("copyin A;", "copyin A;\niterate 4;")
        assert "RL108" not in codes_of(src)

    def test_producer_before_consumer_is_clean(self):
        src = self.SRC.replace("s (B, C);\ns (C, A);", "s (C, A);\ns (B, C);")
        assert "RL108" not in codes_of(src)


class TestRL109ZeroExtent:
    def test_zero_parameter_extent_fires(self):
        src = VALID.replace("parameter N=64;", "parameter N=0;")
        assert "RL109" in codes_of(src)

    def test_zero_extent_on_one_axis_fires(self):
        src = VALID.replace("parameter N=64;", "parameter N=64, Z=0;")
        src = src.replace("A[N,N,N]", "A[N,N,Z]")
        assert "RL109" in codes_of(src)


class TestRL110DtypeMix:
    def test_float_double_mix_warns(self):
        src = VALID.replace(
            "double A[N,N,N], B[N,N,N];",
            "double A[N,N,N];\nfloat B[N,N,N];",
        )
        assert "RL110" in codes_of(src)

    def test_single_dtype_is_clean(self):
        assert "RL110" not in codes_of(VALID)


class TestRL111DirectiveWrongIterator:
    def test_stream_of_unknown_iterator(self):
        src = VALID.replace(
            "stencil s", "#pragma stream w block (32,16)\nstencil s"
        )
        assert "RL111" in codes_of(src)

    def test_unroll_of_unknown_iterator(self):
        src = VALID.replace(
            "stencil s",
            "#pragma stream k block (32,16) unroll w=2\nstencil s",
        )
        assert "RL111" in codes_of(src)

    def test_unroll_of_streaming_iterator(self):
        src = VALID.replace(
            "stencil s",
            "#pragma stream k block (32,16) unroll k=2\nstencil s",
        )
        assert "RL111" in codes_of(src)

    def test_well_formed_pragma_is_clean(self):
        src = VALID.replace(
            "stencil s",
            "#pragma stream k block (32,16) unroll i=2\nstencil s",
        )
        assert "RL111" not in codes_of(src)

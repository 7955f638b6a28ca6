"""``repro.lint`` — static stencil-and-plan verifier.

A rule-based static analyzer over the two artifact kinds the pipeline
consumes: DSL **programs** (dependence/race analysis, halo/bounds
checks, liveness, dtype consistency) and kernel **plans** (a fast
legality prescreen the evaluation engine runs before any simulation).

Every finding is a :class:`~repro.lint.diagnostics.Diagnostic` with a
stable rule code (``RLxxx``), a severity, and a source span threaded
from the DSL lexer.  ``repro lint`` renders findings as human text,
JSON, or SARIF 2.1.0 (``repro.lint.sarif``); the evaluation engine
turns error-severity plan findings into counted ``lint.*`` rejections
(``docs/lint.md`` has the full rule catalog).
"""

from .._lazy import lazy_attributes
from .diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    LintReport,
    Rule,
    RULES,
    rule,
)
from .dependence import (
    DependenceEdge,
    Witness,
    array_flow_graph,
    dependence_graph,
    edges_between,
    kernel_dependences,
)
from . import rules_program  # registers the RL1xx rules in RULES
from .rules_plan import check_plan, classify_occupancy_failure, plan_rejection
from .rules_transform import (
    certification_advisories,
    certify_plan_transformations,
)

__getattr__ = lazy_attributes(
    __name__,
    {
        ".engine": ("extract_dsl_blocks", "lint_program", "lint_source"),
        ".sarif": ("sarif_log", "write_sarif"),
        ".witness": ("WitnessReplay", "replay_witness"),
    },
)

__all__ = [
    "ERROR",
    "INFO",
    "WARNING",
    "DependenceEdge",
    "Diagnostic",
    "LintReport",
    "RULES",
    "Rule",
    "Witness",
    "WitnessReplay",
    "array_flow_graph",
    "certification_advisories",
    "certify_plan_transformations",
    "check_plan",
    "classify_occupancy_failure",
    "dependence_graph",
    "edges_between",
    "extract_dsl_blocks",
    "kernel_dependences",
    "lint_program",
    "lint_source",
    "plan_rejection",
    "replay_witness",
    "rule",
    "sarif_log",
    "write_sarif",
]

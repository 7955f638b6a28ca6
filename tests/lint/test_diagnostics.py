"""Tests for the shared diagnostics core (rules, findings, reports)."""

import pytest

from repro.dsl.ast import SourceSpan
from repro.lint import RULES, Diagnostic, LintReport, Rule, rule
from repro.lint.diagnostics import ERROR, INFO, SARIF_LEVELS, WARNING


class TestRuleRegistry:
    def test_catalog_has_at_least_ten_rules(self):
        assert len(RULES) >= 10

    def test_program_and_plan_families_present(self):
        codes = set(RULES)
        assert any(c.startswith("RL1") for c in codes)
        assert any(c.startswith("RL2") for c in codes)

    def test_codes_are_stable_identifiers(self):
        for code, entry in RULES.items():
            assert code == entry.code
            assert code.startswith("RL") and code[2:].isdigit()
            assert entry.name  # kebab-case slug
            assert entry.summary

    def test_registration_is_idempotent(self):
        existing = next(iter(RULES.values()))
        again = rule(existing.code, "other-name", "info", "other summary")
        assert again is existing

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Rule("RL999", "bogus", "fatal", "nope")

    def test_every_severity_maps_to_sarif(self):
        for entry in RULES.values():
            assert entry.severity in SARIF_LEVELS


class TestDiagnostic:
    def _rule(self):
        return next(r for r in RULES.values() if r.severity == ERROR)

    def test_render_is_one_line_with_position(self):
        d = Diagnostic(
            self._rule(), "boom", span=SourceSpan(3, 7), artifact="x.dsl"
        )
        text = d.render()
        assert text.startswith("x.dsl:3:7: ")
        assert d.code in text and "error" in text and "boom" in text
        assert "\n" not in text

    def test_location_without_span_is_artifact(self):
        d = Diagnostic(self._rule(), "boom", artifact="x.dsl")
        assert d.location() == "x.dsl"

    def test_as_dict_round_trips_position(self):
        d = Diagnostic(self._rule(), "boom", span=SourceSpan(3, 7))
        payload = d.as_dict()
        assert payload["line"] == 3 and payload["col"] == 7
        assert payload["code"] == d.code
        assert payload["severity"] == ERROR


class TestLintReport:
    def _mk(self, severity, line, code_prefix="RL1"):
        entry = next(
            r
            for r in RULES.values()
            if r.severity == severity and r.code.startswith(code_prefix)
        )
        return Diagnostic(entry, "m", span=SourceSpan(line, 1))

    def test_sorted_orders_by_severity_then_position(self):
        report = LintReport(
            (
                self._mk(INFO, 1, "RL2"),
                self._mk(ERROR, 9),
                self._mk(WARNING, 2),
                self._mk(ERROR, 3),
            )
        )
        ordered = [d.severity for d in report.sorted()]
        assert ordered == [ERROR, ERROR, WARNING, INFO]
        errors = [d.span.line for d in report.sorted() if d.severity == ERROR]
        assert errors == [3, 9]

    def test_codes_are_distinct_and_sorted(self):
        report = LintReport(
            (self._mk(ERROR, 1), self._mk(ERROR, 2), self._mk(WARNING, 3))
        )
        codes = report.codes()
        assert codes == tuple(sorted(set(codes)))

    def test_has_errors_and_bool(self):
        empty = LintReport()
        assert not empty and not empty.has_errors
        warn_only = LintReport((self._mk(WARNING, 1),))
        assert warn_only and not warn_only.has_errors
        assert LintReport((self._mk(ERROR, 1),)).has_errors

    def test_merge_concatenates(self):
        a = LintReport((self._mk(ERROR, 1),), artifact="a")
        b = LintReport((self._mk(WARNING, 2),), artifact="b")
        merged = a.merge(b)
        assert len(merged) == 2 and merged.artifact == "a"

    def test_as_dict_counts(self):
        report = LintReport(
            (self._mk(ERROR, 1), self._mk(WARNING, 2), self._mk(WARNING, 3))
        )
        counts = report.as_dict()["counts"]
        assert counts[ERROR] == 1 and counts[WARNING] == 2

    def test_publish_emits_per_rule_counters(self):
        from repro.obs import configure_metrics, get_metrics

        configure_metrics(reset=True)
        d = self._mk(ERROR, 1)
        LintReport((d, d)).publish()
        snapshot = get_metrics().snapshot()
        assert snapshot[f"lint.finding.{d.code}"] == 2

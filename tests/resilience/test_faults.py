"""The deterministic fault-injection harness."""

import pytest

from repro.resilience import FaultInjector, InjectedFault, UsageError


class TestSelection:
    def test_rate_zero_never_selects(self):
        injector = FaultInjector(rate=0.0, seed=1)
        assert not any(injector.selects(f"key{i}") for i in range(100))

    def test_rate_one_always_selects(self):
        injector = FaultInjector(rate=1.0, seed=1)
        assert all(injector.selects(f"key{i}") for i in range(100))

    def test_selection_is_deterministic_per_seed(self):
        a = FaultInjector(rate=0.3, seed=42)
        b = FaultInjector(rate=0.3, seed=42)
        keys = [f"candidate-{i}" for i in range(500)]
        assert [a.selects(k) for k in keys] == [b.selects(k) for k in keys]

    def test_different_seeds_fault_different_candidates(self):
        keys = [f"candidate-{i}" for i in range(500)]
        a = {k for k in keys if FaultInjector(rate=0.3, seed=1).selects(k)}
        b = {k for k in keys if FaultInjector(rate=0.3, seed=2).selects(k)}
        assert a != b

    def test_selection_rate_approximates_requested(self):
        injector = FaultInjector(rate=0.2, seed=7)
        hits = sum(injector.selects(f"key{i}") for i in range(2000))
        assert 0.15 < hits / 2000 < 0.25

    def test_order_independence(self):
        """Content-addressing: the faulted set does not depend on the
        order candidates are drawn in (what a resumed run relies on)."""
        keys = [f"candidate-{i}" for i in range(200)]
        forward = FaultInjector(rate=0.3, seed=5)
        backward = FaultInjector(rate=0.3, seed=5)
        faulted_fwd = {k for k in keys if forward.selects(k)}
        faulted_bwd = {k for k in reversed(keys) if backward.selects(k)}
        assert faulted_fwd == faulted_bwd

    def test_match_predicate_restricts(self):
        injector = FaultInjector(rate=1.0, seed=0, match=lambda k: "x" in k)
        assert injector.selects("axb")
        assert not injector.selects("abc")


class TestInjection:
    def test_error_kind_raises_injected_fault(self):
        injector = FaultInjector(rate=1.0, seed=0)
        with pytest.raises(InjectedFault) as info:
            injector.invoke("k1")
        assert info.value.context["candidate"] == "k1"
        assert info.value.context["fault_seed"] == 0
        assert injector.injected == 1

    def test_after_defers_injection(self):
        injector = FaultInjector(rate=1.0, seed=0, after=3)
        for _ in range(3):
            injector.invoke("k1")
        with pytest.raises(InjectedFault):
            injector.invoke("k1")

    def test_max_faults_bounds_injection(self):
        injector = FaultInjector(rate=1.0, seed=0, max_faults=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.invoke("k1")
        injector.invoke("k1")
        assert injector.injected == 2

    def test_max_faults_zero_never_injects(self):
        injector = FaultInjector(rate=1.0, seed=0, max_faults=0)
        for _ in range(5):
            injector.invoke("k1")
        assert injector.injected == 0

    def test_match_restricts_injection(self):
        injector = FaultInjector(rate=1.0, seed=0, match=lambda k: "x" in k)
        injector.invoke("abc")
        with pytest.raises(InjectedFault):
            injector.invoke("axb")
        assert injector.invocations == 2
        assert injector.injected == 1

    def test_injected_fault_is_an_exit_4_evaluation_error(self):
        from repro.resilience import EvaluationError

        injector = FaultInjector(rate=1.0, seed=0)
        with pytest.raises(EvaluationError) as info:
            injector.invoke("k1")
        assert info.value.exit_code == 4

    def test_invocation_counter(self):
        injector = FaultInjector(rate=0.0, seed=0)
        for _ in range(5):
            injector.invoke("k1")
        assert injector.invocations == 5
        assert injector.injected == 0


class TestValidation:
    def test_rate_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            FaultInjector(rate=1.5)
        with pytest.raises(UsageError):
            FaultInjector(rate=-0.1)


class TestObsIntegration:
    def test_injections_counted_in_metrics(self):
        from repro.obs import configure_metrics, get_metrics

        configure_metrics(True, reset=True)
        try:
            injector = FaultInjector(rate=1.0, seed=0)
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    injector.invoke("k1")
            snapshot = get_metrics().snapshot()
        finally:
            configure_metrics(False)
        assert snapshot["faults.injected"]["value"] == 3

"""Unit tests for the component registries."""

import pytest

from repro.scenario.registry import (
    ADVERSARIES,
    CHURN_KIND_LAWS,
    CHURN_MODELS,
    ENGINES,
    Registry,
    RegistryError,
)


class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1)
        assert registry.get("a")() == 1

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.register("b")
        def factory():
            return 2

        assert registry.get("b") is factory

    def test_duplicate_rejected(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("a", lambda: 2)

    def test_replace_allows_overwrite(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1)
        registry.register("a", lambda: 2, replace=True)
        assert registry.get("a")() == 2

    def test_unknown_name_lists_known(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: 1)
        with pytest.raises(RegistryError, match="alpha"):
            registry.get("beta")

    def test_contains_and_names(self):
        registry = Registry("widget")
        registry.register("b", 2)
        registry.register("a", 1)
        assert "a" in registry
        assert "c" not in registry
        assert registry.names() == ("a", "b")


class TestBuiltinCatalogue:
    def test_adversaries_registered(self):
        assert {"strong", "passive", "greedy-leave", "none"} <= set(
            ADVERSARIES.names()
        )

    def test_churn_models_registered(self):
        assert {
            "bernoulli",
            "poisson",
            "exponential-sessions",
            "pareto-sessions",
        } <= set(CHURN_MODELS.names())

    def test_one_churn_registry(self):
        """The kind-law name is the churn registry itself, not a twin."""
        assert CHURN_KIND_LAWS is CHURN_MODELS

    def test_engines_registered(self):
        import repro.scenario.backends  # noqa: F401 -- populate ENGINES

        assert {
            "analytic",
            "overlay-analytic",
            "batch",
            "scalar",
            "competing-batch",
            "competing-scalar",
            "agent",
        } <= set(ENGINES.names())

    def test_adversary_factories_build_strategies(self, base_params):
        from repro.adversary import AdversaryStrategy

        for name in ("strong", "passive", "greedy-leave"):
            strategy = ADVERSARIES.get(name)(base_params)
            assert isinstance(strategy, AdversaryStrategy)
        assert ADVERSARIES.get("none")(base_params) is None

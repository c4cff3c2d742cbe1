"""String-keyed component registries for the scenario subsystem.

A :class:`ScenarioSpec` names its adversary, churn model and simulation
backend by string; the three registries below resolve those names to
factories.  Components register themselves where they are defined
(``repro.adversary`` for strategies, ``repro.simulation.churn`` for
churn laws, :mod:`repro.scenario.backends` for engines), so a
spec file can reference anything importable without the scenario layer
hard-coding the catalogue.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

T = TypeVar("T")


class RegistryError(KeyError):
    """Raised when a name is missing from (or duplicated in) a registry."""


class Registry(Generic[T]):
    """A named string-to-factory mapping with decorator registration.

    Keys are case-sensitive identifiers; registration refuses silent
    overwrites (pass ``replace=True`` to shadow deliberately, e.g. from
    user code layering a custom variant over a built-in name).
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: dict[str, T] = {}

    @property
    def kind(self) -> str:
        """Human-readable component kind (used in error messages)."""
        return self._kind

    def register(
        self, name: str, value: T | None = None, *, replace: bool = False
    ):
        """Register ``value`` under ``name``.

        Usable directly (``registry.register("x", factory)``) or as a
        decorator (``@registry.register("x")``).
        """
        if value is None:
            def decorator(factory: T) -> T:
                self.register(name, factory, replace=replace)
                return factory

            return decorator
        if not replace and name in self._entries:
            raise RegistryError(
                f"{self._kind} {name!r} is already registered"
            )
        self._entries[name] = value
        return value

    def get(self, name: str) -> T:
        """The registered entry, or a :class:`RegistryError` naming the
        available keys."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise RegistryError(
                f"unknown {self._kind} {name!r}; registered: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def names(self) -> tuple[str, ...]:
        """All registered keys, sorted."""
        return tuple(sorted(self._entries))


#: ``name -> factory(params) -> AdversaryStrategy | None`` (agent tier).
ADVERSARIES: Registry[Callable] = Registry("adversary strategy")

#: ``name -> factory(rng, params, **options) -> law``: one law object
#: per churn process, serving every tier.  ``law.events(rng)`` is the
#: timed stream of the scalar and agent tiers; a law that is an
#: :class:`~repro.simulation.churn.IIDKinds` or
#: :class:`~repro.simulation.churn.ScheduledKinds` also exposes the
#: event-indexed kind sequence the batch tiers play.  Any other law
#: runs on the scalar and agent tiers only, and the batch tiers refuse
#: it loudly (never a silent scalar fallback).
CHURN_MODELS: Registry[Callable] = Registry("churn model")

#: The same registry under the name the benchmark's probes patch.
CHURN_KIND_LAWS = CHURN_MODELS

#: ``name -> SimulationBackend`` (see :mod:`repro.scenario.backends`).
ENGINES: Registry = Registry("simulation backend")

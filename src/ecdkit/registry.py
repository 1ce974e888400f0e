"""Name -> factory registries for every pluggable component kind.

Components are addressed from the declarative definition purely by name, so
adding a behavior is one ``Registry.register`` call, and the first name
registered for a feature-type scope is its default. Names are unique per
(kind, scope); re-registration is an error rather than a silent override.
Factories receive the full keyword map of the feature definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decoders import DECODERS
from .encoders import ENCODERS
from .errors import RegistryError

GLOBAL_SCOPE = "*"


class Registry:

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, dict[str, object]] = {}

    def register(self, name: str, factory, scope: str = GLOBAL_SCOPE) -> None:
        if not name:
            raise RegistryError(f"{self.kind} registry: component name must be non-empty")
        bucket = self._entries.setdefault(scope, {})
        if name in bucket:
            raise RegistryError(f"{self.kind} registry: {name!r} already registered for {scope!r}")
        bucket[name] = factory

    def lookup(self, name: str, scope: str = GLOBAL_SCOPE):
        bucket = self._entries.get(scope, {})
        if name not in bucket:
            available = ", ".join(self.names(scope)) or "(none)"
            raise RegistryError(
                f"{self.kind} registry: no {name!r} for {scope!r}; available: {available}")
        return bucket[name]

    def names(self, scope: str = GLOBAL_SCOPE) -> list[str]:
        return sorted(self._entries.get(scope, {}))

    def has(self, name: str, scope: str = GLOBAL_SCOPE) -> bool:
        return name in self._entries.get(scope, {})

    def default(self, scope: str = GLOBAL_SCOPE) -> str | None:
        """The first name registered for ``scope``; None if there is none."""
        return next(iter(self._entries.get(scope, {})), None)


@dataclass
class Registries:
    encoders: Registry = field(default_factory=lambda: Registry("encoder"))
    decoders: Registry = field(default_factory=lambda: Registry("decoder"))
    combiners: Registry = field(default_factory=lambda: Registry("combiner"))


def build_default_registries() -> Registries:
    """Fresh registries holding every built-in component."""
    from .graph import ConcatCombiner

    regs = Registries()
    for ftype, table in ENCODERS.items():
        for name, cls in table.items():
            regs.encoders.register(name, cls, scope=ftype)
    for ftype, table in DECODERS.items():
        for name, cls in table.items():
            regs.decoders.register(name, cls, scope=ftype)
    regs.combiners.register("concat", ConcatCombiner)
    return regs

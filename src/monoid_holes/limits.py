"""Resource ceilings for the potentially explosive computations.

Every ceiling is at least 1 and aborts with ResourceLimitError instead of
returning a wrong answer.  Defaults can be overridden by the
MONOID_HOLES_LIMITS environment variable ("key=value,key=value") or per
call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_VAR = "MONOID_HOLES_LIMITS"


@dataclass(frozen=True)
class Limits:
    max_basis: int = 10**6       # Graver working set, fiber solutions, saturation Hilbert basis
    max_nodes: int = 10**7       # search nodes, reduced sums + 1, simplices + parallelepiped points
    max_pairs: int = 10**5       # standard pairs emitted per ideal
    max_subsets: int = 10**6     # column subsets enumerated for subdeterminants
    max_rays: int = 10**5        # intermediate rays in facet enumeration

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 1:
                raise ValueError(f"limit {name} must be at least 1, got {getattr(self, name)}")

    def override(self, **kwargs) -> "Limits":
        fields = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **fields) if fields else self


def limits_from_env(base: Limits | None = None) -> Limits:
    """Build Limits from MONOID_HOLES_LIMITS, falling back to defaults."""
    limits = base or Limits()
    raw = os.environ.get(ENV_VAR, "")
    if not raw.strip():
        return limits
    parsed = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in Limits.__dataclass_fields__:
            raise ValueError(f"{ENV_VAR}: unknown limit {key!r}")
        try:
            parsed[key] = int(value.strip())
        except ValueError:
            raise ValueError(f"{ENV_VAR}: bad integer for {key!r}: {value!r}") from None
    return limits.override(**parsed)


DEFAULT_LIMITS = Limits()


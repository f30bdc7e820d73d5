"""Resource ceilings for the potentially explosive computations.

Every ceiling is at least 1 and aborts with ResourceLimitError instead of
returning a wrong answer.  A caller passes its own Limits; the command line
sets a ceiling by its --max-... flag.
"""

from __future__ import annotations

import operator

from .records import Record


class Limits(Record):
    max_basis: int = 10**6       # Graver working set, fiber solutions, saturation Hilbert basis
    max_nodes: int = 10**7       # search nodes, reduced sums + 1, simplices + parallelepiped points
    max_pairs: int = 10**5       # standard pairs emitted per ideal
    max_subsets: int = 10**6     # column subsets enumerated for subdeterminants
    max_rays: int = 10**5        # intermediate rays in facet enumeration

    def __post_init__(self):
        for name in self._fields:
            # operator.index is lossless: floats and strs are rejected, not truncated
            value = operator.index(getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 1:
                raise ValueError(f"limit {name} must be at least 1, got {value}")


DEFAULT_LIMITS = Limits()

"""Monomial ideals as exponent vectors: minimization, membership,
intersection, and a disjoint standard-pair decomposition of the staircase
complement."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError
from .limits import DEFAULT_LIMITS, Limits

Monomial = tuple[int, ...]


def divides(g: Monomial, m: Monomial) -> bool:
    return all(a <= b for a, b in zip(g, m))


def lcm_monomial(g: Monomial, h: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(g, h))


def _minimal_antichain(gens) -> tuple[Monomial, ...]:
    ordered = sorted(set(gens), key=lambda g: (sum(g), g))
    kept: list[Monomial] = []
    for g in ordered:
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its unique minimal generating antichain.

    No generators means the zero ideal; the single all-zero exponent
    vector means the unit ideal.
    """

    num_vars: int
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.num_vars:
                raise ValueError("generator arity does not match num_vars")
            if any(e < 0 for e in g):
                raise ValueError("exponents must be nonnegative")

    @classmethod
    def from_generators(cls, num_vars: int, gens) -> "MonomialIdeal":
        return cls(num_vars, _minimal_antichain(tuple(g) for g in gens))

    @classmethod
    def unit(cls, num_vars: int) -> "MonomialIdeal":
        return cls(num_vars, ((0,) * num_vars,))

    @property
    def is_unit(self) -> bool:
        return any(all(e == 0 for e in g) for g in self.generators)


@dataclass(frozen=True)
class StandardPair:
    """Cell root + Z_+ moves on free_vars, describing standard monomials.

    Cells produced by standard_pairs are pairwise disjoint; to achieve
    that, a root may carry a positive exponent on a free variable (the
    cell then starts above the axis).
    """

    root: Monomial
    free_vars: tuple[int, ...]


def intersect(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """Intersection, generated by pairwise least common multiples."""
    if i.num_vars != j.num_vars:
        raise ValueError("ideals live in different variable counts")
    gens = [lcm_monomial(g, h) for g in i.generators for h in j.generators]
    return MonomialIdeal.from_generators(i.num_vars, gens)


def standard_pairs(ideal: MonomialIdeal, limits: Limits = DEFAULT_LIMITS) -> tuple[StandardPair, ...]:
    """Disjoint cells whose union is exactly the staircase complement.

    Recursion: take the lexicographically first minimal generator g and its
    lowest support variable j, split on the exponent of x_j being
    0, ..., g_j - 1 (variable j becomes fixed in those branches) or >= g_j
    (generators are shifted down in j).  Each split strictly shrinks either
    the active variable set or the total generator degree.
    """
    n = ideal.num_vars
    pairs: list[StandardPair] = []
    counter = [0]

    def recurse(gens: tuple[Monomial, ...], active: frozenset[int], root: list[int]):
        counter[0] += 1
        if counter[0] > limits.max_pairs:
            raise ResourceLimitError("standard pair cells", limits.max_pairs)
        if not gens:
            pairs.append(StandardPair(tuple(root), tuple(sorted(active))))
            return
        if any(all(e == 0 for e in g) for g in gens):
            return  # unit ideal: no standard monomials here
        g = min(gens)
        j = next(v for v, e in enumerate(g) if e)
        for k in range(g[j]):
            sliced = [h[:j] + (0,) + h[j + 1:] for h in gens if h[j] <= k]
            new_root = root[:]
            new_root[j] += k
            recurse(_minimal_antichain(sliced), active - {j}, new_root)
        shifted = [h[:j] + (max(h[j] - g[j], 0),) + h[j + 1:] for h in gens]
        new_root = root[:]
        new_root[j] += g[j]
        recurse(_minimal_antichain(shifted), active, new_root)

    recurse(ideal.generators, frozenset(range(n)), [0] * n)
    return tuple(sorted(pairs, key=lambda p: (p.root, p.free_vars)))

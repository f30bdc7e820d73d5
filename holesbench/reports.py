"""Reading the CLI's key/value reports back into Python values."""

from __future__ import annotations


def parse_report(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Top-level `key: value` lines, and the indented lines under each key."""
    fields: dict[str, str] = {}
    lists: dict[str, list[str]] = {}
    key = None
    for line in text.splitlines():
        if line.startswith("  "):
            if key is None:
                raise ValueError(f"indented line before any key: {line!r}")
            lists[key].append(line.strip())
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"line is not 'key: value': {line!r}")
        fields[key] = value.strip()
        lists[key] = []
    return fields, lists


def ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split())


def vectors(lines: list[str]) -> list[tuple[int, ...]]:
    return [ints(line) for line in lines]


def cells(lines: list[str]) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """`shift | g1; g2` lines of the holes report."""
    out = []
    for line in lines:
        shift, _, gens = line.partition("|")
        out.append((ints(shift), tuple(ints(g) for g in gens.split(";") if g.strip())))
    return out


def table(lines: list[str], shape: tuple[int, int, int]):
    """The r blocks of s rows of t entries, blocks separated by `-`."""
    r, s, t = shape
    blocks: list[list[tuple[int, ...]]] = [[]]
    for line in lines:
        if line == "-":
            blocks.append([])
        else:
            blocks[-1].append(ints(line))
    if len(blocks) != r or any(len(b) != s or any(len(row) != t for row in b) for b in blocks):
        raise ValueError(f"table does not have shape {shape}")
    return blocks

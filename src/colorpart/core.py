"""Colored set partitions of [n], colored patterns, and permutations.

A partition of [n] is stored as its canonical word (restricted growth
string): entry i is the index of the block containing element i, blocks
numbered in order of their minima.  A coloring assigns each element a
color from [k].  Everything here is an immutable value; all operations
are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence


class PartitionError(ValueError):
    """Malformed partition, pattern, or permutation data."""


class PatternSyntaxError(PartitionError):
    """Text did not match the pattern grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


def reduce_word(word: Sequence[int]) -> tuple[int, ...]:
    """Replace the i-th smallest value(s) of `word` with i.

    The result is order-isomorphic to the input, e.g. 18494 -> 13242.
    Idempotent; the empty word reduces to itself.
    """
    ranks = {v: i for i, v in enumerate(sorted(set(word)), start=1)}
    return tuple(ranks[v] for v in word)


def is_rgs(word: Sequence[int]) -> bool:
    """True iff `word` is a restricted growth string (canonical word)."""
    top = 0
    for v in word:
        if not 1 <= v <= top + 1:
            return False
        top = max(top, v)
    return True


def rgs_normalize(word: Sequence[int]) -> tuple[int, ...]:
    """Relabel block indices by order of first occurrence.

    This is block canonization on words: 2312 -> 1231.  (Distinct from
    `reduce_word`, which relabels by value.)
    """
    seen: dict[int, int] = {}
    out = []
    for v in word:
        if v not in seen:
            seen[v] = len(seen) + 1
        out.append(seen[v])
    return tuple(out)


def word_to_blocks(word: Sequence[int]) -> list[tuple[int, ...]]:
    """Blocks (as element tuples, canonically ordered) of a canonical word."""
    blocks: dict[int, list[int]] = {}
    for i, b in enumerate(word, start=1):
        blocks.setdefault(b, []).append(i)
    return [tuple(blocks[b]) for b in sorted(blocks)]


def blocks_to_word(blocks: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Canonical word of a partition given as blocks of [n]."""
    elems = {}
    for members in blocks:
        members = sorted(members)
        if not members:
            raise PartitionError("empty block")
        for e in members:
            if e in elems:
                raise PartitionError("element %d in two blocks" % e)
            elems[e] = members[0]
    n = len(elems)
    if sorted(elems) != list(range(1, n + 1)):
        raise PartitionError("blocks do not partition [n]")
    order = {m: i for i, m in enumerate(sorted(set(elems.values())), start=1)}
    return tuple(order[elems[e]] for e in range(1, n + 1))


@dataclass(frozen=True)
class ColoredPartition:
    """A set partition of [n] with a color from [k] on every element."""

    word: tuple[int, ...]
    colors: tuple[int, ...]
    k: int = 2
    bonds: ClassVar[frozenset[int]] = frozenset()  # only a VincularPattern bonds

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "colors", tuple(self.colors))
        if not is_rgs(self.word):
            raise PartitionError("word %r is not a restricted growth string" % (self.word,))
        if len(self.colors) != len(self.word):
            raise PartitionError("color word length differs from partition word length")
        if self.k < 1:
            raise PartitionError("need at least one color")
        for c in self.colors:
            if not 1 <= c <= self.k:
                raise PartitionError("color %d out of range [1, %d]" % (c, self.k))

    @property
    def n(self) -> int:
        return len(self.word)

    def blocks(self) -> list[tuple[int, ...]]:
        return word_to_blocks(self.word)

    @classmethod
    def from_blocks(cls, blocks, colors, k=2):
        """Build from blocks of [n] and a {element: color} mapping."""
        word = blocks_to_word(blocks)
        return cls(word, tuple(colors[i] for i in range(1, len(word) + 1)), k)

    def color_of(self, element: int) -> int:
        return self.colors[element - 1]

    def _element_sep(self) -> str:
        # a color of 10 or more only parses back from a spaced element
        return " " if self.colors and max(self.colors) > 9 else ""

    def word_text(self) -> str:
        """Colored-canonical-word notation, e.g. 1^12^21^13^2."""
        return self._element_sep().join(
            "%d^%d" % (b, c) for b, c in zip(self.word, self.colors))

    def block_text(self) -> str:
        """Slash-separated block notation, e.g. 1^13^1/2^2/4^2."""
        if self.n == 0:
            return "()"
        return "/".join(
            self._element_sep().join("%d^%d" % (e, self.colors[e - 1]) for e in blk)
            for blk in self.blocks()
        )


@dataclass(frozen=True)
class ColoredPattern(ColoredPartition):
    """A small colored partition used as a pattern.

    `colors` keeps the raw color word (used verbatim by the EQ and LT
    senses); `reduced_colors` is the order-isomorphism class used by the
    pattern sense, so 1^21^2 acts like 1^11^1 there.
    """

    @property
    def reduced_colors(self) -> tuple[int, ...]:
        return reduce_word(self.colors)

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.word, self.reduced_colors)


def canonize_sub(sigma: ColoredPartition, idx: Sequence[int]) -> ColoredPartition:
    """The colored subpartition of `sigma` induced on elements `idx`.

    `idx` is an increasing set of 1-based elements.  Two chosen elements
    share a block iff they do in `sigma`; blocks are renumbered into
    canonical order and colors are carried over verbatim.
    """
    idx = tuple(idx)
    for i in idx:
        if not 1 <= i <= sigma.n:
            raise PartitionError("index %d out of range [1, %d]" % (i, sigma.n))
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise PartitionError("index set must be strictly increasing")
    word = rgs_normalize(sigma.word[i - 1] for i in idx)
    colors = tuple(sigma.colors[i - 1] for i in idx)
    return ColoredPartition(word, colors, sigma.k)


def color_reverse(pi: ColoredPattern) -> ColoredPattern:
    """Reverse the color word, keep the partition word.  An involution."""
    return ColoredPattern(pi.word, pi.colors[::-1], pi.k)


def color_complement(pi: ColoredPattern) -> ColoredPattern:
    """Complement each color within [k], keep the partition word."""
    return ColoredPattern(pi.word, tuple(pi.k + 1 - c for c in pi.colors), pi.k)


# --- text grammar -------------------------------------------------------
#
# pattern := element+        element := BLOCK '^' COLOR
#
# Whitespace between elements is optional.  A whitespace-separated token
# that is exactly one element keeps every digit of its color (1^1 2^12);
# in unspaced text the color is a single digit (1^12^2 parses as 1^1 2^2).

_ELEMENT = re.compile(r"(\d+)\^(\d+)")
_ELEMENT_DENSE = re.compile(r"(\d+)\^(\d)")


def _parse_elements(text: str) -> list[tuple[int, int]]:
    tokens = text.split()
    if not tokens:
        raise PatternSyntaxError("empty pattern")
    pairs = []
    for tok in tokens:
        whole = _ELEMENT.fullmatch(tok)
        pos = 0
        while pos < len(tok):
            m = whole or _ELEMENT_DENSE.match(tok, pos)
            if m is None:
                raise PatternSyntaxError("malformed element", pos)
            pairs.append((int(m.group(1)), int(m.group(2))))
            pos = m.end()
    return pairs


def parse_pattern(text: str, k: int | None = None) -> ColoredPattern:
    """Parse colored-word notation like ``1^12^21^13^2``."""
    pairs = _parse_elements(text)
    word = tuple(b for b, _ in pairs)
    colors = tuple(c for _, c in pairs)
    if not is_rgs(word):
        raise PatternSyntaxError("block word %r is not in canonical (RGS) form" % (word,))
    if k is None:
        k = max(2, max(colors))
    for i, c in enumerate(colors):
        if c > k:
            raise PatternSyntaxError("color %d exceeds %d colors" % (c, k), i)
    return ColoredPattern(word, colors, k)


def print_pattern(pi: ColoredPartition) -> str:
    return pi.word_text()


def parse_pattern_set(text: str, k: int | None = None) -> tuple[ColoredPattern, ...]:
    """Parse a comma-separated pattern set; returns patterns in canonical order."""
    text = text.strip()
    if not text:
        return ()
    pats = [parse_pattern(part, k) for part in text.split(",")]
    return tuple(sorted(pats, key=lambda p: (p.word, p.colors)))


def print_pattern_set(patterns: Iterable[ColoredPartition]) -> str:
    return ",".join(p.word_text() for p in sorted(patterns, key=lambda p: (p.word, p.colors)))


def parse_blocks(text: str, k: int = 2) -> ColoredPartition:
    """Parse slash-separated block notation like ``1^24^1/2^1/3^26^1``."""
    text = text.strip()
    if text in ("", "()"):
        return ColoredPartition((), (), k)
    blocks = []
    colors = {}
    for part in text.split("/"):
        pairs = _parse_elements(part)
        blocks.append([e for e, _ in pairs])
        for e, c in pairs:
            colors[e] = c
    sigma = ColoredPartition.from_blocks(blocks, colors, max([k] + list(colors.values())))
    return sigma


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] in one-line notation."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if sorted(self.entries) != list(range(1, len(self.entries) + 1)):
            raise PartitionError("%r is not a permutation of [n]" % (self.entries,))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def text(self) -> str:
        if self.n >= 10:
            return " ".join(str(v) for v in self.entries)
        return "".join(str(v) for v in self.entries)


def parse_permutation(text: str) -> Permutation:
    text = text.strip()
    tokens = re.split(r"[,\s]+", text) if "," in text or " " in text else text
    try:
        entries = tuple(int(t) for t in tokens if t)
    except ValueError:
        raise PatternSyntaxError("malformed permutation %r" % text) from None
    return Permutation(entries)


@dataclass(frozen=True)
class VincularPattern:
    """A dashed permutation pattern; bonded positions must be adjacent.

    `bonds` holds the positions i (1-based) such that positions i and
    i+1 of the pattern must be adjacent in the host.  Its colored view,
    matched by `avoidance.copy_ends_at`, has word (1, ..., m) and colors
    `values`: every element its own block, colored by its value.
    """

    values: tuple[int, ...]
    bonds: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "bonds", frozenset(self.bonds))
        if sorted(self.values) != list(range(1, len(self.values) + 1)):
            raise PartitionError("vincular values must form a permutation")
        for b in self.bonds:
            if not 1 <= b <= len(self.values) - 1:
                raise PartitionError("bond position %d out of range" % b)
        object.__setattr__(self, "word", tuple(range(1, self.m + 1)))
        object.__setattr__(self, "colors", self.values)

    @property
    def m(self) -> int:
        return len(self.values)

    def text(self) -> str:
        out = []
        for i, v in enumerate(self.values, start=1):
            out.append(str(v))
            if i < self.m and i not in self.bonds:
                out.append("-")
        return "".join(out)


def parse_vincular(text: str) -> VincularPattern:
    """Parse dashed notation like ``12-3`` or ``214-3``.

    Adjacent digits within a dash-separated group are bonded.
    """
    groups = text.strip().split("-")
    values = []
    bonds = set()
    for group in groups:
        if not group or not group.isdigit():
            raise PatternSyntaxError("malformed vincular pattern %r" % text)
        for j, ch in enumerate(group):
            values.append(int(ch))
            if j > 0:
                bonds.add(len(values) - 1)
    return VincularPattern(tuple(values), frozenset(bonds))

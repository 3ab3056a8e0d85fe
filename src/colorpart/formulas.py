"""Exact combinatorial number engines and the Wilf-class registry.

`REGISTRY` is the one record of each class: its pattern sets, closed
form, published terms and OEIS id.

Everything is integer arithmetic; Python's arbitrary-precision ints make
overflow a non-issue, so "overflow is a hard error" holds vacuously.
Infinite sums over j truncate where the binomial factors vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from .core import ColoredPartition, ColoredPattern, parse_pattern_set, reduce_word


class FormulaRangeError(ValueError):
    """Requested n below a formula's validity range."""


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    """The n-th Bell number, via the Bell triangle.  bell(0) = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@lru_cache(maxsize=None)
def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind S(n, j)."""
    if n < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if n == 0:
        return 1 if j == 0 else 0
    if j == 0 or j > n:
        return 0
    return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


def kcolor_count(n: int, k: int) -> int:
    """Sum of B(i_1)...B(i_k) over weak compositions i_1+...+i_k = n.

    Counts the k-colored partitions whose blocks are monochromatic and
    whose color word is non-increasing; for k = 2 this is the
    two-pattern-sense triple count sum B(i)B(n-i).
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    conv = [bell(i) for i in range(n + 1)]
    acc = conv
    for _ in range(k - 1):
        acc = [sum(acc[i] * conv[m - i] for i in range(m + 1)) for m in range(n + 1)]
    return acc[n]


@dataclass(frozen=True)
class FormulaEntry:
    """One Wilf class: its pattern sets, closed form and published terms.

    `terms` are the published values for n = 1, 2, ...; empty where the
    source gives no table row.
    """

    label: str
    pattern_sets: tuple[tuple[ColoredPattern, ...], ...]
    evaluator: Callable[[int], int]
    min_n: int = 1
    terms: tuple[int, ...] = ()
    oeis: str = ""
    note: str = ""


def closed_form(entry: FormulaEntry, n: int) -> int:
    """Evaluate an entry's formula; errors below its validity range."""
    if n < entry.min_n:
        raise FormulaRangeError(
            "%s is stated for n >= %d (got n = %d)" % (entry.label, entry.min_n, n))
    return entry.evaluator(n)


# --- individual evaluators ----------------------------------------------

def _pair1(n):
    return {1: 2, 2: 4}.get(n, 0)


def _pair2(n):
    return 2 ** n + n - 1


def _pair3(n):
    # single-element blocks paired across the first 1-colored element,
    # three placement cases plus the all-2-colored case
    total = 1
    for i in range(1, n + 1):
        for j in range(0, min(i - 1, n - i) + 1):
            total += comb(i - 1, j) * comb(n - i, j) * factorial(j)
    for i in range(2, n + 1):
        for j in range(0, min(i - 2, n - i) + 1):
            total += (i - 1) * comb(i - 2, j) * comb(n - i, j) * factorial(j)
    for i in range(1, n):
        for j in range(0, min(i - 1, n - i - 1) + 1):
            total += comb(i - 1, j) * comb(n - i - 1, j) * factorial(j)
    return total


def pair4_sequence(n_max: int) -> tuple[int, ...]:
    """a_1, ..., a_{n_max} with a_n = 2 a_{n-1} + (n-1) a_{n-2}."""
    seq = [2, 5]
    for n in range(3, n_max + 1):
        seq.append(2 * seq[-1] + (n - 1) * seq[-2])
    return tuple(seq[:n_max])


def _pair4(n):
    return pair4_sequence(n)[n - 1]


def _pair5(n):
    return 2 ** n + 2 * (bell(n) - 1)


def _pair6(n):
    total = 2 * bell(n)
    for j in range(2, n + 1):
        for k in range(0, n - j + 1):
            total += bell(n - j - k)
    total += bell(n - 1)
    for j in range(2, n):
        inner = bell(n - j)
        for k in range(1, n - j + 1):
            inner += (k + comb(n - j, k)) * bell(n - j - k)
        total += bell(j - 1) * inner
    return total


def _pair7(n):
    return (n + 1) * bell(n)


def _pair8(n):
    return sum(2 ** j * stirling2(n, j) for j in range(n + 1))


def _triple1(n):
    return {1: 2, 2: 3}.get(n, 0)


def _triple2(n):
    return 4 if n == 2 else 2


def _triple3(n):
    return 2 * n


def _triple4(n):
    return 2 ** n


def _triple5(n):
    return sum(comb(n, j) * factorial(j // 2) for j in range(n + 1))


def _triple6(n):
    return 2 * bell(n) + n - 1


def _quad1(n):
    return 2 if n <= 2 else 0


def _quad2(n):
    return 2 * bell(n)


def _quad3(n):
    return 3 if n == 2 else 2


def _quad4(n):
    return n + 1


def _five(n):
    return 2


def _six(n):
    return 2 if n == 1 else 0


def _single_1121(n):
    # non-empty proper subsets of an (n+1)-element set
    return 2 ** (n + 1) - 2


# --- registry -----------------------------------------------------------

def _sets(*texts: str) -> tuple[tuple[ColoredPattern, ...], ...]:
    return tuple(parse_pattern_set(t) for t in texts)


REGISTRY: tuple[FormulaEntry, ...] = (
    FormulaEntry(
        "single {1^12^1}", _sets("1^12^1"), _single_1121, oeis="A000918",
        note="2^(n+1) - 2; non-empty proper subsets of an (n+1)-set"),
    FormulaEntry(
        "pair class 1", _sets("1^11^1,1^12^1"), _pair1,
        terms=(2, 4, 0, 0, 0, 0),
        note="every element needs its own color; empty for n >= 3"),
    FormulaEntry(
        "pair class 2",
        _sets("1^11^2,1^12^1", "1^21^1,1^12^1", "1^12^1,1^12^2", "1^12^1,1^22^1"),
        _pair2, terms=(2, 5, 10, 19, 36, 69), oeis="A052944", note="2^n + n - 1"),
    FormulaEntry(
        "pair class 3", _sets("1^11^1,1^12^2", "1^11^1,1^22^1"), _pair3,
        terms=(2, 5, 10, 21, 46, 107), oeis="A208275",
        note="triple binomial sum plus 1"),
    FormulaEntry(
        "pair class 4", _sets("1^11^1,1^11^2", "1^11^1,1^21^1"), _pair4,
        terms=(2, 5, 14, 43, 142, 499), oeis="A005425",
        note="a_n = 2 a_(n-1) + (n-1) a_(n-2), a_1 = 2, a_2 = 5"),
    FormulaEntry(
        "pair class 5", _sets("1^12^2,1^22^1"), _pair5,
        terms=(2, 6, 16, 44, 134, 468), oeis="A209629", note="2^n + 2(B(n) - 1)"),
    FormulaEntry(
        "pair class 6", _sets("1^11^2,1^22^1", "1^21^1,1^12^2"), _pair6, min_n=2,
        terms=(2, 6, 18, 56, 188, 695), oeis="A209797",
        note="double Bell sum; stated for n >= 2, brute force gives 2 at n = 1"),
    FormulaEntry(
        "pair class 7", _sets("1^11^2,1^12^2", "1^21^1,1^22^1"), _pair7,
        terms=(2, 6, 20, 75, 312, 1421), oeis="A052889", note="(n+1) B(n)"),
    FormulaEntry(
        "pair class 8", _sets("1^11^2,1^21^1"), _pair8,
        terms=(2, 6, 22, 94, 454, 2430), oeis="A001861", note="sum 2^j S(n, j)"),
    FormulaEntry(
        "triple class 1",
        _sets("1^11^1,1^11^2,1^12^1", "1^11^1,1^21^1,1^12^1",
              "1^11^1,1^12^1,1^12^2", "1^11^1,1^12^1,1^22^1"),
        _triple1, terms=(2, 3, 0, 0, 0, 0), note="empty for n >= 3"),
    FormulaEntry(
        "triple class 2", _sets("1^11^1,1^12^2,1^22^1"), _triple2,
        terms=(2, 4, 2, 2, 2, 2), note="4 at n = 2, else 2"),
    FormulaEntry(
        "triple class 3",
        _sets("1^11^1,1^11^2,1^22^1", "1^11^1,1^21^1,1^12^2",
              "1^11^2,1^12^1,1^12^2", "1^21^1,1^12^1,1^22^1",
              "1^11^2,1^12^1,1^22^1", "1^21^1,1^12^1,1^12^2"),
        _triple3, terms=(2, 4, 6, 8, 10, 12), oeis="A005843", note="2n"),
    FormulaEntry(
        "triple class 4",
        _sets("1^11^1,1^11^2,1^21^1", "1^11^2,1^21^1,1^12^1",
              "1^12^1,1^12^2,1^22^1"),
        _triple4, terms=(2, 4, 8, 16, 32, 64), oeis="A000079", note="2^n"),
    FormulaEntry(
        "triple class 5", _sets("1^11^1,1^11^2,1^12^2", "1^11^1,1^21^1,1^22^1"),
        _triple5, terms=(2, 4, 8, 17, 38, 90), oeis="A081124",
        note="sum C(n, j) floor(j/2)!"),
    FormulaEntry(
        "triple class 6", _sets("1^11^2,1^12^2,1^22^1", "1^21^1,1^12^2,1^22^1"),
        _triple6, terms=(2, 5, 12, 33, 108), oeis="A209798", note="2 B(n) + n - 1"),
    FormulaEntry(
        "triple class 7", _sets("1^11^2,1^21^1,1^12^2", "1^11^2,1^21^1,1^22^1"),
        partial(kcolor_count, k=2), terms=(2, 5, 14, 44, 154), oeis="A014322",
        note="sum B(i) B(n-i)"),
    FormulaEntry(
        "quad class 1",
        _sets("1^11^1,1^11^2,1^21^1,1^12^1",
              "1^11^1,1^11^2,1^12^1,1^12^2", "1^11^1,1^21^1,1^12^1,1^22^1",
              "1^11^1,1^11^2,1^12^1,1^22^1", "1^11^1,1^21^1,1^12^1,1^12^2",
              "1^11^1,1^12^1,1^12^2,1^22^1"),
        _quad1, terms=(2, 2, 0, 0, 0), note="empty for n >= 3"),
    FormulaEntry(
        "quad class 2", _sets("1^11^2,1^21^1,1^12^2,1^22^1"), _quad2,
        terms=(2, 4, 10, 30, 104), oeis="A000110",
        note="2 B(n); the published table row reads 2,2,4,10,30 and is "
             "offset by one relative to the theorem"),
    FormulaEntry(
        "quad class 3",
        _sets("1^11^1,1^11^2,1^12^2,1^22^1", "1^11^1,1^21^1,1^12^2,1^22^1"),
        _quad3, terms=(2, 3, 2, 2, 2), note="3 at n = 2, else 2"),
    FormulaEntry(
        "quad class 4",
        _sets("1^11^1,1^11^2,1^21^1,1^12^2", "1^11^1,1^11^2,1^21^1,1^22^1",
              "1^11^2,1^12^1,1^12^2,1^22^1", "1^21^1,1^12^1,1^12^2,1^22^1",
              "1^11^2,1^21^1,1^12^1,1^12^2", "1^11^2,1^21^1,1^12^1,1^22^1"),
        _quad4, terms=(2, 3, 4, 5, 6), oeis="A000027", note="n + 1"),
    FormulaEntry(
        "five-pattern classes",
        _sets("1^11^1,1^11^2,1^21^1,1^12^2,1^22^1",
              "1^11^2,1^21^1,1^12^1,1^12^2,1^22^1"),
        _five, terms=(2, 2, 2, 2, 2, 2),
        note="constant 2; the remaining 5-sets contain pair class 1"),
    FormulaEntry(
        "six-pattern class",
        _sets("1^11^1,1^11^2,1^21^1,1^12^1,1^12^2,1^22^1"),
        _six, terms=(2, 0, 0, 0, 0, 0), note="2, 0, 0, ..."),
)


def _registry_index() -> dict[frozenset, FormulaEntry]:
    index = {}
    for entry in REGISTRY:
        for patterns in entry.pattern_sets:
            key = frozenset(p.key() for p in patterns)
            index[key] = entry
    return index


_INDEX = _registry_index()


def lookup_formula(patterns: Iterable[ColoredPartition]) -> FormulaEntry | None:
    """Find the registry entry for a pattern set, if one exists.

    Patterns are compared by their color-reduced forms, as
    `ColoredPattern.key` gives them, so sets stated with unreduced colors,
    or as plain colored partitions, resolve to the same entry.
    """
    key = frozenset((p.word, reduce_word(p.colors)) for p in patterns)
    return _INDEX.get(key)

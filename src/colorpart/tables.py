"""The published terms of `formulas.REGISTRY` as text rows.

One row per registry entry that has published terms: its label, its
pattern sets printed as text, and the terms.  The registry is the only
record of the class data; this view exists because the golden-pool
generator `bench/make_golden.py` reads `ALL_TABLES` (`row.pattern_sets`
as text and `row.terms`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import print_pattern_set
from .formulas import REGISTRY


@dataclass(frozen=True)
class TableRow:
    label: str
    pattern_sets: tuple[str, ...]
    terms: tuple[int, ...]


ALL_TABLES: tuple[TableRow, ...] = tuple(
    TableRow(entry.label, tuple(map(print_pattern_set, entry.pattern_sets)),
             entry.terms)
    for entry in REGISTRY if entry.terms)

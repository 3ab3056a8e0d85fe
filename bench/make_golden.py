"""Regenerate the golden request pools under bench/golden/.

    PYTHONPATH=src python3 bench/make_golden.py

Each pool lists candidate requests with the answer every one must
produce and where that answer comes from (its provenance):

* ``formula``  closed form from ``colorpart.formulas.REGISTRY``
  (k = 2, pattern sense), checked against the published terms in
  ``colorpart.tables`` where a table row exists;
* ``oracle``   the independent brute-force histogram in ``oracle.py``,
  affordable up to n = 8 (k = 2) and n = 7 (k = 3) for length-2 sets;
* ``seed-pruned`` / ``seed-map``  the program's own pruned-DFS count or
  bijection image at the commit that generated this file, used only
  where neither of the above reaches.  Bijection images are checked by
  round trip through the inverse map, or, for maps without one, by
  codomain membership with ``oracle.py``.

Every golden value is also compared with the program's answer; the
script stops on any disagreement instead of writing a pool.  Counting
candidates also carry ``cost_ms``, their run time on the machine that
wrote the pool; ``workloads.py`` uses it only to stratify draws.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
from colorpart import bijections, cli, tables  # noqa: E402
from colorpart.avoidance import Sense  # noqa: E402
from colorpart.core import ColoredPartition, parse_pattern_set  # noqa: E402
from colorpart.enumeration import count_avoiders, iter_avoiders, iter_rgs  # noqa: E402
from colorpart.formulas import REGISTRY, bell, closed_form, lookup_formula  # noqa: E402

# Answers of count-len2 requests (a count, or the sum of a sequence) lie
# in this band, so every request does real pruned search and none
# dominates: pruned-DFS cost is roughly linear in the answer.
BAND = (10000, 30000)
# Largest n the oracle histogram covers, per (k, longest pattern).
ORACLE_NMAX = {(2, 2): 8, (3, 2): 7, (2, 3): 6, (3, 3): 5}
# Largest n searched while looking for band answers.
SEARCH_NMAX = {2: 12, 3: 10}
NAIVE_NMAX = {2: 6, 3: 5}
# naive-len3 requests use this n (count) or nmax (sequence), per k.
NAIVE_N = {2: 5, 3: 4}
SENSES = ("pattern", "eq", "lt")
BIJECTION_NMAX = 7
BIJECTION_SAMPLES = 10


def ptext(word, colors) -> str:
    return "".join("%d^%d" % bc for bc in zip(word, colors))


def raw_patterns(length: int, k: int) -> list[str]:
    return [ptext(w, c) for w in oracle.rgs(length)
            for c in itertools.product(range(1, k + 1), repeat=length)]


CANONICAL_SIX = [ptext(w, c) for w in ((1, 1), (1, 2))
                 for c in ((1, 1), (1, 2), (2, 1))]


class Goldens:
    """Avoider counts keyed by (sense, k, canonical set text)."""

    def __init__(self):
        self.hists: dict[tuple[int, int, int], oracle.Histogram] = {}
        self.table_terms = {}
        for row in tables.ALL_TABLES:
            for text in row.pattern_sets:
                self.table_terms[oracle.canonical_text(text)] = row.terms
        self.entries: dict[str, dict] = {}
        self.naive_checked: set[tuple[str, int]] = set()

    def hist(self, n, k, length):
        key = (n, k, length)
        if key not in self.hists:
            print("  oracle sweep n=%d k=%d length<=%d" % key, file=sys.stderr)
            self.hists[key] = oracle.Histogram(n, k, length)
        return self.hists[key]

    def value(self, text, sense, k, n, *, naive=False):
        """Golden count and provenance; cross-checked with the program."""
        pats = oracle.parse(text)
        length = max(len(w) for w, _ in pats)
        program = count_avoiders(n, k, parse_pattern_set(text, k), Sense(sense),
                                 naive=naive)
        value, source = None, None
        if sense == "pattern" and k == 2 and length == 2:
            entry = lookup_formula(parse_pattern_set(text, k))
            if entry is not None and n >= entry.min_n:
                value, source = closed_form(entry, n), "formula"
                terms = self.table_terms.get(oracle.canonical_text(text))
                if terms is not None and n <= len(terms) and terms[n - 1] != value:
                    sys.exit("table and formula disagree: %s n=%d" % (text, n))
        if n <= ORACLE_NMAX.get((k, max(length, 2)), 0):
            got = self.hist(n, k, 2 if length == 2 else 3).count(pats, sense)
            if value is not None and got != value:
                sys.exit("oracle and formula disagree: %s n=%d" % (text, n))
            value, source = got, (source + "+oracle" if source else "oracle")
        if value is None:
            value, source = program, "seed-naive" if naive else "seed-pruned"
        if program != value:
            sys.exit("program disagrees with %s: %s %s k=%d n=%d: %d != %d"
                     % (source, text, sense, k, n, program, value))
        return value, source

    def sequence(self, text, sense, k, nmax, *, naive=False):
        key = "%s|%d|%s" % (sense, k, oracle.canonical_text(text))
        entry = self.entries.setdefault(key, {"counts": [], "provenance": []})
        while len(entry["counts"]) < nmax:
            n = len(entry["counts"]) + 1
            v, src = self.value(text, sense, k, n, naive=naive)
            entry["counts"].append(v)
            entry["provenance"].append(src)
            if naive:
                self.naive_checked.add((key, n))
        if naive:
            for n in range(1, nmax + 1):
                if (key, n) not in self.naive_checked:
                    self.value(text, sense, k, n, naive=True)
                    self.naive_checked.add((key, n))
        return entry["counts"][:nmax]


def len2_sets(k):
    """(sense, set text) pairs of the count-len2 universe."""
    out = []
    for size in (1, 2, 3):
        out += [("pattern", ",".join(s))
                for s in itertools.combinations(CANONICAL_SIX, size)]
    raw = raw_patterns(2, k)
    for sense in ("eq", "lt"):
        for size in (1, 2):
            out += [(sense, ",".join(s)) for s in itertools.combinations(raw, size)]
    return out


def measure(c: dict) -> dict:
    """Add the request's cost in ms (best of three in-process runs).

    Used only to stratify draws by cost, so that every seed gets the same
    mix of cheap and dear requests; measured on the machine that wrote
    the pool.
    """
    argv = [c["cmd"], "-p", c["patterns"], "-k", str(c["k"]), "--sense", c["sense"],
            "-n" if c["cmd"] == "count" else "--nmax", str(c["n"]), "--jobs", "1"]
    if c.get("naive"):
        argv.append("--naive")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                sys.exit("request failed: %s" % " ".join(argv))
        best = min(best, time.perf_counter() - t0)
    c["cost_ms"] = round(best * 1e3, 2)
    return c


def build_count_len2(g: Goldens) -> list[dict]:
    lo, hi = BAND
    pool = []
    for k in (2, 3):
        for sense, text in len2_sets(k):
            counts = []
            for n in range(1, SEARCH_NMAX[k] + 1):
                counts = g.sequence(text, sense, k, n)
                if counts[-1] > hi:
                    break
            for n, c in enumerate(counts, start=1):
                if lo <= c <= hi:
                    pool.append({"cmd": "count", "patterns": text, "sense": sense,
                                 "k": k, "n": n})
                if lo <= sum(counts[:n]) <= hi:
                    pool.append({"cmd": "sequence", "patterns": text, "sense": sense,
                                 "k": k, "n": n})
    return [measure(c) for c in pool]


def len3_sets(k):
    p3, p2 = raw_patterns(3, k), raw_patterns(2, k)
    if k == 2:
        sets = list(p3)
        sets += ["%s,%s" % (p3[i], p2[(3 * i) % len(p2)]) for i in range(len(p3))]
        sets += ["%s,%s" % (p3[i], p3[(i + 17) % len(p3)]) for i in range(20)]
    else:
        sets = p3[::3]
        sets += ["%s,%s" % (p3[9 * i], p2[(5 * i) % len(p2)]) for i in range(15)]
    return sets


def build_naive_len3(g: Goldens) -> dict:
    """The naive-len3 candidates with their cost, and the length-2 sets.

    Every (set, sense, n <= NAIVE_NMAX[k]) has a golden count.
    """
    pool = {"len2": {}, "candidates": []}
    for k in (2, 3):
        nmax = NAIVE_NMAX[k]
        for text in len3_sets(k):
            for sense in SENSES:
                g.sequence(text, sense, k, nmax, naive=True)
                for cmd in ("count", "sequence"):
                    pool["candidates"].append({"cmd": cmd, "patterns": text, "sense": sense,
                                               "k": k, "n": NAIVE_N[k], "naive": False})
        pool["len2"][str(k)] = [[sense, text] for sense, text in len2_sets(k)
                                if len(text.split(",")) <= 2]
        for sense, text in pool["len2"][str(k)]:
            g.sequence(text, sense, k, nmax, naive=True)
            pool["candidates"].append({"cmd": "count", "patterns": text, "sense": sense,
                                       "k": k, "n": NAIVE_N[k], "naive": True})
    pool["candidates"] = [measure(c) for c in pool["candidates"]]
    return pool


# --- verify-mix -----------------------------------------------------------

FORWARD = {
    "f": (lambda n: list(iter_avoiders(n, 2, bijections.F_DOMAIN)), bijections.bij_f,
          "f-inv", bijections.bij_f_inv),
    "g": (lambda n: list(iter_avoiders(n, 2, bijections.G_DOMAIN)), bijections.bij_g,
          None, None),
    "tau": (lambda n: [ColoredPartition(w, (1,) * n, 2) for w in iter_rgs(n)],
            bijections.block_descent_tau, None, None),
    "class2": (lambda n: list(iter_avoiders(n, 2, bijections.CLASS2_DOMAIN)),
               bijections.bij_class2_pairs, "class2-inv", bijections.bij_class2_pairs_inv),
    "class3a": (lambda n: list(iter_avoiders(n, 2, bijections.CLASS3A_DOMAIN)),
                bijections.bij_class3_structural, "class3a-inv",
                bijections.bij_class3_structural_inv),
    "class3b": (lambda n: list(iter_avoiders(n, 2, bijections.CLASS3B_DOMAIN)),
                bijections.bij_class3_colorswap, "class3b-inv",
                bijections.bij_class3_colorswap_inv),
}


def _formula(label):
    return next(e for e in REGISTRY if e.label == label)


# Domain size of each verified bijection at n, by closed form.
DOMAIN_SIZE = {
    "f": lambda n: closed_form(_formula("pair class 4"), n),
    "g": lambda n: closed_form(_formula("pair class 7"), n),
    "tau": bell,
    "class2": lambda n: closed_form(_formula("pair class 2"), n),
    "class3a": lambda n: closed_form(_formula("triple class 3"), n),
    "class3b": lambda n: closed_form(_formula("triple class 3"), n),
}


P12_3, P214_3, P1_23 = ((1, 2, 3), {1}), ((2, 1, 4, 3), {1, 2}), ((1, 2, 3), {2})

# Codomain membership of permutation images, checked with oracle.py for
# the maps that have no inverse to round-trip through.
PERM_CODOMAIN = {
    "f": lambda q, n: not any(oracle.contains_vincular(q, *p) for p in (P12_3, P214_3)),
    "tau": lambda q, n: not oracle.contains_vincular(q, *P1_23),
    "g": lambda q, n: (not oracle.contains_vincular(q, *P12_3)
                       and q[0] < q[1] == n + 2),
}


def show(obj) -> str:
    return obj.text() if hasattr(obj, "entries") else obj.block_text()


def build_bijections() -> list[dict]:
    pool = []
    for name, (domain_of, forward, inv_name, inverse) in FORWARD.items():
        for n in range(3, BIJECTION_NMAX + 1):
            domain = domain_of(n)
            if len(domain) != DOMAIN_SIZE[name](n):
                sys.exit("domain of %s at n=%d has the wrong size" % (name, n))
            step = max(1, len(domain) // BIJECTION_SAMPLES)
            for sigma in domain[::step][:BIJECTION_SAMPLES]:
                image = forward(sigma)
                if inverse is not None and inverse(image) != sigma:
                    sys.exit("round trip failed for %s on %s" % (name, show(sigma)))
                if name in PERM_CODOMAIN and not PERM_CODOMAIN[name](image.entries, n):
                    sys.exit("%s maps %s outside its codomain" % (name, show(sigma)))
                pool.append({"name": name, "n": n, "input": sigma.block_text(),
                             "image": show(image), "provenance": "seed-map"})
                if inv_name is not None:
                    pool.append({"name": inv_name, "n": n, "input": show(image),
                                 "image": sigma.block_text(),
                                 "provenance": "seed-map round trip"})
    return pool


def build_verify_mix(g: Goldens) -> dict:
    for size in range(1, 7):   # classify goldens: every subset of the six
        for s in itertools.combinations(CANONICAL_SIX, size):
            g.sequence(",".join(s), "pattern", 2, 7)
    sequences = []
    for entry in REGISTRY:
        for pats in entry.pattern_sets:
            text = ",".join(p.word_text() for p in pats)
            g.sequence(text, "pattern", 2, 7)
            sequences.append({"patterns": text, "label": entry.label})
    tables_lines = sum(len(row.pattern_sets) for row in tables.ALL_TABLES)
    formula_lines = sum(len(e.pattern_sets) for e in REGISTRY)
    return {
        "bijection": build_bijections(),
        "sequence": sequences,
        "pass_lines": {"tables": tables_lines, "formulas": formula_lines,
                       "symmetries": 1, "identities": 1},
        "domain_size": {name: {str(n): DOMAIN_SIZE[name](n) for n in range(1, 9)}
                        for name in DOMAIN_SIZE},
    }


def main() -> int:
    out_dir = os.path.join(HERE, "golden")
    os.makedirs(out_dir, exist_ok=True)
    g = Goldens()
    print("count-len2 pool", file=sys.stderr)
    count_len2 = build_count_len2(g)
    print("naive-len3 pool", file=sys.stderr)
    naive_len3 = build_naive_len3(g)
    print("verify-mix pool", file=sys.stderr)
    verify_mix = build_verify_mix(g)
    pools = {"count_len2": count_len2, "naive_len3": naive_len3,
             "verify_mix": verify_mix, "counts": g.entries,
             "band": list(BAND), "oracle_nmax": {"%d,%d" % key: v
                                                  for key, v in ORACLE_NMAX.items()}}
    path = os.path.join(out_dir, "pools.json")
    with open(path, "w") as fh:
        json.dump(pools, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print("wrote %s: %d count-len2 candidates, %d golden sequences, "
          "%d bijection candidates" % (path, len(count_len2), len(g.entries),
                                       len(verify_mix["bijection"])), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

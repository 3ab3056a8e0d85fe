"""Acceptance suite: one test per published claim, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines
as they print; pytest shows captured output for failures either way).
"""

import itertools
import time
from functools import lru_cache
from itertools import permutations

from colorpart.avoidance import (
    Sense,
    begins_with_ascent,
    contains_vincular,
)
from colorpart.bijections import (
    CLASS2_DOMAIN,
    CLASS3A_DOMAIN,
    CLASS3B_DOMAIN,
    F_DOMAIN,
    G_DOMAIN,
    PAT_1_23,
    PAT_12_3,
    PAT_214_3,
    bij_class2_pairs,
    bij_class2_pairs_inv,
    bij_class3_colorswap,
    bij_class3_colorswap_inv,
    bij_class3_structural,
    bij_class3_structural_inv,
    bij_f,
    bij_f_inv,
    bij_g,
    block_descent_tau,
)
from colorpart.core import (
    Permutation,
    parse_blocks,
    parse_pattern_set,
    print_pattern_set,
)
from colorpart.enumeration import (
    avoider_set,
    containment_profiles,
    count_avoiders,
    count_from_profiles,
    iter_avoiders,
    iter_colored,
    verify_color_symmetries,
)
from colorpart.formulas import (
    REGISTRY,
    bell,
    closed_form,
    kcolor_count,
    pair4_sequence,
)

EQ_IDENTITIES = (
    ("1^11^1", "1^11^1,1^21^2"),
    ("1^11^2", "1^11^2"),
    ("1^12^1", "1^12^1,1^22^2"),
    ("1^12^2", "1^12^2"),
)


@lru_cache(maxsize=None)
def _profiles(n):
    # one full-enumeration sweep per n answers every pattern-subset count
    return containment_profiles(n)


def _report(num, text, failures):
    ok = not failures
    print("%s criterion %2d: %s" % ("PASS" if ok else "FAIL", num, text),
          flush=True)
    assert ok, "criterion %d (%s): %s" % (num, text, failures[:5])


def _perms(m):
    return (Permutation(p) for p in permutations(range(1, m + 1)))


def test_criterion_01_table_reproduction():
    failures = []
    # the published pair, triple and quad rows: 15 + 20 + 15 pattern sets
    sets = [(entry, patterns) for entry in REGISTRY if entry.terms
            for patterns in entry.pattern_sets if len(patterns) <= 4]
    if len(sets) != 50:
        failures.append(("published pair/triple/quad sets", len(sets)))
    for entry, patterns in sets:
        for n in range(1, min(6, len(entry.terms)) + 1):
            got = count_from_profiles(_profiles(n), patterns)
            if got != entry.terms[n - 1]:
                failures.append((entry.label, print_pattern_set(patterns), n, got,
                                 entry.terms[n - 1]))
    _report(1, "tables reproduced row-for-row at n <= 6 "
               "(quad class 2 checked against 2 B(n))", failures)


def test_criterion_02_formula_oracle_equivalence():
    failures = []
    for entry in REGISTRY:
        for patterns in entry.pattern_sets:
            for n in range(entry.min_n, 9):
                expected = closed_form(entry, n)
                got = count_from_profiles(_profiles(n), patterns)
                if got != expected:
                    failures.append((entry.label, n, got, expected))
    _report(2, "every registered formula matches full enumeration "
               "for n = 1..8", failures)


def test_criterion_03_recurrence():
    failures = []
    seq = pair4_sequence(12)
    if seq[:2] != (2, 5):
        failures.append(("base", seq[:2]))
    for n in range(3, 13):
        if seq[n - 1] != 2 * seq[n - 2] + (n - 1) * seq[n - 3]:
            failures.append(("recurrence", n))
    S = parse_pattern_set("1^11^1,1^11^2")
    for n in range(1, 9):
        got = count_avoiders(n, 2, S)
        if got != seq[n - 1]:
            failures.append(("brute force", n, got, seq[n - 1]))
    _report(3, "a_n = 2 a_(n-1) + (n-1) a_(n-2) holds for n = 3..12 "
               "and matches brute force for n <= 8", failures)


def test_criterion_04_color_symmetries():
    report = verify_color_symmetries(n_max=7)
    _report(4, "avoidance sequences invariant under color reversal and "
               "complement for n <= 7", list(report.failures))


def test_criterion_05_eq_set_identities():
    failures = []
    for pat_text, eq_text in EQ_IDENTITIES:
        pat = parse_pattern_set(pat_text)
        eq = parse_pattern_set(eq_text)
        for n in range(1, 7):
            left = avoider_set(n, 2, pat, Sense.PATTERN)
            right = avoider_set(n, 2, eq, Sense.EQ)
            if left != right:
                failures.append((pat_text, eq_text, n,
                                 len(left), len(right)))
    _report(5, "pattern-sense avoider sets equal the stated EQ-sense "
               "sets element-for-element for n <= 6", failures)


def test_criterion_06_bijection_f():
    failures = []
    # the published domain-size list ends ... 1850, 6965, but the
    # recurrence the same source states gives a_8 = 2*1850 + 7*499 = 7193,
    # which brute force confirms; we check the recurrence values
    sizes = pair4_sequence(8)
    for n in range(1, 9):
        domain = list(iter_avoiders(n, 2, F_DOMAIN))
        if len(domain) != sizes[n - 1]:
            failures.append(("domain size", n, len(domain), sizes[n - 1]))
        images = set()
        for sigma in domain:
            q = bij_f(sigma)
            if bij_f_inv(q) != sigma:
                failures.append(("round trip", sigma))
            images.add(q)
        if len(images) != len(domain):
            failures.append(("injectivity", n))
        if n + 1 <= 8:
            codomain = {q for q in _perms(n + 1)
                        if not contains_vincular(q, PAT_12_3)
                        and not contains_vincular(q, PAT_214_3)}
            if images != codomain:
                failures.append(("image", n))
    worked = parse_blocks("1^24^1/2^1/3^26^1/5^1/7^2")
    if bij_f(worked).entries != (7, 3, 8, 6, 1, 5, 4, 2):
        failures.append(("worked example", bij_f(worked)))
    if bij_f_inv(Permutation((7, 3, 8, 6, 1, 5, 4, 2))) != worked:
        failures.append(("worked example inverse",))
    _report(6, "bijection f: round trip on the full domain for n <= 8, "
               "image verified exhaustively, worked example exact "
               "(domain sizes 2,5,...,1850,7193 per the recurrence)", failures)


def test_criterion_07_bijection_tau():
    failures = []
    for n in range(1, 9):
        images = {block_descent_tau(sigma) for sigma in iter_colored(n, 1)}
        codomain = {q for q in _perms(n)
                    if not contains_vincular(q, PAT_1_23)}
        if images != codomain:
            failures.append(("image", n))
        if len(images) != bell(n):
            failures.append(("cardinality", n, len(images), bell(n)))
    _report(7, "tau maps partitions of [n] onto the 1-23-avoiding "
               "permutations, cardinality B(n), for n <= 8", failures)


def test_criterion_08_bijection_g():
    failures = []
    for n in range(1, 7):
        domain = list(iter_avoiders(n, 2, G_DOMAIN))
        images = set()
        for sigma in domain:
            q = bij_g(sigma)
            if q[1] != n + 2:
                failures.append(("second entry", sigma, q))
            images.add(q)
        if len(images) != len(domain):
            failures.append(("injectivity", n))
        codomain = {q for q in _perms(n + 2)
                    if begins_with_ascent(q)
                    and not contains_vincular(q, PAT_12_3)}
        if images != codomain:
            failures.append(("image", n))
        if len(images) != (n + 1) * bell(n):
            failures.append(("cardinality", n))
    _report(8, "g is injective onto the ascent-led 12-3-avoiders of "
               "length n+2, cardinality (n+1) B(n), second entry n+2, "
               "for n <= 6", failures)


def test_criterion_09_class2_class3_bijections():
    failures = []
    for n in range(1, 9):
        domain = list(iter_avoiders(n, 2, CLASS2_DOMAIN))
        if len(domain) != 2 ** n + n - 1:
            failures.append(("class2 size", n, len(domain)))
        images = set()
        for sigma in domain:
            tau = bij_class2_pairs(sigma)
            if bij_class2_pairs_inv(tau) != sigma:
                failures.append(("class2 round trip", sigma))
            images.add(tau)
        if len(images) != len(domain):
            failures.append(("class2 injectivity", n))
        for label, dom, fwd, inv in (
                ("class3a", CLASS3A_DOMAIN,
                 bij_class3_structural, bij_class3_structural_inv),
                ("class3b", CLASS3B_DOMAIN,
                 bij_class3_colorswap, bij_class3_colorswap_inv)):
            members = list(iter_avoiders(n, 2, dom))
            if len(members) != 2 * n:
                failures.append((label + " size", n, len(members)))
            imgs = set()
            for sigma in members:
                tau = fwd(sigma)
                if inv(tau) != sigma:
                    failures.append((label + " round trip", sigma))
                imgs.add(tau)
            if len(imgs) != 2 * n:
                failures.append((label + " injectivity", n))
    _report(9, "merge/split and both three-pattern bijections are "
               "exhaustively bijective for n <= 8; domain sizes "
               "2^n + n - 1 and 2n", failures)


def test_criterion_10_kcolor_theorem():
    failures = []
    for k, n_top in ((3, 6), (4, 5)):
        pats = parse_pattern_set("1^11^2,1^12^2,1^21^1", k)
        for n in range(1, n_top + 1):
            brute = count_avoiders(n, k, pats, naive=True)
            if kcolor_count(n, k) != brute:
                failures.append((k, n, kcolor_count(n, k), brute))
    triple7 = next(e for e in REGISTRY if e.label == "triple class 7")
    for n in range(1, 11):
        if kcolor_count(n, 2) != closed_form(triple7, n):
            failures.append((2, n))
    _report(10, "k-color counts match brute force (k = 3, n <= 6; "
                "k = 4, n <= 5) and the Bell convolution for n <= 10",
            failures)


def test_criterion_11_degenerate_classes():
    failures = []
    sets = [(entry, patterns) for entry in REGISTRY
            for patterns in entry.pattern_sets if len(patterns) >= 5]
    if len(sets) != 3:
        failures.append(("five- and six-pattern sets", len(sets)))
    for entry, patterns in sets:
        n_top = 8 if len(patterns) == 5 else 6
        expected = {5: lambda n: 2, 6: lambda n: 2 if n == 1 else 0}[
            len(patterns)]
        for n in range(1, n_top + 1):
            got = count_avoiders(n, 2, patterns)
            if got != expected(n):
                failures.append((entry.label, print_pattern_set(patterns), n, got))
    _report(11, "five-pattern sets count exactly 2 for n <= 8; "
                "the six-pattern set counts 2, 0, 0, ...", failures)


def test_criterion_12_performance_stretch():
    failures = []
    S = parse_pattern_set("1^12^2,1^22^1")
    expected = 2 ** 10 + 2 * (bell(10) - 1)
    start = time.perf_counter()
    got = count_avoiders(10, 2, S, jobs=4)
    elapsed = time.perf_counter() - start
    if got != expected:
        failures.append(("count", got, expected))
    note = "within" if elapsed < 60 else "OVER (non-blocking)"
    _report(12, "DP count at n = 10 (jobs = 4, in process) equals the closed form "
                "(%d); %.1fs, %s the 60s target" % (expected, elapsed, note),
            failures)

"""Exhaustive generation and avoidance counting.

Counting runs one forward transfer DP in this process, `_count_residual`,
which yields every count up to n in one pass.  Its states are prefix
residuals: a color mask per block and one mask `only` that say where each
color is still allowed, the blocks no partial copy names kept as a sorted
tuple of masks, and the partial copies of the patterns longer than 2.
Length-2 patterns edit the masks as `avoidance.pair_tables` says.  Every
set's avoiders are generated by one left-to-right walk over the colored
words that rejects an element as soon as a copy ends at it: a length-2
copy by the `avoidance.pair_tables` of the set, a copy of any other
length by `avoidance.copy_ends_at`.  Full enumeration serves only as the
oracle (`naive=True`), the one search split by word prefix across `jobs`
processes: it tests every raw colored word in the pair sweep it shares
with `containment_profiles`.  `iter_colored` yields the same elements,
in the same order, as `ColoredPartition` objects.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .avoidance import Sense, copy_ends_at, others_mask, pair_tables
from .core import ColoredPartition, ColoredPattern, is_rgs, print_pattern_set

PREFIX_SPLIT_LENGTH = 4


def iter_rgs(n: int, prefix: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n starting with `prefix`, lexicographically."""
    prefix = tuple(prefix)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(prefix) > n:
        raise ValueError("prefix longer than n")
    if not is_rgs(prefix):
        raise ValueError("prefix %r is not a restricted growth string" % (prefix,))
    if n == 0:
        yield ()
        return
    word = list(prefix) + [1] * (n - len(prefix))
    tops = list(itertools.accumulate(word, max))  # tops[i] = max of word[:i+1]
    fixed = max(len(prefix), 1)  # word[:fixed] never changes; word[0] is 1
    while True:
        yield tuple(word)
        i = n - 1
        while i >= fixed and word[i] == tops[i - 1] + 1:
            i -= 1
        if i < fixed:
            return
        word[i] += 1
        tops[i] = max(tops[i - 1], word[i])
        for j in range(i + 1, n):
            word[j] = 1
            tops[j] = tops[i]


def iter_colored(n: int, k: int = 2,
                 prefix: Sequence[int] = ()) -> Iterator[ColoredPartition]:
    """Pi_n wr C_k, words starting with `prefix`; word-major, colors varying fastest."""
    for word in iter_rgs(n, prefix):
        for colors in itertools.product(range(1, k + 1), repeat=n):
            yield ColoredPartition(word, colors, k)


# --- counting ------------------------------------------------------------

def _count_residual(n, k, patterns, sense):
    """Avoider counts [a(0), ..., a(n)] by a forward DP over prefix residuals.

    A prefix matters to its extensions only through the copies they can
    still complete (the transfer-matrix method, Stanley, EC1 4.7, with
    states as in Zeilberger's enumeration schemes).  Each block has a
    color mask, read against the state's bitmask `only`: color c is
    barred from the blocks whose mask has bit c while bit c of `only` is
    clear, and allowed only in those blocks once it is set.  A state holds:

    * `free`, the number of nonempty blocks with mask 0 that no copy
      names; a next element joins one as it would open a new block;
    * the masks of the other blocks no copy names, as a sorted tuple: a
      move branches once per distinct mask, weighted by how many have it;
    * the masks of the blocks the partial copies name, labelled 0, 1, ...;
    * the partial copies of the patterns longer than 2 that are two or
      more elements short, as (pattern, length, host labels of the
      pattern's blocks, colors), colors kept only in the pattern sense
      and only while the copy can still be completed;
    * `only`.

    A move edits masks in two ways: bar colors in one block, or allow
    them only in some blocks.  Placing color c in block x does both, as
    the set's `pair_tables` say for its length-2 patterns.  A copy one
    element short does one of them to the block its last element joins,
    or to the copy's blocks when that element opens one.  Each edit only
    shrinks where a color is allowed, so a move's edits commute.  Blocks
    are relabelled by mask and by a signature of their roles; any
    bijective relabelling leaves the count unchanged.  Each state
    carries the number of colored prefixes that reach it.
    """
    patterns = tuple(patterns)
    if any(pi.n == 0 for pi in patterns):
        return [0] * (n + 1)  # every partition contains the empty pattern
    pats = [(pi.word, pi.colors) for pi in patterns]
    ordered = sense is Sense.PATTERN
    memo: dict[tuple, int] = {}

    def colors_at(p, j, chosen):
        """Colors (a bitmask) element j of a copy of pattern p may take
        after the colors `chosen`, such that the copy can still be completed."""
        key = (p, j, chosen)
        mask = memo.get(key)
        if mask is None:
            word, want = pats[p]
            mask = 0
            for c in range(1, k + 1):
                if sense is Sense.EQ:
                    ok = c == want[j]
                elif sense is Sense.LT:
                    ok = c <= want[j]
                else:
                    ok = all((c > d) - (c < d) == (want[j] > w) - (want[j] < w)
                             for d, w in zip(chosen, want))
                if ok and (j + 1 == len(word)
                           or colors_at(p, j + 1, chosen + (c,) if ordered else ())):
                    mask |= 1 << c
            memo[key] = mask
        return mask

    # the colors that color c, once placed, bars in its own block, and
    # those it allows only there
    same, other = ([sum(1 << d for d in range(1, k + 1) if bad[d] >> c & 1) for c in range(k + 1)]
                   for bad in pair_tables(patterns, sense, k))
    # the empty copy of every pattern longer than 2; a length-1 pattern
    # allows its colors in no block
    starts = [(p, 0, (), ()) for p, (word, _) in enumerate(pats)
              if len(word) > 2 and colors_at(p, 0, ())]
    only0 = functools.reduce(int.__or__, (colors_at(p, 0, ()) for p, (word, _)
                                          in enumerate(pats) if len(word) == 1), 0)

    def canon(rest, masks, copies, only):
        """(unlabelled masks, labelled masks, copies, only): the blocks no
        copy names go to the sorted masks, or to `free` when their mask is
        0, and the others are relabelled 0, 1, ... by mask and role."""
        roles: dict[int, list] = {}
        for p, j, B, C in copies:
            for pos, x in enumerate(B):
                roles.setdefault(x, []).append((p, j, pos, C))
        unl = sorted([*rest, *(m for x, m in enumerate(masks) if m and x not in roles)])
        order = sorted(roles, key=lambda x: (masks[x], sorted(roles[x])))
        label = dict(zip(order, range(len(order)))).__getitem__
        return (tuple(unl), tuple(map(masks.__getitem__, order)),
                tuple(sorted([(p, j, tuple(map(label, B)), C) for p, j, B, C in copies])),
                only)

    def moves(unl, lab, copies, only):
        """{(gained, state, per_free): ways} over the next element's block and
        color, `gained` being the change in `free`: with `per_free` the
        element joins a free block, so the ways count once per free block.
        Label r = len(lab) stands for a block no copy names."""
        r = len(lab)
        joins: dict[int, list] = {}  # label -> copies whose next element joins it
        opens = []                   # copies whose next element opens a block
        for cp in itertools.chain(starts, copies):
            p, j, B, C = cp
            q = pats[p][0][j]
            if q <= len(B):
                joins.setdefault(B[q - 1], []).append((colors_at(p, j, C), cp))
            else:
                opens.append((colors_at(p, j, C), cp))
        # (label, mask, blocks like it, the unlabelled blocks besides it) for
        # each labelled block, a free or a new block, and each unlabelled mask
        targets = [(x, m, 1, unl) for x, m in enumerate(lab)] + [(r, 0, 1, unl)]
        for own, group in itertools.groupby(unl):
            i = unl.index(own)
            targets.append((r, own, len(list(group)), unl[:i] + unl[i + 1:]))
        out: dict[tuple, int] = {}
        for b, own, mult, rest in targets:
            fresh = b == r and not own
            grows = opens if b == r else \
                joins.get(b, []) + [(mask, cp) for mask, cp in opens if b not in cp[2]]
            for c in range(1, k + 1):
                if (own ^ only) >> c & 1:
                    continue  # completes a copy
                # done: (colors, the copy's blocks or its last element's, restrict)
                grown, done = [], []
                for mask, (p, j, B, C) in grows:
                    if not mask >> c & 1:
                        continue
                    word = pats[p][0]
                    if word[j] > len(B):
                        B += (b,)
                    if ordered:
                        C += (c,)
                    if j + 2 < len(word):
                        grown.append((p, j + 1, B, C))
                        continue
                    # one element short: bar its last element's colors in the
                    # block it joins, or allow them only in the copy's blocks
                    # when it opens one
                    q, last = word[j + 1], colors_at(p, j + 1, C)
                    done.append((last, B[q - 1], False) if q <= len(B) else (last, B, True))
                S, D = same[c], other[c]
                own2 = (own | S) & ~(S & only) ^ D & ~only  # bar S here, allow D only here
                rest2 = [m & ~D for m in rest if m & ~D] if D else rest
                if not (grown or done or D and lab) and (b == r or own2 == own):
                    # the labelled blocks and the copies stay as they are
                    s2 = (unl if own2 == own and not D else
                          tuple(sorted([*rest2, own2] if own2 else rest2)), lab, copies, only | D)
                else:
                    masks = [m & ~D for m in (lab if b < r else lab + (own,))]
                    masks[b] = own2
                    only2 = only | D
                    for last, where, restrict in done:
                        if restrict:
                            masks = [m ^ last & ~only2 if x in where else m & ~last
                                     for x, m in enumerate(masks)]
                            rest2 = [m & ~last for m in rest2 if m & ~last]
                            only2 |= last
                        else:
                            masks[where] = (masks[where] | last) & ~(last & only2)
                    s2 = canon(rest2, masks, set(copies).union(grown), only2)
                # a fresh block is a new one, or one of the `free` ones
                gained = len(unl) + r - len(s2[0]) - len(s2[1])
                for key in ((gained + 1, s2, False), (gained, s2, True)) if fresh else \
                        ((gained, s2, False),):
                    out[key] = out.get(key, 0) + mult
        return tuple(out.items())

    states = {(0, ((), (), (), only0)): 1}  # (free, (unl, lab, copies, only)): weight
    memo_moves: dict[tuple, tuple] = {}
    counts = [1]
    for _ in range(n):
        nxt: dict[tuple, int] = {}
        for (free, state), weight in states.items():
            out = memo_moves.get(state)
            if out is None:
                out = memo_moves[state] = moves(*state)
            for (gained, state2, per_free), ways in out:
                ways *= free if per_free else 1
                if ways:
                    key = (free + gained, state2)
                    nxt[key] = nxt.get(key, 0) + weight * ways
        states = nxt
        counts.append(sum(states.values()))
    return counts


def _walk(n, k, patterns, sense):
    """Left-to-right walk over the colored words of size n that avoid `patterns`.

    Yields (word, colors) for every avoider, as lists the walk goes on to
    overwrite.  Containment is monotone, so an element is rejected as
    soon as a copy ends at it.
    """
    if any(pi.n == 0 for pi in patterns):
        return  # every partition contains the empty pattern
    same_bad, diff_bad = pair_tables(patterns, sense, k)
    other_lengths = [pi for pi in patterns if pi.n != 2]
    word = [0] * n
    colors = [0] * n
    masks = [0] * (n + 2)     # masks[b]: colors in block b
    holders = [0] * (k + 1)   # holders[c]: blocks holding color c

    def walk(t, top):
        if t == n:
            yield word, colors
            return
        for b in range(1, top + 2):
            own = masks[b]
            others = others_mask(own, holders)
            word[t] = b
            for c in range(1, k + 1):
                if own & same_bad[c] or others & diff_bad[c]:
                    continue
                colors[t] = c
                if any(copy_ends_at(word, colors, t, pi, sense) for pi in other_lengths):
                    continue
                fresh = not own >> c & 1
                masks[b] = own | 1 << c
                holders[c] += fresh
                yield from walk(t + 1, max(top, b))
                masks[b] = own
                holders[c] -= fresh

    yield from walk(0, 0)


def _pair_sweep(n, k, hits, prefix=()):
    """Every element of Pi_n wr C_k whose word starts with `prefix`, as
    (word, colors, mask), word-major with colors varying fastest.

    hits[side][cj][ci] is the mask an earlier element of color ci adds
    with a later one of color cj in the same block (side 0) or in
    another (side 1); `mask` is the union over all pairs.  The scan of
    an element stops once its mask holds every bit of `hits`.
    """
    full = functools.reduce(int.__or__, (m for side in hits for row in side for m in row), 0)
    same_hits, diff_hits = hits
    scan = range(1, n) if full else ()
    for word in iter_rgs(n, prefix):
        same = [[i for i in range(j) if word[i] == word[j]] for j in range(n)]
        diff = [[i for i in range(j) if word[i] != word[j]] for j in range(n)]
        for colors in itertools.product(range(1, k + 1), repeat=n):
            mask = 0
            for j in scan:
                same_hit, diff_hit = same_hits[colors[j]], diff_hits[colors[j]]
                for i in same[j]:
                    mask |= same_hit[colors[i]]
                for i in diff[j]:
                    mask |= diff_hit[colors[i]]
                if mask == full:
                    break
            yield word, colors, mask


def _count_naive(n, k, patterns, sense, prefix=()):
    """Full-enumeration oracle: the avoiders among every element of
    Pi_n wr C_k whose word starts with `prefix`.

    Each element is tested on its own: a length-2 copy by a scan of its
    pairs, read from every pattern's own `pair_tables((pi,), ...)` and
    never from the set's merged tables the DP reads, so a fault in the
    merge shows as a mismatch; a copy of any other length by
    `copy_ends_at` at every element, only when no pair is a copy.
    """
    if any(pi.n == 0 for pi in patterns):
        return 0  # every partition contains the empty pattern
    tables = [pair_tables((pi,), sense, k) for pi in patterns if pi.n == 2]
    other_lengths = [pi for pi in patterns if pi.n != 2]
    # 1 where some pattern's own table forbids an earlier color ci before a
    # later cj, so that an element's scan stops at its first copy
    hits = [[[int(any(t[side][cj] >> ci & 1 for t in tables)) for ci in range(k + 1)]
             for cj in range(k + 1)] for side in (0, 1)]
    count = 0
    for word, colors, mask in _pair_sweep(n, k, hits, prefix):
        if not mask and not any(copy_ends_at(word, colors, t, pi, sense)
                                for pi in other_lengths for t in range(n)):
            count += 1
    return count


def count_avoiders(n: int, k: int, patterns: Sequence[ColoredPattern],
                   sense: Sense = Sense.PATTERN, *, naive: bool = False,
                   jobs: int = 1) -> int:
    """|{sigma in Pi_n wr C_k : sigma avoids every pattern}|.

    Counted in this process by a DP (see `_count_residual`).  `naive=True` runs
    the full-enumeration oracle instead, split by word prefix across at
    most `jobs` processes (no more than the CPU count) when n is larger
    than the prefix.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    patterns = tuple(patterns)
    if not naive:
        return _count_residual(n, k, patterns, sense)[n]
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1 and n > PREFIX_SPLIT_LENGTH:
        task = functools.partial(_count_naive, n, k, patterns, sense)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(task, iter_rgs(PREFIX_SPLIT_LENGTH), chunksize=4))
    return _count_naive(n, k, patterns, sense)


def _avoider_words(n, k, patterns, sense):
    """The avoiders as (word, colors) tuples, in the walk's order."""
    # one tuple per word, shared by its avoiders as iter_colored shares it,
    # keeps large avoider sets small
    words: dict[tuple[int, ...], tuple[int, ...]] = {}
    for word, colors in _walk(n, k, tuple(patterns), sense):
        w = tuple(word)
        yield words.setdefault(w, w), tuple(colors)


def iter_avoiders(n: int, k: int, patterns: Sequence[ColoredPattern],
                  sense: Sense = Sense.PATTERN) -> Iterator[ColoredPartition]:
    """Generate the avoiders, in the walk's order."""
    for word, colors in _avoider_words(n, k, patterns, sense):
        yield ColoredPartition(word, colors, k)


def avoider_set(n: int, k: int, patterns: Sequence[ColoredPattern],
                sense: Sense = Sense.PATTERN) -> set[ColoredPartition]:
    """The avoiders themselves (for set-identity checks; small n only)."""
    return set(iter_avoiders(n, k, patterns, sense))


@dataclass(frozen=True)
class AvoidanceSequence:
    """Counts |Pi_n wr C_k(S)| for n = 1..n_max."""

    pattern_set: str
    sense: Sense
    k: int
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts)


def avoidance_sequence(patterns: Sequence[ColoredPattern], sense: Sense = Sense.PATTERN,
                       k: int = 2, n_max: int = 6, *, naive: bool = False,
                       jobs: int = 1) -> AvoidanceSequence:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    patterns = tuple(patterns)
    if naive:
        counts = tuple(count_avoiders(n, k, patterns, sense, naive=True, jobs=jobs)
                       for n in range(1, n_max + 1))
    else:
        counts = tuple(_count_residual(n_max, k, patterns, sense)[1:])
    return AvoidanceSequence(print_pattern_set(patterns), sense, k, counts)


@dataclass(frozen=True)
class WilfClassification:
    """Pattern sets grouped by identical avoidance sequences up to n_max."""

    n_max: int
    classes: tuple[tuple[tuple[ColoredPattern, ...], ...], ...]
    sequences: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.classes)


def wilf_classify(family: Sequence[Sequence[ColoredPattern]], sense: Sense = Sense.PATTERN,
                  k: int = 2, n_max: int = 6, *, naive: bool = False,
                  jobs: int = 1) -> WilfClassification:
    """Group pattern sets whose count vectors agree for all n <= n_max."""
    if not family:
        raise ValueError("family must be nonempty")
    buckets: dict[tuple[int, ...], list[tuple[ColoredPattern, ...]]] = {}
    for patterns in family:
        patterns = tuple(sorted(patterns, key=lambda p: (p.word, p.colors)))
        seq = avoidance_sequence(patterns, sense, k, n_max, naive=naive, jobs=jobs).counts
        buckets.setdefault(seq, []).append(patterns)
    classes = []
    for seq, members in buckets.items():
        members.sort(key=print_pattern_set)
        classes.append((members, seq))
    classes.sort(key=lambda pair: print_pattern_set(pair[0][0]))
    return WilfClassification(
        n_max,
        tuple(tuple(members) for members, _ in classes),
        tuple(seq for _, seq in classes),
    )


# --- canonical 2-pattern machinery --------------------------------------

def canonical_pair_patterns(k: int = 2) -> tuple[ColoredPattern, ...]:
    """The six canonical colored patterns of [2] (colors reduced)."""
    pats = []
    for word in ((1, 1), (1, 2)):
        for colors in ((1, 1), (1, 2), (2, 1)):
            pats.append(ColoredPattern(word, colors, k))
    return tuple(pats)


def containment_profiles(n: int, k: int = 2) -> dict[int, int]:
    """Histogram of pattern-sense containment masks over Pi_n wr C_k.

    Bit i of a mask is set when the partition contains the i-th
    canonical 2-pattern (order of `canonical_pair_patterns`).  One full
    sweep, the pair scan of the `naive=True` oracle, answers every
    subset-avoidance count at once: |Pi_n wr C_k(S)| = sum of histogram
    values over masks disjoint from S's mask.
    """
    six = [pair_tables((pi,), Sense.PATTERN, k) for pi in canonical_pair_patterns(k)]
    # hits[side][cj][ci]: the canonical patterns that an earlier element of
    # color ci completes with a later one of color cj, read from same_bad
    # (side 0: one block) or diff_bad (side 1: two blocks)
    hits = [[[sum(1 << b for b, tables in enumerate(six) if tables[side][cj] >> ci & 1)
              for ci in range(k + 1)] for cj in range(k + 1)] for side in (0, 1)]
    hist: dict[int, int] = {}
    for _, _, mask in _pair_sweep(n, k, hits):
        hist[mask] = hist.get(mask, 0) + 1
    return hist


def count_from_profiles(hist: dict[int, int],
                        patterns: Sequence[ColoredPattern]) -> int:
    """Avoider count from a `containment_profiles` histogram."""
    canonical = [p.key() for p in canonical_pair_patterns()]
    smask = 0
    for p in patterns:
        smask |= 1 << canonical.index(p.canonical().key())
    return sum(v for mask, v in hist.items() if mask & smask == 0)


# --- empirical verification reports -------------------------------------

@dataclass
class VerificationReport:
    name: str
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_color_symmetries(n_max: int = 6, k: int = 2,
                            sense: Sense = Sense.PATTERN) -> VerificationReport:
    """Color reversal and complement preserve avoidance sequences."""
    from .core import color_complement, color_reverse

    report = VerificationReport("color-symmetry")
    for pi in canonical_pair_patterns(k):
        base = avoidance_sequence((pi,), sense, k, n_max).counts
        for label, image in (("reverse", color_reverse(pi)),
                             ("complement", color_complement(pi))):
            other = avoidance_sequence((image,), sense, k, n_max).counts
            desc = "%s ~ %s (%s)" % (pi.word_text(), image.word_text(), label)
            if base == other:
                report.checks.append(desc)
            else:
                report.failures.append("%s: %r != %r" % (desc, base, other))
    return report


# pattern-sense avoiders of the left set coincide (as sets) with
# EQ-sense avoiders of the right set
EQ_PATTERN_IDENTITIES = (
    ("1^11^1", "1^11^1,1^21^2"),
    ("1^11^2", "1^11^2"),
    ("1^12^1", "1^12^1,1^22^2"),
    ("1^12^2", "1^12^2"),
)


def verify_eq_pattern_identities(n_max: int = 6) -> VerificationReport:
    """Set equality of pattern-sense and EQ-sense avoider families.

    At every position `_walk` tries blocks, then colors, in ascending
    order, whatever the patterns or the sense, so each side's avoiders
    come as a subsequence of one fixed order of Pi_n wr C_2: the two sets
    are equal exactly when the two walks yield the same sequence.  They
    are compared in lockstep, with nothing stored; only after a mismatch
    are both sets built, so that the witness is the smallest element of
    their symmetric difference.
    """
    from .core import parse_pattern_set

    report = VerificationReport("pattern/EQ set identities")
    for pat_text, eq_text in EQ_PATTERN_IDENTITIES:
        pat = parse_pattern_set(pat_text)
        eq = parse_pattern_set(eq_text)
        for n in range(1, n_max + 1):
            desc = "pat{%s} = eq{%s} at n=%d" % (pat_text, eq_text, n)
            if all(a == b for a, b in itertools.zip_longest(
                    _walk(n, 2, pat, Sense.PATTERN), _walk(n, 2, eq, Sense.EQ))):
                report.checks.append(desc)
            else:
                left = set(_avoider_words(n, 2, pat, Sense.PATTERN))
                right = set(_avoider_words(n, 2, eq, Sense.EQ))
                witness = ColoredPartition(*min(left ^ right), 2)
                report.failures.append("%s: witness %s" % (desc, witness.word_text()))
    return report


def nmax_cap() -> int | None:
    """Optional enumeration size cap from the PPL_NMAX_CAP env var."""
    raw = os.environ.get("PPL_NMAX_CAP")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError("PPL_NMAX_CAP must be an integer, got %r" % raw)

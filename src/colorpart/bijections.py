"""Explicit bijections between avoidance classes and their verification.

The recursive map onto permutations avoiding 12-3 and 214-3 works on
the largest element of the partition: a 2-block {j, n} contributes
j (n+1) followed by a re-alphabetized recursive image, a 1-colored
singleton n prepends n+1, and a 2-colored singleton n splits the
recursive image at the letter n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .avoidance import Sense, _vincular_walk, avoids_all, contains_colored, contains_vincular
from .core import (
    ColoredPartition,
    ColoredPattern,
    PartitionError,
    Permutation,
    canonize_sub,
    parse_pattern_set,
    parse_vincular,
    reduce_word,
)
from .enumeration import _avoider_words, iter_avoiders, iter_rgs

PAT_12_3 = parse_vincular("12-3")
PAT_214_3 = parse_vincular("214-3")
PAT_1_23 = parse_vincular("1-23")

F_DOMAIN = parse_pattern_set("1^11^1,1^11^2")
G_DOMAIN = parse_pattern_set("1^11^2,1^12^2")
CLASS2_DOMAIN = parse_pattern_set("1^12^1,1^22^1")
CLASS2_CODOMAIN = parse_pattern_set("1^21^1,1^12^1")
CLASS3A_DOMAIN = parse_pattern_set("1^11^1,1^11^2,1^22^1")
CLASS3A_CODOMAIN = parse_pattern_set("1^11^2,1^12^1,1^12^2")
CLASS3B_DOMAIN = CLASS3A_CODOMAIN
CLASS3B_CODOMAIN = parse_pattern_set("1^21^1,1^12^1,1^12^2")


class DomainError(PartitionError):
    """Input lies outside a bijection's stated domain."""


def _require_avoids(sigma: ColoredPartition, patterns, what: str) -> None:
    # every domain and codomain here is 2-colored
    if any(c > 2 for c in sigma.colors):
        raise DomainError("%s has a color above 2, outside the %s domain"
                          % (sigma.word_text(), what))
    if not avoids_all(sigma, patterns, Sense.PATTERN):
        # name the first pattern, in set order, that sigma contains
        pi = next(pi for pi in patterns if contains_colored(sigma, pi, Sense.PATTERN))
        raise DomainError(
            "%s contains %s, outside the %s domain"
            % (sigma.word_text() or "()", pi.word_text(), what))


def _require_perm_avoids(q: Permutation, patterns, what: str) -> None:
    for p in patterns:
        if contains_vincular(q, p):
            raise DomainError(
                "%s contains %s, outside the %s domain" % (q.text(), p.text(), what))


# --- the recursive map onto S_{n+1}(12-3, 214-3) ------------------------

def bij_f(sigma: ColoredPartition) -> Permutation:
    """Map an avoider of 1^11^1 and 1^11^2 to a (12-3, 214-3)-avoider."""
    _require_avoids(sigma, F_DOMAIN, "f")
    return Permutation(_f(sigma))


def _f(sigma: ColoredPartition) -> tuple[int, ...]:
    n = sigma.n
    if n == 0:
        return (1,)
    if n == 1:
        return (2, 1) if sigma.colors[0] == 1 else (1, 2)
    block = sigma.word[n - 1]
    members = [i for i in range(1, n + 1) if sigma.word[i - 1] == block]
    if len(members) == 2:
        j = members[0]
        keep = [i for i in range(1, n + 1) if i not in (j, n)]
        q = _f(canonize_sub(sigma, keep))  # permutation of [n-1]
        alphabet = [v for v in range(1, n + 1) if v != j]
        return (j, n + 1) + tuple(alphabet[v - 1] for v in q)
    inner = _f(canonize_sub(sigma, range(1, n)))
    if sigma.color_of(n) == 1:
        return (n + 1,) + inner
    pos = inner.index(n)  # inner is a permutation of [n]
    return (n,) + inner[:pos] + (n + 1,) + inner[pos + 1:]


def bij_f_inv(q: Permutation) -> ColoredPartition:
    """Inverse of `bij_f` on permutations avoiding 12-3 and 214-3."""
    if not q.n:
        raise DomainError("the empty permutation is outside the f codomain "
                          "S_{n+1}, n >= 0")
    _require_perm_avoids(q, (PAT_12_3, PAT_214_3), "f inverse")
    blocks, colors = _f_inv(q.entries)
    if not blocks:
        return ColoredPartition((), (), 2)
    return ColoredPartition.from_blocks(blocks, colors, 2)


def _f_inv(q: tuple[int, ...]):
    """Blocks and colors of the preimage, over the ground set [len(q)-1]."""
    n = len(q) - 1
    if n == 0:
        return [], {}
    pos = q.index(n + 1)
    if pos == 0:
        blocks, colors = _f_inv(q[1:])
        blocks.append([n])
        colors[n] = 1
    elif pos == 1 and q[0] != n:
        j = q[0]
        blocks_small, colors_small = _f_inv(reduce_word(q[2:]))
        alphabet = [v for v in range(1, n) if v != j]  # [n-1] \ {j}
        blocks = [[alphabet[e - 1] for e in blk] for blk in blocks_small]
        colors = {alphabet[e - 1]: c for e, c in colors_small.items()}
        blocks.append([j, n])
        colors[j] = 2
        colors[n] = 1
    else:
        # here q starts with its largest proper letter
        blocks, colors = _f_inv(q[1:pos] + (n,) + q[pos + 1:])
        blocks.append([n])
        colors[n] = 2
    return blocks, colors


# --- block-descent partition-to-permutation map --------------------------

def _tau_sequence(blocks: Sequence[Sequence[int]]) -> list[int]:
    ordered = sorted((sorted(blk) for blk in blocks), key=lambda blk: -blk[0])
    out = []
    for blk in ordered:
        out.append(blk[0])
        out.extend(sorted(blk[1:], reverse=True))
    return out


def block_descent_tau(partition) -> Permutation:
    """Concatenate blocks, minima decreasing, into a 1-23-avoider.

    Blocks are listed by decreasing minima; within a block the minimum
    comes first and the rest follow in decreasing order.  Accepts a
    canonical word or a ColoredPartition (colors ignored).
    """
    if isinstance(partition, ColoredPartition):
        blocks = partition.blocks()
    else:
        from .core import word_to_blocks
        blocks = word_to_blocks(partition)
    return Permutation(tuple(_tau_sequence(blocks)))


# --- the composed map onto ascent-led 12-3-avoiders ---------------------

def bij_g(sigma: ColoredPartition) -> Permutation:
    """Map an avoider of 1^11^2 and 1^12^2 into S_{n+2}(12-3) starting 12.

    The image is i, n+2, then the reverse-complement of the block-descent
    word of sigma with its first 1-colored element replaced by n+1;
    complement and reversal act within that partition's ground set.
    """
    _require_avoids(sigma, G_DOMAIN, "g")
    n = sigma.n
    ones = [e for e in range(1, n + 1) if sigma.color_of(e) == 1]
    i = min(ones) if ones else n + 1
    blocks = [list(blk) for blk in sigma.blocks()]
    if i <= n:
        for blk in blocks:
            if i in blk:
                blk[blk.index(i)] = n + 1
    ground = sorted(e for blk in blocks for e in blk)
    rank = {e: idx for idx, e in enumerate(ground)}
    word = _tau_sequence(blocks) if blocks else []
    complemented = [ground[len(ground) - 1 - rank[e]] for e in word]
    return Permutation((i, n + 2) + tuple(reversed(complemented)))


# --- merge/split between the two pair-class-2 descriptions --------------

def _merge_split(sigma: ColoredPartition) -> ColoredPartition:
    n = sigma.n
    if n == 0:
        return sigma
    blocks = sigma.blocks()
    if len(blocks) >= 2:
        return ColoredPartition((1,) * n, sigma.colors, sigma.k)
    split = [[e for e in range(1, n + 1) if sigma.color_of(e) == c]
             for c in (1, 2)]
    split = [blk for blk in split if blk]
    colors = {e: sigma.color_of(e) for e in range(1, n + 1)}
    return ColoredPartition.from_blocks(split, colors, sigma.k)


def bij_class2_pairs(sigma: ColoredPartition) -> ColoredPartition:
    """Two blocks merge into one; one block splits by color."""
    _require_avoids(sigma, CLASS2_DOMAIN, "class-2")
    return _merge_split(sigma)


def bij_class2_pairs_inv(sigma: ColoredPartition) -> ColoredPartition:
    """Same merge/split rule read from the codomain side."""
    _require_avoids(sigma, CLASS2_CODOMAIN, "class-2 inverse")
    return _merge_split(sigma)


# --- the 2n-element triple classes --------------------------------------

def _first_two_colored(sigma: ColoredPartition):
    for e in range(1, sigma.n + 1):
        if sigma.color_of(e) == 2:
            return e
    return None


def bij_class3_structural(sigma: ColoredPartition) -> ColoredPartition:
    """Structural map between the first two triple-class-3 descriptions.

    Monochromatic all-singleton partitions go to monochromatic one-block
    partitions.  Otherwise, with i the first 2-colored element: if i+1
    shares i's block everything merges into one block with the color
    counts swapped; if not, the 1-colored and 2-colored elements each
    form a block and the colors swap.
    """
    _require_avoids(sigma, CLASS3A_DOMAIN, "class-3 structural")
    n = sigma.n
    if len(set(sigma.colors)) <= 1:
        return ColoredPartition((1,) * n, sigma.colors, sigma.k)
    i = _first_two_colored(sigma)
    if i < n and sigma.word[i - 1] == sigma.word[i]:
        # {i, i+1} is a 2-block: one codomain block, colors 2^i 1^(n-i)
        return ColoredPartition((1,) * n, (2,) * i + (1,) * (n - i), sigma.k)
    # all singletons colored 1^(i-1) 2^(n-i+1), i >= 2
    blocks = [list(range(1, i)), list(range(i, n + 1))]
    colors = {e: 2 for e in blocks[0]}
    colors.update({e: 1 for e in blocks[1]})
    return ColoredPartition.from_blocks(blocks, colors, sigma.k)


def bij_class3_structural_inv(sigma: ColoredPartition) -> ColoredPartition:
    _require_avoids(sigma, CLASS3A_CODOMAIN, "class-3 structural inverse")
    n = sigma.n
    blocks = sigma.blocks()
    if len(set(sigma.colors)) <= 1:
        return ColoredPartition(tuple(range(1, n + 1)), sigma.colors, sigma.k)
    if len(blocks) == 1:
        i = sum(1 for c in sigma.colors if c == 2)
        word = [0] * n
        colors = [0] * n
        for e in range(1, i):
            word[e - 1] = e
            colors[e - 1] = 1
        # block {i, i+1}, then singletons colored 2
        word[i - 1] = i
        colors[i - 1] = 2
        word[i] = i
        colors[i] = 1
        for e in range(i + 2, n + 1):
            word[e - 1] = e - 1
            colors[e - 1] = 2
        return ColoredPartition(tuple(word), tuple(colors), sigma.k)
    j = len(blocks[0])  # {1..j} colored 2, {j+1..n} colored 1
    colors = (1,) * j + (2,) * (n - j)
    return ColoredPartition(tuple(range(1, n + 1)), colors, sigma.k)


def bij_class3_colorswap(sigma: ColoredPartition) -> ColoredPartition:
    """Swap the two colors inside every block that carries both colors."""
    _require_avoids(sigma, CLASS3B_DOMAIN, "class-3 color swap")
    return _swap_bichromatic(sigma)


def bij_class3_colorswap_inv(sigma: ColoredPartition) -> ColoredPartition:
    _require_avoids(sigma, CLASS3B_CODOMAIN, "class-3 color swap inverse")
    return _swap_bichromatic(sigma)


def _swap_bichromatic(sigma: ColoredPartition) -> ColoredPartition:
    colors = list(sigma.colors)
    for blk in sigma.blocks():
        seen = {sigma.color_of(e) for e in blk}
        if len(seen) > 1:
            for e in blk:
                colors[e - 1] = 3 - colors[e - 1]
    return ColoredPartition(sigma.word, tuple(colors), sigma.k)


# --- verification harness -----------------------------------------------

@dataclass
class BijectionReport:
    name: str
    n: int
    domain_size: int = 0
    image_size: int = 0
    codomain_size: int = 0
    round_trip_failures: list[str] = field(default_factory=list)
    membership_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.round_trip_failures and not self.membership_failures
                and self.image_size == self.domain_size == self.codomain_size)


def verify_bijection(name: str, n: int) -> BijectionReport:
    """Exhaustively check one named bijection at size n.

    Applies the map to each element of the enumerated domain as it is
    generated, confirms every image lies in the exhaustively enumerated
    codomain, confirms injectivity, round-trips through the inverse when
    one exists, and compares the image's size with the codomain's.  The
    codomain is held as plain tuples, permutation entries or (word,
    colors), never as objects; the g codomain walk drops every prefix
    that begins with a descent instead of filtering afterwards.
    """
    report = BijectionReport(name, n)
    seen = {}

    if name == "f":
        domain = iter_avoiders(n, 2, F_DOMAIN)
        codomain = set(map(tuple, _vincular_walk(n + 1, (PAT_12_3, PAT_214_3))))
        forward, backward = bij_f, bij_f_inv
    elif name == "tau":
        domain = (ColoredPartition(w, (1,) * n, 2) for w in iter_rgs(n))
        codomain = set(map(tuple, _vincular_walk(n, (PAT_1_23,))))
        forward = lambda s: block_descent_tau(s.word)
        backward = None
    elif name == "g":
        domain = iter_avoiders(n, 2, G_DOMAIN)
        codomain = set(map(tuple, _vincular_walk(n + 2, (PAT_12_3,), ascent_led=True)))
        forward, backward = bij_g, None
    elif name == "class2":
        domain = iter_avoiders(n, 2, CLASS2_DOMAIN)
        codomain = set(_avoider_words(n, 2, CLASS2_CODOMAIN, Sense.PATTERN))
        forward, backward = bij_class2_pairs, bij_class2_pairs_inv
    elif name == "class3a":
        domain = iter_avoiders(n, 2, CLASS3A_DOMAIN)
        codomain = set(_avoider_words(n, 2, CLASS3A_CODOMAIN, Sense.PATTERN))
        forward, backward = bij_class3_structural, bij_class3_structural_inv
    elif name == "class3b":
        domain = iter_avoiders(n, 2, CLASS3B_DOMAIN)
        codomain = set(_avoider_words(n, 2, CLASS3B_CODOMAIN, Sense.PATTERN))
        forward, backward = bij_class3_colorswap, bij_class3_colorswap_inv
    else:
        raise ValueError("unknown bijection %r" % name)

    for sigma in domain:
        report.domain_size += 1
        image = forward(sigma)
        key = image.entries if isinstance(image, Permutation) else (image.word, image.colors)
        if key not in codomain:
            report.membership_failures.append(
                "%s -> %s not in codomain" % (_show(sigma), _show(image)))
            continue
        if key in seen:
            report.membership_failures.append(
                "%s and %s collide at %s" % (_show(seen[key]), _show(sigma), _show(image)))
            continue
        seen[key] = sigma
        if backward is not None:
            back = backward(image)
            if back != sigma:
                report.round_trip_failures.append(
                    "%s -> %s -> %s" % (_show(sigma), _show(image), _show(back)))
    report.image_size = len(seen)
    report.codomain_size = len(codomain)
    return report


def _show(obj) -> str:
    if isinstance(obj, Permutation):
        return obj.text()
    return obj.block_text()

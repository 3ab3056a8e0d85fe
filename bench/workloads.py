"""Seeded request lists for the four workloads, and their output checks.

A request is one argv for ``colorpart.cli.main`` plus what its output must
be.  The lists are drawn from the golden pools in ``golden/pools.json``
(see ``make_golden.py``) by a ``random.Random(seed)``, in fixed strata so
that every seed asks for about the same amount of work of each kind.
Nothing here imports colorpart: outputs are parsed and checked against
golden data only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass

from oracle import canonical_text

WORKLOADS = ("count-len2", "naive-len3", "verify-mix", "count-jobs2")
FORMATS = ("table", "json", "csv")
SENSES = ("pattern", "eq", "lt")
CANONICAL_SIX = ("1^11^1", "1^11^2", "1^21^1", "1^12^1", "1^12^2", "1^22^1")
BIJECTIONS = ("f", "tau", "g", "class2", "class3a", "class3b")

# Requests that must be refused with exit code 2 (usage or domain errors),
# with the stdout each must print.
MALFORMED = (
    (["count", "-p", "1^13^1", "-n", "3"], ""),
    (["count", "-p", "2^11^1", "-n", "3"], ""),
    (["count", "-p", "1^1x", "-n", "3"], ""),
    (["count", "-p", "1^11^2", "-n", "-1"], ""),
    (["count", "-p", "1^11^2", "-n", "3", "--sense", "bogus"], ""),
    (["sequence", "-p", "1^11^2", "--nmax", "0"], ""),
    (["classify", "--size", "7"], ""),
    (["bijection", "f", "1^12^2"], ""),
    (["bijection", "g", "1^12^2"], ""),
    (["bijection", "f-inv", "123"], ""),
    (["bijection", "f-inv", "1224"], ""),
    (["verify"], "nothing to verify; pass --all or a specific check\n"),
)

# verify requests with one check each, grouped by cost.  Bijection sizes
# keep the host of every permutation codomain at m <= 8, where it is fully
# enumerated.
VERIFY_CHEAP = (
    [["--tables", "--nmax", str(n)] for n in (4, 5)]
    + [["--formulas", "--nmax", str(n)] for n in (4, 5)]
    + [["--symmetries", "--nmax", str(n)] for n in (4, 5)]
    + [["--identities", "--nmax", "4"]]
    + [["--bijection", b, "-n", str(n)] for b in ("class2", "class3a", "class3b")
       for n in range(3, 9)]
    + [["--bijection", "f", "-n", str(n)] for n in (3, 4)]
    + [["--bijection", "tau", "-n", str(n)] for n in (3, 4, 5)]
    + [["--bijection", "g", "-n", "3"]]
)
VERIFY_MEDIUM = (
    [["--tables", "--nmax", "6"], ["--formulas", "--nmax", "6"],
     ["--bijection", "f", "-n", "5"], ["--bijection", "tau", "-n", "6"],
     ["--bijection", "g", "-n", "4"]]
)
VERIFY_HEAVY = (
    [["--bijection", "f", "-n", "6"], ["--bijection", "tau", "-n", "7"],
     ["--bijection", "g", "-n", "5"]]
)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@dataclass
class Request:
    argv: list[str]
    kind: str
    expect: dict
    naive_elements: int = 0   # sum of B(n) k^n the naive engine walks
    answer_sum: int = 0       # sum of golden avoider counts
    domain_sum: int = 0       # sum of verified bijection domain sizes
    cost: str = "small"       # 'small' requests may be re-run by the isolation check


class Pools:
    def __init__(self, path: str):
        with open(path) as fh:
            data = json.load(fh)
        self.counts = data["counts"]
        self.count_len2 = data["count_len2"]
        self.naive_len3 = data["naive_len3"]
        self.verify_mix = data["verify_mix"]

    def golden(self, sense, k, text, nmax) -> list[int]:
        entry = self.counts["%s|%d|%s" % (sense, k, canonical_text(text))]
        if len(entry["counts"]) < nmax:
            raise KeyError("no golden for %s %s k=%d n=%d" % (text, sense, k, nmax))
        return entry["counts"][:nmax]


# --- request builders -------------------------------------------------------

def counting_request(pools, rng, cmd, text, sense, k, n, *, naive=False, jobs=1):
    fmt = rng.choice(FORMATS)
    argv = [cmd, "-p", text, "-k", str(k), "--sense", sense]
    argv += ["-n", str(n)] if cmd == "count" else ["--nmax", str(n)]
    argv += ["--jobs", str(jobs), "--format", fmt]
    if naive:
        argv.append("--naive")
    counts = pools.golden(sense, k, text, n)
    expect = {"format": fmt, "counts": counts if cmd == "sequence" else counts[-1:]}
    nvals = range(1, n + 1) if cmd == "sequence" else (n,)
    longest = max(len(re.findall(r"\^", p)) for p in text.split(","))
    walks_all = naive or longest > 2
    return Request(argv, cmd, expect,
                   naive_elements=sum(bell(m) * k ** m for m in nvals) if walks_all else 0,
                   answer_sum=sum(expect["counts"]))


def draw_binned(cands, how_many, rng):
    """One candidate from each of `how_many` equal bins of the cost-sorted list.

    Every seed then draws about the same multiset of request costs, so the
    totals and percentiles do not hinge on the luck of the draw.
    """
    cands = sorted(cands, key=lambda c: (c["cost_ms"], json.dumps(c, sort_keys=True)))
    picks = []
    for i in range(how_many):
        lo, hi = len(cands) * i // how_many, len(cands) * (i + 1) // how_many
        picks.append(cands[rng.randrange(lo, max(hi, lo + 1))])
    return picks


def draw_len2_strata(pools, rng, per_stratum, jobs):
    """`per_stratum` band requests for each (k, command, sense)."""
    out = []
    for k, cmd, sense in itertools.product((2, 3), ("count", "sequence"), SENSES):
        cands = [c for c in pools.count_len2
                 if c["cmd"] == cmd and c["k"] == k and c["sense"] == sense]
        for c in draw_binned(cands, per_stratum, rng):
            out.append(counting_request(pools, rng, cmd, c["patterns"], sense, k, c["n"],
                                        jobs=jobs))
    return out


def build_count_len2(pools, rng):
    return draw_len2_strata(pools, rng, 9, jobs=1)


# (k, --naive on a length-2 set?, how many) for naive-len3: a fifth of the
# requests are --naive runs.  All walk search spaces of about one size
# (B(5) 2^5 = 1664 and B(4) 3^4 = 1215 elements), so no few large
# requests decide the percentiles.
NAIVE_STRATA = ((2, False, 50), (3, False, 30), (2, True, 12), (3, True, 8))


def build_naive_len3(pools, rng):
    out = []
    for k, naive, how_many in NAIVE_STRATA:
        cands = [c for c in pools.naive_len3["candidates"]
                 if c["k"] == k and c["naive"] == naive]
        for c in draw_binned(cands, how_many, rng):
            out.append(counting_request(pools, rng, c["cmd"], c["patterns"], c["sense"],
                                        k, c["n"], naive=naive))
    return out


def build_count_jobs2(pools, rng):
    out = draw_len2_strata(pools, rng, 4, jobs=2)
    # Length-3 sets at the naive-len3 size and one larger, binned by their
    # cost at the naive-len3 size.
    for k, larger, how_many in ((2, 1, 12), (3, 1, 4), (2, 0, 12)):
        cands = [c for c in pools.naive_len3["candidates"]
                 if c["k"] == k and not c["naive"] and c["cmd"] == "count"]
        for c in draw_binned(cands, how_many, rng):
            out.append(counting_request(pools, rng, "count", c["patterns"], c["sense"],
                                        k, c["n"] + larger, jobs=2))
    for _ in range(24):  # small: pool start-up dominates
        k = rng.choice((2, 3))
        sense, text = rng.choice(pools.naive_len3["len2"][str(k)])
        out.append(counting_request(pools, rng, "count", text, sense, k, 5, jobs=2))
    return out


def build_verify_mix(pools, rng):
    vm = pools.verify_mix
    out = []
    for _ in range(60):
        b = rng.choice(vm["bijection"])
        out.append(Request(["bijection", b["name"], b["input"]], "bijection",
                           {"image": b["image"]}))
    for argv, stdout in rng.sample(MALFORMED, 6):
        out.append(Request(list(argv), "malformed", {"exit": 2, "stdout": stdout}))
    # Sequences of registered classes from the count-len2 band, below
    # 100 ms: with the one-check verify runs of like cost (35-75 ms) they
    # form a dense block of requests around the 90th percentile, which
    # keeps req_p90_s from jumping between a few far-apart requests.
    registered = {canonical_text(s["patterns"]) for s in vm["sequence"]}
    seqs = [c for c in pools.count_len2
            if c["cmd"] == "sequence" and c["k"] == 2 and c["sense"] == "pattern"
            and canonical_text(c["patterns"]) in registered and c["cost_ms"] < 100]
    for c in draw_binned(seqs, 14, rng):
        fmt = rng.choice(("json", "csv"))
        counts = pools.golden("pattern", 2, c["patterns"], c["n"])
        out.append(Request(["sequence", "-p", c["patterns"], "--nmax", str(c["n"]),
                            "--format", fmt], "sequence",
                           {"format": fmt, "counts": counts}, answer_sum=sum(counts)))
    # Every classify and verify variant runs once per list, so their costs
    # (which differ a hundredfold) are the same for every seed.
    for size, nmax in itertools.product(range(1, 7), (6, 7)):
        fmt = rng.choice(("table", "json"))
        members = {}
        for sub in itertools.combinations(CANONICAL_SIX, size):
            text = canonical_text(",".join(sub))
            members[text] = pools.golden("pattern", 2, text, nmax)
        out.append(Request(["classify", "--size", str(size), "--nmax", str(nmax),
                            "--format", fmt], "classify",
                           {"format": fmt, "members": members},
                           answer_sum=sum(sum(c) for c in members.values())))
    for group, cost in ((VERIFY_CHEAP, "small"), (VERIFY_MEDIUM, "small"),
                        (VERIFY_HEAVY, "large")):
        out += [verify_request(vm, list(flags), cost) for flags in group]
    out.append(verify_request(vm, ["--all", "--nmax", "6"], "large"))
    return out


def verify_request(vm, flags, cost):
    if flags[0] == "--all":
        nmax = int(flags[2])
        n = min(nmax, 6)
        bij = [(b, n) for b in BIJECTIONS]
        lines = sum(vm["pass_lines"].values()) + len(bij)
    elif flags[0] == "--bijection":
        bij = [(flags[1], int(flags[3]))]
        lines = 1
    else:
        bij = []
        lines = vm["pass_lines"][flags[0][2:]]
    domains = {b: vm["domain_size"][b][str(n)] for b, n in bij}
    return Request(["verify"] + flags, "verify",
                   {"pass_lines": lines, "domains": domains, "n": dict(bij)},
                   domain_sum=sum(domains.values()), cost=cost)


BUILDERS = {
    "count-len2": build_count_len2,
    "naive-len3": build_naive_len3,
    "verify-mix": build_verify_mix,
    "count-jobs2": build_count_jobs2,
}


def build(workload: str, seed: int, pools: Pools) -> list[Request]:
    """The workload's request list for this seed, in a seeded order."""
    rng = random.Random("%s:%d" % (workload, seed))
    requests = BUILDERS[workload](pools, rng)
    rng.shuffle(requests)
    return requests


def fingerprint(requests: list[Request], seed: int) -> dict:
    digest = hashlib.sha256(json.dumps([r.argv for r in requests]).encode()).hexdigest()
    return {
        "seed": seed,
        "requests": len(requests),
        "argv_sha256": digest,
        "golden_answer_sum": sum(r.answer_sum for r in requests),
        "naive_elements_sum_computed": sum(r.naive_elements for r in requests),
        "bijection_domain_sum": sum(r.domain_sum for r in requests),
    }


# --- output checks -----------------------------------------------------------

def check(req: Request, exit_code: int, stdout: str) -> str | None:
    """None if the output is right, else a one-line reason."""
    expect = req.expect
    want_exit = expect.get("exit", 0)
    if exit_code != want_exit:
        return "exit code %d, expected %d" % (exit_code, want_exit)
    try:
        return CHECKERS[req.kind](expect, stdout)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return "unparsable output (%s: %s)" % (type(exc).__name__, exc)


def _rows(fmt: str, stdout: str) -> list[dict]:
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    rows = []
    for line in stdout.splitlines():
        if "=" in line:
            rows.append(dict(cell.split("=", 1) for cell in line.split()))
    return rows


def check_counting(expect, stdout):
    fmt = expect["format"]
    if fmt == "json":
        payload = json.loads(stdout)
        got = payload["counts"] if "counts" in payload else [payload["count"]]
        formula = payload.get("formula")
        if formula and not formula["agrees"]:
            return "formula disagrees with counts"
    else:
        rows = _rows(fmt, stdout)
        got = [int(row["count"]) for row in rows]
        if any(row.get("agrees") == "False" for row in rows):
            return "formula disagrees with counts"
    if got != expect["counts"]:
        return "counts %s, expected %s" % (got, expect["counts"])
    return None


def check_classify(expect, stdout):
    members = expect["members"]
    if expect["format"] == "json":
        payload = json.loads(stdout)
        got = {}
        for cls in payload["classes"]:
            for m in cls["members"]:
                got[canonical_text(m)] = cls["counts"]
        classes = len(payload["classes"])
    else:
        got = {canonical_text(r["pattern_set"]): [int(v) for v in r["count"].split(",")]
               for r in _rows("table", stdout)}
        classes = int(re.search(r"^(\d+) Wilf classes$", stdout, re.M).group(1))
    if got != members:
        return "class members or sequences differ from golden"
    if classes != len({tuple(c) for c in members.values()}):
        return "%d classes, expected %d" % (classes, len({tuple(c) for c in members.values()}))
    return None


def check_verify(expect, stdout):
    lines = stdout.splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return "verification reported FAIL"
    passed = [line for line in lines if line.startswith("PASS")]
    if len(passed) != expect["pass_lines"]:
        return "%d PASS lines, expected %d" % (len(passed), expect["pass_lines"])
    for name, domain in expect["domains"].items():
        want = "PASS bijection %s at n=%d (domain %d)" % (name, expect["n"][name], domain)
        if want not in passed:
            return "missing %r" % want
    return None


def check_bijection(expect, stdout):
    got = stdout.split()[0] if stdout.strip() else ""
    if got != expect["image"]:
        return "image %r, expected %r" % (got, expect["image"])
    return None


def check_malformed(expect, stdout):
    if stdout != expect["stdout"]:
        return "stdout %r, expected %r" % (stdout[:60], expect["stdout"])
    return None


CHECKERS = {
    "count": check_counting,
    "sequence": check_counting,
    "classify": check_classify,
    "verify": check_verify,
    "bijection": check_bijection,
    "malformed": check_malformed,
}

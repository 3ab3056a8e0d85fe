"""Command-line interface.

Subcommands: count, sequence, classify, verify, bijection.  Exit codes:
0 success, 1 verification failure, 2 usage/parse error, 3 resource
limits (the PPL_NMAX_CAP safety rail, and exhausted memory, integer
size or recursion depth).

The parser is built once, when the module is imported, and every `main`
call in the process parses its argv with that one `PARSER`.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

from . import bijections
from .avoidance import Sense
from .core import (
    PartitionError,
    parse_blocks,
    parse_pattern_set,
    parse_permutation,
    print_pattern_set,
)
from .enumeration import (
    avoidance_sequence,
    canonical_pair_patterns,
    count_avoiders,
    verify_eq_pattern_identities,
    verify_color_symmetries,
    wilf_classify,
)
from .formulas import REGISTRY, closed_form, lookup_formula

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CSV_COLUMNS = ["pattern_set", "sense", "k", "n", "count", "formula_value", "agrees"]

# the maps `verify --bijection` checks, in `verify --all` order
VERIFIED_BIJECTIONS = ("f", "tau", "g", "class2", "class3a", "class3b")


class ResourceCapError(RuntimeError):
    pass


def _check_cap(n: int) -> None:
    """Refuse n above the optional PPL_NMAX_CAP size cap."""
    raw = os.environ.get("PPL_NMAX_CAP")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError("PPL_NMAX_CAP must be an integer, got %r" % raw)
    if n > cap:
        raise ResourceCapError(
            "n = %d exceeds the PPL_NMAX_CAP limit of %d" % (n, cap))


def _emit(payload: dict, rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})
    else:
        for row in rows:
            cells = ["%s=%s" % (col, row[col]) for col in CSV_COLUMNS if col in row]
            out.write("  ".join(cells) + "\n")


def _sequence_rows(patterns, sense, k, n_max, naive, jobs):
    seq = avoidance_sequence(patterns, sense, k, n_max, naive=naive, jobs=jobs)
    entry = lookup_formula(patterns) if sense is Sense.PATTERN and k == 2 else None
    rows = []
    for n, count in enumerate(seq.counts, start=1):
        row = {"pattern_set": seq.pattern_set, "sense": str(sense), "k": k,
               "n": n, "count": count}
        if entry is not None and n >= entry.min_n:
            value = closed_form(entry, n)
            row["formula_value"] = value
            row["agrees"] = value == count
        rows.append(row)
    return seq, entry, rows


def cmd_count(args, out) -> int:
    patterns = parse_pattern_set(args.patterns, args.colors)
    _check_cap(args.n)
    count = count_avoiders(args.n, args.colors, patterns, args.sense,
                           naive=args.naive, jobs=args.jobs)
    payload = {"command": "count", "patterns": print_pattern_set(patterns),
               "sense": str(args.sense), "k": args.colors, "n": args.n,
               "count": count}
    rows = [{"pattern_set": payload["patterns"], "sense": payload["sense"],
             "k": args.colors, "n": args.n, "count": count}]
    _emit(payload, rows, args.format, out)
    return EXIT_OK


def cmd_sequence(args, out) -> int:
    patterns = parse_pattern_set(args.patterns, args.colors)
    _check_cap(args.nmax)
    seq, entry, rows = _sequence_rows(patterns, args.sense, args.colors,
                                      args.nmax, args.naive, args.jobs)
    payload = {"command": "sequence", "patterns": seq.pattern_set,
               "sense": str(args.sense), "k": args.colors,
               "counts": list(seq.counts)}
    if entry is None:
        payload["formula"] = None
    else:
        payload["formula"] = {"label": entry.label, "oeis": entry.oeis,
                              "values": [closed_form(entry, n)
                                         for n in range(entry.min_n, args.nmax + 1)],
                              "min_n": entry.min_n,
                              "agrees": all(row.get("agrees", True) for row in rows)}
    _emit(payload, rows, args.format, out)
    if args.format == "table" and entry is None:
        out.write("no registered formula\n")
    return EXIT_OK


def cmd_classify(args, out) -> int:
    if args.colors < 2:
        raise PartitionError("classify needs -k 2 or more: the Pi_2 wr C_2 "
                             "patterns it classifies use two colors")
    _check_cap(args.nmax)
    if not 1 <= args.size <= 6:
        raise PartitionError("subset size must be between 1 and 6")
    patterns = canonical_pair_patterns(args.colors)
    family = [tuple(sub) for sub in itertools.combinations(patterns, args.size)]
    classification = wilf_classify(family, args.sense, args.colors, args.nmax,
                                   naive=args.naive, jobs=args.jobs)
    payload = {"command": "classify", "size": args.size, "sense": str(args.sense),
               "k": args.colors, "n_max": args.nmax,
               "classes": [
                   {"members": [print_pattern_set(m) for m in members],
                    "counts": list(seq)}
                   for members, seq in zip(classification.classes,
                                           classification.sequences)]}
    rows = []
    for members, seq in zip(classification.classes, classification.sequences):
        for member in members:
            rows.append({"pattern_set": print_pattern_set(member),
                         "sense": str(args.sense), "k": args.colors,
                         "n": args.nmax, "count": ",".join(map(str, seq))})
    _emit(payload, rows, args.format, out)
    if args.format == "table":
        out.write("%d Wilf classes\n" % len(classification))
    return EXIT_OK


def _verify_tables(n_max, out) -> bool:
    ok = True
    for entry in REGISTRY:
        if not entry.terms:
            continue
        upto = min(n_max, len(entry.terms))
        for patterns in entry.pattern_sets:
            seq = avoidance_sequence(patterns, Sense.PATTERN, 2, upto)
            good = seq.counts == entry.terms[:upto]
            ok &= good
            out.write("%s %s {%s}: %s\n" % ("PASS" if good else "FAIL", entry.label,
                                            seq.pattern_set, list(seq.counts)))
    return ok


def _verify_formulas(n_max, out) -> bool:
    ok = True
    for entry in REGISTRY:
        for patterns in entry.pattern_sets:
            if n_max < entry.min_n:
                out.write("SKIP %s {%s}: stated for n >= %d\n"
                          % (entry.label, print_pattern_set(patterns), entry.min_n))
                continue
            counts = avoidance_sequence(patterns, Sense.PATTERN, 2, n_max).counts
            good = all(closed_form(entry, n) == counts[n - 1]
                       for n in range(entry.min_n, n_max + 1))
            ok &= good
            out.write("%s %s {%s}\n" % ("PASS" if good else "FAIL",
                                        entry.label, print_pattern_set(patterns)))
    return ok


def _verify_report(title, report, out) -> bool:
    """Print a `VerificationReport` check: its verdict, then each failure."""
    out.write("%s %s\n" % ("PASS" if report.ok else "FAIL", title % len(report.checks)))
    for failure in report.failures:
        out.write("  %s\n" % failure)
    return report.ok


def _verify_bijections(names, n, out) -> bool:
    ok = True
    for name in names:
        report = bijections.verify_bijection(name, n)
        out.write("%s bijection %s at n=%d (domain %d)\n"
                  % ("PASS" if report.ok else "FAIL", name, n, report.domain_size))
        for failure in (report.round_trip_failures
                        + report.membership_failures)[:5]:
            out.write("  %s\n" % failure)
        ok &= report.ok
    return ok


def cmd_verify(args, out) -> int:
    small = min(args.nmax, 6)  # the identities' size, and the bijections' default
    n = small if args.n is None else args.n
    names = [args.bijection] if args.bijection else VERIFIED_BIJECTIONS
    # (selected, the largest n it runs at, the check), in output order
    checks = [
        (args.tables, args.nmax, lambda: _verify_tables(args.nmax, out)),
        (args.formulas, args.nmax, lambda: _verify_formulas(args.nmax, out)),
        (args.symmetries, args.nmax, lambda: _verify_report(
            "color symmetries (%d identities)", verify_color_symmetries(args.nmax), out)),
        (args.identities, small, lambda: _verify_report(
            "pattern/EQ set identities (%d checks)", verify_eq_pattern_identities(small), out)),
        (args.bijection, n, lambda: _verify_bijections(names, n, out)),
    ]
    selected = [(size, check) for chosen, size, check in checks if args.all or chosen]
    _check_cap(max((size for size, _ in selected), default=0))
    if not selected:
        out.write("nothing to verify; pass --all or a specific check\n")
        return EXIT_USAGE
    # every selected check runs, even after one fails
    passed = [check() for _, check in selected]
    return EXIT_OK if all(passed) else EXIT_VERIFY_FAILED


def _bijection_maps() -> dict:
    """Each `bijection` name with the parser of its input and the map.

    Built per call, so that a rebound `bijections` attribute is the one run.
    """
    return {
        "f": (parse_blocks, bijections.bij_f),
        "f-inv": (parse_permutation, bijections.bij_f_inv),
        "tau": (parse_blocks, bijections.block_descent_tau),
        "g": (parse_blocks, bijections.bij_g),
        "class2": (parse_blocks, bijections.bij_class2_pairs),
        "class2-inv": (parse_blocks, bijections.bij_class2_pairs_inv),
        "class3a": (parse_blocks, bijections.bij_class3_structural),
        "class3a-inv": (parse_blocks, bijections.bij_class3_structural_inv),
        "class3b": (parse_blocks, bijections.bij_class3_colorswap),
        "class3b-inv": (parse_blocks, bijections.bij_class3_colorswap_inv),
    }


def cmd_bijection(args, out) -> int:
    name = args.name
    parse, func = _bijection_maps()[name]
    image = func(parse(args.input))

    if hasattr(image, "block_text"):
        result = {"blocks": image.block_text(), "word": image.word_text()}
        text = "%s  (word %s)" % (result["blocks"], result["word"])
    else:
        result = {"permutation": image.text()}
        text = result["permutation"]
    payload = {"command": "bijection", "name": name, "input": args.input,
               "image": result}
    if args.format == "json":
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(text + "\n")
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % value)
    return value


def _add_common(p, nmax=False):
    p.add_argument("-p", "--patterns", default="",
                   help="comma-separated pattern set, e.g. 1^11^2,1^21^1")
    p.add_argument("-k", "--colors", type=positive_int, default=2)
    p.add_argument("--sense", type=Sense, choices=list(Sense),
                   default=Sense.PATTERN)
    p.add_argument("--format", choices=["table", "json", "csv"],
                   default="table")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--naive", action="store_true",
                   help="force full enumeration (oracle mode)")
    if nmax:
        p.add_argument("--nmax", type=int, default=6)
    else:
        p.add_argument("-n", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="colorpart",
        description="Count and classify colored set partitions avoiding "
                    "colored partition patterns.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count avoiders at a single n")
    _add_common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_seq = sub.add_parser("sequence", help="avoidance sequence for n = 1..nmax")
    _add_common(p_seq, nmax=True)
    p_seq.set_defaults(func=cmd_sequence)

    p_cls = sub.add_parser("classify",
                           help="empirical Wilf classes over all pattern "
                                "subsets of a given size")
    _add_common(p_cls, nmax=True)
    p_cls.add_argument("--size", type=int, default=2,
                       help="pattern subset size (1..6)")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--all", action="store_true")
    p_ver.add_argument("--tables", action="store_true")
    p_ver.add_argument("--formulas", action="store_true")
    p_ver.add_argument("--symmetries", action="store_true")
    p_ver.add_argument("--identities", action="store_true")
    p_ver.add_argument("--bijection", choices=VERIFIED_BIJECTIONS)
    p_ver.add_argument("-n", "--n", type=nonnegative_int, default=None,
                       help="size for bijection verification")
    p_ver.add_argument("--nmax", type=positive_int, default=6)
    p_ver.set_defaults(func=cmd_verify)

    p_bij = sub.add_parser("bijection", help="apply a bijection to one object")
    p_bij.add_argument("name", choices=list(_bijection_maps()))
    p_bij.add_argument("input",
                       help="block notation (1^24^1/2^1/...) or a permutation "
                            "for inverse maps")
    p_bij.add_argument("--format", choices=["table", "json"], default="table")
    p_bij.set_defaults(func=cmd_bijection)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    out = sys.stdout
    try:
        return args.func(args, out)
    except ResourceCapError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (PartitionError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError, RecursionError) as exc:
        print("error: resource exhausted: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

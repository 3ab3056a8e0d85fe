"""Span tracing of one request, installed from outside the program.

``install()`` wraps public functions of the colorpart modules (in every
module namespace that imported them) so that each call records a span:
name, start, end, parent span and self time.  The name's first dotted
part is the layer the time is charged to: cli, core, avoidance,
enumeration, pool, formulas or bijections.

Boundaries crossed up to millions of times per request (partition and
permutation construction, containment checks, bijection maps, formula
evaluations) are aggregated instead: one count, total time, self time
and hit count per (parent span, name).

Self time is a call's duration minus the time its traced children cover.
Bookkeeping done by a wrapper after its clock stops is charged to the
caller's self time, so the self times of a request still add up to the
duration of its root span.  Spans stay in memory; ``export()`` hands
them to the caller when the request ends.
"""

from __future__ import annotations

import resource
import sys
import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, parent, name, start, end, self, attrs]
        self.aggs: dict[tuple, list] = {}  # (parent, name) -> [count, total, self, hits]
        self.stack: list[list] = []   # open calls: [span id in effect, child time]
        self.next_id = 0

    def span(self, fn, name_of, before=None, after=None):
        """Wrap `fn` so that every call records a span.

        `before(args, kwargs)` runs ahead of the call and its value is passed
        on as `token` to `after(args, kwargs, result, attrs, token)`, which
        may fill the span's attribute dict.
        """
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            stack = self.stack
            parent = stack[-1][0] if stack else None
            sid = self.next_id
            self.next_id += 1
            frame = [sid, 0.0]
            record = [sid, parent, name, 0.0, 0.0, 0.0, {}]
            token = before(args, kwargs) if before else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                record[3], record[4], record[5] = t0, t1, (t1 - t0) - frame[1]
                self.spans.append(record)
            if after:
                after(args, kwargs, result, record[6], token)
            return result
        return wrapper

    def aggregate(self, fn, name_of):
        """Wrap `fn` so that calls add to a per-parent count and total."""
        aggs = self.aggs

        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1][0] if stack else None
            frame = [parent, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                key = (parent, name_of(args))
                rec = aggs.get(key)
                if rec is None:
                    rec = aggs[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if result is True:
                rec[3] += 1
            return result
        return wrapper

    def export(self) -> dict:
        return {"spans": self.spans,
                "aggs": [[parent, name] + rec for (parent, name), rec in self.aggs.items()]}


def _fixed(name):
    return lambda args, kwargs=None: name


def _patch(modules, owner, attr, wrapper):
    """Replace `owner.attr` everywhere a colorpart module holds the original."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for mod in modules:
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def install() -> Tracer:
    """Wrap the colorpart layers in this process; returns the tracer."""
    from colorpart import avoidance, bijections, cli, core, enumeration, formulas

    tr = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "colorpart" or name.startswith("colorpart.")]
    split = enumeration.PREFIX_SPLIT_LENGTH

    def pooled(args, kwargs):
        return kwargs.get("jobs", 1) > 1 and args[0] > split

    def count_name(args, kwargs):
        """The engine count_avoiders picks for these arguments."""
        if pooled(args, kwargs):
            return "pool.fanout"
        if kwargs.get("naive", False) or any(p.n != 2 for p in args[2]):
            return "enumeration.naive"
        return "enumeration.pruned"

    def count_before(args, kwargs):
        return resource.getrusage(resource.RUSAGE_CHILDREN) if pooled(args, kwargs) else None

    def count_after(args, kwargs, result, attrs, before):
        n, k, patterns = args[:3]
        attrs.update(n=n, k=k, result=result)
        if before is not None:
            now = resource.getrusage(resource.RUSAGE_CHILDREN)
            sense = args[3] if len(args) > 3 else kwargs.get("sense", avoidance.Sense.PATTERN)
            attrs["jobs"] = kwargs["jobs"]
            attrs["child_cpu"] = (now.ru_utime - before.ru_utime
                                  + now.ru_stime - before.ru_stime)
            attrs["replay"] = {"n": n, "k": k, "sense": sense.value,
                               "naive": kwargs.get("naive", False),
                               "patterns": [[list(p.word), list(p.colors)] for p in patterns]}

    def generated(args, kwargs, result, attrs, token):
        attrs["generated"] = len(result)

    def domain(args, kwargs, result, attrs, token):
        attrs["domain"] = result.domain_size

    spans = [
        (cli, "main", "cli.main", None),
        (core, "parse_pattern_set", "core.parse", None),
        (core, "parse_blocks", "core.parse", None),
        (core, "parse_permutation", "core.parse", None),
        (enumeration, "avoidance_sequence", "enumeration.sequence", None),
        (enumeration, "wilf_classify", "enumeration.classify", None),
        (enumeration, "verify_color_symmetries", "enumeration.verify", None),
        (enumeration, "verify_eq_pattern_identities", "enumeration.verify", None),
        (enumeration, "avoider_set", "enumeration.generate", generated),
        (bijections, "verify_bijection", "bijections.verify", domain),
    ]
    for owner, attr, name, after in spans:
        _patch(modules, owner, attr,
               tr.span(getattr(owner, attr), _fixed(name), after=after))
    _patch(modules, enumeration, "count_avoiders",
           tr.span(enumeration.count_avoiders, count_name, count_before, count_after))

    # Every caller in the program consumes iter_avoiders whole, so listing
    # the generator inside the span times the generation without changing
    # any result.
    iter_avoiders = enumeration.iter_avoiders
    generate = tr.span(lambda *a, **kw: list(iter_avoiders(*a, **kw)),
                       _fixed("enumeration.generate"), after=generated)
    _patch(modules, enumeration, "iter_avoiders", lambda *a, **kw: iter(generate(*a, **kw)))

    pair_or_generic = (lambda args: "avoidance.pair" if args[1].n == 2
                       else "avoidance.generic")
    aggregates = [
        (core.ColoredPartition, "__init__", _fixed("core.partition_build")),
        (core.Permutation, "__init__", _fixed("core.permutation_build")),
        (core, "canonize_sub", _fixed("core.canonize")),
        (avoidance, "contains_colored", pair_or_generic),
        (avoidance, "contains_vincular", _fixed("avoidance.vincular")),
        (formulas, "closed_form", _fixed("formulas.closed_form")),
        (formulas, "lookup_formula", _fixed("formulas.lookup")),
    ]
    for attr in ("bij_f", "bij_f_inv", "block_descent_tau", "bij_g",
                 "bij_class2_pairs", "bij_class2_pairs_inv",
                 "bij_class3_structural", "bij_class3_structural_inv",
                 "bij_class3_colorswap", "bij_class3_colorswap_inv"):
        aggregates.append((bijections, attr, _fixed("bijections.apply")))
    for owner, attr, name_of in aggregates:
        _patch(modules, owner, attr, tr.aggregate(getattr(owner, attr), name_of))
    return tr

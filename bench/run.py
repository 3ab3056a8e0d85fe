"""colorpart benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload count-len2 [--seed 1] [--seconds 25] [--trace 0]
    python3 bench/run.py --workload all        # every workload, one after another

Run from the root of a checkout; the program is imported from ``src/``.
One client sends the workload's seeded request list in a closed loop to a
fork server (``server.py``): each request is one ``colorpart`` CLI argv,
run in a child forked from an interpreter that has only imported the
package.  The list is repeated until ``--seconds`` have passed.  Every
output is checked against the golden pools (``golden/pools.json``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (``tracing.py``), and the spans are written to
``bench/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
POOLS = os.path.join(HERE, "golden", "pools.json")
OUT_DIR = os.path.join(HERE, "out")

import workloads  # noqa: E402

DEFAULT_SEED = 1
# Kept back: not used while tuning the benchmark or writing a change, only
# to re-check a claimed gain (a second seed the change was not tuned on).
HOLDOUT_SEED = 7919
SETUP_SAMPLES = 9
SETUP_ARGV = ["count", "-p", "1^11^2", "-n", "1"]
ISOLATION_SAMPLES = 4
# A traced request's layer self times must add up to its traced wall time
# (measured around cli.main by the child) within this tolerance.
SELF_TIME_TOL_S = 0.0005
SELF_TIME_TOL_REL = 0.01
LAYERS = ("cli", "core", "avoidance", "enumeration", "pool", "formulas", "bijections")


class BenchError(RuntimeError):
    pass


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PPL_NMAX_CAP", None)
    return env


class Server:
    """The fork server subprocess and its line protocol."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py")], cwd=ROOT,
            env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise BenchError("fork server did not start (is src/colorpart present?)")

    def send(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("fork server exited")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters running the trivial request."""
    cmd = [sys.executable, "-m", "colorpart.cli"] + SETUP_ARGV
    times = []
    for i in range(SETUP_SAMPLES + 1):   # the first run also writes bytecode caches
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=program_env(), capture_output=True,
                              text=True, timeout=60)
        dt = time.perf_counter() - t0
        if done.returncode != 0 or "count=2" not in done.stdout:
            raise BenchError("trivial request failed: %r" % done.stderr[-300:])
        if i:
            times.append(dt)
    return times


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git working tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def run_pass(server, requests, trace, results, pass_no):
    t0 = time.perf_counter()
    for idx, req in enumerate(requests):
        reply = server.send({"argv": req.argv, "trace": trace})
        if reply["exit"] < 0:
            reason = "killed by signal %d (timeout)" % -reply["exit"]
        elif reply["meta"].get("exception"):
            reason = "uncaught %s" % reply["meta"]["exception"]
        else:
            reason = workloads.check(req, reply["exit"], reply["stdout"])
        results.append({"pass": pass_no, "idx": idx, "trace": trace, "reply": reply,
                        "error": reason})
    return time.perf_counter() - t0


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def isolation_check(requests, first_pass, seed) -> tuple[int, list[str]]:
    """Re-run a seeded sample as real CLI processes; compare stdout and exit."""
    rng = random.Random("isolation:%d" % seed)
    small = [i for i, r in enumerate(requests) if r.cost == "small"]
    problems = []
    sample = rng.sample(small, min(ISOLATION_SAMPLES, len(small)))
    for i in sample:
        done = subprocess.run([sys.executable, "-m", "colorpart.cli"] + requests[i].argv,
                              cwd=ROOT, env=program_env(), capture_output=True, timeout=120)
        mine = first_pass[i]["reply"]
        stdout = done.stdout.decode("utf-8", "replace")   # no newline translation
        if (done.returncode, stdout) != (mine["exit"], mine["stdout"]):
            problems.append("%s: subprocess exit %d, benchmark path exit %d"
                            % (" ".join(requests[i].argv), done.returncode, mine["exit"]))
    return len(sample), problems


# --- per-layer metrics from the traced requests ------------------------------

def layer_metrics(traced: list[dict], replays: list[tuple[float, float]]):
    """Per-layer metrics, and the self-time check failures."""
    selfs = dict.fromkeys(LAYERS, 0.0)
    acc: dict[str, float] = {}
    bad_requests = []

    def add(key, value):
        acc[key] = acc.get(key, 0) + value

    for r in traced:
        meta = r["reply"]["meta"]
        trace = meta["trace"]
        roots = {s[0] for s in trace["spans"] if s[1] is None}
        total_self = 0.0
        for sid, parent, name, start, end, self_s, attrs in trace["spans"]:
            selfs[name.split(".", 1)[0]] += self_s
            total_self += self_s
            dur = end - start
            add(name + ".calls", 1)
            add(name + ".s", dur)
            for key in ("result", "generated", "domain", "child_cpu"):
                if key in attrs:
                    add(name + "." + key, attrs[key])
            if name == "enumeration.naive":
                add("naive.elements", workloads.bell(attrs["n"]) * attrs["k"] ** attrs["n"])
            if name == "pool.fanout":
                add("pool.capacity_s", attrs["jobs"] * dur)
        for parent, name, count, total, self_s, hits in trace["aggs"]:
            selfs[name.split(".", 1)[0]] += self_s
            total_self += self_s
            add(name + ".calls", count)
            add(name + ".s", total)
            add(name + ".hits", hits)
            if name == "bijections.apply" and parent in roots:
                add("apply_single.calls", count)
                add("apply_single.s", total)
        main_s = meta["main_s"]
        if abs(total_self - main_s) > SELF_TIME_TOL_S + SELF_TIME_TOL_REL * main_s:
            bad_requests.append("%s: self times sum to %.6f s, traced wall %.6f s"
                                % (" ".join(r["argv"]), total_self, main_s))

    def g(key):
        return acc.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    replay_jobs1 = sum(a for a, _ in replays)
    replay_pool = sum(b for _, b in replays)
    m = {
        "cli.requests": (len(traced), "count"),
        "cli.self_s": (selfs["cli"], "s"),
        "core.parse_calls": (g("core.parse.calls"), "count"),
        "core.parse_s": (g("core.parse.s"), "s"),
        "core.partitions_built": (g("core.partition_build.calls"), "count"),
        "core.partition_build_s": (g("core.partition_build.s"), "s"),
        "core.self_s": (selfs["core"], "s"),
    }
    for kind in ("pair", "generic", "vincular"):
        calls, secs = g("avoidance.%s.calls" % kind), g("avoidance.%s.s" % kind)
        m["avoidance.%s_checks" % kind] = (calls, "count")
        m["avoidance.%s_check_s" % kind] = (secs, "s")
        m["avoidance.%s_checks_per_s" % kind] = (ratio(calls, secs), "1/s")
        if kind != "vincular":
            m["avoidance.%s_hit_ratio" % kind] = (
                ratio(g("avoidance.%s.hits" % kind), calls), "ratio")
    m["avoidance.self_s"] = (selfs["avoidance"], "s")
    m.update({
        "enumeration.pruned_calls": (g("enumeration.pruned.calls"), "count"),
        "enumeration.pruned_s": (g("enumeration.pruned.s"), "s"),
        "enumeration.pruned_avoiders": (g("enumeration.pruned.result"), "count"),
        "enumeration.pruned_avoiders_per_s": (
            ratio(g("enumeration.pruned.result"), g("enumeration.pruned.s")), "1/s"),
        "enumeration.naive_calls": (g("enumeration.naive.calls"), "count"),
        "enumeration.naive_s": (g("enumeration.naive.s"), "s"),
        "enumeration.naive_elements": (g("naive.elements"), "count"),
        "enumeration.naive_elements_per_s": (
            ratio(g("naive.elements"), g("enumeration.naive.s")), "1/s"),
        "enumeration.naive_yield": (
            ratio(g("enumeration.naive.result"), g("naive.elements")), "ratio"),
        "enumeration.generate_calls": (g("enumeration.generate.calls"), "count"),
        "enumeration.generate_s": (g("enumeration.generate.s"), "s"),
        "enumeration.generated": (g("enumeration.generate.generated"), "count"),
        "enumeration.generated_per_s": (
            ratio(g("enumeration.generate.generated"), g("enumeration.generate.s")), "1/s"),
        "enumeration.classify_s": (g("enumeration.classify.s"), "s"),
        "enumeration.verify_s": (g("enumeration.verify.s"), "s"),
        "enumeration.self_s": (selfs["enumeration"], "s"),
        "pool.calls": (g("pool.fanout.calls"), "count"),
        "pool.wall_s": (g("pool.fanout.s"), "s"),
        "pool.child_cpu_s": (g("pool.fanout.child_cpu"), "s"),
        "pool.utilization": (ratio(g("pool.fanout.child_cpu"), g("pool.capacity_s")), "ratio"),
        "pool.speedup": (ratio(replay_jobs1, replay_pool), "ratio"),
        "pool.self_s": (selfs["pool"], "s"),
        "formulas.closed_form_calls": (g("formulas.closed_form.calls"), "count"),
        "formulas.closed_form_s": (g("formulas.closed_form.s"), "s"),
        "formulas.lookup_s": (g("formulas.lookup.s"), "s"),
        "formulas.self_s": (selfs["formulas"], "s"),
        "bijections.apply_calls": (g("apply_single.calls"), "count"),
        "bijections.apply_s": (g("apply_single.s"), "s"),
        "bijections.verify_calls": (g("bijections.verify.calls"), "count"),
        "bijections.maps": (g("bijections.verify.domain"), "count"),
        "bijections.verify_s": (g("bijections.verify.s"), "s"),
        "bijections.maps_per_s": (
            ratio(g("bijections.verify.domain"), g("bijections.verify.s")), "1/s"),
        "bijections.self_s": (selfs["bijections"], "s"),
    })
    return m, selfs, bad_requests


def write_spans(workload, seed, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for r in traced:
            fh.write(json.dumps({"request_id": "%d.%d" % (r["pass"], r["idx"]),
                                 "argv": r["argv"], **r["reply"]["meta"]["trace"]}) + "\n")
    return path


# --- one workload --------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, setup_times):
    pools = workloads.Pools(POOLS)
    requests = workloads.build(workload, seed, pools)
    fp = workloads.fingerprint(requests, seed)
    results: list[dict] = []
    pass_walls = {False: [], True: []}
    server = Server()
    try:
        start = time.perf_counter()
        for traced_pass, until in ((False, seconds / 2 if trace else seconds),
                                   (True, seconds if trace else 0)):
            walls = pass_walls[traced_pass]
            # Whole passes only; start another while it would end about on time.
            while until and (not walls or time.perf_counter() - start + walls[-1] / 2 < until):
                walls.append(run_pass(server, requests, traced_pass, results, len(walls)))
        traced = [r for r in results if r["trace"]]
        for r in traced:
            r["argv"] = requests[r["idx"]].argv
        replays = []
        for r in traced:
            for span in r["reply"]["meta"].get("trace", {}).get("spans", []):
                if span[2] == "pool.fanout":
                    reply = server.send({"call": span[6]["replay"]})
                    replays.append((reply["meta"]["call_s"], span[4] - span[3]))
    finally:
        server.close()
    first_pass = [r for r in results if not r["trace"] and r["pass"] == 0]
    checked, isolation_problems = isolation_check(requests, first_pass, seed)

    plain = [r for r in results if not r["trace"]]
    req_walls = [r["reply"]["wall_s"] for r in plain]
    failed = [r for r in results if r["error"]]
    e2e = {
        "wall_s": (statistics.median(pass_walls[False]), "s",
                   "median of %d passes of %d requests: %s" % (
                       len(pass_walls[False]), len(requests),
                       " ".join("%.3f" % w for w in pass_walls[False]))),
        "req_p50_s": (percentile(req_walls, 50), "s",
                      "%d requests; median CPU %.4f s incl. pool workers" % (
                          len(req_walls), statistics.median(r["reply"]["cpu_s"] for r in plain))),
        "req_p90_s": (percentile(req_walls, 90), "s", "%d requests" % len(req_walls)),
        "peak_rss_mb": (max(r["reply"]["maxrss_kb"] for r in plain) / 1024, "MB",
                        "largest of %d requests" % len(req_walls)),
        "error_rate": (len(failed) / len(results), "ratio",
                       "%d failed of %d" % (len(failed), len(results))),
        "setup_s": (statistics.median(setup_times), "s",
                    "median of %d fresh interpreters" % len(setup_times)),
    }
    print("workload %s  seed %d  %d requests x %d passes" % (
        workload, seed, len(requests), len(pass_walls[False])))
    for name, (value, unit, note) in e2e.items():
        print("  %-13s %12.6g %-5s (%s)" % (name, value, unit, note))
    for r in failed[:10]:
        print("  FAILED %s: %s" % (" ".join(requests[r["idx"]].argv), r["error"]))
    print("  isolation self-check: %d of %d sampled requests match a fresh "
          "`python -m colorpart.cli` process" % (checked - len(isolation_problems), checked))
    for problem in isolation_problems:
        print("  ISOLATION MISMATCH %s" % problem)
    print("fingerprint " + json.dumps({**fp, "machine": machine_record()}, sort_keys=True))

    correct = not failed and not isolation_problems
    if not trace:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()
                   if name != "error_rate"}
        return correct, len(results), len(failed), metrics

    traced = [r for r in results if r["trace"]]
    per_layer, selfs, bad = layer_metrics(traced, replays)
    per_layer["trace.overhead_ratio"] = (
        statistics.median(pass_walls[True]) / statistics.median(pass_walls[False]), "ratio")
    total = sum(selfs.values()) or 1.0
    print("  traced: %d passes, overhead ratio %.3f, spans in %s" % (
        len(pass_walls[True]), per_layer["trace.overhead_ratio"][0],
        os.path.relpath(write_spans(workload, seed, traced), ROOT)))
    print("  self time by layer: " + ", ".join(
        "%s %.1f%%" % (layer, 100 * s / total)
        for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1])))
    print("  self-time check: %d of %d traced requests within %.1f ms + %.0f%% of "
          "their traced wall time" % (len(traced) - len(bad), len(traced),
                                      SELF_TIME_TOL_S * 1e3, SELF_TIME_TOL_REL * 100))
    for line in bad[:5]:
        print("  SELF-TIME MISMATCH %s" % line)
    for name, (value, unit) in per_layer.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    return correct and not bad, len(results), len(failed), per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; %d is held back for re-checking "
                             "a claimed gain)" % (DEFAULT_SEED, HOLDOUT_SEED))
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "colorpart", "cli.py")):
        print("error: src/colorpart not found under %s" % ROOT, file=sys.stderr)
        return 2
    try:
        setup_times = measure_setup()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            ok, att, fail, m = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                            setup_times)
            correct &= ok
            attempted += att
            failed += fail
            prefix = name + "/" if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

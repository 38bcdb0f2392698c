#!/usr/bin/env python3
"""End-to-end benchmark of the hcd workspace.

    python3 perfbench/run.py --workload rmat-hot|er-uniform [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --spread N --workload W [--seed N] [--seconds S]

Run from the root of a checkout. Builds `hcd-cli` and the benchmark
worker from source into `$CARGO_TARGET_DIR` (default `.bench_build`),
generates the workload's inputs from the seed, and then, for the given
number of seconds, runs whole rounds of the user paths round-robin:

    hcd-cli build -p 1 | hcd-cli build -p 2 | hcd-cli search -p 2 |
    one serving segment (64 read/write ops) + crash + 2 recoveries

Every answer is checked against the benchmark's own computations. The
last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics and the tracing overhead with
`--trace 1`). `--spread N` runs one workload N times with consecutive
seeds and prints each end-to-end metric's median, quartiles and largest
deviation, with the host's steal time during each run. See README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("rmat-hot", "er-uniform")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# Nominal duration of the worker's calibration kernel (bucket peeling and
# hierarchy of a fixed 2^16-vertex graph, benchmark code only). The
# end-to-end samples of each round, and of the set-up phase, are scaled by
# CALIBRATION_S / (median kernel time in that span), which cancels the
# host's speed drift; see README.md.
CALIBRATION_S = 0.035

END_TO_END = {
    "setup_s": "s",
    "index_s": "s",
    "index_p2_s": "s",
    "search_p2_s": "s",
    "write_ms": "ms",
    "recover_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; every name is printed by a traced run, as null when the
# program no longer emits what it is computed from.
PER_LAYER = {
    "graph.parse_s": "s",
    "graph.read_binary_s": "s",
    "graph.read_binary_index_s": "s",
    "graph.write_binary_s": "s",
    "decomp.pkc_s": "s",
    "pkc.waves": "count",
    "pkc.bucket_pushes": "count",
    "core.rank_s": "s",
    "core.phcd_s": "s",
    "core.write_index_s": "s",
    "core.rebuild_ms": "ms",
    "index.unattributed_s": "s",
    "phcd.uf.finds": "count",
    "phcd.uf.find_hops": "count",
    "phcd.uf.unions": "count",
    "search.preprocess_s": "s",
    "search.pbks_b_s": "s",
    "pbks.triangle_probes": "count",
    "par.region_invocations": "count",
    "par.region_wall_s": "s",
    "phcd.union.imbalance": "ratio",
    "dynamic.traversal_edges": "count/batch",
    "dynamic.affected_vertices": "count/batch",
    "serve.apply_p50_ms": "ms",
    "serve.repair_p50_ms": "ms",
    "serve.publish_p50_ms": "ms",
    "serve.wal_fsync_p50_ms": "ms",
    "serve.checkpoint_write_p50_ms": "ms",
    "serve.wal_bytes": "B/batch",
    "serve.write_p90_ms": "ms",
    "serve.read_batch_p90_us": "us",
    "serve.read_qps": "queries/s",
    "serve.cache.hits": "count/batch",
    "serve.cache.misses": "count/batch",
    "trace.overhead_index": "ratio",
    "trace.overhead_search": "ratio",
    "trace.overhead_write": "ratio",
    "trace.overhead_read": "ratio",
}

# Program histograms behind the serve.*_p50_ms metrics.
HISTOGRAMS = {
    "serve.apply_p50_ms": "serve.apply",
    "serve.repair_p50_ms": "serve.repair",
    "serve.publish_p50_ms": "serve.publish",
    "serve.wal_fsync_p50_ms": "serve.wal.fsync",
    "serve.checkpoint_write_p50_ms": "serve.ckpt.write",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else None


def scaled(x, factor):
    return x * factor if x is not None else None


def p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else None


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "hcd-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "worker", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "hcd-cli"), os.path.join(release, "perfbench-worker")


class Worker:
    """The worker co-process: one command line in, one JSON line out."""

    def __init__(self, exe, workload, seed, work, traced):
        cmd = [exe, "--workload", workload, "--seed", str(seed), "--work", work]
        if traced:
            cmd.append("--traced")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, *words):
        self.proc.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited during {words[0]}")
        return json.loads(line)

    def must(self, *words):
        reply = self.ask(*words)
        if "error" in reply:
            raise BenchError(f"{words[0]}: {reply['error']}")
        return reply

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def run_cli(cli, args):
    """Runs hcd-cli to completion: (seconds, peak RSS in MB, exit code, output)."""
    start = time.perf_counter()
    proc = subprocess.Popen([cli] + args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    with proc.stdout:
        out = proc.stdout.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    # Reaped here, for its rusage; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"hcd-cli {args[0]} exited {proc.returncode}: {out.strip()[-500:]}")
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, out


SEARCH_FIELDS = {
    "k": r"^best k\s*=\s*(\d+)$",
    "score": r"^score\s*=\s*(\S+)$",
    "n": r"^\|S\|\s*=\s*(\d+)$",
    "m": r"^m\(S\)\s*=\s*(\d+)$",
    "b": r"^b\(S\)\s*=\s*(\d+)$",
}


def parse_search(out):
    found = {}
    for key, pattern in SEARCH_FIELDS.items():
        match = re.search(pattern, out, re.MULTILINE)
        if not match:
            return None
        found[key] = match.group(1)
    return found


def load_doc(path):
    """An hcd-metrics-v1 document as name -> value maps, or None."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if doc.get("schema") != "hcd-metrics-v1":
        return None
    return {
        "regions": {r["name"]: r for r in doc.get("regions", [])},
        "counters": {c["name"]: c["value"] for c in doc.get("counters", [])},
        "histograms": {h["name"]: h for h in doc.get("histograms", {}).get("entries", [])},
    }


class Run:
    def __init__(self, args, cli, worker_exe, work):
        self.args = args
        self.cli = cli
        self.work = work
        self.traced = args.trace == 1
        self.worker = Worker(worker_exe, args.workload, args.seed, work, self.traced)
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.scaled = {}
        self.docs = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def mark(self):
        return {name: len(xs) for name, xs in self.samples.items()}

    def scale_since(self, start):
        """Scales the end-to-end samples taken since `start` by the host
        speed the calibration kernel measured over the same span."""
        cals = self.samples["calibration_s"][start.get("calibration_s", 0):]
        speed = CALIBRATION_S / median(cals)
        self.add("speed", speed)
        for name in END_TO_END:
            factor = 1.0 if name == "peak_rss_mb" else speed
            self.scaled.setdefault(name, []).extend(
                x * factor for x in self.samples.get(name, [])[start.get(name, 0):])

    def fail(self, why):
        self.failed += 1
        log(f"FAILED: {why}")

    def cli_op(self, args, check):
        """One timed hcd-cli run, checked: (seconds, peak RSS in MB)."""
        self.attempted += 1
        seconds, rss, code, out = run_cli(self.cli, args)
        if code != 0:
            self.fail(f"hcd-cli {' '.join(args)} exited {code}")
        else:
            problem = check(out)
            if problem:
                self.fail(f"hcd-cli {' '.join(args)}: {problem}")
        return seconds, rss

    def traced_cli(self, name, args, check):
        doc = os.path.join(self.work, f"{name}.metrics.json")
        seconds, _ = self.cli_op(args + ["--metrics", doc], check)
        self.add(name + ".traced", seconds)
        loaded = load_doc(doc)
        if loaded:
            self.docs.setdefault(name, []).append(loaded)

    def check_index(self, path):
        def check(_out):
            reply = self.worker.ask("check-index", path)
            return reply.get("error")
        return check

    def check_search(self, out):
        found = parse_search(out)
        if found is None:
            return "unparsable search output"
        reply = self.worker.ask(
            "check-search", found["k"], found["n"], found["m"], found["b"], found["score"])
        return reply.get("error")

    def calibrate(self):
        self.add("calibration_s", self.worker.must("calibrate")["ns"] / 1e9)

    def round(self):
        start = self.mark()
        w = self.work
        edges = os.path.join(w, "edges.txt")
        p1 = ["build", edges, "-o", os.path.join(w, "index-p1.hcd"), "-p", "1"]
        p2 = ["build", edges, "-o", os.path.join(w, "index-p2.hcd"), "-p", "2"]
        search = ["search", edges, "-m", "clustering-coefficient", "-p", "2"]
        ops = [
            ("index_s", p1, self.check_index(p1[3])),
            ("index_p2_s", p2, self.check_index(p2[3])),
            ("search_p2_s", search, self.check_search),
        ]
        for name, args, check in ops:
            self.calibrate()
            # Traced runs also time each command with --metrics armed,
            # alternating which of the two goes first.
            plain_first = len(self.samples.get(name, [])) % 2 == 0
            if self.traced and not plain_first:
                self.traced_cli(name, args, check)
            seconds, rss = self.cli_op(args, check)
            self.add(name, seconds)
            if name == "index_s":
                self.add("peak_rss_mb", rss)
            if self.traced and plain_first:
                self.traced_cli(name, args, check)
        self.calibrate()
        seg = self.worker.must("segment")
        self.attempted += seg["attempted"]
        self.failed += seg["failed"]
        for why in seg["why"]:
            log(f"FAILED: {why}")
        queries = elapsed = 0
        for ns, traced in seg["writes"]:
            self.add("write_ms.traced" if traced else "write_ms", ns / 1e6)
        for ns, n, traced in seg["reads"]:
            if traced:
                self.add("read_batch_us.traced", ns / 1e3)
            else:
                self.add("read_batch_us", ns / 1e3)
                queries += n
                elapsed += ns / 1e9
        if elapsed > 0:
            self.add("read_qps", queries / elapsed)
        for ns in seg["recovers"]:
            self.add("recover_s", ns / 1e9)
        if self.traced:
            self.attempted += 1
            layers = self.worker.must("layers")
            if layers["problems"]:
                self.fail("; ".join(layers["problems"]))
            for name, value in layers["layers"].items():
                self.add(name, value)
        self.scale_since(start)

    def execute(self):
        self.worker.must("calibrate")  # builds the kernel's graph
        start = self.mark()
        for _ in range(SETUP_REPEATS):
            self.calibrate()
            self.add("setup_s", self.worker.must("setup")["setup_s"])
        self.scale_since(start)
        info = self.worker.must("reference")
        log(f"inputs: {json.dumps(info)}")
        deadline = time.monotonic() + self.args.seconds
        rounds = 0
        while rounds == 0 or time.monotonic() < deadline:
            self.round()
            rounds += 1
        log(f"{rounds} rounds")
        if self.traced:
            doc = os.path.join(self.work, "serve.metrics.json")
            self.worker.must("metrics", doc)
            loaded = load_doc(doc)
            self.docs["serve"] = [loaded] if loaded else []
        self.worker.close()
        metrics = self.per_layer() if self.traced else self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def end_to_end(self):
        raw = {name: median(self.samples.get(name, [])) for name in END_TO_END}
        log(f"median speed factor {median(self.samples['speed']):.4f}; unscaled medians: "
            + ", ".join(f"{n}={v:.6g}" for n, v in raw.items()))
        return {name: {"value": median(self.scaled.get(name, [])), "unit": unit}
                for name, unit in END_TO_END.items()}

    def per_layer(self):
        s = self.samples
        values = {name: median(s.get(name, [])) for name in PER_LAYER}

        def from_docs(key, pick):
            got = [v for v in (pick(d) for d in self.docs.get(key, [])) if v is not None]
            return median(got)

        def region_sum(doc, prefix, field):
            hits = [r[field] for n, r in doc["regions"].items() if n.startswith(prefix)]
            return sum(hits) if hits else None

        values["core.rank_s"] = scaled(
            from_docs("index_s", lambda d: region_sum(d, "rank.", "wall_ns")), 1e-9)
        for name in ("pkc.waves", "pkc.bucket_pushes", "phcd.uf.finds",
                     "phcd.uf.find_hops", "phcd.uf.unions"):
            values[name] = from_docs("index_s", lambda d, n=name: d["counters"].get(n))
        values["pbks.triangle_probes"] = from_docs(
            "search_p2_s", lambda d: d["counters"].get("pbks.triangle_probes"))
        values["par.region_invocations"] = from_docs(
            "index_p2_s", lambda d: region_sum(d, "", "invocations"))
        values["par.region_wall_s"] = scaled(
            from_docs("index_p2_s", lambda d: region_sum(d, "", "wall_ns")), 1e-9)
        values["phcd.union.imbalance"] = from_docs(
            "index_p2_s", lambda d: d["regions"].get("phcd.union", {}).get("imbalance"))
        parts = [values[n] for n in ("graph.parse_s", "decomp.pkc_s", "core.phcd_s",
                                     "core.write_index_s")]
        if None not in parts and s.get("index_s"):
            values["index.unattributed_s"] = median(s["index_s"]) - sum(parts)

        serve = (self.docs.get("serve") or [None])[0]
        writes = len(s.get("write_ms.traced", []))
        reads = len(s.get("read_batch_us.traced", []))
        counters = dict(serve["counters"]) if serve else {}
        # The program emits a counter once it first ticks, so a cache that
        # never hit still shows its misses.
        cache = ("serve.cache.hits", "serve.cache.misses")
        if any(name in counters for name in cache):
            for name in cache:
                counters.setdefault(name, 0)
        hists = serve["histograms"] if serve else {}

        def per(name, count):
            return counters[name] / count if name in counters and count else None

        values["dynamic.traversal_edges"] = per("dynamic.traversal_edges", writes)
        values["dynamic.affected_vertices"] = per("dynamic.affected_vertices", writes)
        values["serve.wal_bytes"] = per("serve.wal_bytes", writes)
        values["serve.cache.hits"] = per("serve.cache.hits", reads)
        values["serve.cache.misses"] = per("serve.cache.misses", reads)
        for metric, hist in HISTOGRAMS.items():
            h = hists.get(hist)
            values[metric] = h["p50_ns"] / 1e6 if h and h.get("count") else None
        values["serve.write_p90_ms"] = p90(s.get("write_ms", []))
        values["serve.read_batch_p90_us"] = p90(s.get("read_batch_us", []))
        values["serve.read_qps"] = median(s.get("read_qps", []))

        def ratio(traced, plain):
            a, b = median(s.get(traced, [])), median(s.get(plain, []))
            return a / b if a is not None and b else None

        values["trace.overhead_index"] = ratio("index_s.traced", "index_s")
        values["trace.overhead_search"] = ratio("search_p2_s.traced", "search_p2_s")
        values["trace.overhead_write"] = ratio("write_ms.traced", "write_ms")
        values["trace.overhead_read"] = ratio("read_batch_us.traced", "read_batch_us")
        absent = [n for n, v in values.items() if v is None]
        if absent:
            log("absent (no longer emitted by the program): " + ", ".join(absent))
        return {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}


def steal_seconds():
    """Host steal time so far, from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def spread(args):
    """Runs one workload N times and reports each metric's spread."""
    rows, steals = [], []
    for i in range(args.spread):
        seed = args.seed + i
        before = steal_seconds()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        steals.append(steal_seconds() - before)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"run with seed {seed} exited {proc.returncode}")
        result = json.loads(lines[-1])
        rows.append(result)
        print(f"seed {seed}: steal {steals[-1]:.2f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, " + ", ".join(
                  f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                  if m["value"] is not None), flush=True)
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'maxdev':>9}")
    for name in rows[0]["metrics"]:
        xs = [r["metrics"][name]["value"] for r in rows if r["metrics"][name]["value"] is not None]
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        dev = max(abs(x - med) for x in xs) / med if med else float("nan")
        iqr = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{iqr:>9.3f}{dev:>9.3f}")
    print(f"steal seconds per run: {', '.join(f'{s:.2f}' for s in steals)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="run the workload this many times and report spreads")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.spread:
            spread(args)
            return 0
        root = os.getcwd()
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        cli, worker_exe = build(root, target)
        work = os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        run = None
        try:
            run = Run(args, cli, worker_exe, work)
            result = run.execute()
        finally:
            if run is not None:
                run.worker.close()
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(result))
        return 0
    except BenchError as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the ppdm CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --held-out [--seconds S]

Builds ppdm from the checkout it sits in, generates the workload's inputs
from --seed, runs the shipped CLI pipelines for about --seconds, checks
every output, and prints one JSON line: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLI = os.path.join(ROOT, "_build", "default", "bin", "ppdm_cli.exe")
LAYERS = os.path.join(ROOT, "_build", "default", "perfbench", "layers.exe")
WORK = os.path.join(ROOT, ".perfbench-work")
OP_TIMEOUT_S = 100


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def build():
    for need in ("dune-project", "bin/ppdm_cli.ml", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a ppdm checkout")
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "--profile", "release", "./bin/ppdm_cli.exe", "./perfbench/layers.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed")


def code_hash():
    """Hash of the sources that determine the program's counts."""
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def file_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Proc:
    """A child process whose exit, wall time and peak RSS come from wait4."""

    def __init__(self, argv, out_path, err_path, cwd, timeout=OP_TIMEOUT_S,
                 pipe_stdout=False):
        self.err = open(err_path, "wb")
        self.out = None if pipe_stdout else open(out_path, "wb")
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            argv, cwd=cwd, stderr=self.err,
            stdout=subprocess.PIPE if pipe_stdout else self.out)
        self.killed = False
        self.timer = threading.Timer(timeout, self.kill)
        self.timer.daemon = True
        self.timer.start()

    def kill(self):
        if self.p.returncode is None:
            self.killed = True
            try:
                self.p.kill()
            except OSError:
                pass

    def wait(self):
        _, status, ru = os.wait4(self.p.pid, 0)
        wall = time.perf_counter() - self.t0
        self.timer.cancel()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        if self.p.stdout is not None:
            self.p.stdout.close()
        for f in (self.out, self.err):
            if f is not None:
                f.close()
        return self.p.returncode, wall, ru.ru_maxrss / 1024.0


class Run:
    """One benchmark run: its work directory, operations and failures."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.ops = 0
        self.failed_ops = set()
        self.rss_mb = 0.0
        self.e2e = {}
        self.layers = {}
        self.n_log = 0

    def path(self, name):
        return os.path.join(self.dir, name)

    def op(self):
        self.ops += 1
        return self.ops

    def check(self, op, ok, what):
        if not ok:
            self.failed_ops.add(op)
            log(f"{self.workload}: check failed: {what}")
        return ok

    def start(self, argv, out, **kw):
        self.n_log += 1
        return Proc(argv, out and self.path(out), self.path(f"err{self.n_log}.log"),
                    self.dir, **kw)

    def finish(self, proc, what, rss=True):
        """Wait for [proc] as one operation; returns (op, ok, wall)."""
        op = self.op()
        rc, wall, rss_mb = proc.wait()
        if rss:
            self.rss_mb = max(self.rss_mb, rss_mb)
        ok = self.check(op, rc == 0 and not proc.killed,
                        f"{what} exited {rc}{' (timed out)' if proc.killed else ''}")
        return op, ok, wall

    def cli(self, args, out="stdout.txt", rss=True):
        op, ok, wall = self.finish(self.start([CLI] + args, out), args[0], rss=rss)
        return op, ok, wall, self.read(out)

    def layers_probe(self, args, what):
        op, ok, _ = self.finish(self.start([LAYERS] + args, "layers.json"), what,
                                rss=False)
        try:
            return op, json.loads(self.read("layers.json").strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.check(op, False, f"{what} printed no result")
            return op, None

    def read(self, name):
        with open(self.path(name), errors="replace") as f:
            return f.read()

    def setup(self, fn):
        """Repeat the set-up [fn] and report the median time."""
        times = []
        for _ in range(CONFIG["workloads"][self.workload]["setup_repeats"]):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        self.e2e["setup_s"] = median(times)

    def repeat_until(self, iteration):
        """Run [iteration] at least CONFIG["min_iterations"] times, then
        while the next one would end nearer to --seconds than the last did."""
        t_end = time.perf_counter() + self.seconds
        walls = []
        while True:
            t0 = time.perf_counter()
            iteration()
            now = time.perf_counter()
            walls.append(now - t0)
            if len(walls) >= CONFIG["min_iterations"] and now + median(walls) / 2 > t_end:
                break

    def record_counts(self, counts):
        """Count-type layer metrics must repeat exactly for the same code and
        seed: compare with the last traced run's and keep these."""
        state_dir = os.path.join(WORK, "state")
        os.makedirs(state_dir, exist_ok=True)
        state = os.path.join(state_dir, f"{self.workload}-{self.seed}.json")
        code = code_hash()
        if os.path.exists(state):
            with open(state) as f:
                prev = json.load(f)
            if prev.get("code") == code:
                for k, v in counts.items():
                    if k in prev["counts"]:
                        self.check(self.op(), prev["counts"][k] == v,
                                   f"count {k} changed between runs: "
                                   f"{prev['counts'][k]} then {v}")
        with open(state, "w") as f:
            json.dump({"code": code, "counts": counts}, f)

    def replay(self, workload, args, cli_walls):
        """Traced in-process replay; [cli_walls] maps a CLI step to its
        median wall, from which the replay's untraced stage time is taken
        to leave the CLI-only remainder."""
        op, r = self.layers_probe(["replay", workload] + args, f"replay {workload}")
        if r is None:
            return
        self.check(op, not r["repeat_mismatch"],
                   f"counts differ between replays: {r['repeat_mismatch']}")
        self.layers.update(r["layers"])
        self.record_counts(r["counts"])
        for step, wall in cli_walls.items():
            self.layers[f"cli.{step}.unattributed_s"] = wall - r["stages_untraced_s"][step]
        spans_dir = os.path.join(WORK, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        with open(os.path.join(spans_dir, f"{workload}-{self.seed}.json"), "w") as f:
            json.dump(r["spans"], f)

    def result(self, names):
        attempted = max(self.ops, 1)
        failed = len(self.failed_ops)
        self.e2e["peak_rss_mb"] = self.rss_mb
        self.e2e["ok_share"] = 1.0 - failed / attempted
        values = self.layers if self.trace else self.e2e
        metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in names}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}


# ------------------------------------------------------------- data checks

def read_db(path):
    with open(path) as f:
        header = f.readline().split()
        rows = [[int(x) for x in line.split()] for line in f]
    return int(header[1]), rows


def most_frequent_pair(rows):
    c = Counter()
    for r in rows:
        c.update(combinations(sorted(r), 2))
    return min(c.items(), key=lambda kv: (-kv[1], kv[0]))


def read_scheme(path):
    ops = {}
    with open(path) as f:
        for line in f:
            w = line.split()
            if w and w[0] == "size":
                ops[int(w[1])] = (float(w[3]), [float(x) for x in w[5:]])
            elif w and w[0] == "universe":
                universe = int(w[1])
    return universe, ops


def check_tagged(path, scheme_path, source_sizes):
    """Row count, original sizes, and mean output size within 4 sigma of
    the operator's expectation sum_j p_j j + rho (u - m)."""
    universe, ops = read_scheme(scheme_path)
    with open(path) as f:
        header = f.readline().split()
        mean = var = 0.0
        n = total = 0
        for line in f:
            m_text, items = line.rstrip("\n").split("|")
            m = int(m_text)
            if n >= len(source_sizes) or source_sizes[n] != m:
                return f"row {n} has original size {m_text}"
            rho, keep = ops[m]
            ej = sum(j * p for j, p in enumerate(keep))
            vj = sum(j * j * p for j, p in enumerate(keep)) - ej * ej
            mean += ej + rho * (universe - m)
            var += vj + (universe - m) * rho * (1 - rho)
            total += len(items.split())
            n += 1
    if header[:1] != ["tagged"] or int(header[3]) != len(source_sizes) or n != len(source_sizes):
        return f"{n} rows, header {' '.join(header)}"
    z = (total - mean) / max(var, 1e-12) ** 0.5
    if abs(z) > 4:
        return f"mean output size {total / n:.3f} is {z:.2f} sigma from {mean / n:.3f}"
    return None


# --------------------------------------------------------------- workloads

def gen_args(g, out, seed):
    return ["gen", "--kind", g["kind"], "--universe", str(g["universe"]),
            "--size", str(g["size"]), "--count", str(g["count"]),
            "--seed", str(seed), "-o", out]


def run_randomize(run):
    w = CONFIG["workloads"]["randomize"]
    n = w["generator"]["count"]
    jobs = str(CONFIG["jobs"])
    data, tag, scheme = run.path("data.txt"), run.path("rand.tag"), run.path("rand.scheme")
    run.setup(lambda: run.cli(gen_args(w["generator"], data, run.seed), rss=False))
    _, rows = read_db(data)
    (a, b), support = most_frequent_pair(rows)
    truth = support / n
    sizes = [len(r) for r in rows]
    itemset = f"{a},{b}"
    walls = {"randomize": [], "recover": []}
    first = {}

    def iteration():
        op, ok, wall, _ = run.cli(["randomize", "-i", data, "-o", tag, "--scheme-out",
                                   scheme, "--seed", str(run.seed), "--jobs", jobs])
        if ok:
            walls["randomize"].append(wall)
            if "tag" not in first:
                first["tag"] = file_hash(tag)
                problem = check_tagged(tag, scheme, sizes)
                run.check(op, problem is None, f"randomize output: {problem}")
            else:
                run.check(op, file_hash(tag) == first["tag"],
                          "randomize output differs between identical runs")
        op, ok, wall, out = run.cli(["recover", "-i", tag, "--scheme", scheme,
                                     "--itemset", itemset])
        if ok:
            walls["recover"].append(wall)
            m = re.search(r"estimated support of \S+: (\S+) \(sigma (\S+), N = (\d+)\)", out)
            run.check(op, m is not None and int(m.group(3)) == n
                      and abs(float(m.group(1)) - truth) <= 4 * float(m.group(2)),
                      f"recover estimate not within 4 sigma of {truth}: {out.strip()}")

    run.repeat_until(iteration)
    op, ok, _, _ = run.cli(["randomize", "-i", data, "-o", run.path("rand_ref.tag"),
                            "--seed", str(run.seed), "--jobs", REF_JOBS])
    run.check(op, ok and file_hash(run.path("rand_ref.tag")) == first.get("tag"),
              f"randomize output differs between --jobs {jobs} and --jobs {REF_JOBS}")
    med = {k: median(v) for k, v in walls.items()}
    run.e2e["intake_tx_per_s"] = n / med["randomize"]
    run.e2e["answer_ms"] = med["recover"] * 1e3
    run.layers["randomize_tx_per_s"] = n / med["randomize"]
    run.layers["recover_tx_per_s"] = n / med["recover"]
    if run.trace:
        run.replay("randomize", ["--input", data, "--seed", str(run.seed), "--jobs", jobs,
                                 "--itemset", itemset, "--workdir", run.dir], med)


def discoveries(out):
    return [line for line in out.splitlines() if line.startswith("  {")]


def run_private(run):
    w = CONFIG["workloads"]["private"]
    n = w["generator"]["count"]
    jobs = str(CONFIG["jobs"])
    seed = str(run.seed)
    data = run.path("data.txt")
    run.setup(lambda: run.cli(gen_args(w["generator"], data, run.seed), rss=False))
    mining = ["--min-support", str(w["min_support"]), "--max-size", str(w["max_size"])]
    walls = []
    first = {}

    def iteration():
        op, ok, wall, out = run.cli(["private", "-i", data, "--seed", seed, "--jobs", jobs]
                                    + mining)
        if ok:
            walls.append(wall)
            if "out" not in first:
                first["out"] = out
                run.check(op, len(discoveries(out)) > 0, "private discovered nothing")
            else:
                run.check(op, out == first["out"], "private output differs between identical runs")

    run.repeat_until(iteration)
    # The two references are independent; run them side by side.
    j_ref = run.start([CLI, "private", "-i", data, "--seed", seed, "--jobs", REF_JOBS]
                      + mining, "private_ref.txt")
    ref = run.start([LAYERS, "private-ref", "--input", data, "--seed", seed,
                     "--jobs", jobs] + mining, "ref.json")
    op, ok, _ = run.finish(j_ref, f"private --jobs {REF_JOBS}")
    run.check(op, ok and run.read("private_ref.txt") == first.get("out"),
              f"private stdout differs between --jobs {jobs} and --jobs {REF_JOBS}")
    op, ok, _ = run.finish(ref, "private-ref", rss=False)
    try:
        expect = json.loads(run.read("ref.json"))
    except ValueError:
        expect = None
    out = first.get("out", "")
    run.check(op, ok and expect is not None
              and discoveries(out) == expect["discovered"]
              and f"(truth: {expect['truth']})" in out,
              "private discoveries differ from in-process Ppmining.mine")
    wall = median(walls)
    run.e2e["intake_tx_per_s"] = n / wall
    run.e2e["answer_ms"] = wall * 1e3
    run.layers["private_tx_per_s"] = n / wall
    if run.trace:
        run.replay("private", ["--input", data, "--seed", seed, "--jobs", jobs] + mining,
                   {"private": wall})


def run_mine(run):
    """QUEST draws a new pattern pool per seed, which moves the mining work
    by about 10% between seeds; several datasets per run average it out."""
    w = CONFIG["workloads"]["mine"]
    n = w["generator"]["count"]
    jobs = str(CONFIG["jobs"])
    seeds = [run.seed * w["datasets"] + k for k in range(w["datasets"])]
    data = [run.path(f"data{k}.txt") for k in range(len(seeds))]
    col = [run.path(f"data{k}.ppdmc") for k in range(len(seeds))]

    def gen_all():
        for path, seed in zip(data, seeds):
            run.cli(gen_args(w["generator"], path, seed), rss=False)

    run.setup(gen_all)
    mining = ["--min-support", str(w["min_support"]), "--max-size", str(w["max_size"])]
    steps = ("convert", "mine", "mine_db")
    passes = []  # per pass, per step, the wall of each dataset
    first = {}

    def iteration():
        walls = {step: [] for step in steps}
        for k in range(len(seeds)):
            op, ok, wall, out = run.cli(["convert", data[k], col[k]])
            walls["convert"].append(wall)
            run.check(op, ok and f"{n} transactions over" in out, f"convert: {out.strip()}")
            op, ok_in, wall_in, out_in = run.cli(["mine", "-i", data[k], "--jobs", jobs]
                                                 + mining, out="mine_in.txt")
            op_db, ok_db, wall_db, out_db = run.cli(["mine", "--db", col[k], "--jobs", jobs]
                                                    + mining, out="mine_db.txt")
            walls["mine"].append(wall_in)
            walls["mine_db"].append(wall_db)
            if ok_in and ok_db:
                run.check(op_db, out_in == out_db, "mine --in and --db outputs differ")
                if k not in first:
                    first[k] = out_in
                    run.check(op, out_in.count("\n") > 1, "mine found nothing")
                else:
                    run.check(op, out_in == first[k], "mine output differs between identical runs")
        passes.append(walls)

    run.repeat_until(iteration)
    for k in range(len(seeds)):
        op, ok, _, out = run.cli(["mine", "-i", data[k], "--jobs", REF_JOBS] + mining,
                                 out="mine_ref.txt")
        run.check(op, ok and out == first.get(k),
                  f"mine output differs between --jobs {jobs} and --jobs {REF_JOBS}")
    rows = n * len(seeds)
    total = {step: median([sum(p[step]) for p in passes]) for step in steps}
    run.e2e["intake_tx_per_s"] = rows / total["convert"]
    run.e2e["answer_ms"] = median([sum(p["mine"]) + sum(p["mine_db"]) for p in passes]) \
        / len(seeds) * 1e3
    for step in steps:
        run.layers[f"{step}_tx_per_s"] = rows / total[step]
    if run.trace:
        run.replay("mine", ["--input", data[0], "--jobs", jobs, "--workdir", run.dir] + mining,
                   {step: median([p[step][0] for p in passes]) for step in steps})


def read_line_until(proc, pattern, deadline):
    """Read [proc]'s stdout lines until one matches [pattern]."""
    buf = b""
    fd = proc.p.stdout.fileno()
    while time.perf_counter() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.1)
        if not ready:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        buf += chunk
        m = re.search(pattern, buf.decode(errors="replace"))
        if m:
            return m
    return None


def run_ingest(run):
    w = CONFIG["workloads"]["ingest"]
    serve = [CLI, "serve", "--port", "0", "--jobs", str(w["server_jobs"]),
             "--shards", str(w["shards"]), "--universe", str(w["universe"]),
             "--singletons", str(w["singletons"]), "--itemset", w["pair"]]
    if run.trace:
        serve += ["--admin-port", "0", "--sampler-period-ms", "10"]
    server = run.start(serve, None, pipe_stdout=True, timeout=170)
    pattern = (r"listening on 127\.0\.0\.1:(\d+).*\n.*admin plane on 127\.0\.0\.1:(\d+)"
               if run.trace else r"listening on 127\.0\.0\.1:(\d+)")
    ready = read_line_until(server, pattern, time.perf_counter() + 60)
    result = None
    try:
        if ready is not None:
            args = ["ingest", "--port", ready.group(1), "--seed", str(run.seed),
                    "--universe", str(w["universe"]), "--size", str(w["size"]),
                    "--pool", str(w["report_pool"]), "--clients", str(w["clients"]),
                    "--setups", str(w["setup_repeats"]),
                    "--rounds", str(w["closed_rounds"]),
                    "--round-reports", str(w["round_reports"]),
                    "--rate", str(w["open_rate_per_s"]),
                    "--barrier-every", str(w["barrier_every"]),
                    "--open-seconds", str(run.seconds * w["open_share_of_seconds"]),
                    "--trace", str(run.trace)]
            args += ["--serve-pid", str(server.p.pid), "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
            if run.trace:
                args += ["--admin-port", ready.group(2),
                         "--server-domains", str(w["server_jobs"] + w["shards"])]
            op, result = run.layers_probe(args, "ingest driver")
    finally:
        if result is None:
            server.kill()
        op, ok, _ = run.finish(server, "serve")
    run.check(op, ready is not None, "serve never became ready")
    if result is None:
        return
    run.ops += result["attempted"]
    for k in range(result["failed"]):
        run.failed_ops.add(f"report-{k}")
    for p in result["problems"]:
        run.check(op, False, p)
    run.e2e["setup_s"] = result["setup_s"]
    run.e2e["intake_tx_per_s"] = result["ingest_reports_per_cpu_s"]
    run.e2e["answer_ms"] = result["freshness_ms_p50"]
    for k in ("ingest_reports_per_s", "freshness_ms_p50", "freshness_ms_p90"):
        run.layers[k] = result[k]
    if run.trace:
        run.layers.update(result["layers"])
        run.layers.update(result["counts"])
        run.record_counts(result["counts"])


WORKLOADS = {"randomize": run_randomize, "private": run_private,
             "mine": run_mine, "ingest": run_ingest}


def bench(workload, seed, seconds, trace, spec):
    run = Run(workload, seed, seconds, trace)
    try:
        WORKLOADS[workload](run)
    except Exception:  # reported as a failed run, not a crash
        log(traceback.format_exc())
        run.check(run.op(), False, f"{workload} raised")
    finally:
        # Inputs and outputs are regenerated every run; only the state of
        # the exact-repeat check is kept.
        shutil.rmtree(run.dir, ignore_errors=True)
    key = "per_layer" if trace else "end_to_end"
    return run.result([(m["name"], m["unit"]) for m in spec[key]])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="run every workload once on the held-out seed")
    a = ap.parse_args()
    if not a.held_out and a.workload is None:
        ap.error("--workload is required")
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if a.held_out:
        seed = CONFIG["held_out_seed"]
        for w in [x["name"] for x in spec["workloads"]]:
            r = bench(w, seed, seconds, a.trace, spec)
            print(json.dumps({"workload": w, "seed": seed, **r}), flush=True)
        return
    print(json.dumps(bench(a.workload, a.seed, seconds, a.trace, spec)))


with open(os.path.join(HERE, "workloads.json")) as _f:
    CONFIG = json.load(_f)
# Timed pipelines run at CONFIG["jobs"]; one run at REF_JOBS checks that
# the output does not depend on the job count.
REF_JOBS = str(CONFIG["reference_jobs"])

if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of `ridc` over seeded on-disk corpora.

Usage (from the repository root):

    python3 ridbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ridbench/run.py --self-test

One run builds `ridc` and the native harness from source (Release, into
.bench_build/), writes the workload's corpus to disk (.bench_work/), then
runs untraced `ridc` scans one at a time, single-threaded, until S seconds
have been measured. Every scan's reports are checked against the
generator's ground truth and against the run's first scan. With --trace 1
the harness also repeats ridc's pipeline once in process under spans this
benchmark owns and the run prints the per-layer metrics instead of the
end-to-end ones. The last line of stdout is the result as one JSON object.
Workloads, metrics and findings: ridbench/README.md.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ridbench"
WORK = ROOT / ".bench_work"
RIDC = BUILD / "rid" / "examples" / "ridc"
HARNESS = BUILD / "ridbench_harness"

# ridc's flags on every workload: the bundled DPM specs (the corpus calls
# the pm_runtime_* APIs) and --keep-going, so a file the frontend rejects
# is counted as failed work instead of aborting the scan.
BASE_FLAGS = ["--builtin-dpm", "--keep-going"]

# (scale, repeat, drop_filler): CorpusMix::paperCalibrated(scale) with
# every pattern count times `repeat`, optionally without category-3
# filler. `tiny` is the self-test size. Why each workload: README.md.
WORKLOADS = {
    "calibrated": {"gen": (0.5, 1, 0), "tiny": (0.005, 1, 0), "flags": []},
    "dense": {"gen": (0.01, 40, 1), "tiny": (0.01, 1, 1), "flags": []},
    "triage": {"gen": (0.2, 1, 0), "tiny": (0.005, 1, 0),
               "flags": ["--triage", "--provenance", "{journal}"]},
    "resume": {"gen": (0.2, 1, 0), "tiny": (0.005, 1, 0),
               "flags": ["--store", "{store}", "--resume"]},
}

SETUP_REPS = (5, 20)  # set-ups per run, at least and at most; setup_s is
SETUP_SECONDS = 2     # their median. Between the two, repeat until this
                      # long, so that tiny set-ups get more samples.
MIN_SCANS = 3        # timed scans per run, even past --seconds
EDIT_SHARE = 0.02    # resume: share of files whose functions are edited
COVERAGE_FLOOR = 0.95

# A function definition header as the generator writes it: one line,
# starting in column 0 and ending in the opening brace.
DEF_RE = re.compile(r"^([A-Za-z_][^;\n]*\)\s*\{)[ \t]*$", re.M)
EDIT_STMT = " int ridbench_edit = 1;"

END_TO_END_UNITS = {"setup_s": "s", "scan_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_rate") or name in ("trace.coverage", "trace.overhead"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def log(msg):
    print(f"ridbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A set-up or build step failed; the run prints no result."""


# --------------------------------------------------------------------------
# Build


def build():
    for need in ("CMakeLists.txt", "src", "examples/ridc.cpp"):
        if not (ROOT / need).exists():
            raise BenchError(f"checker sources missing: {ROOT / need}")
    if not (BUILD / "CMakeCache.txt").exists():
        run_tool(["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"])
    run_tool(["cmake", "--build", str(BUILD), "-j", "4",
              "--target", "ridc", "ridbench_harness"])


def run_tool(argv):
    # Tool chatter goes to stderr: stdout carries only the result.
    proc = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} ... exited {proc.returncode}")


# --------------------------------------------------------------------------
# Corpus


class Corpus:
    """One generated corpus on disk plus its ground truth."""

    def __init__(self, root):
        self.root = root
        self.files = (root / "files.txt").read_text().split()
        self.truth = {}
        for line in (root / "truth.tsv").read_text().splitlines():
            name, detects, fp = line.split("\t")
            self.truth[name] = (detects == "1", fp == "1")
        self.defs = {f: len(DEF_RE.findall((root / f).read_text()))
                     for f in self.files}
        self.functions = sum(self.defs.values())

    def expected(self):
        return {n for n, (detects, fp) in self.truth.items() if detects or fp}


def generate(spec, seed, outdir):
    outdir.mkdir(parents=True)
    scale, repeat, drop = spec
    code, _, _ = spawn([str(HARNESS), "gen", str(scale), str(repeat),
                        str(drop), str(seed), str(outdir)],
                       outdir / "gen.out", outdir / "gen.err")
    if code != 0:
        raise BenchError(f"corpus generation exited {code}")


def apply_edit(corpus, seed):
    """Seeded body edit on EDIT_SHARE of the files: every function in a
    chosen file gains a dead local on its header line, which changes its
    IR (so its store key) but neither its refcount behaviour nor any line
    number a report prints."""
    rng = random.Random(seed)
    count = max(1, round(len(corpus.files) * EDIT_SHARE))
    edited = 0
    for f in sorted(rng.sample(corpus.files, count)):
        path = corpus.root / f
        text, n = DEF_RE.subn(r"\1" + EDIT_STMT, path.read_text())
        path.write_text(text)
        edited += n
    return edited


# --------------------------------------------------------------------------
# Processes


def spawn(argv, out_path, err_path, cwd=None):
    """Run argv to completion with stdout/stderr in files.
    Returns (exit code, wall seconds from spawn to exit, peak RSS in MB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    prev = os.getcwd()
    if cwd is not None:
        os.chdir(cwd)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    finally:
        os.chdir(prev)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Checks


def oracle(stdout, corpus, triage):
    """Hold a scan's report lines to the generator's ground truth.
    Returns a list of problems (empty = pass). The reference is only ever
    Corpus.truth, never another ridc output."""
    problems = []
    reported = set()
    for line in stdout.splitlines():
        fn, sep, _ = line.partition(": ")
        if not sep or fn not in corpus.truth:
            problems.append(f"report on a function with no truth: {line[:80]}")
            continue
        reported.add(fn)
        m = re.search(r" \{([a-z-]+)\}$", line)
        tier = m.group(1) if m else None
        detects, fp = corpus.truth[fn]
        if not triage:
            if tier is not None:
                problems.append(f"{fn}: tier {tier} without --triage")
        elif tier == "confirmed":
            if not detects:
                problems.append(f"{fn}: confirmed but not a detectable bug")
        elif tier in ("refuted", "low-confidence"):
            if not fp:
                problems.append(f"{fn}: {tier} but not a false-positive "
                                "inducer")
        else:
            problems.append(f"{fn}: undecided tier {tier}")
    expected = corpus.expected()
    missing, extra = expected - reported, reported - expected
    if missing:
        problems.append(f"{len(missing)} expected function(s) not reported, "
                        f"e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected function(s) reported, "
                        f"e.g. {sorted(extra)[0]}")
    return problems


def parse_stderr(stderr, corpus):
    """What ridc's stderr summary admits to. `degraded` counts failed
    operations: functions that ended as timeout/degraded/error, plus every
    function of a rejected file."""
    degraded = 0
    m = re.search(r"^degraded: (\d+) timeout, (\d+) fault-isolated, "
                  r"(\d+) error", stderr, re.M)
    if m:
        degraded += sum(int(g) for g in m.groups())
    for path in re.findall(r"^ridc: skipping (\S+): ", stderr, re.M):
        degraded += corpus.defs.get(path, 0)
    m = re.search(r"^store: (\d+) hit\(s\) / (\d+) miss\(es\)", stderr,
                  re.M)
    hits, misses = (int(m.group(1)), int(m.group(2))) if m else (0, 0)
    return {"degraded": degraded, "store_hits": hits, "store_misses": misses}


# --------------------------------------------------------------------------
# The run


class Run:
    def __init__(self, workload, seed, tiny=False):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.spec = self.wl["tiny" if tiny else "gen"]
        self.dir = WORK / workload
        self.store = self.dir / "store"
        self.flags = [a.format(journal=self.dir / "journal.jsonl",
                               store=self.store) for a in self.wl["flags"]]
        self.resume = "--resume" in self.flags
        self.triage = "--triage" in self.flags
        self.edited = 0
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def fresh_dir(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def ridc(self, flags, tag):
        files = (self.corpus_dir / "files.txt").read_text().split()
        argv = [str(RIDC)] + BASE_FLAGS + flags + files
        out, err = self.dir / f"{tag}.out", self.dir / f"{tag}.err"
        code, wall, rss = spawn(argv, out, err, cwd=self.corpus_dir)
        return code, wall, rss, out.read_text(), err.read_text()

    def setup(self):
        """Write the corpus (and, for resume, the cold store snapshot)
        repeatedly, each time into fresh directories; returns the median
        time of one set-up. The last set-up is the one the scans use."""
        times = []
        while len(times) < SETUP_REPS[0] or (
                sum(times) < SETUP_SECONDS and len(times) < SETUP_REPS[1]):
            rep = len(times)
            self.corpus_dir = self.dir / f"corpus{rep}"
            self.snapshot = self.dir / f"snapshot{rep}"
            # Start each set-up, and the scans after the last one, with no
            # earlier writes still in flight.
            os.sync()
            t0 = time.perf_counter()
            generate(self.spec, self.seed, self.corpus_dir)
            if self.resume:
                # The cold store: one full scan recording every function,
                # kept as the snapshot each timed resume starts from.
                cold = [f for f in self.flags if f != "--resume"]
                cold[cold.index(str(self.store))] = str(self.snapshot)
                cold_scan = self.ridc(cold, "cold")
            times.append(time.perf_counter() - t0)
        self.corpus = Corpus(self.corpus_dir)
        if self.resume:
            code, _, _, out, err = cold_scan
            self.check("cold scan", code, out, parse_stderr(err, self.corpus),
                       reference=False)
            self.edited = apply_edit(self.corpus, self.seed)
        os.sync()
        return statistics.median(times)

    def before_scan(self):
        if self.resume:
            if self.store.exists():
                shutil.rmtree(self.store)
            shutil.copytree(self.snapshot, self.store)

    def check(self, what, code, out, counts, reference=True):
        """Check one scan given its stdout and parse_stderr() counts, and
        account its operations. Failed checks fail every function."""
        problems = []
        if code not in (0, 1):
            problems.append(f"exit code {code}")
        problems += oracle(out, self.corpus, self.triage)
        if reference:
            if self.reference is None:
                self.reference = out
            elif out != self.reference:
                problems.append("stdout differs from the run's first scan")
        if self.resume and reference:
            if counts["store_hits"] <= 0:
                problems.append("resume replayed nothing (store.hits == 0)")
            if counts["store_misses"] < self.edited:
                problems.append(f"store.misses {counts['store_misses']} < "
                                f"{self.edited} edited functions")
        self.attempted += self.corpus.functions
        if problems:
            self.failed += self.corpus.functions
            self.problems += [f"{what}: {p}" for p in problems]
        else:
            self.failed += min(self.corpus.functions, counts["degraded"])

    def scan(self, tag):
        self.before_scan()
        code, wall, rss, out, err = self.ridc(self.flags, tag)
        self.check(tag, code, out, parse_stderr(err, self.corpus))
        return wall, rss

    def measure(self, seconds):
        self.scan("warmup")
        walls, rss = [], []
        t0 = time.perf_counter()
        while len(walls) < MIN_SCANS or time.perf_counter() - t0 < seconds:
            w, r = self.scan("scan")
            walls.append(w)
            rss.append(r)
        log(f"{self.name}: {len(walls)} scans, wall s " +
            " ".join(f"{w:.3f}" for w in walls))
        return statistics.median(walls), statistics.median(rss)

    def traced(self, scan_s):
        self.before_scan()
        out = self.dir / "traced.out"
        # The span dump outlives the run's work directory.
        argv = [str(HARNESS), "trace", "--out", str(out), "--trace-json",
                str(WORK / f"{self.name}.trace.json")] + BASE_FLAGS + \
            self.flags + self.corpus.files
        code, _, _ = spawn(argv, self.dir / "trace.stdout",
                           self.dir / "trace.stderr", cwd=self.corpus_dir)
        if code != 0:
            raise BenchError(f"traced run exited {code}: " +
                             (self.dir / "trace.stderr").read_text()[-300:])
        res = json.loads((self.dir / "trace.stdout").read_text())
        m = res["metrics"]
        log("self time by span: " + ", ".join(
            f"{k} {v:.3f}s" for k, v in sorted(res["self_s"].items(),
                                               key=lambda kv: -kv[1])))
        # The traced pipeline must reproduce ridc's reports byte for byte.
        counts = {"degraded": res["timeout"] + res["degraded"] + res["error"]
                  + sum(self.corpus.defs.get(f, 0)
                        for f in res["rejected_files"]),
                  "store_hits": m["store.hits"],
                  "store_misses": m["store.misses"]}
        self.check("traced run", 0, out.read_text(), counts)
        if m["trace.coverage"] < COVERAGE_FLOOR:
            self.problems.append(
                f"traced run: top-level spans cover {m['trace.coverage']:.3f}"
                f" of wall time (< {COVERAGE_FLOOR}); "
                f"{m['trace.unaccounted_s']:.3f} s unaccounted")
        m["trace.overhead"] = m.pop("trace.wall_s") / scan_s
        return m


def bench(workload, seed, seconds, trace, tiny=False):
    run = Run(workload, seed, tiny)
    run.fresh_dir()
    try:
        setup_s = run.setup()
        scan_s, rss = run.measure(seconds)
        if trace:
            layers = run.traced(scan_s)
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in layers.items()}
        else:
            values = {"setup_s": setup_s, "scan_s": scan_s,
                      "peak_rss_mb": rss}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for p in run.problems[:20]:
        log(p)
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


# --------------------------------------------------------------------------
# Self-test


def self_test():
    """Every workload at a tiny scale, both modes: each declared metric is
    printed with its unit, runs are correct, and the oracle rejects
    tampered report lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    def fail(msg):
        nonlocal ok
        ok = False
        log(f"self-test: FAIL {msg}")

    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = bench(wl["name"], 1, 0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                fail(f"{wl['name']} trace={trace}: metrics {sorted(got)} "
                     f"!= declared {sorted(want)}")
            if not res["correct"] or res["failed"]:
                fail(f"{wl['name']} trace={trace}: run not correct")

    # Tampering: a good scan passes, each mutation of it is rejected.
    run = Run("triage", 1, tiny=True)
    run.fresh_dir()
    try:
        run.setup()
        _, _, _, out, _ = run.ridc(run.flags, "tamper")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    lines = out.splitlines(keepends=True)
    filler = next(n for n, (d, fp) in run.corpus.truth.items()
                  if not d and not fp)
    tampered = {
        "dropped report": "".join(lines[1:]),
        "added report": out + filler + lines[0][lines[0].index(":"):],
        "flipped tier": out.replace("{confirmed}", "{refuted}", 1),
        "undecided tier": out.replace("{refuted}", "{unverified}", 1),
    }
    if oracle(out, run.corpus, True):
        fail("oracle rejects an untampered scan")
    for what, text in tampered.items():
        if text == out or not oracle(text, run.corpus, True):
            fail(f"oracle accepts a scan with a {what}")
    if not oracle(out, run.corpus, False):
        fail("oracle accepts triage tiers on an untriaged workload")

    # Resume hygiene: a scan that replays nothing, or that re-analyses
    # fewer functions than were edited, fails even with correct reports.
    run = Run("resume", 1, tiny=True)
    run.fresh_dir()
    try:
        run.setup()
        run.scan("scan")
        good = run.problems == []
        for hits, misses in ((0, run.edited), (1, run.edited - 1)):
            run.problems = []
            run.check("hygiene", 1, run.reference, {
                "degraded": 0, "store_hits": hits, "store_misses": misses})
            if not run.problems:
                fail(f"resume check accepts {hits} hit(s) and {misses} "
                     f"miss(es) with {run.edited} edited functions")
        if not good or run.edited < 1:
            fail("resume scan not correct")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    log("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        build()
        if args.self_test:
            return self_test()
        res = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log(str(e))
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

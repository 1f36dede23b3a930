"""Benchmark for twistkit: end-to-end workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (one client, closed loop, at most one child process at a time):

  report        `report --format json --bound 1000 --m-max 10` through
                `cli.main` in a fresh interpreter per request, timed after
                import; stdout must match the golden bytes.  The input is
                fixed, so the seed is unused.
  word-problem  seeded `nf`, `eq` and `eq --mod-center` jobs through
                `cli.main` in one long-lived process; verdicts are known by
                construction, normal forms are checked off the clock.
  homology      theta.check_relations("symplectic", n, k) over n = 1..6,
                k = 1..5 in a seeded order, a fresh interpreter per sweep;
                every check must pass with an identity witness.

Times are scaled to a reference speed (see reference.py and README.md).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (see README.md).
The program is run from the checkout's `src`; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time

import wordgen
from tracer import COUNTED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
AGENT = os.path.join(HERE, "agent.py")
REFERENCE = os.path.join(HERE, "reference.py")
GOLDEN = os.path.join(HERE, "golden")
OUT_DIR = os.path.join(ROOT, ".perfbench")

REPORT_ARGS = ["report", "--format", "json", "--bound", "1000", "--m-max", "10"]
DEFAULT_REPORT_ARGS = ["report", "--format", "json"]
HOMOLOGY_PAIRS = [(n, k) for n in range(1, 7) for k in range(1, 6)]
SETUP_SAMPLES = 7
ORACLE_JOBS = 16
# A run that is still going after this many seconds is abandoned.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Child:
    """One child process, read through its pipes, reaped with os.wait4 for its peak RSS."""

    def __init__(self, args, deadline, stdin=False):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
        self.deadline = deadline
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.buffer = b""
        self.eof = False

    def _fill(self):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.kill()
            raise BenchError("a child process ran past the time limit")
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(remaining):
                return
        data = os.read(self.proc.stdout.fileno(), 1 << 16)
        self.buffer += data
        self.eof = not data

    def send(self, payload):
        self.proc.stdin.write((json.dumps(payload) + "\n").encode())
        self.proc.stdin.flush()

    def receive(self):
        while b"\n" not in self.buffer:
            if self.eof:
                raise BenchError("agent exited early: " + self.finish()[2][-2000:])
            self._fill()
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def read_all(self) -> bytes:
        while not self.eof:
            self._fill()
        data, self.buffer = self.buffer, b""
        return data

    def finish(self):
        """Close stdin, reap the child; returns (exit code, peak RSS in MB, stderr)."""
        if self.proc.stdin:
            self.proc.stdin.close()
        self.read_all()
        err = self.proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.proc.stderr.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0, err

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)


def percentile(ordered, q: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Run:
    """One benchmark run: its deadline, its children, the latencies and the tally."""

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.tally = Tally()
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.rss: list[float] = []
        self.children: list[Child] = []

    def record(self, reply: dict):
        """One timed request: seconds as measured and at reference speed."""
        self.latencies.append(reply["s"])
        self.scaled.append(reply["scaled"])

    def child(self, args, stdin=False) -> Child:
        self.children.append(Child(args, self.deadline, stdin))
        return self.children[-1]

    def close(self):
        """Kill and reap any child left running by an error."""
        for child in self.children:
            child.kill()

    def agent(self, *args) -> Child:
        return self.child([sys.executable, AGENT, *args], stdin=args[0] == "jobs")

    def setup_s(self) -> tuple[float, float]:
        """Median time a fresh interpreter takes to import twistkit.cli: (scaled, as measured).

        The import is timed inside the child, on a reference.Clock.
        """
        times, scaled_times = [], []
        for _ in range(SETUP_SAMPLES):
            child = self.child([sys.executable, REFERENCE, "twistkit.cli"])
            out = child.read_all().decode().split()
            code, _, err = child.finish()
            if code != 0 or len(out) != 3 or not out[0].startswith(SRC):
                raise BenchError(f"twistkit.cli does not import from {SRC}: {err[-500:]}")
            times.append(float(out[1]))
            scaled_times.append(float(out[2]))
        return statistics.median(scaled_times), statistics.median(times)

    def metrics(self, setup_s: float) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "norm_ops_per_s": (len(self.scaled) / sum(self.scaled), "1/s"),
            "peak_rss_mb": (statistics.median(self.rss), "MB"),
        }

    def raw_line(self, raw_setup_s: float) -> str:
        """Unscaled times and latency percentiles, shown but not reported: see README.md."""
        lat = sorted(self.latencies)
        return (f"# as measured: setup_s={raw_setup_s:.6g} s "
                f"ops_per_s={len(lat) / sum(lat):.6g} 1/s; latency over {len(lat)} requests: "
                f"p50={1000 * percentile(lat, 0.5):.6g} ms p90={1000 * percentile(lat, 0.9):.6g} ms max={1000 * lat[-1]:.6g} ms")


# ------------------------------------------------------------------ report

def _golden(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read()


def report_job() -> dict:
    return {"argv": REPORT_ARGS, "kind": "report",
            "golden": _golden("report-bound1000-mmax10.json")}


def check_cli_report(run: Run, argv, golden: bytes):
    """`python3 -m twistkit ARGV` as users run it, checked off the clock."""
    child = run.child([sys.executable, "-m", "twistkit", *argv])
    out = child.read_all()
    code, _, err = child.finish()
    run.tally.check(code == 0 and out == golden,
                    f"{' '.join(argv)}: exit {code}, {len(out)} bytes, {err[-300:]!r}")


def workload_report(run: Run):
    """One fresh agent per report, timed after import next to the reference."""
    check_cli_report(run, DEFAULT_REPORT_ARGS, _golden("report-default.json"))
    job = report_job()
    while sum(run.latencies) < run.seconds:
        agent = run.agent("jobs")
        run_jobs(run, agent, [job])
        code, rss, err = agent.finish()
        run.tally.check(code == 0, f"agent exit {code}: {err[-300:]!r}")
        run.rss.append(rss)


# ------------------------------------------------------------ word-problem

def check_job(run: Run, job: dict, reply: dict) -> dict | None:
    """Check one CLI reply against the job's known answer; returns the nf payload."""
    label = " ".join(job["argv"][:4])
    if job["kind"] == "report":
        run.tally.check(reply["code"] == 0 and reply["out"].encode() == job["golden"],
                        f"{label}: exit {reply['code']}, output differs from golden")
        return None
    try:
        payload = json.loads(reply["out"])
        if job["kind"] == "nf":
            problems = wordgen.normal_form_problems(
                job["n"], job["letters"], payload["power"], payload["factors"])
            ok = reply["code"] == 0 and not problems
        else:
            expected = job["expected"]
            problems = [f"{job['kind']}: equal={payload['equal']}"]
            ok = reply["code"] == (0 if expected else 1) and payload["equal"] is expected
    except (ValueError, KeyError, TypeError) as err:
        problems, ok = [f"unreadable output ({err}): {reply['err'][-300:]!r}"], False
    run.tally.check(ok, f"{label}: exit {reply['code']}, {problems}")
    return payload if ok and job["kind"] == "nf" else None


def run_jobs(run: Run, agent: Child, jobs, timed=True):
    for job in jobs:
        agent.send({"argv": job["argv"]})
        reply = agent.receive()
        if timed:
            run.record(reply)
        check_job(run, job, reply)


def check_oracle(run: Run, agent: Child):
    """Cross-check short normal forms against the Artin action, off the clock."""
    for job in wordgen.oracle_sample(run.seed, ORACLE_JOBS):
        agent.send({"argv": job["argv"]})
        payload = check_job(run, job, agent.receive())
        if payload is None:
            continue
        form = wordgen.form_letters(job["n"], payload["power"], payload["factors"])
        agent.send({"artin": [job["n"], job["letters"], form]})
        run.tally.check(agent.receive()["same"],
                        f"nf {wordgen.text(job['letters'])}: Artin action differs")


def workload_word_problem(run: Run):
    agent = run.agent("jobs")
    # one short job off the clock, so the first timed job pays no lazy imports
    run_jobs(run, agent, wordgen.oracle_sample(run.seed + 1, 1), timed=False)
    index = 0
    while sum(run.latencies) < run.seconds:
        run_jobs(run, agent, wordgen.cycle(run.seed, index))
        index += 1
    check_oracle(run, agent)
    code, rss, err = agent.finish()
    run.tally.check(code == 0, f"agent exit {code}: {err[-300:]!r}")
    run.rss.append(rss)


# ---------------------------------------------------------------- homology

def homology_pairs(seed: int, index: int):
    pairs = list(HOMOLOGY_PAIRS)
    random.Random(f"homology:{seed}:{index}").shuffle(pairs)
    return pairs


def sweep(run: Run, pairs, trace=False):
    """One fresh interpreter checking every pair; returns the calls and the trace line."""
    agent = run.agent("sweep", json.dumps(pairs), *(["--trace"] if trace else []))
    calls = agent.receive()["calls"]
    done = agent.receive()
    code, rss, err = agent.finish()
    run.tally.check(code == 0, f"sweep agent exit {code}: {err[-300:]!r}")
    for call in calls:
        identity = f"Id_{2 * call['n'] * call['k']}"
        bad = [c for c in call["checks"] if c[1] != "pass" or c[2] != identity]
        run.tally.check(not bad and call["checks"] != [],
                        f"check_relations({call['n']}, {call['k']}): {bad[:2]}")
    return calls, rss, done


def workload_homology(run: Run):
    index = 0
    while sum(run.latencies) < run.seconds:
        calls, rss, _ = sweep(run, homology_pairs(run.seed, index))
        for call in calls:
            run.record(call)
        run.rss.append(rss)
        index += 1


WORKLOADS = {
    "report": workload_report,
    "word-problem": workload_word_problem,
    "homology": workload_homology,
}


# ------------------------------------------------------------ traced run

PER_LAYER = [
    ("trace_overhead", "ratio"),
    ("cli.main.self_s", "s"),
    ("theta.check_relations.s", "s"),
    ("theta.square_root_family.s", "s"),
    ("theta.root_experiment_report.s", "s"),
    ("theta.hyperelliptic_experiment.s", "s"),
    ("theta.separation_evidence.s", "s"),
    ("braid.left_normal_form.calls", "count"),
    ("braid.left_normal_form.letters", "count"),
    ("braid.left_normal_form.s", "s"),
    ("braid.equals.s", "s"),
    ("braid.equals_mod_center.calls", "count"),
    ("braid.equals_mod_center.s", "s"),
    *[(f"{name}.calls", "count") for name in COUNTED],
    ("perms.calls_per_letter", "calls/letter"),
    ("words.parse_word.calls", "count"),
    ("words.parse_word.chars", "count"),
    ("words.parse_word.s", "s"),
    ("symplectic.evaluate_word.calls", "count"),
    ("symplectic.evaluate_word.letters", "count"),
    ("symplectic.evaluate_word.s", "s"),
    ("symplectic.mats_equal.s", "s"),
    ("sl2.roots_of_minus_identity.s", "s"),
    ("sl2.roots_of_minus_identity.found", "count"),
    ("sl2.reduce_elliptic.calls", "count"),
    ("sl2.reduce_elliptic.s", "s"),
    ("artin.artin_action.calls", "count"),
    ("artin.artin_action.s", "s"),
    ("case.lnf_n4_L400.s", "s"),
    ("case.lnf_n8_L400.s", "s"),
    ("case.evaluate_word_6_5.s", "s"),
    ("case.census_bound1000.s", "s"),
    ("case.sqrt_family_m10.s", "s"),
]


def layer_metrics(summary: dict) -> dict:
    """Per-layer values from a trace summary; a layer the workload never calls reads 0."""
    counts, sizes, times = summary["counts"], summary["sizes"], summary["times"]
    values = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = counts.get(base, 0)
        elif field == "s":
            values[name] = times.get(base, {}).get("s", 0.0)
        elif field == "self_s":
            values[name] = times.get(base, {}).get("self_s", 0.0)
        elif field in ("letters", "chars", "found"):
            values[name] = sizes.get(name, 0)
    perms_calls = sum(counts.get(name, 0) for name in COUNTED)
    letters = sizes.get("braid.left_normal_form.letters", 0)
    values["perms.calls_per_letter"] = perms_calls / letters if letters else 0.0
    return values


def traced_sample(run: Run, workload: str, trace: bool):
    """The fixed traced sample of a workload; returns (scaled seconds on the clock, the agent's last line)."""
    flag = ["--trace"] if trace else []
    if workload == "homology":
        calls, _, done = sweep(run, homology_pairs(run.seed, 0), trace)
        return sum(call["scaled"] for call in calls), done
    agent = run.agent("jobs", *flag)
    before = len(run.scaled)
    if workload == "report":
        run_jobs(run, agent, [report_job()])
    else:
        run_jobs(run, agent, wordgen.cycle(run.seed, 0))
    elapsed = sum(run.scaled[before:])
    if workload == "word-problem" and trace:
        check_oracle(run, agent)
    agent.proc.stdin.close()
    done = agent.receive()
    code, _, err = agent.finish()
    run.tally.check(code == 0, f"agent exit {code}: {err[-300:]!r}")
    return elapsed, done


def source_revision() -> str:
    """The git commit when run from a git checkout, else a digest of src/."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as handle:
                    return handle.read().strip()[:12]
        else:
            return ref[:12]
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "twistkit"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return "src-" + digest.hexdigest()[:12]


def traced_run(run: Run, workload: str) -> dict:
    untraced, _ = traced_sample(run, workload, trace=False)
    traced, done = traced_sample(run, workload, trace=True)

    agent = run.agent("cases")
    cases = agent.receive()
    code, _, err = agent.finish()
    run.tally.check(code == 0, f"cases agent exit {code}: {err[-300:]!r}")
    for name, case in cases["cases"].items():
        if "letters" in case:
            problems = wordgen.normal_form_problems(
                case["n"], case["letters"], case["power"], case["factors"])
            run.tally.check(not problems, f"case {name}: {problems}")
        else:
            run.tally.check(case["ok"], f"case {name} failed")

    values = layer_metrics(done["trace"])
    values["trace_overhead"] = traced / untraced - 1.0
    for name, case in cases["cases"].items():
        values[f"case.{name}.s"] = case["s"]

    env = dict(cases["env"], rev=source_revision())
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{run.seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": run.seed, "env": env,
                   "untraced_s": untraced, "traced_s": traced,
                   "summary": done["trace"], "spans": done["spans"],
                   "cases": {k: v["s"] for k, v in cases["cases"].items()}}, handle)
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# spans written to {os.path.relpath(path, ROOT)}")
    units = dict(PER_LAYER)
    return {name: (values[name], units[name]) for name, _ in PER_LAYER}


# -------------------------------------------------------------------- main

def check_layout():
    for path in (os.path.join(SRC, "twistkit", "cli.py"),
                 os.path.join(GOLDEN, "report-default.json"),
                 os.path.join(GOLDEN, "report-bound1000-mmax10.json")):
        if not os.path.isfile(path):
            raise BenchError(f"missing {os.path.relpath(path, ROOT)}; "
                             "run from the root of a twistkit checkout")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(seed, seconds)
    try:
        if trace:
            metrics = traced_run(run, workload)
        else:
            setup, raw_setup = run.setup_s()
            WORKLOADS[workload](run)
            metrics = run.metrics(setup)
            print(run.raw_line(raw_setup))
    finally:
        run.close()
    for message in run.tally.messages:
        print(f"FAIL {workload}: {message}", file=sys.stderr)
    ratio = run.tally.failed / run.tally.attempted
    shown = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
    print(f"# {workload}: {shown} fail_ratio={ratio:.4g} "
          f"({run.tally.failed}/{run.tally.attempted})")
    return {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        check_layout()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The process that calls into twistkit on behalf of the benchmark.

Run by perfbench/run.py with the checkout's `src` on PYTHONPATH, one mode
per process:

    agent.py jobs [--trace]     CLI jobs, one JSON request per stdin line
    agent.py sweep PAIRS [--trace]
                                theta.check_relations("symplectic", n, k)
                                for each [n, k] in the JSON list PAIRS
    agent.py cases              the fixed layer cases, untraced

Each mode answers with JSON lines on stdout.  With --trace the public
functions are wrapped first (see tracer.py) and the last line carries the
span summary and the raw spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import sys
import time
import traceback

from reference import Clock
from tracer import Tracer


def _reply(stream, payload):
    stream.write(json.dumps(payload) + "\n")
    stream.flush()


def _finish(stream, tracer):
    payload = {"done": True}
    if tracer is not None:
        payload["trace"] = tracer.summary()
        payload["spans"] = tracer.spans
    _reply(stream, payload)


def run_jobs(tracer):
    """Closed loop: answer each request before reading the next.

    {"argv": [...]} runs cli.main and returns its exit code, its stdout and
    the time the call took, as measured and at reference speed (see
    reference.py); {"artin": [n, u, v]} says whether two letter lists
    have the same Artin action (the oracle, off the clock).
    """
    from twistkit import artin, cli
    from twistkit.braid import BraidWord

    def call(argv):
        try:
            return cli.main(argv)
        except Exception:  # a traceback is a failed job, not a dead agent
            traceback.print_exc()
            return None

    out = sys.stdout
    clock = Clock(ticks=tracer is None)
    for line in sys.stdin:
        request = json.loads(line)
        if "argv" in request:
            captured, errors = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
                code, elapsed, scaled = clock.time(call, request["argv"])
            _reply(out, {"code": code, "out": captured.getvalue(),
                         "err": errors.getvalue(), "s": elapsed, "scaled": scaled})
        else:
            n, u, v = request["artin"]
            same = (artin.artin_action(BraidWord(n, tuple(u)))
                    == artin.artin_action(BraidWord(n, tuple(v))))
            _reply(out, {"same": same})
    _finish(out, tracer)


def run_sweep(pairs, tracer):
    """Time each relation check after import, so generator images are built on the clock."""
    from twistkit import theta

    def call(n, k):
        try:
            return [[c.name, c.status, c.witness]
                    for c in theta.check_relations("symplectic", n, k).checks]
        except Exception:  # a traceback is a failed call, not a dead agent
            return [["traceback", "error", traceback.format_exc()]]

    calls = []
    clock = Clock(ticks=tracer is None)
    for n, k in pairs:
        checks, elapsed, scaled = clock.time(call, n, k)
        calls.append({"n": n, "k": k, "s": elapsed, "scaled": scaled, "checks": checks})
    _reply(sys.stdout, {"calls": calls})
    _finish(sys.stdout, tracer)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def run_cases():
    """The layer cases the roadmap seeded the bench with, each run once.

    Two of its cases are left out because each takes more than ten
    seconds: left_normal_form at n=16, L=400 and evaluate_word at (10, 8).
    """
    from twistkit import braid, symplectic, theta

    results = {}
    rng = random.Random("layer-cases")
    for n in (4, 8):
        letters = tuple(rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(400))
        form, elapsed = _timed(braid.left_normal_form, braid.BraidWord(n, letters))
        results[f"lnf_n{n}_L400"] = {
            "s": elapsed, "n": n, "letters": list(letters),
            "power": form.power, "factors": [list(f) for f in form.factors]}

    center = next(r for r in theta.presentation_for(6, 5).relators if r.name == "center")
    word = center.left * center.right.inv()
    model = symplectic.surface_model(6, 5)
    image, elapsed = _timed(symplectic.evaluate_word, model, word)
    results["evaluate_word_6_5"] = {
        "s": elapsed, "length": len(word),
        "ok": symplectic.mats_equal(image, symplectic.identity_matrix(model))}

    report, elapsed = _timed(theta.root_experiment_report, 1000)
    results["census_bound1000"] = {"s": elapsed, "ok": report.status == "pass"}
    report, elapsed = _timed(theta.square_root_family, 10)
    results["sqrt_family_m10"] = {"s": elapsed, "ok": report.status == "pass"}
    env = {"python": platform.python_version(),
           "numpy": getattr(sys.modules.get("numpy"), "__version__", "absent"),
           "nproc": os.cpu_count()}
    _reply(sys.stdout, {"cases": results, "env": env})


def main(argv):
    tracer = None
    if "--trace" in argv:
        argv = [a for a in argv if a != "--trace"]
        tracer = Tracer()
        tracer.install()
    mode = argv[0]
    if mode == "jobs":
        run_jobs(tracer)
    elif mode == "sweep":
        run_sweep(json.loads(argv[1]), tracer)
    elif mode == "cases":
        run_cases()
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Closed-loop benchmark of the hairycube command line.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seconds 0

One client sends one request at a time, each in a fresh Python process
(perfbench/child.py), the way the `hairycube` console script is run.  A
round sends each of the workload's requests once, in an order drawn from
the seed; rounds repeat while another one fits in `--seconds` (at least
one round).  Every request is checked: exit status 0, the pinned sha256 of
its stdout and the count read out of it.

The shared host's speed drifts by tens of percent over minutes, so with
`--trace 0` every request is bracketed by runs of a fixed reference kernel
(`child.py reference`), and its times are divided by the host's slowdown
measured there.  The last line reports `scaled_wall_s` (median round),
`setup_s` (median time from spawn until `hairycube.cli` is imported, over
each request and the probes that follow it), both scaled so, and
`peak_rss_mb` (largest of any request process).  With `--trace 1`
untraced and traced rounds alternate, and the last line reports the
per-layer metrics of spans.LAYER_METRICS (medians over traced rounds) plus
the tracing overhead.  Exit status 2 means the program could not be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from child import CPU, PEAK, READY, REFERENCE, SPANS  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

PROBES_PER_REQUEST = 2  # set-up-only processes after each request, for setup_s
RUN_LIMIT_S = 170.0  # no request outlives this much of a run
TRACE_OUT = ROOT / ".perfbench-out"
# What `child.py reference` takes on an unloaded 2-vCPU Xeon VM.  Only
# ratios to it matter; it sets the scale at which scaled_wall_s reads.
REFERENCE_NOMINAL_S = 0.85


class ProgramMissing(RuntimeError):
    """The library cannot be imported: there is nothing to measure."""


def now() -> float:
    # System-wide, so the child's ready stamp compares with the spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Process:
    code: int | None  # None when killed at the run's time limit
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float | None  # the child's own rusage, when it finished
    setup_s: float | None  # from the child's ready stamp
    peak_kb: int | None  # the child's own high-water RSS


def _stamp(err: bytes, tag: str) -> bytes | None:
    """What the child wrote after `tag` on its stderr, if anything."""
    prefix = tag.encode() + b" "
    for line in err.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def spawn(args: list[str], deadline: float) -> Process:
    """Run child.py with args; kill it if it outlives the deadline."""
    argv = [sys.executable, str(HERE / "child.py"), *args]
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, PYTHONPATH=pythonpath)
    t0 = now()
    try:
        done = subprocess.run(
            argv, env=env, capture_output=True, timeout=max(0.0, deadline - t0)
        )
        code, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    t1 = now()
    ready, peak, cpu = _stamp(err, READY), _stamp(err, PEAK), _stamp(err, CPU)
    return Process(
        code,
        out,
        err,
        t1 - t0,
        None if cpu is None else float(cpu),
        None if ready is None else float(ready) - t0,
        None if peak is None else int(peak),
    )


@dataclass
class Outcome:
    """A checked request; its stdout is kept only as a digest."""

    request: str
    wall_s: float
    cpu_s: float | None
    setup_s: float | None
    peak_kb: int | None
    digest: str
    problems: tuple[str, ...]
    layers: dict[str, float] | None = None
    dump: dict | None = None
    slowdown: float | None = None  # host speed around it, see reference()

    @property
    def ok(self) -> bool:
        return not self.problems


def check(req: Request, proc: Process, digest: str) -> tuple[str, ...]:
    """Everything wrong with a request's result; empty when correct."""
    if proc.code is None:
        return ("killed at the run's time limit",)
    problems = []
    if proc.code != 0:
        problems.append(f"exit status {proc.code}")
    if digest != req.sha256:
        problems.append(f"stdout sha256 {digest} is not the pinned {req.sha256}")
    try:
        count = req.count_of(proc.out)
    except (ValueError, KeyError, TypeError, AttributeError):
        count = None
    if count != req.count:
        problems.append(f"count {count} is not {req.count}")
    return tuple(problems)


def run_request(req: Request, deadline: float, trace: bool) -> Outcome:
    proc = spawn((["--trace"] if trace else []) + list(req.argv), deadline)
    digest = hashlib.sha256(proc.out).hexdigest()
    outcome = Outcome(
        req.name, proc.wall_s, proc.cpu_s, proc.setup_s, proc.peak_kb, digest,
        check(req, proc, digest),
    )
    if trace:
        dump = _stamp(proc.err, SPANS)
        if dump is not None:
            outcome.dump = json.loads(dump)
            outcome.layers = spans.layer_metrics(outcome.dump)
            if outcome.dump["missing"]:
                outcome.problems += (
                    "not traced, spans.py names what the library lacks: "
                    + ", ".join(outcome.dump["missing"]),
                )
        elif outcome.ok:
            outcome.problems = ("traced request wrote no spans",)
    return outcome


def probe(deadline: float) -> float:
    proc = spawn(["probe"], deadline)
    if proc.code != 0 or proc.setup_s is None:
        tail = proc.err.decode("utf-8", "replace").strip().splitlines()[-1:]
        raise ProgramMissing(f"cannot import hairycube.cli: {' '.join(tail)}")
    return proc.setup_s


def reference(deadline: float) -> float:
    """The host's current slowdown: the reference kernel's time over its
    nominal time.  The kernel is fixed benchmark code, so what moves it is
    the shared host, not the program."""
    proc = spawn(["reference"], deadline)
    stamp = _stamp(proc.err, REFERENCE)
    if proc.code != 0 or stamp is None:
        raise RuntimeError("the reference kernel failed: " + proc.err.decode(errors="replace"))
    return float(stamp) / REFERENCE_NOMINAL_S


def read_loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_meta() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


def _median_rounds(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def round_layers(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced round: its requests' sums."""
    total: dict[str, float] = {}
    for o in outcomes:
        layers = dict(o.layers or spans.layer_metrics({"spans": [], "counts": {}}))
        cpu = o.cpu_s or 0.0
        layers["cli.cpu_s"] = cpu
        layers["cli.wait_s"] = o.wall_s - cpu
        for k, v in layers.items():
            total[k] = total.get(k, 0.0) + v
    return spans.finish_ratios(total)


def run_workload(name, seed, seconds, trace, requests=None, say=print) -> dict:
    """Run one workload; return the result object for the last line.

    Untraced runs bracket every request with the reference kernel and
    follow it with set-up probes, so each of its times is scaled by the
    host's speed at that moment.  Traced runs alternate untraced and traced
    rounds, so the tracing overhead is a difference of medians taken over
    the same stretch of time.
    """
    requests = WORKLOADS[name] if requests is None else requests
    rng = random.Random(f"{name}/{seed}")
    hard = now() + RUN_LIMIT_S
    load_before = read_loadavg()
    probe(hard)  # fails fast when there is no program to measure
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled: list[float] = []
    setups: list[float] = []
    traced_layers: list[dict[str, float]] = []
    outcomes_all: list[Outcome] = []
    t_measure = now()
    slowdown = None if trace else reference(hard)
    rnd = 0
    while True:
        traced = trace and rnd % 2 == 1
        order = rng.sample(requests, len(requests))
        t = now()
        outcomes = []
        for req in order:
            o = run_request(req, hard, traced)
            if slowdown is not None:
                probes = [probe(hard) for _ in range(PROBES_PER_REQUEST)]
                after = reference(hard)
                o.slowdown, slowdown = (slowdown + after) / 2, after
                own = [] if o.setup_s is None else [o.setup_s]
                setups += [s / o.slowdown for s in own + probes]
            outcomes.append(o)
        elapsed = now() - t
        for o in outcomes:
            status = "ok" if o.ok else "FAILED: " + "; ".join(o.problems)
            setup = "-" if o.setup_s is None else f"{o.setup_s:.3f}"
            peak = "-" if o.peak_kb is None else f"{o.peak_kb / 1024:.1f}"
            cpu = "-" if o.cpu_s is None else f"{o.cpu_s:.3f}"
            host = "" if o.slowdown is None else f", host slowdown {o.slowdown:.3f}"
            say(
                f"round {rnd}{' traced' if traced else ''} {o.request}: wall "
                f"{o.wall_s:.3f} s, setup {setup} s, cpu {cpu} s, "
                f"peak rss {peak} MB{host}, sha256 {o.digest[:16]}, {status}"
            )
        outcomes_all.extend(outcomes)
        walls[traced].append(sum(o.wall_s for o in outcomes))
        if not trace:
            scaled.append(sum(o.wall_s / o.slowdown for o in outcomes))
        if traced:
            layers = round_layers(outcomes)
            traced_setups = [o.setup_s for o in outcomes if o.setup_s is not None]
            layers["cli.import_s"] = statistics.median(traced_setups or [0.0])
            traced_layers.append(layers)
        rnd += 1
        # Stop before a round that would not end within --seconds, so a run
        # lasts no longer than asked; but always finish the traced round.
        fits = now() - t_measure + elapsed <= seconds
        if (not fits and (walls[True] or not trace)) or hard - now() < 1.5 * elapsed:
            break
    failed = sum(not o.ok for o in outcomes_all)
    attempted = len(outcomes_all)
    meta = dict(machine_meta(), workload=name, seed=seed, rounds=rnd,
                load_before=load_before, load_after=read_loadavg())
    say("meta " + json.dumps(meta))
    say(f"failed_frac {failed / attempted} ({failed}/{attempted} requests)")
    if failed:
        say("FLAGGED: the timings below include failed requests")
    if trace:
        metrics = _median_rounds(traced_layers) if traced_layers else {}
        if walls[True]:
            metrics["trace.overhead_s"] = (
                statistics.median(walls[True]) - statistics.median(walls[False])
            )
            write_spans(name, seed, outcomes_all)
        units = {n: u for n, u, _ in spans.LAYER_METRICS}
        result_metrics = {
            n: {"value": metrics.get(n, 0.0), "unit": units[n]} for n in units
        }
    else:
        say(f"wall_s {min(walls[False]):.6g} s (fastest round, not scaled)")
        result_metrics = {
            "scaled_wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": max((o.peak_kb or 0) for o in outcomes_all) / 1024,
                "unit": "MB",
            },
        }
    for n, m in result_metrics.items():
        say(f"{n} {m['value']:.6g} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }


def write_spans(name: str, seed: int, outcomes: list[Outcome]) -> None:
    TRACE_OUT.mkdir(exist_ok=True)
    dumps = [{"request": o.request, **o.dump} for o in outcomes if o.dump]
    path = TRACE_OUT / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps(dumps), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hairycube" / "cli.py").is_file():
        print("no program to measure: src/hairycube/cli.py is missing", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the request in flight is killed and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"no program to measure: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted; the request in flight was stopped", file=sys.stderr)
        return 130
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    if not args.trace:
        print(f"{'workload':<15} {'scaled_wall_s (s)':>18} {'setup_s (s)':>12} "
              f"{'peak_rss_mb (MB)':>17} {'failed_frac':>12}")
        for name, res in results.items():
            m = res["metrics"]
            print(f"{name:<15} {m['scaled_wall_s']['value']:>18.3f} "
                  f"{m['setup_s']['value']:>12.4f} "
                  f"{m['peak_rss_mb']['value']:>17.1f} "
                  f"{res['failed'] / res['attempted']:>12.3g}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""
voganlab benchmark: cold analyze, verify and CLI runs on fixed workloads.

    python3 perfbench/run.py --workload chain-kl --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload,
                                                              # untraced and traced
    python3 perfbench/run.py --self-check                      # quick mode
    python3 perfbench/run.py --make-golden                     # rewrite golden/

Run from the root of a source tree: the library is imported from ``src/``.
Each sample is a fresh interpreter with its own temporary working directory,
HOME and XDG_CACHE_HOME and no VOGANLAB_CACHE_DIR, so no on-disk cache carries
from one sample to the next. Samples run one at a time. A run cycles through
its steps for ``--seconds``; a step is repeated only while it still fits:

    --trace 0   analyze pass, CLI run, verify pass, CLI run   -> end-to-end
    --trace 1   analyze pass, traced analyze + verify pass    -> per-layer

Samples run under the speed probe (probe.py) and report their times scaled
to its reference speed. Every output is checked against the golden
answers. The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; each metric value is the median over the run's samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
RUN_LIMIT_S = 170  # one workload's samples end within this, hung ones too

sys.path.insert(0, str(BENCH))
import answers  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("analyze_s", "s"),
    ("verify_s", "s"),
    ("cli_cold_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("report_bytes", "bytes"),
)


class Failure(Exception):
    """An operation that raised, exited non-zero or gave a wrong answer."""


class Sampler:
    """Runs isolated samples for one workload and keeps the tally of
    attempted and failed operations."""

    def __init__(self, workload: str, seed: int, varieties: list[dict], headline: dict):
        self.seed = seed
        self.varieties = varieties
        self.headline = headline
        self.golden = answers.load_golden(workload)
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    # -- isolation ---------------------------------------------------------

    def _sample_dir(self) -> str:
        SCRATCH.mkdir(exist_ok=True)
        box = tempfile.mkdtemp(prefix="sample-", dir=SCRATCH)
        for sub in ("home", "cache", "tmp"):
            os.mkdir(os.path.join(box, sub))
        return box

    def _env(self, box: str) -> dict:
        return {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH)]),
            "PYTHONHASHSEED": "0",  # same dict and set layouts in every sample
            "HOME": os.path.join(box, "home"),
            "XDG_CACHE_HOME": os.path.join(box, "cache"),
            "TMPDIR": os.path.join(box, "tmp"),
            "LC_ALL": "C.UTF-8",
        }

    def _op(self, what: str, fn, *args):
        """One operation in its own directory; failures are tallied, not raised."""
        self.attempted += 1
        box = self._sample_dir()
        try:
            return fn(box, *args)
        except Failure as exc:
            self.failures.append(f"{what}: {exc}")
            return None
        finally:
            shutil.rmtree(box, ignore_errors=True)

    def _run(self, cmd: list[str], box: str, stdout) -> float:
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=box, env=self._env(box), stdout=stdout,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise Failure(f"killed at the run's time limit after {timeout:.0f} s") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            raise Failure(f"exit {proc.returncode}: {' | '.join(tail)}")
        return wall

    @staticmethod
    def _read(path: str) -> str:
        try:
            with open(path) as fh:
                return fh.read()
        except OSError as exc:
            raise Failure(f"missing output: {exc}") from None

    # -- operations --------------------------------------------------------

    def analyze(self, trace: bool = False, tamper=None) -> dict | None:
        return self._op("analyze", self._analyze, trace, tamper)

    def verify(self, trace: bool = False) -> dict | None:
        return self._op("verify", self._verify, trace)

    def cli(self) -> dict | None:
        return self._op("cli", self._cli)

    def _worker(self, box: str, mode: str, trace: bool) -> dict:
        job = {
            "mode": mode, "varieties": self.varieties, "seed": self.seed,
            "trace": trace, "out_dir": box, "result": os.path.join(box, "result.json"),
        }
        job_path = os.path.join(box, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        self._run([sys.executable, str(BENCH / "worker.py"), job_path], box,
                  subprocess.DEVNULL)
        return json.loads(self._read(job["result"]))

    def _check(self, spec: dict, report_text: str) -> dict:
        try:
            report = json.loads(report_text)
            problems = answers.compare(self.golden[workloads.name_of(spec)]["answers"],
                                       answers.extract(report))
        except (ValueError, KeyError, TypeError) as exc:
            raise Failure(f"{workloads.name_of(spec)}: unreadable report ({exc!r})") from None
        if problems:
            raise Failure(f"{workloads.name_of(spec)}: {problems}")
        return report

    def _analyze(self, box: str, trace: bool, tamper) -> dict:
        result = self._worker(box, "analyze", trace)
        result["orbit_counts"] = {}
        for i, spec in enumerate(self.varieties):
            text = self._read(os.path.join(box, f"report_{i}.json"))
            if tamper is not None:
                text = tamper(text)
            report = self._check(spec, text)
            result["orbit_counts"][workloads.name_of(spec)] = len(report["orbits"])
        return result

    def _verify(self, box: str, trace: bool) -> dict:
        result = self._worker(box, "verify", trace)
        for spec, rows in zip(self.varieties, result["verify"]):
            problems = answers.compare_verify(
                self.golden[workloads.name_of(spec)]["verify"], rows)
            if problems:
                raise Failure(f"{workloads.name_of(spec)}: {problems}")
        return result

    def _cli(self, box: str) -> dict:
        spec_path = os.path.join(box, "spec.json")
        doc = workloads.spec_json(self.headline)
        if doc is not None:
            with open(spec_path, "w") as fh:
                json.dump(doc, fh)
        out_path = os.path.join(box, "out.json")
        # python -m voganlab.cli analyze ..., under the speed probe
        cmd = [sys.executable, "-c", "import probe; probe.run_cli()", "analyze",
               *workloads.cli_args(self.headline, spec_path), "--seed", str(self.seed)]
        with open(out_path, "w") as out:
            wall = self._run(cmd, box, out)
        self._check(self.headline, self._read(out_path))
        ticks = json.loads(self._read(os.path.join(box, probe.CLI_RESULT)))
        return {"wall_s": wall, "net_s": wall - ticks["busy_s"], "tick_s": ticks["tick_s"]}


# ---------------------------------------------------------------------------
# runs


def measure(sampler: Sampler, seconds: float, trace: bool) -> dict[str, list]:
    """Cycle through the run's steps for ``seconds``: every step runs once,
    then a step runs again only if its last duration still fits, so cheap
    steps fill the end of the run. Returns the samples per metric name."""
    samples: dict[str, list] = {}

    def add(name: str, value) -> None:
        samples.setdefault(name, []).append(value)

    def analyze() -> None:
        a = sampler.analyze()
        if a is not None:
            for name in ("peak_rss_mb", "report_bytes", "orbit_counts", "tick_s"):
                add(name, a[name])
            add("analyze_s", probe.scale(a["pass_net_s"], a["tick_s"]))
            add("setup_s", probe.scale(a["setup_net_s"], a["tick_s"]))

    def verify() -> None:
        v = sampler.verify()
        if v is not None:
            add("tick_s", v["tick_s"])
            add("verify_s", probe.scale(v["pass_net_s"], v["tick_s"]))
            # the same imports and varieties
            add("setup_s", probe.scale(v["setup_net_s"], v["tick_s"]))

    def cli() -> None:
        c = sampler.cli()
        if c is not None:
            add("tick_s", c["tick_s"])
            add("cli_cold_s", probe.scale(c["net_s"], c["tick_s"]))

    def traced() -> None:
        ta, tv = sampler.analyze(trace=True), sampler.verify(trace=True)
        if ta is not None and tv is not None:
            add("trace.analyze_s", probe.scale(ta["pass_net_s"], ta["tick_s"]))
            for name, value in tracing.layer_totals([ta["trace"], tv["trace"]]).items():
                add(name, value)

    # CLI runs are short, so each cycle takes two, spread over the cycle
    cycle = [analyze, traced] if trace else [analyze, cli, verify, cli]
    last: dict = {}
    start = time.perf_counter()
    while True:
        ran = False
        for step in cycle:
            if step in last and time.perf_counter() - start + last[step] > seconds:
                continue
            t0 = time.perf_counter()
            step()
            last[step] = time.perf_counter() - t0
            ran = True
        if not ran:
            return samples


def summarise(samples: dict[str, list[float]], trace: bool) -> dict[str, dict]:
    """Median per metric with its unit; None where no sample succeeded."""
    wanted = tracing.per_layer_metrics() if trace else list(END_TO_END)
    out = {}
    for name, unit in wanted:
        values = samples.get(name)
        if name == "trace.overhead":
            traced, plain = samples.get("trace.analyze_s"), samples.get("analyze_s")
            value = (statistics.median(traced) / statistics.median(plain)
                     if traced and plain else None)
        else:
            value = statistics.median(values) if values else None
        out[name] = {"value": value, "unit": unit}
    return out


def print_table(workload: str, samples: dict, metrics: dict, sampler: Sampler) -> None:
    print(f"== {workload}")
    for name, m in [*metrics.items(), ("tick_s", {"unit": "s"})]:
        values = samples.get(name) or []
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:44s} {med:14.6g} {m['unit']:6s}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        else:
            value = "n/a" if m.get("value") is None else f"{m['value']:.6g}"
            print(f"  {name:44s} {value:>14s} {m['unit']:6s}  n={len(values)}")
    rate = len(sampler.failures) / sampler.attempted
    print(f"  {'fail_rate':44s} {rate:14.6g} {'ratio':6s}"
          f"  ({len(sampler.failures)} of {sampler.attempted} operations)")
    for failure in sampler.failures[:5]:
        print(f"  FAILED {failure}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "voganlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def warm_up() -> None:
    """Compile bytecode once, untimed, so the first sample does not pay for
    writing __pycache__."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "voganlab"),
                    str(BENCH)], check=True, stdout=subprocess.DEVNULL)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 meta: dict) -> tuple[Sampler, dict]:
    spec = workloads.WORKLOADS[workload]
    order = list(spec["varieties"])
    random.Random(seed).shuffle(order)
    sampler = Sampler(workload, seed, order, spec["headline"])
    samples = measure(sampler, seconds, trace)
    metrics = summarise(samples, trace)
    counts = samples.get("orbit_counts")
    meta.setdefault("orbit_counts", {})[workload] = counts[0] if counts else None
    print_table(workload, samples, metrics, sampler)
    return sampler, metrics


def result_line(samplers: list[Sampler], metrics: dict) -> dict:
    attempted = sum(s.attempted for s in samplers)
    failed = sum(len(s.failures) for s in samplers)
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(args) -> int:
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    meta = {
        "python": platform.python_version(), "commit": commit(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "loadavg_start": loadavg(), "seed": args.seed, "workload": args.workload,
        "trace": args.trace, "seconds": args.seconds,
    }
    warm_up()
    samplers, metrics = [], {}
    for name in names:
        modes = [False, True] if args.workload == "all" else [bool(args.trace)]
        for trace in modes:
            sampler, got = run_workload(name, args.seed, args.seconds, trace, meta)
            samplers.append(sampler)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    meta["loadavg_end"] = loadavg()
    print("meta " + json.dumps(meta, sort_keys=True))
    result = result_line(samplers, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# self-check


def self_check() -> int:
    """Smallest variety of each workload: every metric prints with its unit,
    a corrupted dual_orbit counts as a failure, the golden answers reproduce."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []
    warm_up()
    sys.path.insert(0, str(SRC))
    for workload in workloads.WORKLOADS:
        golden = answers.load_golden(workload)
        smallest = min(workloads.WORKLOADS[workload]["varieties"],
                       key=lambda s: golden[workloads.name_of(s)]["orbit_count"])
        for trace, want in ((False, want_e2e), (True, want_layer)):
            sampler = Sampler(workload, 0, [smallest], smallest)
            samples = measure(sampler, 0, trace)
            metrics = summarise(samples, trace)
            print_table(f"{workload} / {workloads.name_of(smallest)}", samples, metrics, sampler)
            got = {k: m["unit"] for k, m in metrics.items() if m["value"] is not None}
            if got != want:
                problems.append(f"{workload}: metrics {sorted(set(got.items()) ^ set(want.items()))}"
                                " differ from BENCHMARK.json")
            problems += [f"{workload}: {f}" for f in sampler.failures]
        # the golden answers reproduce, cross-checked by the independent routes
        fresh = answers.generate(workload, [smallest])[workloads.name_of(smallest)]
        if fresh != golden[workloads.name_of(smallest)]:
            problems.append(f"{workload}: golden answers for "
                            f"{workloads.name_of(smallest)} do not reproduce")

    # a report with one wrong dual_orbit must count as a failed operation
    spec = workloads.two_eig("so-even", 2)
    sampler = Sampler("classical", 0, [spec], spec)
    sampler.analyze(tamper=corrupt_dual)
    rate = len(sampler.failures) / sampler.attempted
    print(f"corrupted report: fail_rate {rate:g} ratio ({sampler.failures[:1]})")
    if rate == 0:
        problems.append("a corrupted dual_orbit was not counted as a failure")

    for p in problems:
        print(f"SELF-CHECK FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def corrupt_dual(text: str) -> str:
    """Point the first orbit's dual at the next orbit."""
    report = json.loads(text)
    rows = report["orbits"]
    rows[0]["dual_orbit"] = (rows[0]["dual_orbit"] + 1) % len(rows)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0,
                   help="genericity seed and variety order (default 0)")
    p.add_argument("--seconds", type=float, default=10,
                   help="how long to keep taking samples")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced passes")
    p.add_argument("--self-check", action="store_true", help="quick check of the benchmark")
    p.add_argument("--make-golden", action="store_true",
                   help="recompute golden/ with cross-checks, then exit")
    args = p.parse_args(argv)

    if not (SRC / "voganlab" / "__init__.py").is_file():
        print(f"error: no voganlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.make_golden:
            sys.path.insert(0, str(SRC))
            for name in workloads.WORKLOADS:
                print(answers.write_golden(name))
            return 0
        if args.self_check:
            return self_check()
        return run(args)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

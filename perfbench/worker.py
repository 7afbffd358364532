"""
One timed pass in a fresh interpreter: ``python worker.py JOB.json``.

JOB.json holds the mode ("analyze" or "verify"), the varieties in visiting
order, the genericity seed, whether to trace, and where to write. The
result JSON goes to the job's ``result`` path; analyze reports go to
``report_<i>.json`` beside it, for the parent to check after timing.

setup_s runs from this file's first statement through ``import voganlab``
and building the varieties, so work moved to import time shows there.
Workers run under the speed probe (probe.py) from the start; they report
each time with and without the probe's ticks, and the mean tick time.
"""

import time

T0 = time.perf_counter()

import probe  # noqa: E402

PROBE = probe.Probe()
PROBE.start()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from voganlab import cli, kl, report  # noqa: E402
from workloads import build  # noqa: E402


def analyze_pass(varieties, seed: int, out_dir: str) -> int:
    """The calls of ``cli.cmd_analyze`` for each variety, with a file sink."""
    nbytes = 0
    for i, v in enumerate(varieties):
        kl.load_cache()
        text = report.report_json(report.assemble_report(v, seed=seed, jobs=1))
        with open(os.path.join(out_dir, f"report_{i}.json"), "w") as fh:
            fh.write(text)
        kl.save_cache()
        nbytes += len(text)  # json.dumps escapes to ASCII: one byte per char
    return nbytes


def peak_rss_mb() -> float:
    """High-water RSS of this process. Linux carries the parent's RSS at fork
    into ru_maxrss across exec, so VmHWM is read where /proc has it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    varieties = [build(spec) for spec in job["varieties"]]
    t_setup = time.perf_counter()

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    result = {"setup_s": t_setup - T0, "setup_net_s": t_setup - T0 - PROBE.busy_s(T0, t_setup)}
    t0 = time.perf_counter()
    if job["mode"] == "analyze":
        result["report_bytes"] = analyze_pass(varieties, job["seed"], job["out_dir"])
    else:
        result["verify"] = [
            [[name, ok] for name, ok, _detail in cli.verify_battery(v, seed=job["seed"])]
            for v in varieties
        ]
    t1 = time.perf_counter()
    PROBE.stop()
    result["pass_s"] = t1 - t0
    result["pass_net_s"] = t1 - t0 - PROBE.busy_s(t0, t1)
    result["tick_s"] = PROBE.summary()["tick_s"]
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])

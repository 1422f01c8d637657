"""Benchmark of the dpllsat solver on generated DIMACS instances.

    python3 bench/run.py --workload php7|queens16|planted3sat \
        --seed N --seconds S --trace 0|1

One process and one closed-loop client: each instance file goes through
`dpllsat.cli.run` only after the previous one has finished.  Every answer is
checked: the exit code against the known verdict, and every printed model
against the generated clauses with `dpllsat.oracle.check_model`.

--trace 0 measures the end-to-end metrics; --trace 1 wraps every layer
function (see spans.py) and reports calls, self time and work counters.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See README.md here.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOADS = ("php7", "queens16", "planted3sat")


def load_solver():
    """Import dpllsat from this checkout's source tree, never elsewhere."""
    package = SOURCE / "dpllsat"
    if not (package / "__init__.py").is_file():
        sys.exit("bench: solver source not found at %s" % package)
    sys.path.insert(0, str(SOURCE))
    import dpllsat
    if Path(dpllsat.__file__).resolve().parent != package.resolve():
        sys.exit("bench: imported dpllsat from %s, not %s"
                 % (dpllsat.__file__, package))


def git_commit():
    """Commit of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
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
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "dpllsat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_solver()
    from instances import PLANTED_PASS, WHY, make_instances
    from measure import BenchError, Client, end_to_end, traced

    load_start = os.getloadavg()
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    work.mkdir(parents=True)
    client = Client()
    samples = {}
    try:
        count = PLANTED_PASS if args.trace else None
        instances = make_instances(args.workload, args.seed, work, count)
        measure = traced if args.trace else end_to_end
        metrics = measure(instances, args.seconds, client, samples)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    meta = {
        "workload": args.workload, "why": WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "instances": len(instances),
        "variables_clauses": sorted({(i.variables, i.clauses)
                                     for i in instances}),
        "samples": samples,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "errors": client.errors,
    }
    print("meta " + json.dumps(meta))
    if samples.get("absent"):
        print("absent hooks: " + " ".join(samples["absent"]))
    failed_frac = client.failed / max(client.attempted, 1)
    for name, (value, unit) in list(metrics.items()) + [
            ("failed_frac", (failed_frac, "ratio"))]:
        print("%-40s %14.6g %s" % (name, value, unit))
    correct = client.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(client.attempted, 1),
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

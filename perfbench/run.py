"""The kll benchmark: one seeded workload per run, one closed-loop client.

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports `src/kll` and
`tests/oracles.py`).  The run builds its job corpus from the seed,
untimed; times set-up in probe children; runs the corpus in several
passes, each in a fresh single-threaded child (KLL_BUDGET removed) that
sends one job at a time; then checks every verdict against an
independent reference and every later pass against the first.  Every
time is scaled by the host's speed around it (calib.py), and a job's
time is the median over its passes.  With `--trace 1` it makes one
untraced and one traced pass instead, and reports per-layer metrics and
the tracing overhead in place of the end-to-end metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Full reports, span files and determinism digests go to
perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up probes before each pass: spread over the run, so that no single
# slow spell of the host sets the median
PROBES_PER_PASS = 3
CHILD_TIMEOUT_S = 165


def _read_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _child_env():
    env = dict(os.environ)
    env.pop("KLL_BUDGET", None)
    return env


def _spawn(args, deadline):
    """Run a child to completion; (monotonic spawn time, its stdout)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {err.decode()[-2000:]}")
    return start, out


def probe_setup(deadline):
    """Seconds from spawning a child to `import kll.cli` completing,
    raw and scaled by the host's speed that the child measured next."""
    start, out = _spawn(["--probe"], deadline)
    probe = json.loads(out)
    raw = probe["ready"] - start
    return raw, raw * calib.REFERENCE_S / statistics.median(probe["kernel"])


def run_corpus(jobs_path, result_path, deadline, spans_path=None):
    """One pass; each result gains "scaled", its time at the reference
    host speed."""
    args = [jobs_path, result_path] + ([spans_path] if spans_path else [])
    _spawn(args, deadline)
    with open(result_path) as fh:
        report = json.load(fh)
    for res in report["results"]:
        res["scaled"] = res["seconds"] * calib.speed(
            report["calibration"], res["start"], res["start"] + res["seconds"])
    return report


def digest(jobs, results):
    h = hashlib.sha256()
    for job, res in zip(jobs, results):
        h.update(json.dumps([job["id"], job["kind"], res["record"]],
                            sort_keys=True).encode())
    return h.hexdigest()


def source_hash(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "kll")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_digest(out_root, key, value):
    """Compare with the digest an earlier run of the same corpus on the
    same source recorded; record it if there was none."""
    path = os.path.join(out_root, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    previous = known.get(key)
    if previous is None:
        known[key] = value
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return previous is None or previous == value


def describe(job):
    if "argv" in job:
        return "kll " + " ".join(a if len(a) < 40 else a[:37] + "..." for a in job["argv"])
    args = {k: v for k, v in job["args"].items() if k not in ("instance", "sample", "gens")}
    return f"{job['call']} {json.dumps(args, sort_keys=True)}"


def main(argv=None):
    import checks
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    root = os.getcwd()
    bench = _read_benchmark()

    tag = f"{args.workload}-s{args.seed}-t{args.seconds}-trace{args.trace}"
    out_root = os.path.join(HERE, "out")
    run_dir = os.path.join(out_root, tag)
    os.makedirs(run_dir, exist_ok=True)

    # set-up, untimed: corpus and input files
    jobs = workloads.build(args.workload, args.seed, args.seconds,
                           os.path.join(os.path.relpath(run_dir, root), "inputs"))
    jobs_path = os.path.join(run_dir, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(jobs, fh)

    # the timed region: PASSES fresh children, one job at a time in each
    light = [j for j in jobs if not j.get("heavy")]
    light_path = os.path.join(run_dir, "jobs-light.json")
    with open(light_path, "w") as fh:
        json.dump(light, fh)
    setup_probes, passes = [], []
    # a traced run needs the untraced corpus time only to take the overhead,
    # so one untraced pass is compared with one traced pass
    for k in range(1 if args.trace else workloads.PASSES):
        setup_probes += [probe_setup(deadline) for _ in range(PROBES_PER_PASS)]
        passes.append(run_corpus(jobs_path if k < workloads.HEAVY_PASSES else light_path,
                                 os.path.join(run_dir, f"result-{k}.json"), deadline))
    setup = [scaled for _, scaled in setup_probes]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    traced = None
    if args.trace:
        traced = run_corpus(jobs_path, os.path.join(run_dir, "result-traced.json"),
                            deadline, os.path.join(run_dir, "spans.bin"))

    # verdict checks, untimed
    first = passes[0]["results"]
    failures, problems = [], []
    for job, res in zip(jobs, first):
        reasons = checks.check(job, res["record"])
        if reasons:
            failures.append({"job": job["id"], "kind": job["kind"], "what": describe(job),
                             "reasons": reasons, "known_defect": checks.known_defect(job)})
    this_digest = digest(jobs, first)
    samples = {job["id"]: [] for job in jobs}
    raw = {job["id"]: [] for job in jobs}
    records = {res["id"]: res["record"] for res in first}
    for k, rep in enumerate(passes + ([traced] if traced else [])):
        for res in rep["results"]:
            if rep is not traced:
                samples[res["id"]].append(res["scaled"])
                raw[res["id"]].append(res["seconds"])
            if res["record"] != records[res["id"]]:
                label = "the traced pass" if rep is traced else f"pass {k}"
                problems.append(f"job {res['id']}: {label} gave a different verdict "
                                "than pass 0")
    corpus_key = hashlib.sha256(json.dumps(jobs, sort_keys=True).replace(
        os.path.relpath(run_dir, root), "").encode()).hexdigest()
    if not check_digest(out_root, f"{corpus_key}:{source_hash(root)}", this_digest):
        problems.append("determinism digest differs from an earlier run of the same "
                        "corpus on the same source")
    problems += [f"job {f['job']} ({f['what']}): {'; '.join(f['reasons'])}"
                 for f in failures if not f["known_defect"]]

    # Per-job time: the median over the untraced passes of its time
    # scaled to the reference host speed.
    times = [statistics.median(samples[j["id"]]) for j in jobs]
    corpus_s = sum(times)
    deciles = statistics.quantiles(times, n=10)
    end_to_end = {"corpus_s": corpus_s, "job_s.p50": statistics.median(times),
                  "job_s.p90": deciles[8], "peak_rss_mib": peak_rss_mib,
                  "setup_s": statistics.median(setup)}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, closed loop, "
          f"1 client, {len(passes)} untraced passes ({len(jobs) - len(light)} heavy jobs "
          f"in the first {min(len(passes), workloads.HEAVY_PASSES)} only), "
          f"digest {this_digest[:16]}")
    q = _quartiles(times)
    print(f"  job_s     n={len(times)} q1={q[0]:.6f} median={q[1]:.6f} q3={q[2]:.6f} "
          f"p90={deciles[8]:.6f} ({len(times) - sum(t <= deciles[8] for t in times)} beyond)")
    q = _quartiles(setup)
    print(f"  setup_s   n={len(setup)} q1={q[0]:.6f} median={q[1]:.6f} q3={q[2]:.6f}")
    wall_corpus_s = sum(statistics.median(raw[j["id"]]) for j in jobs)
    wall_setup_s = statistics.median(r for r, _ in setup_probes)
    print(f"  unscaled wall time: corpus {wall_corpus_s:.6f} s, set-up {wall_setup_s:.6f} s "
          f"(host speed {corpus_s / wall_corpus_s:.3f} of the reference)")
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:.6f} {units[name]}")
    print(f"  fail_ratio {len(failures)}/{len(jobs)} = {len(failures) / len(jobs):.6f}")
    for f in failures:
        label = f"known defect: {f['known_defect']}" if f["known_defect"] else "FAILED"
        print(f"  failure job {f['job']} [{f['kind']}] {f['what']}: "
              f"{'; '.join(f['reasons'])} ({label})")
    for p in problems:
        print(f"  problem: {p}")

    if args.trace:
        metrics = layer_metrics(bench, traced["trace"], corpus_s,
                                sum(r["scaled"] for r in traced["results"]))
    else:
        metrics = end_to_end
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "digest": this_digest, "end_to_end": end_to_end, "setup_samples": setup,
              "unscaled": {"corpus_s": wall_corpus_s, "setup_s": wall_setup_s,
                           "setup_samples": [r for r, _ in setup_probes]},
              "failures": failures, "problems": problems,
              "jobs": [{"id": j["id"], "kind": j["kind"], "what": describe(j),
                        "seconds": samples[j["id"]], "unscaled": raw[j["id"]]}
                       for j in jobs]}
    if traced:
        report["trace"] = traced["trace"]
        report["per_layer"] = metrics
        for name in sorted(metrics):
            print(f"  {name:<50} {metrics[name]:.6f} {units[name]}")
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({
        "correct": not problems, "attempted": len(jobs), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def layer_metrics(bench, trace, plain_corpus_s, traced_corpus_s):
    by_name, counts, errors = trace["by_name"], trace["counts"], trace["errors"]

    def stat(name, field):
        return by_name.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "trivalent.classes_per_canonical_form":
            ratio(counts.get("trivalent.classes", 0), stat("trivalent.canonical_form", "calls")),
        "trivalent.b1_exhaustive_ratio":
            ratio(counts.get("trivalent.b1_exhaustive", 0),
                  stat("trivalent.b1_two_subgraph", "calls")),
        "trace.overhead_s": traced_corpus_s - plain_corpus_s,
        "trace.unattributed_s": stat("job", "self_s"),
    }
    metrics = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith(".errors"):
            metrics[name] = errors.get(name[:-len(".errors")], 0)
        elif name.endswith(".self_s"):
            metrics[name] = stat(name[:-len(".self_s")], "self_s")
        elif name.endswith(".calls"):
            metrics[name] = stat(name[:-len(".calls")], "calls")
        else:
            metrics[name] = counts.get(name, 0)
    return metrics


if __name__ == "__main__":
    root = os.getcwd()
    missing = [p for p in ("src/kll/cli.py", "tests/oracles.py")
               if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"run from the root of a kll source checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(1, os.path.join(root, "tests"))
    sys.exit(main())

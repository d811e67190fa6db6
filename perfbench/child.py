"""One closed-loop client: runs a job list in order, one verdict at a time.

    python3 perfbench/child.py JOBS.json RESULT.json [SPANS.bin]
    python3 perfbench/child.py --probe

Started by run.py from the root of a source checkout, with `src` on the
path and KLL_BUDGET removed from the environment.  The first thing it
reports is the monotonic clock reading once `import kll.cli` is done,
so the parent can time set-up from spawn to ready; a probe then times
the calibration kernel a few times, to scale that set-up time.  Only
the `kll` call of each job is timed; building its record for the
checker is not.  It times the calibration kernel before each job
(unless it just did), after the last and every calib.PERIOD_S, so that
the parent can scale each job time by the host's speed during it.
With a third argument the calls run under spans.Tracer and the spans
are written there.
"""

import sys
import time

sys.path.insert(0, "src")
import kll.cli as cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from kll import finquot, fpgroups, orbifold, trivalent  # noqa: E402

import calib  # noqa: E402


def run_gen(max_vertices):
    gen = trivalent.generate_connected_trivalent(max_vertices)
    reports = [(g, trivalent.short_cycle(g), trivalent.b1_two_subgraph(g))
               for v in sorted(gen) for g in gen[v]]
    return gen, reports


def record_gen(out, max_vertices):
    gen, reports = out
    return {"counts": {str(v): len(gs) for v, gs in sorted(gen.items())},
            "graphs": [[g.num_vertices, [list(e) for e in g.edges],
                        c.length, c.holds, list(s.edge_indices), s.num_edges,
                        s.holds, s.strategy] for g, c, s in reports]}


def run_closure(p, gens):
    return finquot.closure(finquot.ModRing(p), [tuple(g) for g in gens],
                           projective=True)


def record_closure(out, p, gens):
    return {"order": len(out)}


def run_cosets(presentation, max_index, sample):
    pres = fpgroups.Presentation.from_json(presentation)
    subs = fpgroups.low_index_subgroups(pres, max_index)
    picked = []
    for k in sample:
        sub = subs[k % len(subs)]
        kernel = fpgroups.reidemeister_schreier(sub)
        picked.append((sub, kernel, fpgroups.d_p(kernel, 2),
                       fpgroups.d_p(kernel, 3)))
    return subs, picked


def record_cosets(out, presentation, max_index, sample):
    subs, picked = out
    by_index = {}
    for s in subs:
        by_index[str(s.index)] = by_index.get(str(s.index), 0) + 1
    return {"by_index": by_index,
            "sample": [{"index": s.index, "rank": k.rank(),
                        "relators": [list(r) for r in k.relators],
                        "d_2": d2, "d_3": d3} for s, k, d2, d3 in picked]}


def run_orbifold(instance, p):
    data = orbifold.OrbifoldData.from_json(instance)
    return orbifold.homology_lower_bound(data, p)


def record_orbifold(out, instance, p):
    bound, actual, holds = out
    return {"bound": bound, "d_p": actual, "holds": holds}


def run_gs(d):
    return fpgroups.gs_chained_threshold(d)


def record_gs(out, d):
    return {"holds": out.holds, "decided": out.decided,
            "margin": {"lo": str(out.margin_lo), "hi": str(out.margin_hi)}}


CALLS = {name: (globals()["run_" + name], globals()["record_" + name])
         for name in ("gen", "closure", "cosets", "orbifold", "gs")}


def run_job(job, tracer, sampler):
    """(start, seconds, record); the seconds leave out the sampler's
    interruptions, and the record holds no timing, so it is digestible."""
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.begin_job(job["id"])
    error = None
    stolen, t0 = sampler.stolen, time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in job:
                result = cli.main(job["argv"])
            else:
                result = CALLS[job["call"]][0](**job["args"])
    except Exception as exc:  # a crashed job is a failed verdict, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0 - (sampler.stolen - stolen)
        if tracer:
            tracer.end_job()
    if error:
        return t0, elapsed, {"error": error}
    if "argv" in job:
        record = {"rc": result, "stdout": out.getvalue(), "stderr": err.getvalue()}
    else:
        record = {"result": CALLS[job["call"]][1](result, **job["args"])}
    return t0, elapsed, record


def main(argv):
    if argv == ["--probe"]:
        kernel = [calib.kernel_seconds() for _ in range(calib.PROBE_SAMPLES)]
        print(json.dumps({"ready": READY, "kernel": kernel}))
        return 0
    jobs_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    results = []
    sampler = calib.Sampler()
    calib.kernel_seconds()  # warm-up: the first run of the kernel is slower
    sampler.sample()
    sampler.start()
    for job in jobs:
        if time.perf_counter() - sampler.samples[-1][0] >= calib.RESAMPLE_S:
            sampler.sample()
        start, seconds, record = run_job(job, tracer, sampler)
        results.append({"id": job["id"], "start": start, "seconds": seconds,
                        "record": record})
    sampler.sample()
    sampler.stop()
    report = {"ready": READY, "results": results, "calibration": sampler.samples}
    if tracer:
        report["trace"] = tracer.summary()
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

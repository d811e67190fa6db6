"""Seeded job corpora for the three workloads.

A job is one verdict: a `kll` subcommand (``argv``) or, where no
subcommand exists, a library call sequence (``call`` and ``args``).
Every parameter comes from ``random.Random(f"{workload}:{seed}")``.
Sizes are stratified, each size appearing equally often, and jobs run
in the order they are built, so that the cost, the time quantiles and
the peak memory of a corpus depend on the seed far less than on the
program.  The number of jobs of each kind and size is fixed, so the
median and the 90th percentile fall at the same rank on every seed;
each workload places them inside a run of jobs of like cost (named in
its builder), not at a boundary between two kinds.  Input files are
written here, before the timed region.

A run makes PASSES passes over its corpus, each in a fresh child, and
takes the median of each job's scaled times (calib.py).  Jobs marked
"heavy" run in the first HEAVY_PASSES passes only: the six censuses and
the two-factor quotient (about 22 s together) and the generation sweep
(about 3 s), which a run cannot afford in every pass; scaled, one pass
of them repeats within a few per cent.  The rest of a corpus is rounds
of cheaper jobs, whose times scale less well, so they run in every
pass; ROUNDS_PER_20S sets how many rounds, so that a 20 s run measures
about 12 to 15 s of scaled job time on a 2-core x86-64 container
running CPython 3.11.  A groups run measures about 33 s, because of the
censuses.
"""

import json
import os
import random

import refs
from oracles import brute_factor_modp, grid_real_root_count

WORKLOADS = ("graphs", "groups", "fields")

PASSES = 4
HEAVY_PASSES = 1
ROUNDS_PER_20S = {"graphs": 1, "groups": 1, "fields": 4}

CHEEGER_CUBIC_SIZES = (8, 10, 12, 16, 18)
CENSUS_MODULI = (5, 7, 8, 9, 11, 13)
CLOSURE_PRIMES = (5, 7, 11, 13, 17, 19, 23)
ORDER_FIELDS = {
    1: [(0, 1)],
    2: [(2, 0, 1), (-2, 0, 1), (1, 1, 1), (-3, 0, 1)],
    3: [(-2, 0, 0, 1), (1, -1, 0, 1), (-1, -1, 0, 1)],
    4: [(2, 0, 0, 0, 1), (-2, 0, 0, 0, 1), (1, 1, 0, 0, 1)],
}
SPLIT_PRIMES = refs.primes_upto(50)
SPLITS_PER_DEGREE = 3
SYMBOL_PRIMES = (2, 3, 5, 7)
SURFACE = {"gens": ["a", "b", "c", "d"], "rels": ["abABcdCD"]}
FIGURE_EIGHT = {"gens": ["x", "y"], "rels": ["yxYXyXyxYx"]}
COSET_SAMPLE = 24
ORBIFOLDS = 20
ORBIFOLD_KINDS = ("theta", "circle", "two-circles", "theta+circle")
# (primes, with a Klein-four normalizer check): the product of two
# factors, a heavy job, and single factors
QUOTIENTS = (([5, 7], True), ([5], False), ([7], False), ([5], True), ([7], True))


def rounds_for(workload, seconds):
    return max(1, round(ROUNDS_PER_20S[workload] * seconds / 20))


def build(workload, seed, seconds, input_dir):
    """The job list for one run; input files go under input_dir."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(input_dir, exist_ok=True)
    jobs = globals()["_" + workload](rng, rounds_for(workload, seconds), input_dir)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def _write(input_dir, name, obj):
    path = os.path.join(input_dir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


# ---------------------------------------------------------------------------

def _graphs(rng, rounds, input_dir):
    """Per round 15 cycles, 5 random cubic graphs for Cheeger and 88
    lemma graphs, beside the generation sweep: the median is a lemma,
    the 90th percentile the Cheeger job on the 15-cycle (the cubic
    graphs' sizes leave out 14, whose cost straddles it)."""
    jobs = [{"kind": "gen", "heavy": True, "call": "gen", "args": {"max_vertices": 10}}]
    for r in range(rounds):
        for n in range(8, 23):
            # a randomly labelled n-cycle: same cost as `--cycle n`, new input
            label = list(range(n))
            rng.shuffle(label)
            graph = {"V": n, "cycle": n,
                     "edges": sorted(sorted((label[i], label[(i + 1) % n]))
                                     for i in range(n))}
            jobs.append(_cheeger_job(input_dir, f"cycle-{r}-{n}.json", graph))
        for v in CHEEGER_CUBIC_SIZES:
            graph = {"V": v, "edges": refs.random_simple_cubic(v, rng)}
            jobs.append(_cheeger_job(input_dir, f"cubic-{r}-{v}.json", graph))
        for v in range(12, 33, 2):
            for k in range(8):
                graph = {"V": v, "edges": refs.random_simple_cubic(v, rng)}
                path = _write(input_dir, f"lemma-{r}-{v}-{k}.json", graph)
                jobs.append({"kind": "lemma", "input": graph,
                             "argv": ["graph", "--input", path]})
    return jobs


def _cheeger_job(input_dir, name, graph):
    path = _write(input_dir, name, graph)
    return {"kind": "cheeger", "input": graph,
            "argv": ["cheeger", "--input", path, "--spectral"]}


def _random_sl2(p, rng):
    while True:
        x = tuple(rng.randrange(p) for _ in range(4))
        if (x[0] * x[3] - x[1] * x[2]) % p == 1:
            return x


def _generating_pair(p, rng):
    """A uniformly random pair generating PSL(2, p), so that every closure
    job at one prime enumerates the same number of elements."""
    while True:
        gens = [_random_sl2(p, rng) for _ in range(2)]
        if len(refs.closure_size([(g,) for g in gens], [p])) == refs.psl2_order(p):
            return gens


def _as_rows(x):
    return [[x[0], x[1]], [x[2], x[3]]]


def _groups(rng, rounds, input_dir):
    """Per round 7 closures at each prime, 2 coset jobs, 5 quotients and
    ORBIFOLDS instances at p = 2 and 3, beside the 6 censuses: the
    median is a closure at p = 7, the 90th percentile one at p = 23."""
    jobs = [{"kind": "census", "heavy": True, "input": {"modulus": m},
             "argv": ["count", "--modulus", str(m)]} for m in CENSUS_MODULI]
    for r in range(rounds):
        for primes, klein in QUOTIENTS:
            if len(primes) > 1:
                # a generating pair of each factor, so that the closure is
                # the whole product (Goursat: the factors are simple and
                # not isomorphic) and the heavy job costs the same each seed
                gens = list(map(list, zip(*(_generating_pair(p, rng) for p in primes))))
            else:
                gens = [[_random_sl2(p, rng) for p in primes] for _ in range(2)]
            spec = {"primes": primes,
                    "generators": [[_as_rows(x) for x in g] for g in gens]}
            if klein:
                pairs = [refs.klein_four_pair(p, rng) for p in primes]
                spec["klein_four"] = {"a": [_as_rows(a) for a, _ in pairs],
                                      "b": [_as_rows(b) for _, b in pairs]}
            path = _write(input_dir, f"quotient-{r}-{len(jobs)}.json", spec)
            jobs.append({"kind": "product", "heavy": len(primes) > 1, "input": spec,
                         "argv": ["quotient", "--input", path]})
        for p in CLOSURE_PRIMES:
            for _ in range(7):
                jobs.append({"kind": "closure", "call": "closure",
                             "args": {"p": p, "gens": _generating_pair(p, rng)}})
        for group, max_index in ((SURFACE, 4), (FIGURE_EIGHT, 7)):
            jobs.append({"kind": "cosets", "call": "cosets",
                         "args": {"presentation": group, "max_index": max_index,
                                  "sample": [rng.randrange(10 ** 9)
                                             for _ in range(COSET_SAMPLE)]}})
        for k in range(ORBIFOLDS):
            instance = random_orbifold(rng, ORBIFOLD_KINDS[k % len(ORBIFOLD_KINDS)])
            for p in (2, 3):
                jobs.append({"kind": "cosets", "call": "orbifold",
                             "args": {"instance": instance, "p": p}})
    return jobs


def random_orbifold(rng, kind):
    """A realizable singular locus in a handlebody, as `kll orbifold` JSON:
    theta graphs and circles with meridians on free generators (the
    model of the acceptance suite's randomized homology-bound check)."""
    shapes = []
    if kind in ("theta", "theta+circle"):
        shapes.append(("theta", [rng.choice([2, 3, 4, 6]) for _ in range(3)]))
    if kind in ("circle", "theta+circle"):
        shapes.append(("circle", [rng.choice([2, 3, 4])]))
    if kind == "two-circles":
        shapes += [("circle", [rng.choice([2, 3, 4])]) for _ in range(2)]
    gens, vertices, edges = [], [], []
    for shape, orders in shapes:
        eid = len(edges)
        if shape == "theta":
            g1, g2 = chr(ord("a") + len(gens)), chr(ord("a") + len(gens) + 1)
            gens += [g1, g2]
            u, v = f"u{eid}", f"v{eid}"
            vertices += [u, v]
            for k, (order, word) in enumerate(zip(orders, [g1, g2, g1.upper() + g2.upper()])):
                edges.append({"id": f"e{eid + k}", "ends": [u, v], "order": order,
                              "meridian": word})
        else:
            g1 = chr(ord("a") + len(gens))
            gens.append(g1)
            w = f"w{eid}"
            vertices.append(w)
            edges.append({"id": f"e{eid}", "ends": [w, w], "order": orders[0],
                          "meridian": g1})
    return {"manifold": {"gens": gens, "rels": []},
            "locus": {"vertices": vertices, "edges": edges}}


# ---------------------------------------------------------------------------

def _unimodular(field, rng):
    """Product of four elementary matrices with random integral entries,
    as rows of coefficient lists."""
    ring = refs.QuotientRing(field)
    one, zero = ring.const(1), ring.const(0)
    m = ((one, zero), (zero, one))
    for _ in range(4):
        x = ring.el([rng.randint(-2, 2) for _ in range(ring.d)])
        step = ((one, x), (zero, one)) if rng.random() < 0.5 else ((one, zero), (x, one))
        m = refs.mat2_mul(ring, m, step)
    return [[[int(c) for c in entry] for entry in row] for row in m]


def _irreducible_poly(degree, rng):
    """Random monic integer polynomial, certified irreducible over Q by
    irreducibility mod a small prime, with a real-root count that the
    grid oracle resolves at two resolutions."""
    while True:
        f = [rng.randint(-5, 5) for _ in range(degree)] + [1]
        if f[0] == 0:
            continue
        if not any(brute_factor_modp(f, q) == [tuple(c % q for c in f)]
                   for q in (2, 3, 5, 7)):
            continue
        real_roots = grid_real_root_count(f, 32)
        if real_roots == grid_real_root_count(f, 128):
            return f, real_roots


def _split_prime(f, rng):
    """A prime p <= 50 not dividing disc(f) (f squarefree mod p), small
    enough that trial division factors f mod p quickly."""
    degree = len(f) - 1
    while True:
        p = rng.choice(SPLIT_PRIMES)
        if p ** (degree // 2) > 3000:
            continue
        factors = brute_factor_modp(f, p)
        if len(set(factors)) == len(factors):
            return p


def _fields(rng, rounds, input_dir):
    """Per round 8 orders, 12 splits and 11 cheaper jobs: the median is
    a split of degree 5, the 90th percentile an order of degree 3."""
    jobs = []
    for r in range(rounds):
        for degree in (1, 2, 3, 4):
            for k in range(2):
                fields = ORDER_FIELDS[degree]
                field = fields[(2 * r + k) % len(fields)]
                a, b = _unimodular(field, rng), _unimodular(field, rng)
                jobs.append({"kind": "order",
                             "input": {"poly": list(field), "a": a, "b": b},
                             "argv": ["order", "--poly", json.dumps(list(field)),
                                      "--matrices", json.dumps({"a": a, "b": b})]})
        for degree in (3, 4, 5, 6):
            for _ in range(SPLITS_PER_DEGREE):
                f, real_roots = _irreducible_poly(degree, rng)
                p = _split_prime(f, rng)
                jobs.append({"kind": "split",
                             "input": {"poly": f, "p": p, "real_roots": real_roots},
                             "argv": ["field", "--poly", json.dumps(f),
                                      "--prime", str(p)]})
        for _ in range(4):
            p = rng.choice(SYMBOL_PRIMES)
            a, b = _symbol_entry(p, rng), _symbol_entry(p, rng)
            jobs.append({"kind": "symbol", "input": {"a": a, "b": b, "p": p},
                         "argv": ["algebra", "--symbol", str(a), str(b),
                                  "--prime", str(p)]})
        for low, high in ((3, 21), (22, 40)):
            n = rng.randint(low, high)
            jobs.append({"kind": "symbol", "input": {"dihedral": n},
                         "argv": ["algebra", "--dihedral", str(n)]})
        n1, depth = rng.randint(50, 500), rng.randint(10, 30)
        jobs.append({"kind": "bound", "input": {"n1": n1, "depth": depth},
                     "argv": ["tower", "--n1", str(n1), "--depth", str(depth)]})
        for _ in range(4):
            jobs.append({"kind": "bound", "call": "gs",
                         "args": {"d": rng.randint(60, 120)}})
    return jobs


def _symbol_entry(p, rng):
    """Nonzero integer with p-adic valuation 0 or 1, as the exhaustive
    isotropy oracle requires."""
    while True:
        x = rng.choice([-1, 1]) * rng.randint(1, 60)
        if x % (p * p):
            return x

"""Independent oracles used by the test suite.

Each oracle is deliberately naive (exhaustive enumeration, grid
sampling, textbook row reduction) and shares no code path with the
implementation it checks.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import factorial, lcm
import random


# ---------------------------------------------------------------------------
# Brute-force polynomial factorization over F_p by trial division

def _modp_trim(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _modp_divmod(f, g, p):
    inv = pow(g[-1], -1, p)
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    while len(r) >= len(g) and r:
        c = (r[-1] * inv) % p
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] = (r[i + d] - c * b) % p
        r = _modp_trim(r, p)
    return _modp_trim(q, p), r


def brute_factor_modp(f, p):
    """Full monic factorization by trial division against every monic
    polynomial of degree <= deg(f)/2, smallest degree first."""
    f = _modp_trim(f, p)
    lead_inv = pow(f[-1], -1, p)
    f = [(c * lead_inv) % p for c in f]
    factors = []
    d = 1
    while len(f) - 1 >= 2 * d:
        found = True
        while found and len(f) - 1 >= d:
            found = False
            for tail in product(range(p), repeat=d):
                g = list(tail) + [1]
                q, r = _modp_divmod(f, g, p)
                if not r:
                    if _is_irreducible_by_trial(g, p):
                        factors.append(tuple(g))
                        f = q
                        found = True
                        break
        d += 1
    if len(f) > 1:
        factors.append(tuple(f))
    factors.sort(key=lambda g: (len(g), g))
    return factors


def _is_irreducible_by_trial(g, p):
    deg = len(g) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            h = list(tail) + [1]
            if not _modp_divmod(g, h, p)[1]:
                return False
    return True


# ---------------------------------------------------------------------------
# Real root counting on a rational grid

def grid_real_root_count(f, steps_per_unit=8):
    """Sign changes of f on a fine grid across the Cauchy bound.

    Counts roots of squarefree f provided no two roots share a grid
    cell; steps_per_unit is chosen by callers so this holds for the
    sampled polynomials.  At x = k / s, f(x) has the sign of
    D s^d f(k / s) = sum D c_i s^(d - i) k^i for a common denominator
    D > 0 of the coefficients, evaluated by Horner in integers.
    """
    lead = abs(Fraction(f[-1]))
    bound = 1 + max((abs(Fraction(c)) / lead for c in f[:-1]), default=Fraction(0))
    n = int(bound * steps_per_unit) + 2
    coeffs = [Fraction(c) for c in f]
    den = lcm(*(c.denominator for c in coeffs))
    d = len(f) - 1
    scaled = [int(c * den) * steps_per_unit ** (d - i)
              for i, c in enumerate(coeffs)]

    def ev(k):
        acc = 0
        for c in reversed(scaled):
            acc = acc * k + c
        return acc

    vals = [ev(k) for k in range(-n, n + 1)]
    count = sum(1 for v in vals if v == 0)
    count += sum(1 for i in range(len(vals) - 1)
                 if vals[i] != 0 and vals[i + 1] != 0
                 and (vals[i] > 0) != (vals[i + 1] > 0))
    return count


# ---------------------------------------------------------------------------
# Smith normal form over Z (d_p oracle)

def smith_normal_form(rows):
    """Diagonal entries of the Smith normal form of an integer matrix."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    diag = []
    top = 0
    left = 0
    while top < m and left < n:
        # find a nonzero pivot
        piv = None
        for i in range(top, m):
            for j in range(left, n):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        a[top], a[i0] = a[i0], a[top]
        for r in a:
            r[left], r[j0] = r[j0], r[left]
        # reduce until pivot divides all entries in its row and column
        while True:
            changed = False
            for i in range(top + 1, m):
                if a[i][left]:
                    q = a[i][left] // a[top][left]
                    for j in range(left, n):
                        a[i][j] -= q * a[top][j]
                    if a[i][left]:
                        a[top], a[i] = a[i], a[top]
                        changed = True
            for j in range(left + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][left]
                    for i in range(top, m):
                        a[i][j] -= q * a[i][left]
                    if a[top][j]:
                        for i in range(m):
                            a[i][left], a[i][j] = a[i][j], a[i][left]
                        changed = True
            if not changed:
                break
        diag.append(abs(a[top][left]))
        top += 1
        left += 1
    return diag


def d_p_from_smith(rows, num_generators, p):
    """dim of F_p-homology from the Smith form of the relator matrix."""
    if not rows:
        return num_generators
    diag = smith_normal_form(rows)
    rank_p = sum(1 for d in diag if d % p != 0)
    return num_generators - rank_p


# ---------------------------------------------------------------------------
# Exhaustive local Hilbert symbol oracle

def exhaustive_hilbert_split(a, b, p):
    """Isotropy of a x^2 + b y^2 - z^2 over Q_p by primitive-zero search
    at Hensel-sufficient depth (p^3 odd, 2^5 dyadic).  a, b must be
    integers with val_p in {0, 1}."""
    k = 5 if p == 2 else 3
    mod = p ** k
    squares = {}
    unit_squares = set()
    for z in range(mod):
        r = (z * z) % mod
        squares.setdefault(r, z)
        if z % p:
            unit_squares.add(r)
    for x in range(mod):
        for y in range(mod):
            need = (a * x * x + b * y * y) % mod
            if x % p or y % p:
                if need in squares:
                    return True
            elif need in unit_squares:
                return True
    return False


# ---------------------------------------------------------------------------
# Homomorphism-counting subgroup oracle (index <= 2)

def count_index_le2_subgroups(num_generators, relators):
    """Index-1 plus index-2 subgroups of <X|R> via maps onto Z/2.

    Every index-2 subgroup is the kernel of a surjection to Z/2, and
    distinct subgroups come from distinct surjections."""
    count = 1  # whole group
    for bits in product((0, 1), repeat=num_generators):
        if not any(bits):
            continue
        ok = True
        for r in relators:
            total = sum(bits[abs(x) - 1] for x in r)
            if total % 2:
                ok = False
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Characteristic polynomial by interpolation (linalg.char_poly oracle)

def _det_by_elimination(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def char_poly_by_interpolation(matrix):
    """det(xI - M), constant term first: the determinant at x = 0..n
    by Gaussian elimination over Q, then Lagrange interpolation."""
    n = len(matrix)
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        y = _det_by_elimination(
            [[(i if r == c else 0) - matrix[r][c] for c in range(n)]
             for r in range(n)])
        basis = [Fraction(1)]  # prod over j != i of (x - j) / (i - j)
        for j in range(n + 1):
            if j != i:
                shifted = [Fraction(0)] + basis
                for k, b in enumerate(basis):
                    shifted[k] -= j * b
                basis = [b / (i - j) for b in shifted]
        for k, b in enumerate(basis):
            coeffs[k] += y * b
    return coeffs


# ---------------------------------------------------------------------------
# Cayley table by all n^2 products (counting.GroupTable oracle)

def group_table_by_products(elements, multiply):
    """(flat table, identity, inverses) from every product a b, with the
    identity and each inverse found by linear scans of the table."""
    elements = list(elements)
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    table = [index[multiply(a, b)] for a in elements for b in elements]
    identity = next(i for i in range(n)
                    if all(table[i * n + j] == j for j in range(n)))
    inverse = [next(j for j in range(n) if table[i * n + j] == identity)
               for i in range(n)]
    return table, identity, inverse


# ---------------------------------------------------------------------------
# All subgroups by one-generator extensions (counting.subgroup_census
# oracle): no conjugacy classes, closures by plain breadth-first search

def all_subgroups(table):
    """Set of every subgroup (frozensets of indices) of a group given by
    `table.n`, `table.identity` and `table.mul`.  Tier 1 uses it up to
    |G| = 336 (SL(2, 7)); tests/exhaustive_census.py --oracle up to
    PSL(2, 13), |G| = 1092, where it takes about two minutes.

    Closes the trivial subgroup under H -> <H, g>: every subgroup is
    reached by adding its generators one at a time, and <H, g> depends
    only on the coset Hg, so g runs over coset representatives."""
    trivial = frozenset([table.identity])
    gens = {trivial: ()}
    work = [trivial]
    while work:
        h = work.pop()
        covered = set(h)
        for g in range(table.n):
            if g in covered:
                continue
            covered.update(table.mul(x, g) for x in h)
            k = _bfs_closure(table, gens[h] + (g,), h)
            if k not in gens:
                gens[k] = gens[h] + (g,)
                work.append(k)
    return set(gens)


def _bfs_closure(table, gens, start):
    """Smallest set holding `start` and closed under right
    multiplication by `gens`: the subgroup <gens> when `start` is a
    subgroup of it."""
    seen = set(start)
    queue = list(seen)
    for x in queue:
        for s in gens:
            y = table.mul(x, s)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def index2_by_members(census):
    """The number of index-2 subgroups of the group a census stands for,
    counted one subgroup at a time off `class_of`, not off class sizes.
    A lifted census counts the subgroups of its PSL census: the
    preimages of those of index 2 there, and the odd-order lifts of
    those of odd order and index 1."""
    if census.quotient is None:
        return sum(1 for h in census.class_of if census.order == 2 * len(h))
    n = census.quotient.order
    return sum(1 for h in census.quotient.class_of
               if n == 2 * len(h) or (len(h) % 2 and n == len(h)))


# ---------------------------------------------------------------------------
# d(H) of a subgroup of a table (the census's generator tuples' oracles):
# an exhaustive search from above, the Burnside basis theorem from below

def element_order(table, g):
    k, x = 1, g
    while x != table.identity:
        x = table.mul(x, g)
        k += 1
    return k


def _power(table, g, e):
    x = table.identity
    for _ in range(e):
        x = table.mul(x, g)
    return x


def min_generators_by_search(table, h):
    """Exact d(H) for the subgroup `h` (a frozenset of indices).

    The cyclic test is exact, and seeded random pairs find most
    2-generated subgroups at once.  Otherwise the search is exhaustive:
    the subgroups generated by k elements of H are the <K, g> with K
    generated by k - 1 of them and g in H, and <K, g> depends only on
    the coset Kg, so k grows from 0 until H itself is reached."""
    size = len(h)
    if size == 1:
        return 0
    members = sorted(h)
    if any(element_order(table, g) == size for g in members):
        return 1
    trivial = (table.identity,)
    rng = random.Random(size * 1009 + members[0])
    for _ in range(min(300, size * size)):
        pair = (rng.choice(members), rng.choice(members))
        if len(_bfs_closure(table, pair, trivial)) == size:
            return 2
    layer = {frozenset(trivial): ()}  # subgroup -> generators
    k = 0
    while True:
        k += 1
        grown = {}
        for sub, gens in layer.items():
            covered = set()
            for g in members:
                if g in covered:
                    continue
                covered.update(table.mul(x, g) for x in sub)
                sub_g = _bfs_closure(table, gens + (g,), sub)
                if sub_g == h:
                    return k
                grown.setdefault(sub_g, gens + (g,))
        layer = grown


def burnside_lower_bound(table, h, gens):
    """max over primes p of log_p [H : [H, H] H^p], a lower bound on d(H)
    for H = `h` generated by `gens`: H / [H, H] H^p is elementary abelian
    of rank at most d(H) (Burnside basis theorem).  [H, H] H^p is the
    normal closure in H of the generators' p-th powers and pairwise
    commutators, since modulo those the generators commute and have
    order p."""
    def mul(*xs):
        acc = table.identity
        for x in xs:
            acc = table.mul(acc, x)
        return acc

    inv = {s: _power(table, s, element_order(table, s) - 1) for s in gens}
    commutators = [mul(inv[s], inv[t], s, t) for s, t in combinations(gens, 2)]
    order, best = len(h), 0
    for p in range(2, order + 1):
        if order % p or any(p % q == 0 for q in range(2, p)):
            continue
        normal = list(commutators) + [_power(table, s, p) for s in gens]
        while True:  # close under conjugation by the generators of H
            sub = _bfs_closure(table, normal, (table.identity,))
            outside = {mul(inv[s], x, s) for x in normal for s in gens} - sub
            if not outside:
                break
            normal += sorted(outside)
        index, k = order // len(sub), 0
        while index % p == 0:
            index //= p
            k += 1
        if index != 1:
            raise ArithmeticError(f"[H : [H, H] H^{p}] is not a power of {p}")
        best = max(best, k)
    return best


# ---------------------------------------------------------------------------
# Multigraphs (anything with num_vertices and an edge list of (u, v)
# pairs): isomorphism by backtracking over vertex bijections, girth and
# bridges by deleting one edge at a time, b1 of an edge subset by union-find

def _multiplicities(edges):
    mult = {}
    for u, v in edges:
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + 1
    return mult


def multigraphs_isomorphic(g1, g2):
    """Whether a bijection of vertices carries every loop and edge
    multiplicity of g1 onto the same multiplicity in g2.  Vertices
    0, 1, ... of g1 are mapped in turn, each pair checked as soon as
    both ends are mapped."""
    n = g1.num_vertices
    if n != g2.num_vertices or len(g1.edges) != len(g2.edges):
        return False
    m1, m2 = _multiplicities(g1.edges), _multiplicities(g2.edges)
    image = []
    used = [False] * n

    def fits(v, w):
        if m1.get((v, v), 0) != m2.get((w, w), 0):
            return False
        return all(m1.get((u, v), 0) == m2.get((min(x, w), max(x, w)), 0)
                   for u, x in enumerate(image))

    def extend(v):
        if v == n:
            return True
        for w in range(n):
            if not used[w] and fits(v, w):
                used[w] = True
                image.append(w)
                if extend(v + 1):
                    return True
                used[w] = False
                image.pop()
        return False

    return extend(0)


def girth_by_edge_deletion(g):
    """Shortest cycle length: the minimum over edges u-v of 1 + the BFS
    distance from u to v without that edge; a loop counts 1."""
    adj = [[] for _ in range(g.num_vertices)]
    for k, (u, v) in enumerate(g.edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    best = None
    for k, (u, v) in enumerate(g.edges):
        if u == v:
            return 1
        dist = {u: 0}
        queue = [u]
        for x in queue:
            for y, j in adj[x]:
                if j != k and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def bridges_by_edge_deletion(g):
    """{(u, v)}, u < v, for each edge whose deletion alone leaves the
    vertices reachable from 0 fewer than all."""
    out = set()
    for k, (u, v) in enumerate(g.edges):
        adj = [[] for _ in range(g.num_vertices)]
        for j, (a, b) in enumerate(g.edges):
            if j != k:
                adj[a].append(b)
                adj[b].append(a)
        seen = {0}
        queue = [0]
        for x in queue:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) < g.num_vertices:
            out.add((min(u, v), max(u, v)))
    return out


def edge_subgraph_betti(edges, indices):
    """(b1, number of components) of the subgraph formed by the chosen
    edges and their endpoints."""
    root = {}

    def find(x):
        root.setdefault(x, x)
        while root[x] != x:
            x = root[x]
        return x

    for i in indices:
        u, v = edges[i]
        root[find(u)] = find(v)
    comps = len({find(x) for x in list(root)})
    return len(indices) - len(root) + comps, comps


def is_closed_cycle(edges, cycle):
    """Whether the vertex list is a simple closed cycle of the multigraph
    with these edges: a loop, a parallel pair, or consecutive vertices
    (last to first too) joined by an edge."""
    mult = {}
    for e in edges:
        e = tuple(sorted(e))
        mult[e] = mult.get(e, 0) + 1
    if len(cycle) == 1:
        return mult.get((cycle[0], cycle[0]), 0) >= 1
    if len(set(cycle)) != len(cycle):
        return False
    if len(cycle) == 2:
        return mult.get(tuple(sorted(cycle)), 0) >= 2
    return all(tuple(sorted((cycle[k], cycle[k - 1]))) in mult
               for k in range(len(cycle)))



# ---------------------------------------------------------------------------
# Connected cubic multigraphs by closing the two 2-vertex graphs under
# both moves, one per canonical form in a global set
# (trivalent.generate_connected_trivalent oracle)

def _augment_edge_pair(graph, g, i, j):
    """Subdivide edges i, j and join the two new vertices."""
    n = g.num_vertices
    w, x = n, n + 1
    edges = [e for k, e in enumerate(g.edges) if k not in (i, j)]
    if i == j:
        a, b = g.edges[i]
        edges += [(a, w), (w, x), (x, b), (w, x)]
    else:
        a, b = g.edges[i]
        c, d = g.edges[j]
        edges += [(a, w), (w, b), (c, x), (x, d), (w, x)]
    return graph(n + 2, tuple(edges))


def _augment_lollipop(graph, g, i):
    """Subdivide edge i and hang a loop vertex off the new vertex."""
    n = g.num_vertices
    w, x = n, n + 1
    a, b = g.edges[i]
    edges = [e for k, e in enumerate(g.edges) if k != i]
    edges += [(a, w), (w, b), (w, x), (x, x)]
    return graph(n + 2, tuple(edges))


def cubic_multigraphs_by_global_forms(max_vertices, graph, canonical_form):
    """{V: [graphs]} for V <= max_vertices: every labelled child of
    every kept graph under both moves is canonicalised, and one graph
    is kept per form in a set shared by all parents.  `graph(V, edges)`
    builds a graph; `canonical_form(g)` is equal exactly on isomorphic
    graphs."""
    if max_vertices < 2:
        return {}
    theta = graph(2, ((0, 1), (0, 1), (0, 1)))
    dumbbell = graph(2, ((0, 0), (1, 1), (0, 1)))
    out = {2: [theta, dumbbell]}
    v = 2
    while v + 2 <= max_vertices:
        seen_labeled = set()
        seen_canonical = set()
        found = []
        for g in out[v]:
            ne = len(g.edges)
            children = []
            for i in range(ne):
                children.append(_augment_lollipop(graph, g, i))
                for j in range(i, ne):
                    children.append(_augment_edge_pair(graph, g, i, j))
            for child in children:
                if child.edges in seen_labeled:
                    continue
                seen_labeled.add(child.edges)
                form = canonical_form(child)
                if form not in seen_canonical:
                    seen_canonical.add(form)
                    found.append(child)
        v += 2
        out[v] = found
    return out

# ---------------------------------------------------------------------------
# Cheeger constants by every vertex subset (taugraphs.cheeger_exact
# oracle) and the boundary of one subset

def boundary_size(g, vertices):
    """Edges of g with exactly one end in `vertices`; loops never count."""
    inside = set(vertices)
    return sum(1 for u, v in g.edges if (u in inside) != (v in inside))


def cheeger_by_subsets(g):
    """min |dA| / min(|A|, |V - A|) over every proper subset A that
    contains vertex 0 (the boundary is symmetric under complement), in
    Gray-code order with incremental boundary updates."""
    n = g.num_vertices
    inc = [{} for _ in range(n)]
    for u, v in g.edges:
        if u == v:
            continue
        inc[u][v] = inc[u].get(v, 0) + 1
        inc[v][u] = inc[v].get(u, 0) + 1
    inc = [sorted(d.items()) for d in inc]

    in_a = [False] * n
    in_a[0] = True
    size = 1
    boundary = sum(m for _, m in inc[0])
    best_num, best_den = boundary, 1  # A = {0}
    for m in range(1, 1 << (n - 1)):
        v = (m & -m).bit_length()  # the Gray code flips bit v - 1
        if in_a[v]:
            in_a[v] = False
            size -= 1
            for u, mult in inc[v]:
                boundary += mult if in_a[u] else -mult
        else:
            in_a[v] = True
            size += 1
            for u, mult in inc[v]:
                boundary -= mult if in_a[u] else -mult
        if size == n:
            continue
        side = size if 2 * size <= n else n - size
        if boundary * best_den < best_num * side:
            best_num, best_den = boundary, side
    return Fraction(best_num, best_den)


# ---------------------------------------------------------------------------
# Euclid over Q in Fraction: resultants (polys.resultant oracle), Sturm
# counting (polys.sturm_count oracle) and the smallest positive Laplacian
# eigenvalue by bisection on it (taugraphs.lambda2_enclosure oracle)

def _trim(f):
    f = [Fraction(c) for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _mul_q(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _divmod_q(f, g):
    f, g = _trim(f), _trim(g)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[i + d] -= c * b
        f = _trim(f)
    return _trim(q), f


def fraction_resultant(f, g):
    """Res(f, g) by the Euclidean recursion
    Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r),
    r = f mod g, every coefficient a Fraction."""
    f, g = _trim(f), _trim(g)
    if not f or not g:
        return Fraction(0)
    a, b = len(f) - 1, len(g) - 1
    if a == 0:
        return f[0] ** b
    if b == 0:
        return g[0] ** a
    r = _divmod_q(f, g)[1]
    if not r:
        return Fraction(0)
    sign = -1 if (a * b) % 2 else 1
    return sign * g[-1] ** (a - len(r) + 1) * fraction_resultant(g, r)


def _fraction_sturm_chain(f):
    """Sturm chain of f / gcd(f, f'), every member in Fraction."""
    f = _trim(f)
    df = _trim([i * c for i, c in enumerate(f)][1:])
    a, b = f, df
    while b:
        a, b = b, _divmod_q(a, b)[1]
    if len(a) > 1:
        f = _divmod_q(f, a)[0]
    chain = [f, _trim([i * c for i, c in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        r = [-c for c in _divmod_q(chain[-2], chain[-1])[1]]
        if not r:
            break
        chain.append(r)
    return [s for s in chain if s]


def _fraction_sign_changes(chain, x):
    values = []
    for s in chain:
        acc = Fraction(0)
        for c in reversed(s):
            acc = acc * x + c
        if acc != 0:
            values.append(acc > 0)
    return sum(1 for i in range(len(values) - 1) if values[i] != values[i + 1])


def fraction_sturm_count(f, a, b):
    """Distinct real roots of f in (a, b], every chain value a Fraction."""
    chain = _fraction_sturm_chain(f)
    return (_fraction_sign_changes(chain, Fraction(a))
            - _fraction_sign_changes(chain, Fraction(b)))


def lambda2_by_fraction_sturm(g, precision_bits=30):
    """(lo, hi] holding the smallest positive Laplacian eigenvalue of a
    connected multigraph: det(xI - L) by interpolation, divided by x,
    then bisection from (0, 2 d_max + 1] (a loop adds 2 to a degree) at
    Fraction midpoints, counting roots in (lo, mid] with both ends
    evaluated."""
    n = g.num_vertices
    lap = [[0] * n for _ in range(n)]
    degree = [0] * n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
        if u != v:
            lap[u][v] -= 1
            lap[v][u] -= 1
            lap[u][u] += 1
            lap[v][v] += 1
    q = char_poly_by_interpolation(lap)[1:]
    chain = _fraction_sturm_chain(q)

    def count(a, b):
        return (_fraction_sign_changes(chain, a)
                - _fraction_sign_changes(chain, b))

    lo = Fraction(0)
    hi = Fraction(2 * max(degree) + 1)
    assert count(lo, hi) >= 1
    while hi - lo > Fraction(1, 2 ** precision_bits):
        mid = (lo + hi) / 2
        if count(lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Minimal polynomial of 2cos(2pi/n) by stripping D_n(x) - 2 and taking an
# exact square root (quatalg.two_cos_minpoly oracle)

def _exact_quotient(f, g):
    q, r = _divmod_q(f, g)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _square(f):
    out = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        for k, b in enumerate(f):
            out[i + k] += a * b
    return out


def _int_poly_sqrt(q):
    """Square root of a monic integer polynomial of even degree, by
    matching coefficients from the top down."""
    m = (len(q) - 1) // 2
    r = [0] * m + [1]
    for j in range(1, m + 1):
        acc = sum(r[i] * r[2 * m - j - i] for i in range(m - j + 1, m + 1)
                  if 2 * m - j - i <= m)
        num = q[2 * m - j] - acc
        if num % 2:
            raise ArithmeticError("not a perfect square")
        r[m - j] = num // 2
    if _square(r) != list(q):
        raise ArithmeticError("not a perfect square")
    return r


def two_cos_minpoly_by_square_root(n):
    """psi_n from D_n(x) - 2 = (x - 2)(x + 2)^[2|n] prod_{d|n, d>=3} psi_d^2,
    where D_n(2cos t) = 2cos(nt): divide out the known factors and take
    the exact square root of what is left."""
    if n <= 2:
        return [-2, 1] if n == 1 else [2, 1]
    d0, d1 = [2], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + d1
        for i, c in enumerate(d0):
            nxt[i] -= c
        d0, d1 = d1, nxt
    rem = list(d1)
    rem[0] -= 2
    rem = _exact_quotient(rem, [-2, 1])
    if n % 2 == 0:
        rem = _exact_quotient(rem, [2, 1])
    for d in range(3, n):
        if n % d == 0:
            rem = _exact_quotient(rem, _square(two_cos_minpoly_by_square_root(d)))
    return _int_poly_sqrt([int(c) for c in rem])


# ---------------------------------------------------------------------------
# Matrix closure by whole-matrix products (finquot.closure oracle)

def closure_by_products(ring, generators, projective=False):
    """The group that determinant-1 matrices (a, b, c, d) over `ring`
    generate, by breadth-first search with right multiplication by the
    generators and their inverses, each product a full 2x2 product; with
    `projective`, each element is the least of its matrices +-M."""
    n = ring.m

    def sign(m):
        return min(m, tuple(-v % n for v in m)) if projective else m

    moves = []
    for a, b, c, d in generators:
        moves += [(a, b, c, d), (d, -b % n, -c % n, a)]
    start = sign((1, 0, 0, 1))
    seen = {start}
    queue = [start]
    for x in queue:  # grows as new elements are found
        a, b, c, d = x
        for e, f, g, h in moves:
            y = sign(((a * e + b * g) % n, (a * f + b * h) % n,
                      (c * e + d * g) % n, (c * f + d * h) % n))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Whole-product enumeration in prod PSL(2, p_i)

def _proj(m, p):
    """The sign class of a 2x2 matrix mod p: min(M, -M), entries reduced."""
    m = tuple(v % p for v in m)
    return min(m, tuple(-v % p for v in m))


def _proj_mul(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    m = ((a * e + b * g) % p, (a * f + b * h) % p,
         (c * e + d * g) % p, (c * f + d * h) % p)
    return min(m, (-m[0] % p, -m[1] % p, -m[2] % p, -m[3] % p))


@cache
def psl2_by_scan(p):
    """PSL(2, p) as one matrix of each sign class of determinant 1, in
    sorted order; the p^4 scan runs once per prime."""
    return tuple(sorted({_proj(m, p) for m in product(range(p), repeat=4)
                         if (m[0] * m[3] - m[1] * m[2]) % p == 1}))


def product_closure(primes, generators, limit=None):
    """The subgroup of prod PSL(2, p_i) that tuples of matrices generate,
    by breadth-first search with right multiplication by the generators
    (in a finite group the monoid they generate is the subgroup); with a
    `limit`, the elements found by the time there are more than `limit`."""
    moves = [tuple(_proj(m, p) for m, p in zip(g, primes))
             for g in generators]
    start = tuple(_proj((1, 0, 0, 1), p) for p in primes)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for m in moves:
                y = tuple(_proj_mul(u, v, p) for u, v, p in zip(x, m, primes))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if limit is not None and len(seen) > limit:
                        return seen
        frontier = nxt
    return seen


def _conjugate(g, h, p):
    a, b, c, d = g
    return _proj_mul(_proj_mul(g, h, p), (d, -b, -c, a), p)


def product_normalizer_order(primes, a, b):
    """(|N(H)|, |H|) for H = <A, B> in prod PSL(2, p_i), testing every
    element g of the product: g normalizes H iff gAg^-1 and gBg^-1 lie
    in H."""
    H = product_closure(primes, [a, b])
    gens = [tuple(_proj(m, p) for m, p in zip(t, primes)) for t in (a, b)]
    count = 0
    for g in product(*map(psl2_by_scan, primes)):
        if all(tuple(_conjugate(gi, hi, p)
                     for gi, hi, p in zip(g, h, primes)) in H for h in gens):
            count += 1
    return count, len(H)


# ---------------------------------------------------------------------------
# Low-index subgroups by relator rescans (fpgroups.low_index_subgroups oracle)

def low_index_by_rescans(num_generators, relators, max_index):
    """(actions, nodes): the coset tables of every subgroup of index <=
    max_index of <x_1..x_k | relators>, each as a tuple of generator
    permutations, sorted by (index, row-major table), and the number of
    search nodes visited.

    Backtracking on the first undefined slot (coset, generator, forward
    before backward); after each definition every relator is rescanned
    at every coset, forwards and backwards, until no scan deduces
    anything.  A node is every call of the search, so the count is the
    one a node budget caps.
    """
    rels = [r for r in relators if r]
    fwd = [[None] for _ in range(num_generators)]
    bwd = [[None] for _ in range(num_generators)]
    undo, results = [], []
    ncosets, nodes = 1, 0

    def define(c, g, d):
        if fwd[g][c] is not None:
            return fwd[g][c] == d
        if bwd[g][d] is not None:
            return bwd[g][d] == c
        fwd[g][c], bwd[g][d] = d, c
        undo.append((c, g, d))
        return True

    def scan(r, c):
        """One of "ok", "bad", "deduced" or "incomplete"."""
        m = len(r)
        f, i = c, 0
        while i < m:
            x = r[i]
            nxt = fwd[abs(x) - 1][f] if x > 0 else bwd[abs(x) - 1][f]
            if nxt is None:
                break
            f, i = nxt, i + 1
        if i == m:
            return "ok" if f == c else "bad"
        e, j = c, m
        while j > i:  # never past the forward scan: that would miss clashes
            x = r[j - 1]
            nxt = bwd[abs(x) - 1][e] if x > 0 else fwd[abs(x) - 1][e]
            if nxt is None:
                break
            e, j = nxt, j - 1
        if j == i:
            return "ok" if f == e else "bad"
        if j == i + 1:
            x = r[i]
            ok = define(f, x - 1, e) if x > 0 else define(e, -x - 1, f)
            return "deduced" if ok else "bad"
        return "incomplete"

    def rescan():
        changed = True
        while changed:
            changed = False
            for r in rels:
                for c in range(ncosets):
                    state = scan(r, c)
                    if state == "bad":
                        return False
                    changed |= state == "deduced"
        return True

    def search():
        nonlocal ncosets, nodes
        nodes += 1
        slot = next(((c, g, forward) for c in range(ncosets)
                     for g in range(num_generators) for forward in (True, False)
                     if (fwd if forward else bwd)[g][c] is None), None)
        if slot is None:
            results.append(tuple(tuple(row) for row in fwd))
            return
        c, g, forward = slot
        for d in range(min(ncosets + 1, max_index)):
            mark, grew = len(undo), d == ncosets
            if grew:
                for row in fwd + bwd:
                    row.append(None)
                ncosets += 1
            if (define(c, g, d) if forward else define(d, g, c)) and rescan():
                search()
            while len(undo) > mark:
                cc, gg, dd = undo.pop()
                fwd[gg][cc] = bwd[gg][dd] = None
            if grew:
                ncosets -= 1
                for row in fwd + bwd:
                    row.pop()

    search()

    def rows(action):
        n = len(action[0]) if action else 1
        inverse = [[perm.index(c) for c in range(n)] for perm in action]
        return [[v for perm, inv in zip(action, inverse)
                 for v in (perm[c], inv[c])] for c in range(n)]

    results.sort(key=lambda a: (len(a[0]) if a else 1, rows(a)))
    return results, nodes


# ---------------------------------------------------------------------------
# Subgroups of a closed orientable surface group (Frobenius-Mednykh)

def _sn_character_degrees(n):
    """Degrees of the irreducible characters of S_n, by the hook length
    formula over the partitions of n."""
    def partitions(k, largest):
        if k == 0:
            yield ()
            return
        for first in range(min(k, largest), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    degrees = []
    for shape in partitions(n, n):
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                arm = row - j - 1
                leg = sum(1 for r in shape[i + 1:] if r > j)
                hooks *= arm + leg + 1
        degrees.append(factorial(n) // hooks)
    return degrees


def surface_subgroup_counts(genus, max_index):
    """Subgroups of index n = 1..max_index in the fundamental group of
    the closed orientable surface of the given genus.  Frobenius-Mednykh:
    |Hom(pi_1, S_n)| = n! sum_chi (n!/chi(1))^(2g-2); the transitive
    actions with a marked point then follow by the recursion
    t_n = h_n/(n-1)! - sum_{k<n} h_{n-k} t_k / (n-k)!."""
    hom = [1]
    for n in range(1, max_index + 1):
        fn = factorial(n)
        hom.append(fn * sum(Fraction(fn, deg) ** (2 * genus - 2)
                            for deg in _sn_character_degrees(n)))
    subs = [0]
    for n in range(1, max_index + 1):
        t = Fraction(hom[n], factorial(n - 1))
        for k in range(1, n):
            t -= Fraction(hom[n - k] * subs[k], factorial(n - k))
        subs.append(int(t))
    return subs[1:]

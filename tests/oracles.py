"""Independent oracles used by the test suite.

Each oracle is deliberately naive (exhaustive enumeration, grid
sampling, textbook row reduction) and shares no code path with the
implementation it checks.
"""

from fractions import Fraction
from itertools import product


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
    sampled polynomials.
    """
    lead = abs(Fraction(f[-1]))
    bound = 1 + max((abs(Fraction(c)) / lead for c in f[:-1]), default=Fraction(0))
    n = int(bound * steps_per_unit) + 2
    xs = [Fraction(k, steps_per_unit) for k in range(-n, n + 1)]

    def ev(x):
        acc = Fraction(0)
        for c in reversed(f):
            acc = acc * x + c
        return acc

    vals = [ev(x) for x in xs]
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
    `table.n`, `table.identity` and `table.mul`, for |G| <= 720.

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


# ---------------------------------------------------------------------------
# Multigraphs (anything with num_vertices and an edge list of (u, v)
# pairs): isomorphism by backtracking over vertex bijections, girth by
# deleting one edge at a time, b1 of an edge subset by union-find

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

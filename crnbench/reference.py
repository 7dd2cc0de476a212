"""Reference computations and output checks for the benchmark.

Everything here uses the standard library only (``fractions.Fraction``,
``math``) and imports nothing from crnlap, so a fault in crnlap's
algorithms cannot hide in its own check.  Library objects are only read:
vertex ids, edge labels, complexes, aux-tree edges and result entries.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- exact linear algebra (independent of crnlap.exact) ----------------------


def bareiss_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Bareiss fraction-free elimination with row swaps."""
    a = [list(map(Fraction, r)) for r in rows]
    n = len(a)
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis vectors of {w : rows w = 0} by exact reduced row echelon form."""
    r = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        piv = next((i for i in range(top, len(r)) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[top], r[piv] = r[piv], r[top]
        p = r[top][col]
        r[top] = [v / p for v in r[top]]
        for i in range(len(r)):
            if i != top and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[top])]
        pivots.append(col)
        top += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        w = [Fraction(0)] * ncols
        w[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            w[pc] = -r[i][free]
        basis.append(w)
    return basis


# -- graphs -------------------------------------------------------------------


def edge_laplacian(vertex_ids, labels) -> list[list[Fraction]]:
    """A_k from the edge list: A[d][s] += k, A[s][s] -= k for each s -> d."""
    idx = {v: i for i, v in enumerate(vertex_ids)}
    n = len(vertex_ids)
    a = [[Fraction(0)] * n for _ in range(n)]
    for (s, d), k in labels.items():
        a[idx[d]][idx[s]] += Fraction(k)
        a[idx[s]][idx[s]] -= Fraction(k)
    return a


def components(vertex_ids, edges) -> list[list[str]]:
    """Strongly connected components by mutual reachability, declaration order."""
    out = {v: [] for v in vertex_ids}
    for s, d in edges:
        out[s].append(d)

    def reach(v):
        seen, todo = {v}, [v]
        while todo:
            for w in out[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    r = {v: reach(v) for v in vertex_ids}
    comps, done = [], set()
    for v in vertex_ids:
        if v not in done:
            comp = [w for w in vertex_ids if w in r[v] and v in r[w]]
            done.update(comp)
            comps.append(comp)
    return comps


def kirchhoff_constants(vertex_ids, labels) -> dict[str, Fraction]:
    """K_v = det of -A_k on v's component with v's row and column removed."""
    a = edge_laplacian(vertex_ids, labels)
    idx = {v: i for i, v in enumerate(vertex_ids)}
    out = {}
    for comp in components(vertex_ids, list(labels)):
        for v in comp:
            keep = [idx[w] for w in comp if w != v]
            out[v] = bareiss_det([[-a[i][j] for j in keep] for i in keep])
    return out


def frac(v) -> Fraction:
    """An exact number from a library value or a CLI JSON number."""
    if isinstance(v, dict):  # CLI number object {"num": p, "den": q}
        return Fraction(v["num"], v["den"])
    return Fraction(v)


def check_tree_constants(vertex_ids, labels, values) -> list[str]:
    """values[i] (vertex order) must equal the Kirchhoff minors; A_k K = 0."""
    problems = []
    ref = kirchhoff_constants(vertex_ids, labels)
    k = [frac(values[i]) for i in range(len(vertex_ids))]
    for i, v in enumerate(vertex_ids):
        if k[i] != ref[v]:
            problems.append(f"tree constant of {v} is {k[i]}, Kirchhoff minor is {ref[v]}")
    a = edge_laplacian(vertex_ids, labels)
    for i, row in enumerate(a):
        if sum(x * y for x, y in zip(row, k)) != 0:
            problems.append(f"(A_k K)[{vertex_ids[i]}] != 0")
            break
    return problems


def check_core(vertex_ids, labels, consts, aux_edges, aux_kind, core) -> list[str]:
    """A_k diag(K) = -I C I^T exactly, invertible blocks, kind-specific signs."""
    problems = []
    n, m = len(vertex_ids), len(aux_edges)
    idx = {v: i for i, v in enumerate(vertex_ids)}
    c = [[frac(core[r][s]) for s in range(m)] for r in range(m)]
    k = [frac(consts[i]) for i in range(n)]
    a = edge_laplacian(vertex_ids, labels)
    lhs = [[a[i][j] * k[j] for j in range(n)] for i in range(n)]
    ends = [(idx[s], idx[d]) for s, d in aux_edges]
    for r, (rs, rd) in enumerate(ends):
        for s, (ss, sd) in enumerate(ends):
            v = c[r][s]
            if v:
                # add I[u,r] C[r,s] I[w,s], with I = -1 at a tail, +1 at a head
                lhs[rs][ss] += v
                lhs[rs][sd] -= v
                lhs[rd][ss] -= v
                lhs[rd][sd] += v
    if any(x != 0 for row in lhs for x in row):
        problems.append("A_k diag(K) + I C I^T is not zero")
    comp_of = {}
    for ci, comp in enumerate(components(vertex_ids, list(labels))):
        for v in comp:
            comp_of[v] = ci
    blocks: dict[int, list[int]] = {}
    for r, (s, _) in enumerate(aux_edges):
        blocks.setdefault(comp_of[s], []).append(r)
    for ci, rows in blocks.items():
        if bareiss_det([[c[r][s] for s in rows] for r in rows]) == 0:
            problems.append(f"core block of component {ci} is singular")
    if aux_kind == "chain":
        if any(x < 0 for row in c for x in row):
            problems.append("chain core has a negative entry")
        if any(c[r][r] <= 0 for r in range(m)):
            problems.append("chain core diagonal is not positive")
    elif aux_kind == "star":
        for r, (i, root) in enumerate(aux_edges):
            for s, (j, root2) in enumerate(aux_edges):
                if root2 != root:
                    continue
                want = -a[idx[i]][idx[j]] * k[idx[j]]
                if c[r][s] != want:
                    problems.append(f"star core [{i},{j}] is {c[r][s]}, closed form {want}")
                    return problems
    return problems


def check_cycles(vertex_ids, labels, consts, terms) -> list[str]:
    """Positive coefficients whose unit cycle Laplacians rebuild A_k diag(K)."""
    n = len(vertex_ids)
    idx = {v: i for i, v in enumerate(vertex_ids)}
    a = edge_laplacian(vertex_ids, labels)
    k = [frac(consts[i]) for i in range(n)]
    total = [[Fraction(0)] * n for _ in range(n)]
    for cycle_edges, coeff in terms:
        coeff = frac(coeff)
        if coeff <= 0:
            return [f"cycle coefficient {coeff} is not positive"]
        for s, d in cycle_edges:
            total[idx[d]][idx[s]] += coeff
            total[idx[s]][idx[s]] -= coeff
    if any(total[i][j] != a[i][j] * k[j] for i in range(n) for j in range(n)):
        return ["cycle Laplacians do not rebuild A_k diag(K)"]
    return []


def check_float_core(exact_core, float_core, exact_consts, float_consts) -> list[str]:
    """The float copy's tree constants and core agree with the exact ones."""
    problems = []
    for i, (e, f) in enumerate(zip(exact_consts, float_consts)):
        if abs(float(f) - float(e)) > 1e-9 * float(e):
            problems.append(f"float tree constant {i} is {f}, exact {e}")
    scale = max((abs(float(v)) for row in exact_core for v in row), default=0.0)
    for r, row in enumerate(exact_core):
        for s, v in enumerate(row):
            if abs(float(float_core[r][s]) - float(v)) > 1e-9 * scale:
                problems.append(f"float core [{r},{s}] is {float_core[r][s]}, exact {v}")
                return problems
    return problems


# -- mass-action networks ---------------------------------------------------


class NetworkRef:
    """Plain-data view of a network: vertex ids, labels, complexes by vertex."""

    def __init__(self, species, vertex_ids, labels, complexes):
        self.species = list(species)
        self.vertex_ids = list(vertex_ids)
        self.labels = {e: Fraction(k) for e, k in labels.items()}
        self.y = {v: [int(c) for c in complexes[v]] for v in vertex_ids}
        self.reactions = [
            [yd - ys for ys, yd in zip(self.y[s], self.y[d])] for s, d in self.labels
        ]
        self.conservation = nullspace(self.reactions, len(self.species))

    def flows(self, x) -> dict:
        """Exact edge flows k_e x^{y(source)} for a state of Fractions."""
        out = {}
        for (s, d), k in self.labels.items():
            mono = Fraction(1)
            for xi, e in zip(x, self.y[s]):
                if e:
                    mono *= xi ** e
            out[(s, d)] = k * mono
        return out

    def off_manifold(self, x) -> bool:
        """Exact test A_k x^Y != 0 at the float state x (converted exactly)."""
        xf = [Fraction(v) for v in x]
        balance = {v: Fraction(0) for v in self.vertex_ids}
        for (s, d), flow in self.flows(xf).items():
            balance[s] -= flow
            balance[d] += flow
        return any(v != 0 for v in balance.values())

    def rhs(self, x) -> tuple[list[float], list[float]]:
        """f(x) by the edge sum, in floats, with a per-species magnitude scale."""
        f = [0.0] * len(self.species)
        mag = [0.0] * len(self.species)
        logs = [math.log(v) for v in x]
        for (s, d), k in self.labels.items():
            flow = float(k) * math.exp(sum(e * lx for e, lx in zip(self.y[s], logs)))
            for i, (ys, yd) in enumerate(zip(self.y[s], self.y[d])):
                f[i] += flow * (yd - ys)
                mag[i] += flow * abs(yd - ys)
        return f, mag

    def lyapunov(self, x, x_star) -> float:
        return sum(v * (math.log(v / s) - 1.0) + s for v, s in zip(x, x_star))

    def conserved(self, x) -> list[float]:
        return [sum(float(w_i) * v for w_i, v in zip(w, x)) for w in self.conservation]


def check_certificate(ref: NetworkRef, x, x_star, value, verdict) -> list[str]:
    """value = ln(x/x*) . f(x); verdict strict_decrease iff A_k x^Y != 0."""
    problems = []
    off = ref.off_manifold(x)
    try:
        f, mag = ref.rhs(x)
    except OverflowError:
        # The exact value lies beyond float range; only its sign can be
        # checked: strictly negative off the manifold.
        if not (value < 0 if off else value == 0):
            problems.append(f"certificate value {value!r} has the wrong sign")
    else:
        z = [math.log(a / b) for a, b in zip(x, x_star)]
        want = sum(zi * fi for zi, fi in zip(z, f))
        scale = sum(abs(zi) * mi for zi, mi in zip(z, mag))
        if not (math.isfinite(value) and abs(value - want) <= 1e-8 * scale):
            problems.append(f"certificate value {value!r}, reference {want!r}")
    expected = "strict_decrease" if off else "equilibrium"
    if verdict != expected:
        problems.append(f"certificate verdict {verdict!r}, expected {expected!r}")
    return problems


def check_membership(member_f, member_neg_f) -> list[str]:
    """Off the manifold f(x) lies in the inclusion and -f(x) does not."""
    problems = []
    if member_f is not True:
        problems.append("f(x) reported outside the differential inclusion")
    if member_neg_f is not False:
        problems.append("-f(x) reported inside the differential inclusion")
    return problems


def check_birch(ref: NetworkRef, x_hat, x_prime, x_star) -> list[str]:
    """x_hat is in x_prime's stoichiometric class and ln(x_hat/x*) is orthogonal to S."""
    problems = []
    for w, a, b in zip(ref.conservation, ref.conserved(x_hat), ref.conserved(x_prime)):
        scale = sum(abs(float(wi)) * v for wi, v in zip(w, x_prime))
        if abs(a - b) > 1e-9 * scale:
            problems.append(f"Birch point leaves the class: {a!r} vs {b!r}")
            break
    z = [math.log(a / b) for a, b in zip(x_hat, x_star)]
    zscale = max(1.0, max(abs(v) for v in z))
    for r in ref.reactions:
        if abs(sum(ri * zi for ri, zi in zip(r, z))) > 1e-9 * zscale * sum(map(abs, r)):
            problems.append("ln(x_hat/x*) is not orthogonal to S")
            break
    return problems


def check_trajectory(ref: NetworkRef, states, x_star) -> list[str]:
    """Lyapunov value never increases and conservation laws stay constant."""
    problems = []
    prev = ref.lyapunov(states[0], x_star)
    c0 = ref.conserved(states[0])
    mass = sum(states[0])
    for x in states[1:]:
        now = ref.lyapunov(x, x_star)
        if now > prev + 1e-9 * mass:
            problems.append(f"Lyapunov value rises from {prev!r} to {now!r}")
            break
        prev = now
        for a, b in zip(ref.conserved(x), c0):
            if abs(a - b) > 1e-9 * mass:
                problems.append("a conservation law drifts along the trajectory")
                return problems
    return problems


def check_cbe(ref: NetworkRef, x) -> list[str]:
    """A_k x^Y = 0 relative to the largest edge flow (float evaluation)."""
    logs = [math.log(v) for v in x]
    balance = {v: 0.0 for v in ref.vertex_ids}
    top = 0.0
    for (s, d), k in ref.labels.items():
        flow = float(k) * math.exp(sum(e * lx for e, lx in zip(ref.y[s], logs)))
        balance[s] -= flow
        balance[d] += flow
        top = max(top, flow)
    if max(abs(v) for v in balance.values()) > 1e-8 * top:
        return ["witness is not complex balanced"]
    return []

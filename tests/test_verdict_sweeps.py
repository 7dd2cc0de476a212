"""Exact verdicts close to the equilibrium manifold and close to ties.

For a complex-balanced x* and s = x^Y / K, the certificate's entries on an
aux edge a -> b are a_j = ln(s_b / s_a) and b_j = s_b - s_a, which have the
same sign, and f_k(x) lies in the interior of the polar cone at every state
off the manifold.  Two seeded sweeps over planted networks at exact states,
where rounding in x cannot move a verdict, check that exact mode reports
just that:

- `certificate_states`: x_i = x*_i (1 + sigma_i j 10^-k) for k in 6, 10,
  13, 15 and j = 1..9; the verdict is `strict_decrease` where exact
  `is_cbe` rejects x and `equilibrium` where it accepts it, never `failure`;
- `near_tie_states`: two-species states where two scaled monomials of one
  component are a relative 1e-12 or 1e-15 from a tie; f_k(x) is a member
  of the inclusion and -f_k(x) is not.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from crnlap import bdi_report, decrease_certificate, is_cbe, mass_action_rhs

from generators import random_planted_network


def certificate_states():
    """(k, net, x*, x) over 200 planted networks (`random.Random(7)`); the
    signs sigma_i come from `random.Random(11)` in the order k, network, j,
    species."""
    rng = random.Random(7)
    nets = [random_planted_network(rng) for _ in range(200)]
    signs = random.Random(11)
    for k in (6, 10, 13, 15):
        for net, x_star in nets:
            for j in range(1, 10):
                step = Fraction(j, 10**k)
                yield k, net, x_star, [v * (1 + signs.choice((-1, 1)) * step) for v in x_star]


def near_tie_states(eps: Fraction):
    """(net, x) for 300 two-species planted networks (`random.Random(3)`,
    which also shuffles the candidate pairs and draws x_j): for a pair (a, b)
    of one component with y_b - y_a = +-1 in species i, x_j = p / q with p, q
    uniform on 1..40 and x_i the exact value that makes s_b / s_a = 1 + eps."""
    rng = random.Random(3)
    found = 0
    while found < 300:
        net, _ = random_planted_network(rng, n_species_max=2)
        g, y = net.graph, net.complexes
        pairs = [
            (a, b, i)
            for ci in range(g.n_components)
            for a, b in itertools.permutations(g.component_vertices(ci), 2)
            for i in range(net.n_species)
            if abs(y[i, g.index[b]] - y[i, g.index[a]]) == 1
        ]
        if net.n_species != 2 or not pairs:
            continue
        found += 1
        rng.shuffle(pairs)
        a, b, i = pairs[0]
        j = 1 - i
        x = [None, None]
        x[j] = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        d = y[:, g.index[b]] - y[:, g.index[a]]
        k = net.tree_constants().values
        power = (1 + eps) * k[g.index[b]] / (k[g.index[a]] * x[j] ** int(d[j]))
        x[i] = power if d[i] == 1 else 1 / power
        yield net, x


def test_certificate_verdicts_near_the_manifold():
    wrong = []
    for k, net, x_star, x in certificate_states():
        want = "equilibrium" if is_cbe(net, x).balanced else "strict_decrease"
        got = decrease_certificate(net, x, x_star).verdict
        if got != want:
            wrong.append((k, x, got))
    assert wrong == []


@pytest.mark.parametrize("eps", [Fraction(1, 10**12), Fraction(1, 10**15)], ids=["1e-12", "1e-15"])
def test_bdi_membership_near_ties(eps):
    wrong, checked = [], 0
    for net, x in near_tie_states(eps):
        if is_cbe(net, x).balanced:
            continue
        checked += 1
        f = mass_action_rhs(net, x)
        if not bdi_report(net, x, f).member or bdi_report(net, x, -f).member:
            wrong.append(x)
    assert checked > 250 and wrong == []

"""Output checks that do not trust the program's own audit.

Everything here is recomputed from the market's raw fields (quotas, regions,
priorities, preference lists) with the benchmark's own arithmetic, following
the README's definitions. The checks compare against properties the method
must have and against this recomputation, never against stored outputs.

Each check returns a list of problems; an empty list means the outputs hold.
"""

from __future__ import annotations

import random
from itertools import product

CATEGORIES = ("resource", "seat", "direct_envy", "indirect_envy")
CUTOFF_MECHANISMS = ("irc", "imc", "idc", "iuc")


def _counts(m, contracts):
    college = [0] * m.n_colleges
    resource = [0] * (m.n_resources + 1)
    for _, c, r in contracts:
        college[c] += 1
        resource[r] += 1
    return college, resource


def feasible(m, contracts) -> bool:
    """College quotas hold, and each non-empty resource stays within its
    quota and is used only at colleges of its region."""
    students = [s for s, _, _ in contracts]
    if len(set(students)) != len(students):
        return False
    college, resource = _counts(m, contracts)
    if any(k > q for k, q in zip(college, m.college_quotas)):
        return False
    if any(resource[r] > m.resource_quotas[r - 1] for r in range(1, m.n_resources + 1)):
        return False
    return all(r == 0 or c in m.regions[r - 1] for _, c, r in contracts)


def individually_rational(m, contracts) -> bool:
    """Every matched student listed her own (college, resource) pair."""
    return all((c, r) in m.preferences[s] for s, c, r in contracts)


def blocking_counts(m, contracts) -> dict:
    """The four counts of README "Blocking taxonomy", from the definitions.

    A contract (s, c, r) that s strictly prefers to her assignment is a waste
    block when s alone re-seated onto it stays feasible: `resource` kind if s
    already sits at c, `seat` kind otherwise. It is an envy block when, for
    some victim y at c ranked below s, removing s's contract and y and adding
    (s, c, r) stays feasible; the envy is direct when r is empty or some
    victim holds r, indirect otherwise. One contract may count once as waste
    and once as envy.
    """
    assign = {s: (c, r) for s, c, r in contracts}
    college, resource = _counts(m, contracts)
    rank = [{s: i for i, s in enumerate(p)} for p in m.priorities]
    roster = [[] for _ in range(m.n_colleges)]
    for s, c, r in contracts:
        roster[c].append((s, r))

    def fits(c, r, leaving):
        """Does adding (c, r) fit once the `leaving` (college, resource)
        contracts are removed?"""
        if college[c] - sum(lc == c for lc, _ in leaving) + 1 > m.college_quotas[c]:
            return False
        if r == 0:
            return True
        if c not in m.regions[r - 1]:
            return False
        used = resource[r] - sum(lr == r for _, lr in leaving)
        return used + 1 <= m.resource_quotas[r - 1]

    counts = dict.fromkeys(CATEGORIES, 0)
    for s, prefs in enumerate(m.preferences):
        cur = assign.get(s)
        own = [cur] if cur else []
        better = prefs[: prefs.index(cur)] if cur else prefs
        for c, r in better:
            if fits(c, r, own):
                counts["resource" if cur and cur[0] == c else "seat"] += 1
            victims = [
                rt
                for t, rt in roster[c]
                if rank[c][s] < rank[c][t] and fits(c, r, own + [(c, rt)])
            ]
            if victims:
                direct = r == 0 or r in victims
                counts["direct_envy" if direct else "indirect_envy"] += 1
    return counts


def count_feasible_ir(m) -> int:
    """Brute force: try every way of giving each student one of her listed
    pairs or nothing, and count the feasible assignments."""
    options = [[None, *prefs] for prefs in m.preferences]
    total = 0
    for choice in product(*options):
        contracts = [(s, *p) for s, p in enumerate(choice) if p is not None]
        if feasible(m, contracts):
            total += 1
    return total


def _contracts(mu):
    return [tuple(x) for x in mu]


def check_matching(m, mu, counts, label) -> list[str]:
    """Feasibility, individual rationality and the four counts of mu."""
    xs = _contracts(mu)
    if not feasible(m, xs):
        return [f"{label}: matching is infeasible"]
    if not individually_rational(m, xs):
        return [f"{label}: matching is not individually rational"]
    mine = blocking_counts(m, xs)
    if mine != dict(counts):
        return [f"{label}: counts {dict(counts)} != recomputed {mine}"]
    return []


def check_rows(cfg, results) -> list[str]:
    """Properties every results row must have, whatever the market."""
    bad = []
    cells = sorted((r.replica, r.mechanism) for r in results)
    want = sorted((i, mech) for i in range(cfg.replicas) for mech in cfg.mechanisms)
    if cells != want:
        bad.append(f"{cfg.name}: results do not hold each cell exactly once")
    for r in results:
        k = r.counts
        where = f"{cfg.name} replica {r.replica} {r.mechanism}"
        if r.total != sum(k[cat] for cat in CATEGORIES):
            bad.append(f"{where}: total {r.total} is not the sum of {k}")
        if r.mechanism in CUTOFF_MECHANISMS and k["direct_envy"]:
            bad.append(f"{where}: direct envy {k['direct_envy']}")
        if r.mechanism == "iuc" and (
            k["direct_envy"] or k["indirect_envy"] or k["resource"]
        ):
            bad.append(f"{where}: envy or resource waste {k}")
        if r.mechanism in ("rsd", "csd") and (k["seat"] or k["resource"]):
            bad.append(f"{where}: waste {k}")
        if (
            r.mechanism == "csd"
            and r.alignment == "student_and_college_full"
            and r.total
        ):
            bad.append(f"{where}: total {r.total} under common priorities")
    return bad


def recheck_cells(cfg, results, seed: int) -> list[str]:
    """Recompute every mechanism's row on one seeded replica of cfg."""
    from capmatch.generate import generate_market
    from capmatch.mechanisms import MECHANISMS

    if not cfg.replicas:
        return []
    replica = random.Random(seed).randrange(cfg.replicas)
    rows = [r for r in results if r.replica == replica]
    market = generate_market(cfg.market, seed=rows[0].market_seed)
    bad = []
    for r in rows:
        mu = MECHANISMS[r.mechanism](market, seed=r.mech_seed).matching
        label = f"{cfg.name} replica {replica} {r.mechanism}"
        bad += check_matching(market, mu, r.counts, label)
    return bad


def check_census(m, result, mech_seed: int, label: str) -> list[str]:
    """The census holds exactly the feasible IR matchings and its reports
    agree with the recomputed counts. irc, imc and idc land in its
    direct-envy stable set, iuc in its envy-free set, rsd in its Pareto set.
    (iuc is a cutoff mechanism too, but it only promises envy-freeness.)"""
    from capmatch.mechanisms import MECHANISMS

    bad = []
    n = count_feasible_ir(m)
    if len(result.matchings) != n or len(set(result.matchings)) != n:
        bad.append(f"{label}: census has {len(result.matchings)} matchings, "
                   f"brute force counts {n}")
    for i, (mu, rep) in enumerate(zip(result.matchings, result.reports)):
        bad += check_matching(m, mu, rep.counts, f"{label} matching {i}")
        if len(bad) > 5:
            return bad
    des = set(result.set_of("direct_envy_stable"))
    homes = {
        "irc": des,
        "imc": des,
        "idc": des,
        "iuc": set(result.set_of("envy_free")),
        "rsd": set(result.set_of("pareto_efficient")),
    }
    for mech, home in homes.items():
        mu = MECHANISMS[mech](m, seed=mech_seed).matching
        if mu not in home:
            bad.append(f"{label}: {mech} output {mu} is outside its set")
    return bad


def check_fixtures() -> list[str]:
    """The paper's statements about the bundled fixtures."""
    from capmatch.fixtures import load_fixture
    from capmatch.oracle import census

    bad = []
    for name in ("example1", "prop2", "prop4"):
        m = load_fixture(name)
        result = census(m)
        bad += check_census(m, result, 0, name)
        des = result.direct_envy_stable
        if name == "example1" and result.stable:
            bad.append("example1: a stable matching exists")
        if name == "prop2" and len(des) != 1:
            bad.append(f"prop2: {len(des)} direct-envy stable matchings, want 1")
        if name == "prop4" and (
            len(des) != 2 or set(des) & set(result.envy_free)
        ):
            bad.append("prop4: want exactly two direct-envy stable matchings, "
                       "neither envy-free")
    return bad

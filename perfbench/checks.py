"""Independent checks of juntaleap outputs.

Each function recomputes what it checks with its own code (plain
enumeration over the problem table, closure-based leap/cover) or tests a
property the method must have. None of them calls juntaleap, so a fault in
the program cannot hide in the check. Each returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9  # the detection tolerance and the witness agreement tolerance


# ---------------------------------------------------------------------------
# Set systems: leap and cover from the definitions
# ---------------------------------------------------------------------------


def _masks(p, sets):
    return np.array([sum(1 << (c - 1) for c in s) for s in sets], dtype=np.int64).reshape(-1)


def _popcount(masks):
    masks = np.asarray(masks, dtype=np.int64)
    count = np.zeros_like(masks)
    for bit in range(63):
        count += (masks >> bit) & 1
    return count


def _closure(masks, k):
    """Union reached by repeatedly adding members with at most k new coordinates."""
    covered = 0
    while True:
        new = _popcount(masks & ~covered)
        take = (new > 0) & (new <= k)
        if not take.any():
            return covered
        covered |= int(np.bitwise_or.reduce(masks[take]))


def leap_cover(p, sets):
    """(leap, cover, rel_leap, rel_cover) of a set system over [p].

    leap is the least k whose k-step closure covers [p]; cover is the worst
    coordinate's smallest containing member. None stands for infinity
    (support misses part of [p]) and for the undefined relative notions of
    an empty system.
    """
    full = (1 << p) - 1
    masks = _masks(p, sets)
    sizes = _popcount(masks)
    support = int(np.bitwise_or.reduce(masks)) if masks.size else 0

    def least_k(target):
        for k in range(1, p + 1):
            if _closure(masks, k) & target == target:
                return k
        return None

    def worst_cover(coords):
        worst = 0
        for i in coords:
            holding = sizes[(masks >> (i - 1)) & 1 == 1]
            if holding.size == 0:
                return None
            worst = max(worst, int(holding.min()))
        return worst

    lp = least_k(full) if support == full else None
    cv = worst_cover(range(1, p + 1))
    if support == 0:
        return lp, cv, None, None
    in_support = [i for i in range(1, p + 1) if support >> (i - 1) & 1]
    return lp, cv, least_k(support), worst_cover(in_support)


def _as_set_family(sets):
    return {tuple(sorted(s)) for s in sets}


def _num(x):
    return None if x == "infinity" else x


def check_exponent_report(p, model, entry):
    """Reported leap/cover/rel_* of one model equal the recomputed ones."""
    got = tuple(_num(entry[k]) for k in ("leap", "cover", "rel_leap", "rel_cover"))
    want = leap_cover(p, entry["sets"])
    if got != want:
        return [f"{model}: (leap, cover, rel_leap, rel_cover) reported {got}, recomputed {want}"]
    return []


def check_loss_dichotomy(models):
    """The abstract's dichotomy: DLQ[squared] sees what CSQ sees, DLQ[abs]
    what SQ sees, and every CSQ-detectable set is SQ-detectable."""
    problems = []
    csq, sq = models.get("CSQ"), models.get("SQ")
    if csq is None or sq is None:
        return ["CSQ and SQ reports are both required"]
    if not _as_set_family(csq["sets"]) <= _as_set_family(sq["sets"]):
        problems.append("C_CSQ is not contained in C_SQ")
    for dlq, ref, ref_name in (("DLQ[squared]", csq, "CSQ"), ("DLQ[abs]", sq, "SQ")):
        if dlq in models and models[dlq]["leap"] != ref["leap"]:
            problems.append(f"leap({dlq}) = {models[dlq]['leap']} differs from leap({ref_name}) = {ref['leap']}")
    return problems


def check_csq_sets(entry, expected):
    """C_CSQ equals the expected family: for a hypercube junta the sets of
    its nonzero non-constant Fourier coefficients (flip noise only scales
    them by 1 - 2 rate)."""
    want = _as_set_family(expected)
    got = _as_set_family(entry["sets"])
    if got != want:
        return [f"C_CSQ has {len(got)} sets, {len(want)} expected; first difference {sorted(got ^ want)[:1]}"]
    return []


# ---------------------------------------------------------------------------
# Problem tables and exact expectations by enumeration
# ---------------------------------------------------------------------------


class Table:
    """A junta problem enumerated apart from the program: one row per support
    assignment (coordinate 1 fastest), its probability, and P(y = a | row)."""

    def __init__(self, p, values, probs, labels, cond):
        self.p = p
        self.values = np.asarray(values, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        self.cond = np.asarray(cond, dtype=float)
        nx = self.values.size
        rows = np.arange(nx**p)
        self.sym = np.stack([(rows // nx**k) % nx for k in range(p)])  # (p, rows)
        self.weight = np.prod(self.probs[self.sym], axis=0)

    @classmethod
    def hypercube(cls, p, fourier):
        """Table of the noiseless h(z) = sum_U c_U prod_{i in U} z_i."""
        values = np.array([1.0, -1.0])
        rows = np.arange(2**p)
        z = values[np.stack([(rows >> k) & 1 for k in range(p)])]  # (p, rows)
        h = np.zeros(2**p)
        for key, val in fourier.items():
            coords = [] if key in ("", "const") else [int(c) for c in key.split(",")]
            term = np.full(2**p, float(val))
            for c in coords:
                term *= z[c - 1]
            h += term
        labels = np.unique(h)
        cond = np.zeros((2**p, labels.size))
        cond[rows, np.searchsorted(labels, h)] = 1.0
        return cls(p, values, [0.5, 0.5], labels, cond)

    def coord(self, i):
        return self.values[self.sym[i - 1]]

    def expectation(self, t_label, t_coords):
        """E[T(y) prod_i T_i(z_i)] with T over the labels and T_i over the atoms."""
        factor = self.weight.copy()
        for i, tab in t_coords.items():
            factor *= np.asarray(tab, dtype=float)[self.sym[int(i) - 1]]
        return float(factor @ (self.cond @ np.asarray(t_label, dtype=float)))

    def label_norm(self, t_label):
        mu_y = self.weight @ self.cond
        return float(np.sqrt(mu_y @ np.asarray(t_label, dtype=float) ** 2))

    def atom_norm(self, tab):
        return float(np.sqrt(self.probs @ np.asarray(tab, dtype=float) ** 2))


def check_witnesses(table, report, picks):
    """Sampled witnesses: beta re-evaluated by enumeration agrees to TOL,
    exceeds the tolerance, and the test functions have unit null norm."""
    problems = []
    wits = report["witnesses"]
    for key in picks:
        w = wits[key]
        beta = table.expectation(w["t_label"], w["t_coords"])
        if abs(beta - w["beta"]) > TOL:
            problems.append(f"{report['model']} witness {key}: beta {w['beta']!r}, enumeration {beta!r}")
        if not abs(beta) > report["tol"]:
            problems.append(f"{report['model']} witness {key}: |beta| = {abs(beta):.3g} not above tol")
        norm = table.label_norm(w["t_label"])
        for tab in w["t_coords"].values():
            norm *= table.atom_norm(tab)
            if abs(np.asarray(tab, dtype=float) @ table.probs) > TOL:
                problems.append(f"{report['model']} witness {key}: a coordinate function is not zero-mean")
        if abs(norm - 1.0) > TOL:
            problems.append(f"{report['model']} witness {key}: null norm {norm!r}, not 1")
    return problems


def check_hypercube_moments(table, rows):
    """Dumped moments G[a, U] = E[1{y=a} chi_U(z)]: on the uniform hypercube
    the only zero-mean basis function is psi_1(z) = z."""
    label_index = {float(v): a for a, v in enumerate(table.labels)}
    chi = {}
    worst = 0.0
    count = 0
    for row in rows:
        if row["basis_index"] != "0":
            return [f"basis index {row['basis_index']} on the hypercube, where only 0 exists"]
        key = row["U"]
        if key not in chi:
            term = table.weight.copy()
            for c in key.split("|"):
                term *= table.coord(int(c))
            chi[key] = term @ table.cond
        want = chi[key][label_index[float(row["label"])]]
        worst = max(worst, abs(float(row["moment"]) - want))
        count += 1
    problems = []
    n_subsets = 2**table.p - 1
    if len(chi) != n_subsets or count != n_subsets * table.labels.size:
        problems.append(f"{count} moments over {len(chi)} subsets, expected every subset and label")
    if worst > TOL:
        problems.append(f"dumped moment differs from enumeration by {worst:.3g}")
    return problems


# ---------------------------------------------------------------------------
# Support-recovery games
# ---------------------------------------------------------------------------


def nonadaptive_count(d, sets):
    """sum over families of d!/(d-k)!: the non-adaptive plan queries every
    ordered ambient tuple of each coordinate's smallest covering set."""
    p = max(c for s in sets for c in s)
    families = set()
    for i in range(1, p + 1):
        holding = [tuple(sorted(s)) for s in sets if i in s]
        if holding:
            families.add(min(holding, key=lambda s: (len(s), sum(1 << (c - 1) for c in s))))
    return sum(math.perm(d, len(s)) for s in families)


def planted_csq_value(table, s_star, coords):
    """Exact value of the normalized CSQ witness query on ambient `coords`:
    T(y) = y / ||y|| and T_i(z) = z on each slot, so the value is
    E[y prod z] / ||y|| when every slot lands on the support, else 0."""
    pos = {c: i for i, c in enumerate(s_star, start=1)}
    if any(c not in pos for c in coords):
        return 0.0
    y = table.labels
    t_label = y / table.label_norm(y)
    return table.expectation(t_label, {pos[c]: [1.0, -1.0] for c in coords})


def check_honest_transcript(records, tau, table, s_star):
    """Every response within tau * norm of the exact value; every norm 1
    (witnesses are normalized); accepted queries match the enumeration."""
    problems = []
    bad_tol = bad_norm = bad_exact = 0
    for rec in records:
        slack = 1e-12 * max(1.0, abs(rec["exact"]))
        if abs(rec["response"] - rec["exact"]) > tau * rec["norm"] + slack:
            bad_tol += 1
        if abs(rec["norm"] - 1.0) > TOL:
            bad_norm += 1
        if rec.get("accepted"):
            want = rec["scale"] * planted_csq_value(table, s_star, rec["terms"][0])
            if abs(want - rec["exact"]) > TOL:
                bad_exact += 1
    if bad_tol:
        problems.append(f"{bad_tol} responses outside tau * norm")
    if bad_norm:
        problems.append(f"{bad_norm} query norms differ from 1")
    if bad_exact:
        problems.append(f"{bad_exact} accepted queries disagree with the planted enumeration")
    return problems


def check_honest_game(verdict, records, tau, table, s_star, expected_queries=None, budget=None):
    problems = []
    if verdict["verdict"] != "SUCCESS":
        problems.append(f"verdict {verdict['verdict']}")
    if sorted(verdict["s_hat"]) != sorted(s_star):
        problems.append(f"s_hat {verdict['s_hat']} is not the planted support {sorted(s_star)}")
    if len(records) != verdict["queries"]:
        problems.append(f"transcript has {len(records)} records, verdict says {verdict['queries']}")
    if expected_queries is not None and verdict["queries"] != expected_queries:
        problems.append(f"{verdict['queries']} non-adaptive queries, closed form {expected_queries}")
    if budget is not None and verdict["queries"] > budget:
        problems.append(f"{verdict['queries']} adaptive queries exceed the budget {budget}")
    return problems + check_honest_transcript(records, tau, table, s_star)


def check_adversarial_game(verdict, records, expected_survivors=None, expected_queries=None):
    """The adversary answers the decoupled null value (0 for zero-mean
    witnesses) and concedes rather than leave fewer than two plantings."""
    problems = []
    if verdict["verdict"] != "FAIL":
        problems.append(f"verdict {verdict['verdict']} against the adversary")
    survivors = verdict["detail"]["survivors"]
    if expected_survivors is not None and survivors != expected_survivors:
        problems.append(f"{survivors} surviving plantings, expected {expected_survivors}")
    if survivors < 2:
        problems.append(f"{survivors} surviving plantings; the adversary keeps at least 2")
    if expected_queries is not None and verdict["queries"] != expected_queries:
        problems.append(f"{verdict['queries']} queries, expected {expected_queries}")
    if any(r["response"] not in (None, 0.0) for r in records):
        problems.append("a response differs from the null value")
    if any(r["response"] is None for r in records[:-1]):
        problems.append("the game went on after a concession")
    return problems


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


def _finite(rows):
    return all(math.isfinite(float(v)) for row in rows for v in row.values())


def check_sgd(history, c_bar, fourier, learn):
    """Online SGD curve: f = c_bar at initialisation, so the initial test MSE
    estimates c_bar^2 + sum_U h(U)^2 (within 4 standard errors). A learning
    run ends below half of it; a stuck run drops by less than 5 %."""
    problems = []
    if not _finite(history):
        return ["non-finite value in the SGD curve"]
    first, last = history[0], history[-1]
    mse0 = float(first["mse"])
    want = c_bar**2 + sum(float(v) ** 2 for v in fourier.values())
    if abs(mse0 - want) > 4.0 * float(first["mse_se"]):
        problems.append(f"initial MSE {mse0:.4f}, expected {want:.4f} within 4 SE ({float(first['mse_se']):.4f})")
    final = float(last["mse"])
    if learn and not final < 0.5 * mse0:
        problems.append(f"final MSE {final:.4f} not below half the initial {mse0:.4f}")
    if not learn and not mse0 - final < 0.05 * mse0:
        problems.append(f"MSE dropped from {mse0:.4f} to {final:.4f}, 5 % or more")
    return problems


def check_sgd_df_coupling(sgd_history, df_history, bound=0.1, key="train_risk"):
    """Batch-d SGD risk within `bound` of the DF risk at every shared step."""
    if not (_finite(sgd_history) and _finite(df_history)):
        return ["non-finite value in the SGD or DF curve"]
    df_at = {int(r["step"]): float(r[key]) for r in df_history}
    shared = [(int(r["step"]), float(r[key])) for r in sgd_history if int(r["step"]) in df_at]
    if len(shared) < 2:
        return [f"only {len(shared)} steps shared by the SGD and DF curves"]
    worst = max(abs(v - df_at[s]) for s, v in shared)
    if worst > bound:
        return [f"SGD risk strays {worst:.3f} from the DF risk, above {bound}"]
    return []


def check_df_freeze(summary, curve, frozen):
    """DF on a leap-3 target from u = 0: with squared loss every coordinate
    stays at roundoff (max |u| <= 1e-12); with squared-plus-cubic all activate."""
    if not _finite(curve):
        return ["non-finite value in the DF curve"]
    max_u = [float(v) for v in summary["max_abs_u"]]
    if frozen and max(max_u) > 1e-12:
        return [f"max |u| = {max(max_u):.3g} under squared loss, above 1e-12"]
    if not frozen and "frozen" in summary["first_activation"]:
        return [f"coordinates {summary['frozen_coords']} never activate"]
    return []


def eig_margin(kmat):
    """Backward-error margin n * eps * ||K||_2 of a symmetric eigen-solve."""
    n = kmat.shape[0]
    return n * np.finfo(float).eps * float(np.linalg.norm(kmat, 2))


def check_lambda_min(lambda_min, kmat, slack=2.0):
    """The certificate may not exceed the true smallest eigenvalue of K by
    more than `slack` backward-error margins."""
    exact = float(np.linalg.eigvalsh(kmat)[0])
    margin = slack * eig_margin(kmat)
    if lambda_min > exact + margin:
        return [f"lambda_min {lambda_min:.3g} exceeds eigvalsh {exact:.3g} by more than {margin:.2g}"]
    return []


def sampled_keys(keys, k, rng):
    keys = sorted(keys)
    if len(keys) <= k:
        return keys
    return [keys[i] for i in sorted(rng.choice(len(keys), size=k, replace=False))]


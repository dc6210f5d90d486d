"""Statistical-query protocol: honest and adversarial oracles, support-recovery learners.

Queries are restricted to the structured family

    phi(y, x) = scale * sum_rows T(y) * prod_slots T_i(x_{c_i}),

one term moved onto each row of coordinates, which is what the upper-bound
algorithms use; norms and expectations are then exact. Honest responses obey
|v - E_D[phi]| <= tau * ||phi||_{L2(D0)} with D0 the decoupled null (label
marginal x input marginal).

No two rows share a coordinate, so the null norm has a closed form that does
not depend on the coordinates: both oracles take it once per block of witness
queries.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .detect import DetectReport, Witness
from .junta import JuntaProblem, PlantedInstance
from .setsystem import coords_from_mask


# how the honest oracle draws its noise of at most tau
NOISE_MODES = ("zero", "uniform", "adversarial_sign")


class BudgetExceededError(RuntimeError):
    def __init__(self, transcript):
        super().__init__("query budget exhausted")
        self.transcript = transcript


@dataclass(frozen=True, eq=False)
class Query:
    """scale * sum over the rows c of `coords` of T(y) prod_i T_i(x_{c_i}).

    `coords` is an (n, k) array of 1-based ambient coordinates, one term per
    row, and `tables` holds the k per-slot coordinate functions tabulated on
    X that every row shares. No coordinate occurs twice, within a row or
    across rows.
    """

    coords: np.ndarray
    tables: tuple[np.ndarray, ...]
    t_label: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.int64)
        object.__setattr__(self, "coords", coords)
        if coords.ndim != 2 or coords.shape[1] != len(self.tables) or not coords.size:
            raise ValueError("coords must be a non-empty (n, k) array, with one table per slot")
        if coords.min() < 1:
            raise ValueError("coordinates are 1-based")
        if len(set(coords.ravel().tolist())) != coords.size:
            raise ValueError("coordinates must be distinct within a row and across rows")

    def l2_null_norm(self, problem: JuntaProblem) -> float:
        """||phi||_{L2(D0)} in closed form. Under D0 the coordinates are
        independent of y and of each other, and no two rows share one, so

            E[phi^2] = scale^2 E[T(y)^2] (sum_rows q + (sum_rows m)^2 - sum_rows m^2)

        with q the product of the E[T_i^2] and m that of the E[T_i], in slot
        order: the norm does not depend on the coordinates. The sums over the
        rows add one row at a time, as the terms of a sum do (n q rounds
        differently), and the cross term is added only when n > 1.
        """
        marg = problem.marginal
        q = m = 1.0
        for tab in self.tables:
            q *= float(marg.probs @ (tab * tab))
            m *= marg.mean(tab)
        n = len(self.coords)
        total = m_sum = m_sq = 0.0
        for _ in range(n):
            total += q
            m_sum += m
            m_sq += m * m
        if n > 1:
            total += m_sum * m_sum - m_sq
        label_sq = problem.mu_y @ np.asarray(self.t_label, float) ** 2
        return abs(self.scale) * float(np.sqrt(max(label_sq * total, 0.0)))


class Transcript:
    """Query/response log of one game session.

    Records logged one at a time (`log`) are dicts; a block of single-term
    witness queries (`log_block`) is stored column-wise, one array per field,
    and written to JSONL column-wise. `records` lists every record as a dict,
    in order, built on each read: a logged dict is the stored record, and the
    dicts of block rows are copies.
    """

    def __init__(self, budget: int | None = None):
        self.budget = budget
        self._parts: list = []  # dicts and _Blocks, in order
        self.n_queries = 0

    @property
    def records(self) -> list:
        records = []
        for part in self._parts:
            if isinstance(part, dict):
                records.append(part)
            else:
                records.extend(part.records())
        return records

    def log(self, terms: list, scale: float, response, norm: float, exact=None, accepted=None):
        """One record of the query on the rows `terms` at `scale`; a response
        of None (a concession) is written as null."""
        rec = {"t": self.n_queries + 1, "terms": terms, "scale": scale,
               "response": None if response is None else float(response)}
        if exact is not None:
            rec["exact"] = float(exact)
        rec["norm"] = float(norm)
        if accepted is not None:
            rec["accepted"] = bool(accepted)
        self._parts.append(rec)
        self.n_queries += 1

    def log_block(self, coords: np.ndarray, responses, exact, norm: float, accepted) -> None:
        """One record per row of `coords`, each a single-term unit-scale query,
        with the same keys and values that `log` and the learners write."""
        if len(coords):
            self._parts.append(_Block(
                self.n_queries + 1, np.array(coords, dtype=np.int64), np.array(responses, dtype=float),
                np.array(exact, dtype=float), float(norm), np.array(accepted, dtype=bool),
            ))
            self.n_queries += len(coords)

    def to_jsonl(self, fp) -> None:
        """One `json.dumps(record, sort_keys=True)` line per record. A block
        is written in chunks: one joined string of a long transcript costs
        memory."""
        for part in self._parts:
            if isinstance(part, dict):
                fp.write(json.dumps(part, sort_keys=True) + "\n")
                continue
            for lo in range(0, len(part.exact), _JSONL_CHUNK_LINES):
                fp.write(part.jsonl(lo, lo + _JSONL_CHUNK_LINES))


@dataclass(frozen=True, eq=False)
class _Block:
    """Records t0, t0 + 1, ... of unit-scale single-term queries, one per row
    of `coords`, all with null norm `norm`."""

    t0: int
    coords: np.ndarray
    responses: np.ndarray
    exact: np.ndarray
    norm: float
    accepted: np.ndarray

    def records(self) -> list[dict]:
        return [
            {"t": t, "terms": [c], "scale": 1.0, "response": r, "exact": e, "norm": self.norm, "accepted": a}
            for t, c, r, e, a in zip(
                itertools.count(self.t0), self.coords.tolist(), self.responses.tolist(), self.exact.tolist(),
                self.accepted.tolist(),
            )
        ]

    def jsonl(self, lo: int, hi: int) -> str:
        """The JSONL lines of rows lo:hi, the text of `json.dumps(record,
        sort_keys=True)` on each record, assembled column-wise."""
        coords = self.coords[lo:hi]
        m, k = coords.shape
        # the JSON text of a float is _float_text's, of an int its str; each
        # line is one row of Python strings, the constant fragments broadcast
        # into their columns, and the rows are joined in one pass
        cols = np.empty((m, 7 + 2 * k), dtype=object)
        heads = np.array(['{"accepted": false, "exact": ', '{"accepted": true, "exact": '], dtype=object)
        cols[:, 0] = heads[self.accepted[lo:hi].view(np.uint8)]
        cols[:, 1] = _float_text(self.exact[lo:hi])
        cols[:, 2] = f', "norm": {_float_text(np.array([self.norm]))[0]}, "response": '
        cols[:, 3] = _float_text(self.responses[lo:hi])
        cols[:, 4] = ', "scale": 1.0, "t": '
        cols[:, 5] = list(map(str, range(self.t0 + lo, self.t0 + lo + m)))
        cols[:, 6] = ', "terms": [['
        ints = np.array(list(map(str, range(coords.max() + 1))), dtype=object)
        cols[:, 7:-1:2] = ints[coords]
        cols[:, 8:-1:2] = ", "
        cols[:, -1] = "]]}\n"
        return "".join(cols.ravel().tolist())


# json's spellings of the floats whose repr is not JSON
_NON_FINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(values: np.ndarray) -> np.ndarray:
    """json.dumps's text of each float as an object array: its repr, or NaN,
    Infinity or -Infinity. Computed once per distinct value (by bit pattern,
    so that -0.0 and 0.0 stay apart)."""
    uniq, inverse = np.unique(values.view(np.int64), return_inverse=True)
    floats = uniq.view(np.float64)
    text = np.array(list(map(repr, floats.tolist())), dtype=object)
    bad = ~np.isfinite(floats)
    text[bad] = [_NON_FINITE_TEXT[t] for t in text[bad]]
    return text[inverse]


_JSONL_CHUNK_LINES = 2048


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class _BlockOracle:
    """The block protocol both oracles share. Each oracle answers the rows
    a block leaves in `_answer_rows(query, rows, transcript, threshold,
    first_hit) -> (hits, conceded)`."""

    def answer_block(
        self, witness: Witness, coords, transcript: Transcript, threshold: float, first_hit: bool = False
    ) -> tuple[list[int], bool]:
        """Answer the witness query on each row of `coords` (ambient tuples,
        one per row) in order, logging each with `accepted = |v| > threshold`,
        with the records of one `answer` per row.

        Logging stops at a concession, and after the first accepted row when
        `first_hit`. Past the transcript's budget it raises
        BudgetExceededError, unless one of those ended the block first.
        Returns the accepted row indices and whether the oracle conceded.
        """
        coords = _check_block(coords, len(witness.coords), self.d)
        room = _room(transcript, len(coords))
        hits, conceded = [], False
        if room:
            # the first row's query: its null value and null norm are every row's
            query = Query(coords[:1], witness.tables, witness.t_label)
            hits, conceded = self._answer_rows(query, coords[:room], transcript, threshold, first_hit)
        if room < len(coords) and not (conceded or (first_hit and hits)):
            raise BudgetExceededError(transcript)
        return hits, conceded


class HonestOracle(_BlockOracle):
    """Answers with the exact planted expectation plus bounded noise."""

    def __init__(self, instance: PlantedInstance, tau: float, noise_mode: str = "zero", seed: int = 0):
        check_tau(tau)
        if noise_mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {noise_mode!r}")
        self.instance = instance
        self.problem = instance.problem
        self.tau = tau
        self.noise_mode = noise_mode
        self.rng = np.random.default_rng(seed)
        # support position of every ambient coordinate, 0 off support
        self._pos_array = np.zeros(instance.d + 1, dtype=np.int64)
        self._pos_array[list(instance.s_star)] = np.arange(1, instance.problem.p + 1)

    @property
    def d(self) -> int:
        return self.instance.d

    def exact_expectation(self, query: Query) -> float:
        """E_D[phi], summed over the rows in row order. Query already holds its
        coordinates distinct and >= 1; here they are checked against d."""
        if query.coords.max() > self.d:
            raise ValueError("query references a coordinate beyond the ambient dimension")
        return query.scale * float(np.cumsum(self._row_values(query.t_label, query.tables, query.coords))[-1])

    def _row_values(self, t_label, tables, rows: np.ndarray) -> np.ndarray:
        """E_D[T(y) prod_i T_i(x_{c_i})] on each row c of `rows`, each as
        `0.0 + value`, a one-row sum (which turns -0.0 into 0.0). Each distinct
        slot pattern is evaluated once."""
        positions = self._pos_array[rows]
        # pattern code: each slot's support position (0 off support) as a digit
        # in base P + 1; ravel_multi_index raises if (P + 1)^k overflows int64
        _, first, inverse = np.unique(
            np.ravel_multi_index(positions.T, (self.problem.p + 1,) * len(tables)),
            return_index=True,
            return_inverse=True,
        )
        values = [0.0 + _term_value(self.problem, t_label, tables, positions[i]) for i in first]
        return np.asarray(values)[inverse]

    def _noise(self, exact, bound: float, size: int | None = None):
        """Noise of at most `bound` on the exact value(s): zero, uniform draws
        (one per value), or adversarial_sign's push toward the threshold."""
        if self.noise_mode == "zero" or bound == 0.0:
            return 0.0
        if self.noise_mode == "uniform":
            return self.rng.uniform(-bound, bound, size)
        return np.where(exact == 0.0, bound, -np.sign(exact) * bound)

    def answer(self, query: Query, transcript: Transcript | None = None, threshold: float | None = None) -> float:
        """The noisy expectation of `query`, logged to `transcript` if given,
        with `accepted = |v| > threshold` when a threshold is given."""
        exact = self.exact_expectation(query)
        norm = query.l2_null_norm(self.problem)
        v = exact + self._noise(exact, self.tau * norm)
        if transcript is not None:
            accepted = None if threshold is None else abs(v) > threshold
            transcript.log(query.coords.tolist(), query.scale, v, norm, exact=exact, accepted=accepted)
        return v

    def _answer_rows(self, query: Query, rows, transcript, threshold, first_hit):
        """The unit-scale one-row `query` moved onto each row, with the noise
        stream of one `answer` per logged row. The null norm is evaluated
        once; it never concedes."""
        exact = self._row_values(query.t_label, query.tables, rows)
        norm = query.l2_null_norm(self.problem)
        rng_state = self.rng.bit_generator.state
        v = exact + self._noise(exact, self.tau * norm, len(rows))
        accepted = np.abs(v) > threshold
        m = len(rows)
        if first_hit and accepted.any():
            m = int(np.argmax(accepted)) + 1
            # leave the noise stream where m scalar draws would have left it
            self.rng.bit_generator.state = rng_state
            self._noise(exact[:m], self.tau * norm, m)
        transcript.log_block(rows[:m], v[:m], exact[:m], norm, accepted[:m])
        return np.flatnonzero(accepted[:m]).tolist(), False


class AdversarialOracle(_BlockOracle):
    """Answers with the fully decoupled null value whenever that is consistent
    with at least two surviving plantings, pruning only the plantings it
    contradicts; concedes (answers None) otherwise.

    A valid (not necessarily optimal) adversary for single-term structured
    queries. The surviving plantings are the rows of the `(n, P)` array
    `plantings`, in itertools.permutations order, so `check_adversary_size`
    bounds d and P.
    """

    MAX_PLANTINGS = 1 << 20  # rows of the plantings array, 32 MiB as int64 at P = 4
    MAX_P = 4  # bounds the (k + 1)^P pattern arrays

    def __init__(self, problem: JuntaProblem, d: int, tau: float):
        check_tau(tau)
        check_adversary_size(problem.p, d)
        if d < problem.p:
            raise ValueError("d must be >= P")
        self.problem = problem
        self.d = d
        self.tau = tau
        self.plantings = _ordered_tuples(range(1, d + 1), problem.p)
        self.conceded = False

    def null_value(self, query: Query) -> float:
        """E_{D0}[phi] of a one-row query: E[T(y)] times the slot means in
        slot order (stopping at 0.0)."""
        prod = self.problem.label_expectation(query.t_label)
        for tab in query.tables:
            prod *= self.problem.marginal.mean(tab)
            if prod == 0.0:
                break
        # 0.0 + turns a -0.0 product into 0.0, which transcripts write as 0.0
        return query.scale * (0.0 + prod)

    def answer(self, query: Query, transcript: Transcript | None = None, threshold: float | None = None):
        """The null value, or None on a concession; logged as
        `HonestOracle.answer` logs, with a null response and without
        `accepted` on a concession. One query is a one-row block."""
        if len(query.coords) != 1:
            raise ValueError("adversary handles single-term structured queries")
        rows = _check_block(query.coords, len(query.tables), self.d)
        transcript = Transcript() if transcript is None else transcript
        _, conceded = self._answer_rows(query, rows, transcript, threshold, first_hit=False)
        return None if conceded else self.null_value(query)

    def _answer_rows(self, query: Query, coords, transcript, threshold, first_hit):
        """Answer the single-term `query` moved onto each row c of `coords`,
        in order, up to a concession or, when `first_hit`, the first accepted
        row.

        The null value and the null norm do not depend on the row, so they
        are computed once. A planting's slot pattern is coded per support
        position (1 + the slot on it, 0 for none) in base k + 1, so codes stay
        below (k + 1)^P; whether a pattern strays from the null by more than
        tau times the norm is decided once, when the pattern first occurs,
        and the plantings of a straying pattern are pruned.
        """
        tables = query.tables
        p, k = self.problem.p, len(tables)
        null, norm = self.null_value(query), query.l2_null_norm(self.problem)
        accepted = None if threshold is None else abs(null) > threshold
        strays = np.zeros((k + 1) ** p, dtype=bool)
        known = np.zeros(len(strays), dtype=bool)
        known[0] = True  # no slot on the support: never strays
        weights = (k + 1) ** np.arange(p - 1, -1, -1)
        slot_of = np.zeros(self.d + 1, dtype=np.int64)
        hits: list[int] = []
        for i, row in enumerate(coords.tolist()):
            slot_of[row] = np.arange(1, k + 1)
            codes = slot_of[self.plantings] @ weights
            slot_of[row] = 0
            present = np.flatnonzero(np.bincount(codes))
            for code in present[~known[present]].tolist():
                slot_on = np.array(np.unravel_index(code, (k + 1,) * p))  # per support position
                positions = np.zeros(k, dtype=np.int64)
                positions[slot_on[slot_on > 0] - 1] = np.flatnonzero(slot_on) + 1
                value = query.scale * _term_value(self.problem, query.t_label, tables, positions)
                strays[code] = not abs(null - value) <= self.tau * norm
                known[code] = True
            prune = strays[codes]
            kept = len(prune) - np.count_nonzero(prune)
            if kept < 2:
                self.conceded = True
                transcript.log([row], query.scale, None, norm)
                return hits, True
            if kept < len(prune):
                self.plantings = self.plantings.compress(~prune, axis=0)
            transcript.log([row], query.scale, null, norm, accepted=accepted)
            if accepted:
                hits.append(i)
                if first_hit:
                    break
        return hits, False


def check_tau(tau) -> None:
    """An oracle's tolerance must be a finite number >= 0."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")


def check_adversary_size(p: int, d: int) -> None:
    """Raise ValueError past the adversary's bounds: P <= MAX_P, and at most
    MAX_PLANTINGS rows of plantings, d!/(d - P)!."""
    limit = AdversarialOracle.MAX_PLANTINGS
    if p > AdversarialOracle.MAX_P or math.perm(d, p) > limit:
        raise ValueError(f"adversary limited to P <= {AdversarialOracle.MAX_P} and d!/(d - P)! <= {limit} "
                         f"plantings, got P = {p} at d = {d}")


def check_game_kinds(learner, oracle_kind, noise_mode, max_tuple) -> None:
    """Raise ValueError for a learner, oracle kind or noise mode play_game does
    not know, for the grouped learner against the adversary (which answers
    single-term queries only), for a noise mode but "zero" against the
    adversary (which adds no noise), and for a max_tuple with any learner but
    the adaptive one."""
    for what, value, known in (("learner", learner, ("adaptive", "nonadaptive", "grouped")),
                               ("oracle kind", oracle_kind, ("honest", "adversarial")),
                               ("noise mode", noise_mode, NOISE_MODES)):
        if value not in known:
            raise ValueError(f"unknown {what} {value!r}")
    if learner == "grouped" and oracle_kind == "adversarial":
        raise ValueError("the adversary answers single-term queries, not the grouped learner's sums")
    if oracle_kind == "adversarial" and noise_mode != "zero":
        raise ValueError(f"noise mode {noise_mode!r} applies to the honest oracle only; the adversary adds no noise")
    if max_tuple is not None and learner != "adaptive":
        raise ValueError(f"max_tuple applies to the adaptive learner only, not to {learner!r}")


def _term_value(problem: JuntaProblem, t_label, tables, positions) -> float:
    """E_D[T(y) prod_i T_i(x_{c_i})] for one term whose slot i sits on support
    position positions[i] (0 off support): the off-support means multiplied
    in slot order, stopping at 0.0, times the joint expectation of the rest."""
    off = 1.0
    on = {}
    for tab, pos in zip(tables, positions):
        if pos:
            on[int(pos)] = tab
        else:
            off *= problem.marginal.mean(tab)
            if off == 0.0:
                return 0.0
    return off * (problem.joint_expectation(t_label, on) if on else problem.label_expectation(t_label))


def _check_block(coords, k: int, d: int) -> np.ndarray:
    """`coords` as an (n, k) int64 array of 1-based ambient tuples <= d,
    distinct within each row."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != k:
        raise ValueError("tuple length must match the witness set size")
    if coords.size:
        if coords.min() < 1:
            raise ValueError("coordinates are 1-based")
        if coords.max() > d:
            raise ValueError("query references a coordinate beyond the ambient dimension")
        if any(np.any(coords[:, i] == coords[:, j]) for i, j in itertools.combinations(range(k), 2)):
            raise ValueError("coordinates within a term must be distinct")
    return coords


def _room(transcript: Transcript, n: int) -> int:
    """How many of n queries the transcript's budget still allows."""
    return n if transcript.budget is None else max(0, min(n, transcript.budget - transcript.n_queries))


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------


def _ordered_tuples(pool, k: int, limit: int | None = None) -> np.ndarray:
    """The ordered k-tuples of distinct entries of `pool`, one per row, in
    itertools.permutations order: each prefix of positions is extended by every
    position it does not hold, ascending, and nonzero lists those row by row.
    With `limit`, the first `limit` rows only: each level keeps the prefixes
    those rows start with."""
    pool = np.fromiter(pool, dtype=np.int64)
    idx = np.zeros((1, 0), dtype=np.intp)
    for level in range(1, k + 1):
        free = np.ones((idx.shape[0], pool.size), dtype=bool)
        free[np.arange(idx.shape[0])[:, None], idx] = False
        rows, cols = np.nonzero(free)
        idx = np.column_stack((idx[rows], cols))
        if limit is not None:
            # the rows that extend each prefix of this length
            per_prefix = max(1, math.prod(range(pool.size - k + 1, pool.size - level + 1)))
            idx = idx[: -(-limit // per_prefix)]
    return pool[idx[:limit]]


def _row_limit(transcript: Transcript, rows_each: int = 1) -> int | None:
    """How many tuples, each giving `rows_each` block rows, decide a block
    under the transcript's budget: enough for the rows it still allows and
    one more, which overruns it. None without a budget."""
    if transcript.budget is None:
        return None
    return -(-(transcript.budget - transcript.n_queries + 1) // rows_each)


def run_adaptive(oracle, d: int, report: DetectReport, *, budget=None, max_tuple=None):
    """Greedy frontier recovery: repeatedly confirm a detectable set that adds
    the fewest new coordinates, enumerating ordered fresh tuples (and all
    injections of recovered coordinates into old slots) until a response
    clears beta/2."""
    transcript = Transcript(budget)
    if report.beta is None:
        return frozenset(), transcript
    threshold = report.beta / 2.0
    explored = 0
    assigned: dict[int, int] = {}
    s_hat: list[int] = []

    def candidate_masks():
        cands = []
        for mask in report.system.sets:
            if max_tuple is not None and mask.bit_count() > max_tuple:
                continue
            new = (mask & ~explored).bit_count()
            if new:
                cands.append((new, mask))
        return sorted(cands)

    while True:
        accepted = False
        for new_count, mask in candidate_masks():
            witness = report.witnesses[mask]
            is_old = np.array([bool(explored >> (p - 1) & 1) for p in witness.coords])
            old_pos = [p for p, old in zip(witness.coords, is_old) if old]
            fresh_pool = [c for c in range(1, d + 1) if c not in s_hat]
            # the assigned injection first, then every other one in permutation order
            canonical = np.array([assigned[p] for p in old_pos], dtype=np.int64)
            injections = _ordered_tuples(sorted(s_hat), len(old_pos))
            injections = np.vstack((canonical, injections[(injections != canonical).any(axis=1)]))
            # one block: every fresh tuple (outer) with every injection (inner)
            fresh = _ordered_tuples(fresh_pool, new_count, _row_limit(transcript, len(injections)))
            block = np.empty((len(fresh) * len(injections), len(witness.coords)), dtype=np.int64)
            block[:, ~is_old] = np.repeat(fresh, len(injections), axis=0)
            block[:, is_old] = np.tile(injections, (len(fresh), 1))
            hits, conceded = oracle.answer_block(witness, block, transcript, threshold, first_hit=True)
            if conceded:
                break
            if hits:
                coords = block[hits[0]]
                assigned.update(zip(witness.coords, coords.tolist()))
                s_hat.extend(coords[~is_old].tolist())
                explored |= mask
                accepted = True
                break
        if not accepted:
            break
    return frozenset(s_hat), transcript


def run_nonadaptive(oracle, d: int, report: DetectReport, *, budget=None):
    """All queries fixed in advance: for every coordinate's minimal covering
    set, every ordered ambient tuple of that size; the decision map returns
    the union of coordinates in accepted tuples."""
    transcript = Transcript(budget)
    if report.beta is None:
        return frozenset(), transcript
    threshold = report.beta / 2.0
    by_size = sorted(report.system.sets, key=lambda m: (m.bit_count(), m))
    families = {next(m for m in by_size if m >> (i - 1) & 1) for i in coords_from_mask(report.system.support)}
    recovered: set[int] = set()
    for mask in sorted(families, key=lambda m: (m.bit_count(), m)):
        tuples = _ordered_tuples(range(1, d + 1), mask.bit_count(), _row_limit(transcript))
        hits, conceded = oracle.answer_block(report.witnesses[mask], tuples, transcript, threshold)
        recovered.update(tuples[hits].ravel().tolist())
        if conceded:
            break
    return frozenset(recovered), transcript


def singleton_witness(report: DetectReport) -> Witness:
    """The witness of the lowest detectable singleton, which the grouped learner queries."""
    singles = [m for m in report.system.sets if m.bit_count() == 1]
    if not singles:
        raise ValueError("grouped learner needs a leap-1 singleton in the detectable system")
    return report.witnesses[min(singles)]


def run_grouped(oracle, d: int, report: DetectReport, *, budget=None):
    """Binary-grouping discovery of one coordinate from a leap-1 singleton
    witness: ceil(log2 d) grouped queries of norm O(1), each summing the
    singleton query over the coordinates whose index has a given bit set.

    Assumes the witness correlation is carried by a single support coordinate
    (e.g. P = 1 plantings), the image of the witness's support position, and
    returns that coordinate. Only the honest oracle answers its sums.
    """
    if not isinstance(oracle, HonestOracle):
        raise ValueError("the grouped learner's sums need the honest oracle; the adversary answers single-term queries")
    witness = singleton_witness(report)
    beta = abs(witness.beta)
    table = witness.tables[0]
    transcript = Transcript(budget)
    n_bits = max(0, (d - 1).bit_length())
    scale = 1.0 / np.sqrt(d)
    threshold = beta / (2.0 * np.sqrt(d))
    coords = np.arange(1, d + 1).reshape(d, 1)
    index = 0
    for k in range(n_bits):
        # one row per coordinate whose 0-based index has bit k set
        query = Query(coords[(np.arange(d) >> k) & 1 == 1], (table,), witness.t_label, scale)
        if not _room(transcript, 1):
            raise BudgetExceededError(transcript)
        if abs(oracle.answer(query, transcript, threshold)) > threshold:
            index |= 1 << k
    return frozenset([index + 1]), transcript


# ---------------------------------------------------------------------------
# Game driver
# ---------------------------------------------------------------------------


@dataclass
class GameResult:
    verdict: str
    s_hat: frozenset
    transcript: Transcript
    tau: float
    detail: dict = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.verdict == "SUCCESS"


def play_game(
    instance: PlantedInstance,
    report: DetectReport,
    learner: str = "adaptive",
    oracle_kind: str = "honest",
    tau: float | None = None,
    tau_factor: float = 0.25,
    noise_mode: str = "zero",
    budget: int | None = None,
    seed: int | None = None,
    max_tuple: int | None = None,
) -> GameResult:
    """Run one support-recovery game and grade the outcome. `seed` seeds the
    honest oracle's noise (0 when None); the adversary draws nothing, so a
    seed against it is an error."""
    check_game_kinds(learner, oracle_kind, noise_mode, max_tuple)
    if oracle_kind == "adversarial" and seed is not None:
        raise ValueError("the adversary draws no noise and takes no seed")
    if tau is None and report.beta is None:
        raise ValueError("report has no detectable sets; tau must be explicit")
    # the grouped learner queries one singleton witness and recovers the image of its position
    witness = singleton_witness(report) if learner == "grouped" else None
    if tau is None:
        # grouped queries carry a 1/sqrt(d) signal, so the tolerance must shrink with it (tau <= c/sqrt(d))
        tau = tau_factor * report.beta if witness is None else tau_factor * abs(witness.beta) / np.sqrt(instance.d)
    if oracle_kind == "honest":
        oracle = HonestOracle(instance, tau, noise_mode, 0 if seed is None else seed)
    else:
        oracle = AdversarialOracle(instance.problem, instance.d, tau)

    positions = coords_from_mask(report.system.support) if witness is None else witness.coords
    target = frozenset(instance.s_star[i - 1] for i in positions)
    detail = {"target": sorted(target)}
    try:
        if learner == "adaptive":
            s_hat, transcript = run_adaptive(oracle, instance.d, report, budget=budget, max_tuple=max_tuple)
        else:
            run = run_nonadaptive if learner == "nonadaptive" else run_grouped
            s_hat, transcript = run(oracle, instance.d, report, budget=budget)
    except BudgetExceededError as exc:
        return GameResult("FAIL(budget)", frozenset(), exc.transcript, tau, detail)

    if oracle_kind == "adversarial":
        # no single planted truth: the learner wins only if every surviving planting has the support it
        # output, that is, as its P coordinates are distinct, if s_hat has P coordinates and holds every entry
        plantings = oracle.plantings
        detail["survivors"] = len(plantings)
        ok = len(plantings) > 0 and len(s_hat) == plantings.shape[1] and np.isin(plantings, list(s_hat)).all()
        verdict = "SUCCESS" if ok else "FAIL"
    else:
        verdict = "SUCCESS" if s_hat == target else "FAIL"
    return GameResult(verdict, s_hat, transcript, tau, detail)

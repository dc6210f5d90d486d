"""Statistical-query protocol: honest and adversarial oracles, support-recovery learners.

Queries are restricted to the structured family

    phi(y, x) = scale * sum_terms T(y) * prod_slots T_i(x_{c_i}),

which is what the upper-bound algorithms use; norms and expectations are then
exact. Honest responses obey |v - E_D[phi]| <= tau * ||phi||_{L2(D0)} with D0
the decoupled null (label marginal x input marginal).

No two terms share a coordinate, so the null norm has a closed form, linear
in the terms and independent of the coordinates: both oracles take it once
per block of witness queries.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .detect import DetectReport, Witness
from .junta import JuntaProblem, PlantedInstance
from .setsystem import coords_from_mask


class _Fail:
    """Adversary concession: no answer consistent with >= 2 surviving plantings."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAIL"


FAIL = _Fail()

# how the honest oracle draws its noise of at most tau
NOISE_MODES = ("zero", "uniform", "adversarial_sign")


class BudgetExceededError(RuntimeError):
    def __init__(self, transcript):
        super().__init__("query budget exhausted")
        self.transcript = transcript


@dataclass(frozen=True, eq=False)
class Query:
    """scale * sum over terms of T(y) prod_i T_i(x_{c_i}).

    Each term is (coords, tables): an ordered tuple of ambient coordinates
    and the per-slot coordinate functions tabulated on X. No coordinate
    occurs twice, within a term or across terms.
    """

    terms: tuple[tuple[tuple[int, ...], tuple[np.ndarray, ...]], ...]
    t_label: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if any(len(coords) != len(tables) for coords, tables in self.terms):
            raise ValueError("each slot needs a coordinate and a table")
        every = [c for coords, _ in self.terms for c in coords]
        if any(c < 1 for c in every):
            raise ValueError("coordinates are 1-based")
        if len(set(every)) != len(every):
            raise ValueError("coordinates must be distinct within a term and across terms")

    @classmethod
    def from_witness(cls, witness: Witness, coords: Sequence[int], scale: float = 1.0) -> "Query":
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(witness.coords):
            raise ValueError("tuple length must match the witness set size")
        return cls(((coords, _witness_tables(witness)),), witness.t_label, scale)

    def l2_null_norm(self, problem: JuntaProblem) -> float:
        """||phi||_{L2(D0)} in closed form. Under D0 the coordinates are
        independent of y and of each other, and no two terms share one, so

            E[phi^2] = scale^2 E[T(y)^2] (sum_t q_t + sum_{s != t} m_s m_t)

        with q_t the product of the term's E[T_i^2] and m_t that of its E[T_i],
        in slot order: a single term's norm does not depend on its coordinates.
        """
        marg = problem.marginal
        total = m_sum = m_sq = 0.0
        for _, tables in self.terms:
            q = m = 1.0
            for tab in tables:
                q *= float(marg.probs @ (tab * tab))
                m *= marg.mean(tab)
            total += q
            m_sum += m
            m_sq += m * m
        if len(self.terms) > 1:
            total += m_sum * m_sum - m_sq
        label_sq = problem.mu_y @ np.asarray(self.t_label, float) ** 2
        return abs(self.scale) * float(np.sqrt(max(label_sq * total, 0.0)))

    def describe(self) -> dict:
        return {
            "terms": [list(coords) for coords, _ in self.terms],
            "scale": self.scale,
        }


class Transcript:
    """Query/response log of one game session.

    Records logged one at a time (`log`) are dicts; a block of single-term
    witness queries (`log_block`) is stored column-wise, one array per field,
    and written to JSONL column-wise. `records` lists every record as a dict,
    in order, built as it is read; the dicts of block rows are copies.
    """

    def __init__(self, tau: float, budget: int | None = None, records=None):
        self.tau = tau
        self.budget = budget
        self._parts: list = list(records or ())  # dicts and _Blocks, in order
        self.n_queries = len(self._parts)
        self._view: list = []
        self._viewed = 0  # parts already in _view

    @property
    def records(self) -> list:
        for part in self._parts[self._viewed:]:
            if isinstance(part, dict):
                self._view.append(part)
            else:
                self._view.extend(part.records(0, len(part.exact)))
        self._viewed = len(self._parts)
        return self._view

    def log(self, description: dict, response, exact=None, norm=None, accepted=None):
        """One record of the query whose `Query.describe()` is `description`."""
        rec = {"t": self.n_queries + 1, **description}
        rec["response"] = None if response is FAIL else float(response)
        if exact is not None:
            rec["exact"] = float(exact)
        if norm is not None:
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
        """One `json.dumps(record, sort_keys=True)` line per record, written
        in chunks: one joined string of a long transcript costs memory."""
        lines = []
        for part in self._parts:
            if isinstance(part, dict):
                lines.append(_jsonl_line(part))
                if len(lines) == _JSONL_CHUNK_LINES:
                    fp.write("".join(lines))
                    lines.clear()
                continue
            fp.write("".join(lines))
            lines.clear()
            for lo in range(0, len(part.exact), _JSONL_CHUNK_LINES):
                fp.write(part.jsonl(lo, lo + _JSONL_CHUNK_LINES))
        fp.write("".join(lines))

    def check_soundness(self) -> bool:
        """Post-hoc: every logged response obeys the tolerance contract."""
        for part in self._parts:
            if not isinstance(part, dict):
                if np.any(np.abs(part.responses - part.exact) > self.tau * part.norm + 1e-12):
                    return False
            elif part["response"] is not None and "exact" in part:
                if abs(part["response"] - part["exact"]) > self.tau * part["norm"] + 1e-12:
                    return False
        return True


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

    def records(self, lo: int, hi: int) -> list[dict]:
        return [
            {"t": t, "terms": [c], "scale": 1.0, "response": r, "exact": e, "norm": self.norm, "accepted": a}
            for t, c, r, e, a in zip(
                itertools.count(self.t0 + lo), self.coords[lo:hi].tolist(), self.responses[lo:hi].tolist(),
                self.exact[lo:hi].tolist(), self.accepted[lo:hi].tolist(),
            )
        ]

    def jsonl(self, lo: int, hi: int) -> str:
        """The JSONL lines of rows lo:hi, the text of `_jsonl_line` on each
        record, assembled column-wise when every float is finite."""
        responses, exact = self.responses[lo:hi], self.exact[lo:hi]
        if not (math.isfinite(self.norm) and np.isfinite(responses).all() and np.isfinite(exact).all()):
            return "".join(map(_jsonl_line, self.records(lo, hi)))
        coords = self.coords[lo:hi]
        # the JSON text of a finite float is its repr, of an int its str;
        # columns of Python strings are joined by object-array addition
        ints = np.array(list(map(str, range(coords.max() + 1))), dtype=object)
        terms = ints[coords[:, 0]]
        for j in range(1, coords.shape[1]):
            terms = terms + ", " + ints[coords[:, j]]
        heads = np.array(['{"accepted": false, "exact": ', '{"accepted": true, "exact": '], dtype=object)
        t = np.array(list(map(str, range(self.t0 + lo, self.t0 + lo + len(exact)))), dtype=object)
        lines = (
            heads[self.accepted[lo:hi].view(np.uint8)] + _float_text(exact)
            + f', "norm": {self.norm!r}, "response": ' + _float_text(responses)
            + ', "scale": 1.0, "t": ' + t + ', "terms": [[' + terms + "]]}\n"
        )
        return "".join(lines.tolist())


def _float_text(values: np.ndarray) -> np.ndarray:
    """repr of each float as an object array, computed once per distinct
    value (by bit pattern, so that -0.0 and 0.0 stay apart)."""
    uniq, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, uniq.view(np.float64).tolist())), dtype=object)[inverse]


_JSONL_CHUNK_LINES = 2048


def _jsonl_line(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class HonestOracle:
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
        """E_D[phi], summed in term order. Query already holds its coordinates
        distinct and >= 1, so the terms are checked against d as one block,
        and each distinct (tables, slot pattern) pair is evaluated once."""
        every = [c for coords, _ in query.terms for c in coords]
        if every and max(every) > self.d:
            raise ValueError("query references a coordinate beyond the ambient dimension")
        positions = self._pos_array[every].tolist()
        values = {}
        total = 0.0
        lo = 0
        for _, tables in query.terms:
            pattern = tuple(positions[lo : lo + len(tables)])
            lo += len(tables)
            key = (tuple(map(id, tables)), pattern)
            if key not in values:
                values[key] = _term_value(self.problem, query.t_label, tables, pattern)
            total += values[key]
        return query.scale * total

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
            transcript.log(query.describe(), v, exact=exact, norm=norm, accepted=accepted)
        return v

    def answer_block(
        self, witness: Witness, coords, transcript: Transcript, threshold: float, first_hit: bool = False
    ) -> tuple[list[int], bool]:
        """Answer the witness query on each row of `coords` (ambient tuples,
        one per row) in order, logging each with `accepted = |v| > threshold`.

        Logging stops after the first accepted row when `first_hit`; at the
        transcript's budget it raises BudgetExceededError. The transcript and
        the noise stream are those of one `answer` per row. Each distinct slot
        pattern and the null norm are evaluated once per block. Returns the
        accepted row indices and False (the honest oracle never concedes).
        """
        coords = _check_block(coords, len(witness.coords), self.d)
        room = _room(transcript, len(coords))
        hits: list[int] = []
        if room:
            rows = coords[:room]
            # pattern code: each slot's support position (0 off support) as a digit
            # in base P + 1; ravel_multi_index raises if (P + 1)^k overflows int64
            _, first, inverse = np.unique(
                np.ravel_multi_index(self._pos_array[rows].T, (self.problem.p + 1,) * len(witness.coords)),
                return_index=True,
                return_inverse=True,
            )
            tables = _witness_tables(witness)
            # `0.0 +` as in exact_expectation's sum, which turns -0.0 into 0.0
            values = [0.0 + _term_value(self.problem, witness.t_label, tables, self._pos_array[rows[i]]) for i in first]
            exact = np.asarray(values)[inverse]
            norm = Query.from_witness(witness, rows[0]).l2_null_norm(self.problem)
            rng_state = self.rng.bit_generator.state
            v = exact + self._noise(exact, self.tau * norm, room)
            accepted = np.abs(v) > threshold
            m = room
            if first_hit and accepted.any():
                m = int(np.argmax(accepted)) + 1
                # leave the noise stream where m scalar draws would have left it
                self.rng.bit_generator.state = rng_state
                self._noise(exact[:m], self.tau * norm, m)
            transcript.log_block(rows[:m], v[:m], exact[:m], norm, accepted[:m])
            hits = np.flatnonzero(accepted[:m]).tolist()
        if room < len(coords) and not (first_hit and hits):
            raise BudgetExceededError(transcript)
        return hits, False


class AdversarialOracle:
    """Answers with the fully decoupled null value whenever that is consistent
    with at least two surviving plantings, pruning only the plantings it
    contradicts; concedes (FAIL) otherwise.

    A valid (not necessarily optimal) adversary for single-term structured
    queries at enumerable scale. The surviving plantings are the rows of an
    `(n, P)` array, in itertools.permutations order.
    """

    MAX_D = 14
    MAX_P = 4

    def __init__(self, problem: JuntaProblem, d: int, tau: float):
        check_tau(tau)
        if d > self.MAX_D or problem.p > self.MAX_P:
            raise ValueError(f"adversary limited to d <= {self.MAX_D}, P <= {self.MAX_P}")
        if d < problem.p:
            raise ValueError("d must be >= P")
        self.problem = problem
        self.d = d
        self.tau = tau
        self._plantings = _ordered_tuples(range(1, d + 1), problem.p)
        self.conceded = False

    @property
    def survivors(self) -> set[tuple[int, ...]]:
        return set(map(tuple, self._plantings.tolist()))

    def null_value(self, query: Query) -> float:
        total = 0.0
        mean_t = self.problem.label_expectation(query.t_label)
        for coords, tables in query.terms:
            prod = mean_t
            for tab in tables:
                prod *= self.problem.marginal.mean(tab)
                if prod == 0.0:
                    break
            total += prod
        return query.scale * total

    def answer(self, query: Query, transcript: Transcript | None = None, threshold: float | None = None):
        """The null value, or FAIL; logged as `HonestOracle.answer` logs,
        without `accepted` on a FAIL. One query is a one-row block."""
        if len(query.terms) != 1:
            raise ValueError("adversary handles single-term structured queries")
        coords, tables = query.terms[0]
        rows = _check_block([coords], len(tables), self.d)
        transcript = Transcript(self.tau) if transcript is None else transcript
        _, conceded = self._answer_rows(query, rows, transcript, threshold)
        return FAIL if conceded else self.null_value(query)

    def answer_block(
        self, witness: Witness, coords, transcript: Transcript, threshold: float, first_hit: bool = False
    ) -> tuple[list[int], bool]:
        """`HonestOracle.answer_block` for the adversary, with the same
        records as one `answer` per row; the second value is True when the
        adversary conceded (FAIL ends the block)."""
        coords = _check_block(coords, len(witness.coords), self.d)
        room = _room(transcript, len(coords))
        # the witness query on its own support positions, moved onto each row
        query = Query.from_witness(witness, witness.coords)
        hits, conceded = self._answer_rows(query, coords[:room], transcript, threshold, first_hit)
        if room < len(coords) and not (conceded or (first_hit and hits)):
            raise BudgetExceededError(transcript)
        return hits, conceded

    def _answer_rows(self, query: Query, coords, transcript, threshold, first_hit=False):
        """Answer the single-term `query` moved onto each row c of `coords`,
        in order, up to a concession or, when `first_hit`, the first accepted
        row. Returns the accepted row indices and whether it conceded.

        The null value and the null norm do not depend on the row, so they
        are computed once. A planting's slot pattern is coded per support
        position (1 + the slot on it, 0 for none) in base k + 1, so codes stay
        below (k + 1)^P; whether a pattern strays from the null by more than
        tau times the norm is decided once, when the pattern first occurs,
        and the plantings of a straying pattern are pruned.
        """
        tables = query.terms[0][1]
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
            description = {"terms": [row], "scale": query.scale}
            slot_of[row] = np.arange(1, k + 1)
            codes = slot_of[self._plantings] @ weights
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
                transcript.log(description, FAIL, norm=norm)
                return hits, True
            if kept < len(prune):
                self._plantings = self._plantings.compress(~prune, axis=0)
            transcript.log(description, null, norm=norm, accepted=accepted)
            if accepted:
                hits.append(i)
                if first_hit:
                    break
        return hits, False


def check_tau(tau) -> None:
    """An oracle's tolerance must be a finite number >= 0."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")


def check_game_kinds(learner, oracle_kind, noise_mode) -> None:
    """Raise ValueError for a learner, oracle kind or noise mode play_game does not know."""
    for what, value, known in (("learner", learner, ("adaptive", "nonadaptive", "grouped")),
                               ("oracle kind", oracle_kind, ("honest", "adversarial")),
                               ("noise mode", noise_mode, NOISE_MODES)):
        if value not in known:
            raise ValueError(f"unknown {what} {value!r}")


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
    return off * (problem.joint_expectation(t_label, on, on.keys()) if on else problem.label_expectation(t_label))


def _witness_tables(witness: Witness) -> tuple[np.ndarray, ...]:
    return tuple(witness.t_coords[pos] for pos in witness.coords)


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


def _ordered_tuples(pool, k: int) -> np.ndarray:
    """The ordered k-tuples of distinct entries of `pool`, one per row, in
    itertools.permutations order."""
    pool = list(pool)
    flat = np.fromiter(itertools.chain.from_iterable(itertools.permutations(pool, k)), dtype=np.int64)
    return flat.reshape(math.perm(len(pool), k), k)


def run_adaptive(oracle, d: int, report: DetectReport, *, budget=None, max_tuple=None):
    """Greedy frontier recovery: repeatedly confirm a detectable set that adds
    the fewest new coordinates, enumerating ordered fresh tuples (and all
    injections of recovered coordinates into old slots) until a response
    clears beta/2."""
    if report.beta is None:
        return frozenset(), Transcript(oracle.tau, budget)
    threshold = report.beta / 2.0
    transcript = Transcript(oracle.tau, budget)
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
            canonical = tuple(assigned[p] for p in old_pos)
            injections = [canonical] + [
                perm
                for perm in itertools.permutations(sorted(s_hat), len(old_pos))
                if perm != canonical
            ]
            # one block: every fresh tuple (outer) with every injection (inner)
            fresh = _ordered_tuples(fresh_pool, new_count)
            block = np.empty((len(fresh) * len(injections), len(witness.coords)), dtype=np.int64)
            block[:, ~is_old] = np.repeat(fresh, len(injections), axis=0)
            block[:, is_old] = np.tile(
                np.array(injections, dtype=np.int64).reshape(len(injections), len(old_pos)), (len(fresh), 1)
            )
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
    if report.beta is None:
        return frozenset(), Transcript(oracle.tau, budget)
    threshold = report.beta / 2.0
    transcript = Transcript(oracle.tau, budget)
    by_size = sorted(report.system.sets, key=lambda m: (m.bit_count(), m))
    families = {next(m for m in by_size if m >> (i - 1) & 1) for i in coords_from_mask(report.system.support)}
    recovered: set[int] = set()
    for mask in sorted(families, key=lambda m: (m.bit_count(), m)):
        tuples = _ordered_tuples(range(1, d + 1), mask.bit_count())
        hits, conceded = oracle.answer_block(report.witnesses[mask], tuples, transcript, threshold)
        recovered.update(tuples[hits].ravel().tolist())
        if conceded:
            break
    return frozenset(recovered), transcript


def _singleton_witness(report: DetectReport) -> Witness:
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
    (e.g. P = 1 plantings); returns that coordinate and the support position
    used.
    """
    witness = _singleton_witness(report)
    position = witness.coords[0]
    beta = abs(witness.beta)
    table = witness.t_coords[position]
    transcript = Transcript(oracle.tau, budget)
    n_bits = max(0, (d - 1).bit_length())
    scale = 1.0 / np.sqrt(d)
    threshold = beta / (2.0 * np.sqrt(d))
    index = 0
    for k in range(n_bits):
        group = [c for c in range(1, d + 1) if (c - 1) >> k & 1]
        terms = tuple(((c,), (table,)) for c in group)
        query = Query(terms, witness.t_label, scale)
        if not _room(transcript, 1):
            raise BudgetExceededError(transcript)
        v = oracle.answer(query, transcript, threshold)
        if v is FAIL:
            break
        if abs(v) > threshold:
            index |= 1 << k
    coord = index + 1
    return frozenset([coord]), transcript, position


# convenience wrappers over an honest oracle ----------------------------------


def adaptive_learner(instance, report, tau, *, noise_mode="zero", seed=0, budget=None, max_tuple=None):
    oracle = HonestOracle(instance, tau, noise_mode, seed)
    return run_adaptive(oracle, instance.d, report, budget=budget, max_tuple=max_tuple)


def nonadaptive_learner(instance, report, tau, *, noise_mode="zero", seed=0, budget=None):
    oracle = HonestOracle(instance, tau, noise_mode, seed)
    return run_nonadaptive(oracle, instance.d, report, budget=budget)


def grouped_learner(instance, report, d=None, *, tau=None, noise_mode="zero", seed=0, budget=None):
    d = instance.d if d is None else d
    beta = abs(_singleton_witness(report).beta)
    if tau is None:
        tau = beta / (4.0 * np.sqrt(d))
    oracle = HonestOracle(instance, tau, noise_mode, seed)
    s_hat, transcript, _ = run_grouped(oracle, d, report, budget=budget)
    return s_hat, transcript


# ---------------------------------------------------------------------------
# Game driver
# ---------------------------------------------------------------------------


@dataclass
class GameResult:
    verdict: str
    s_hat: frozenset
    transcript: Transcript
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
    seed: int = 0,
    max_tuple: int | None = None,
) -> GameResult:
    """Run one support-recovery game and grade the outcome."""
    check_game_kinds(learner, oracle_kind, noise_mode)
    if tau is None:
        if report.beta is None:
            raise ValueError("report has no detectable sets; tau must be explicit")
        if learner == "grouped":
            # grouped queries carry a 1/sqrt(d) signal, so the tolerance must
            # shrink with it (tau <= c/sqrt(d))
            tau = tau_factor * abs(_singleton_witness(report).beta) / np.sqrt(instance.d)
        else:
            tau = tau_factor * report.beta
    if oracle_kind == "honest":
        oracle = HonestOracle(instance, tau, noise_mode, seed)
    else:
        oracle = AdversarialOracle(instance.problem, instance.d, tau)

    target = frozenset(instance.s_star[i - 1] for i in coords_from_mask(report.system.support))
    detail = {"tau": tau, "target": sorted(target)}
    try:
        if learner == "adaptive":
            s_hat, transcript = run_adaptive(oracle, instance.d, report, budget=budget, max_tuple=max_tuple)
        elif learner == "nonadaptive":
            s_hat, transcript = run_nonadaptive(oracle, instance.d, report, budget=budget)
        else:
            s_hat, transcript, position = run_grouped(oracle, instance.d, report, budget=budget)
            target = frozenset([instance.s_star[position - 1]])
            detail["target"] = sorted(target)
    except BudgetExceededError as exc:
        return GameResult("FAIL(budget)", frozenset(), exc.transcript, detail)

    if oracle_kind == "adversarial":
        # against the adversary there is no single planted truth; the learner
        # wins only if every surviving planting has the support it output
        survivors = oracle.survivors
        detail["survivors"] = len(survivors)
        ok = bool(survivors) and all(frozenset(s) == s_hat for s in survivors)
        verdict = "SUCCESS" if ok else "FAIL"
    else:
        verdict = "SUCCESS" if s_hat == target else "FAIL"
    return GameResult(verdict, s_hat, transcript, detail)

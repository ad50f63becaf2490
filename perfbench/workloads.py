"""The three benchmark workloads: inputs, op streams, runners and oracles.

Every workload is generated from the ``--seed`` argument; the engine only
ever sees the generated relations and query texts.  All probabilities are
exact :class:`~fractions.Fraction` values, so an exact answer can be
compared with its oracle by ``==``.

* ``join_conf`` — one library session, one caller: ``confidence_all`` over
  Zipf-repeated join/project queries on tuple-independent ``R(A,B)``,
  ``S(B,C)``.  Lineage is mostly read-once, so ``auto`` answers by exact
  decomposition or point bounds; far more distinct confidence entries
  than the memo cache's 1024 slots.
* ``hard_lineage`` — one library session, one caller: ``confidence_all``,
  the σ̂ driver and top-k in turn over the unsafe H0 pattern
  ``R(G,A) ⋈ S(A,B) ⋈ T(B)``, each op on G values no earlier op touched,
  so every op computes (the working set fits the memo cache but never
  repeats).
* ``served_mix`` — ``repro.serve`` with two tenants, one wire client each:
  sessions of Zipf-repeated ``query``/``confidence_all``/σ̂/top-k requests
  over repair-key sensor readings, under a cache byte budget smaller than
  the two sessions' working set.

A pass runs ops until ``seconds`` have gone by and at least ``min_ops``
ops finished (or replays a given op list exactly).  Each op's answer is
kept for the digest and oracle checks, which run after the timed loop.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import repro
from repro.generators.tpdb import add_tuple_independent
from repro.server.protocol import encode_driver_report
from repro.urel.udatabase import UDatabase
from repro.urel.variables import VariableTable

from tracing import CURRENT_OP

# Sampled answers must land within this many ε of the oracle (relative).
# At the Prop 4.2 trial budget the chance of a 3ε miss is below 1e-9.
SAMPLED_TOLERANCE = 3


@dataclass
class Op:
    """One executed request: what ran, how long it took, what came back."""

    kind: str
    key: object
    latency: float
    tuples: int
    answer: object
    counts: dict = field(default_factory=dict)
    error: str | None = None
    done: float = 0.0  # completion time, perf_counter seconds


@dataclass
class Pass:
    """The ops of one pass plus what the program reported around them.

    ``started`` is when timing began: after the warm-up, if the pass had
    one.  ``elapsed`` runs from there to the end of the pass, and only
    the ops that began at or after ``started`` are measured.
    """

    ops: list
    elapsed: float
    info: dict = field(default_factory=dict)
    started: float = 0.0

    def measured(self) -> list:
        return [op for op in self.ops if op.done - op.latency >= self.started]

    def rate(self, weight) -> float:
        """``Σ weight(op) / elapsed`` over the measured ops."""
        return sum(weight(op) for op in self.measured()) / self.elapsed


def failed_op(kind: str, key, latency: float, exc: Exception) -> Op:
    """An op that raised: kept (and counted as failed) with its traceback."""
    traceback.print_exception(exc, file=sys.stderr)
    return Op(kind, key, latency, 0, None, {}, error=f"{type(exc).__name__}: {exc}",
              done=time.perf_counter())


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def zipf_stream(rng: random.Random | None, n_items: int, exponent: float, block: int):
    """Endless rank stream, Zipf-skewed and stratified per ``block`` draws.

    Each block holds every rank in proportion to 1/rank^exponent
    (largest-remainder rounding), so the repeat structure is the same for
    every seed.  With an ``rng`` each block is shuffled; without one every
    block is the same smooth order, each rank's draws spread evenly over
    the block, so the gaps between repeats are the same for every seed too.
    """
    weights = [1.0 / (r + 1) ** exponent for r in range(n_items)]
    total = sum(weights)
    quotas = [block * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(n_items), key=lambda r: (counts[r] - quotas[r], r))
    for r in by_remainder[: block - sum(counts)]:
        counts[r] += 1
    if rng is None:
        slots = sorted(((j + 0.5) / counts[r], r) for r in range(n_items) for j in range(counts[r]))
        ranks = [r for _position, r in slots]
    else:
        ranks = [r for r in range(n_items) for _ in range(counts[r])]
    while True:
        if rng is not None:
            rng.shuffle(ranks)
        yield from ranks


def _probs(rng: random.Random, n: int, lo: int, hi: int) -> list[Fraction]:
    """``n`` probabilities spread evenly over [lo, hi) hundredths, seed-shuffled.

    Every seed gets the same multiset; the seed decides which tuple gets
    which, so the work a workload does varies little from seed to seed.
    """
    probs = [Fraction(lo + (i * (hi - lo)) // n, 100) for i in range(n)]
    rng.shuffle(probs)
    return probs


def _relation_lineage(rows, var_prefix: str):
    """(values, var, p) per tuple-independent row, as the generator numbers them."""
    return [(values, (var_prefix, i), p) for i, (values, p) in enumerate(rows)]


def _oracle_value(clauses, weights) -> Fraction:
    """Pr[some clause holds], every variable independent and true w.p. ``weights[v]``.

    The benchmark's own exact solver — Shannon expansion on the most
    frequent variable, independent components multiplied, memoized — so
    the oracle shares no code with the engine it checks.
    """
    memo: dict = {}

    def solve(cl: frozenset) -> Fraction:
        if not cl:
            return Fraction(0)
        if frozenset() in cl:
            return Fraction(1)
        if cl in memo:
            return memo[cl]
        groups = _components(cl)
        if len(groups) > 1:
            miss = Fraction(1)
            for group in groups:
                miss *= 1 - solve(group)
            value = 1 - miss
        else:
            counts: dict = {}
            for clause in cl:
                for var in clause:
                    counts[var] = counts.get(var, 0) + 1
            var = max(sorted(counts, key=repr), key=counts.get)
            p = weights[var]
            true_branch = frozenset(clause - {var} for clause in cl)
            false_branch = frozenset(clause for clause in cl if var not in clause)
            value = p * solve(true_branch) + (1 - p) * solve(false_branch)
        memo[cl] = value
        return value

    return solve(frozenset(frozenset(clause) for clause in clauses))


def _components(clauses: frozenset) -> list[frozenset]:
    """Split clauses into groups that share no variable."""
    groups: list[tuple[set, set]] = []
    for clause in sorted(clauses, key=lambda c: sorted(map(repr, c))):
        joined = [g for g in groups if g[0] & clause]
        merged = (set(clause), {clause})
        for g in joined:
            merged[0].update(g[0])
            merged[1].update(g[1])
            groups.remove(g)
        groups.append(merged)
    return [frozenset(members) for _vars, members in groups]


def check_report(where: str, value, exact: bool, lower, upper, oracle, eps) -> list[str]:
    """Failures of one confidence answer against its oracle value."""
    failures = []
    if exact:
        if value != oracle:
            failures.append(f"{where}: exact value {value} != oracle {oracle}")
    elif abs(float(value) - float(oracle)) > SAMPLED_TOLERANCE * eps * float(oracle):
        failures.append(f"{where}: sampled value {float(value):.6f} outside "
                        f"{SAMPLED_TOLERANCE}eps of oracle {float(oracle):.6f}")
    if lower is not None and not lower <= oracle <= upper:
        failures.append(f"{where}: enclosure [{lower}, {upper}] misses oracle {oracle}")
    return failures


def check_confidences(where: str, got: dict, oracle: dict, eps: float) -> list[str]:
    """``got`` maps row -> (value, exact, lower, upper); all rows must match."""
    if set(got) != set(oracle):
        return [f"{where}: rows {sorted(got)} != oracle {sorted(oracle)}"]
    failures = []
    for row in sorted(oracle, key=repr):
        value, exact, lower, upper = got[row]
        failures += check_report(f"{where} {row}", value, exact, lower, upper, oracle[row], eps)
    return failures


def check_selection(where: str, present: set, oracle: dict, threshold: float,
                    eps: float) -> list[str]:
    """σ̂ decisions ``P > threshold`` must match the oracle away from the threshold."""
    failures = []
    for row, p in sorted(oracle.items(), key=repr):
        margin = abs(float(p) - threshold) / threshold
        if (row in present) != (p > threshold) and margin > SAMPLED_TOLERANCE * eps:
            failures.append(f"{where}: {row} decided {row in present}, "
                            f"oracle {float(p):.4f} vs threshold {threshold}")
    extra = present - set(oracle)
    if extra:
        failures.append(f"{where}: selected {sorted(extra)} are not candidates")
    return failures


def check_topk(where: str, entries: list, candidates: int, oracle: dict, eps: float) -> list[str]:
    """Ranked ``(row, value, exact, lower, upper, source)`` entries vs the oracle.

    Values are checked like any confidence (the enclosure only when it came
    from dissociation bounds, the guaranteed kind); the set must be the
    top-k up to the sampling tolerance: no left-out candidate may beat a
    ranked one by more than that slack.
    """
    failures = []
    if candidates != len(oracle):
        failures.append(f"{where}: {candidates} candidates != oracle {len(oracle)}")
    for row, value, exact, lower, upper, source in entries:
        if row not in oracle:
            failures.append(f"{where}: ranked {row} is not an answer")
            continue
        guaranteed = source == "bounds"
        failures += check_report(f"{where} {row}", value, exact,
                                 lower if guaranteed else None,
                                 upper if guaranteed else None, oracle[row], eps)
    chosen = {row for row, *_rest in entries}
    slack = 1 + 2 * SAMPLED_TOLERANCE * eps
    worst_in = min((oracle[r] for r in chosen if r in oracle), default=None)
    best_out = max((p for r, p in oracle.items() if r not in chosen), default=None)
    if worst_in is not None and best_out is not None and best_out > worst_in * slack:
        failures.append(f"{where}: left-out answer {float(best_out):.4f} beats "
                        f"ranked {float(worst_in):.4f}")
    return failures


# ====================================================================== library
class LibraryWorkload:
    """Shared runner for the two single-session library workloads.

    Subclasses set ``name``, ``eps``, ``delta`` and supply ``generate``,
    ``op_stream``, ``query_text`` and ``lineage`` (the oracle's own
    derivation of each result tuple's clauses from the generated rows).
    """

    def __init__(self, seed: int):
        self.seed = seed

    # -- set-up: generate, load, connect, prestart -----------------------
    def open(self, workers: int):
        rows = self.generate()
        db = UDatabase({}, VariableTable(), set())
        for name, columns, relation_rows in rows:
            add_tuple_independent(db, name, columns, relation_rows)
        session = repro.connect(
            db,
            backend="numpy",
            workers=workers,
            rng=self.seed,
            eps=self.eps,
            delta=self.delta,
        )
        session.executor.prestart()
        self.rows = {name: relation_rows for name, _columns, relation_rows in rows}
        return session

    def close(self, session) -> None:
        session.close()

    # -- the timed loop ----------------------------------------------------
    def run(self, session, seconds: float, min_ops: int, replay=None, rec=None,
            prefix: int = 0, warmup: float = 0.0) -> Pass:
        stream = iter(replay) if replay is not None else self.op_stream()
        ops: list[Op] = []
        info: dict = {}
        started = time.perf_counter() + warmup
        warm = 0  # ops begun before timing started
        for kind, key in stream:
            now = time.perf_counter()
            if now < started:
                warm += 1
            elif replay is None and len(ops) - warm >= min_ops and now - started >= seconds:
                break
            op_id = f"op{len(ops)}"
            token = CURRENT_OP.set(op_id)
            t0 = time.perf_counter()
            try:
                if rec is None:
                    answer = self.execute(session, kind, key)
                else:
                    answer = rec.span("op", self.execute, session, kind, key)
            except Exception as exc:  # a failed op is counted, not fatal
                ops.append(failed_op(kind, key, time.perf_counter() - t0, exc))
            else:
                t1 = time.perf_counter()
                ops.append(Op(kind, key, t1 - t0, self.tuples(kind, answer), answer,
                              self.counts(kind, answer), done=t1))
            finally:
                CURRENT_OP.reset(token)
            if len(ops) == prefix:
                info["prefix_cache"] = dict(session.cache_stats)
        elapsed = time.perf_counter() - started
        info["cache"] = dict(session.cache_stats)
        return Pass(ops, elapsed, info, started)

    @staticmethod
    def prefix_ops(ops: list, prefix: int) -> list:
        return ops[:prefix]

    @staticmethod
    def replay_plan(ops: list, prefix: int | None = None) -> list:
        return [(op.kind, op.key) for op in ops[:prefix]]

    def describe(self, result: Pass) -> dict:
        """The workload record: loop, callers, sizes and (ε, δ)."""
        answered = [op for op in result.ops if op.error is None]
        entries = {(op.key, row) for op in answered if op.kind == "conf_all" for row in op.answer}
        return {
            "loop": "closed",
            "callers": 1,
            "base_rows": {name: len(rows) for name, rows in self.rows.items()},
            "tuples_per_op": sum(op.tuples for op in answered) / max(1, len(answered)),
            "distinct_conf_entries": len(entries),
            "memo_cache_slots": 1024,
            "memo_cache": result.info["cache"],
            "eps": self.eps,
            "delta": self.delta,
        }

    def execute(self, session, kind: str, key):
        text = self.query_text(kind, key)
        if kind == "conf_all":
            return session.confidence_all(text)
        if kind == "aselect":
            return session.evaluate_with_guarantee(text, delta=self.delta, eps0=self.eps)
        if kind == "topk":
            return session.topk(text, self.topk_k)
        raise ValueError(kind)

    @staticmethod
    def tuples(kind: str, answer) -> int:
        if kind == "conf_all":
            return len(answer)
        if kind == "aselect":
            return len(answer.tuple_bounds)
        return len(answer.entries)

    @staticmethod
    def counts(kind: str, answer) -> dict:
        if kind == "conf_all":
            return {
                "trials": sum(r.samples for r in answer.values()),
                "result_rows": len(answer),
            }
        if kind == "aselect":
            return {
                "trials": sum(d.decision.total_trials for d in answer.decisions),
                "bounds_certified": answer.bounds_certified,
                "driver_evaluations": answer.evaluations,
                "result_rows": len(answer.relation),
            }
        return {
            "topk_trials": answer.total_trials,
            "topk_bounds_decided": answer.bounds_decided,
            "result_rows": len(answer.entries),
        }

    @staticmethod
    def answer_key(kind: str, answer):
        """A canonical, order-independent rendering of one answer."""
        if kind == "conf_all":
            return sorted(
                (
                    (row, r.value, r.method, r.exact, r.samples, r.lower, r.upper)
                    for row, r in answer.items()
                ),
                key=repr,
            )
        if kind == "aselect":
            return json.dumps(encode_driver_report(answer), sort_keys=True)
        return repr(answer)

    # -- answer checks -----------------------------------------------------
    def check(self, ops: list[Op], rng: random.Random, n_ops: int, n_tuples: int) -> list:
        """(op key, message) per failed check on a seeded sample of ops."""
        weights = {
            var: p
            for name, relation_rows in self.rows.items()
            for _values, var, p in _relation_lineage(relation_rows, f"ti:{name}")
        }
        failures = []
        done = [i for i, op in enumerate(ops) if op.error is None]
        for index in sorted(rng.sample(done, min(n_ops, len(done)))):
            op = ops[index]
            lineage = self.lineage(op.kind, op.key)
            where = f"{self.name} op {index} {op.kind} {op.key}"
            if op.kind == "conf_all":
                # Every tuple must be there; values are checked on a sample.
                rows = sorted(lineage, key=repr)
                sample = rng.sample(rows, min(n_tuples, len(rows)))
                oracle = {row: _oracle_value(lineage[row], weights) for row in sample}
                got = {row: (r.value, r.exact, r.lower, r.upper)
                       for row, r in op.answer.items()}
                found = []
                if set(got) != set(lineage):
                    found.append(f"{where}: tuples {sorted(got)} != oracle {rows}")
                else:
                    found = check_confidences(where, {row: got[row] for row in sample},
                                              oracle, self.eps)
            else:
                oracle = {row: _oracle_value(clauses, weights)
                          for row, clauses in lineage.items()}
                if op.kind == "topk":
                    report = op.answer
                    entries = [(e.row, e.value, e.exact, e.lower, e.upper, e.source)
                               for e in report.entries]
                    found = check_topk(where, entries, report.candidates, oracle, self.eps)
                else:
                    relation = op.answer.relation
                    position = relation.columns.index(self.group_column)
                    present = {(row[position],) for _cond, row in relation.rows}
                    found = check_selection(where, present, oracle, self.threshold, self.eps)
            failures += [(op.key, message) for message in found]
        return failures


class JoinConf(LibraryWorkload):
    name = "join_conf"
    eps = 0.1
    delta = 0.01
    # R(A,B) ⋈ S(B,C): domain sizes and rows per A (in R) and per C (in S).
    n_a, n_b, n_c = 60, 40, 30
    r_per_a, s_per_c = 20, 20
    zipf_exponent = 0.6

    def generate(self):
        """Every A value has ``r_per_a`` R rows and every C value ``s_per_c``
        S rows, so every query constant has the same fan-out."""
        rng = random.Random(self.seed)

        def relation(n_keys, per_key, key_first):
            values = []
            for key in range(n_keys):
                for b in sorted(rng.sample(range(self.n_b), per_key)):
                    values.append((f"a{key}", f"b{b}") if key_first else (f"b{b}", f"c{key}"))
            return list(zip(values, _probs(rng, len(values), 5, 95)))

        return [
            ("R", ("A", "B"), relation(self.n_a, self.r_per_a, True)),
            ("S", ("B", "C"), relation(self.n_c, self.s_per_c, False)),
        ]

    def queries(self):
        """Every (template, parameter) pair, hottest first.

        Ranks cycle through the three templates, so every seed gets the
        same template mix at every popularity; the seed picks which
        constant sits at which rank.  The templates cost about the same
        per op, so the median latency falls inside one dense cluster.
        """
        rng = random.Random(self.seed + 1)
        columns = {"c": range(self.n_c), "bb": range(self.n_b), "aa": range(self.n_a)}
        shuffled = {t: rng.sample(list(values), self.n_c) for t, values in columns.items()}
        return [(t, shuffled[t][i]) for i in range(self.n_c) for t in columns]

    def op_stream(self):
        keys = self.queries()
        for rank in zipf_stream(None, len(keys), self.zipf_exponent, 200):
            yield "conf_all", keys[rank]

    def query_text(self, kind, key):
        template, x = key
        if template == "c":
            return f"project[A](join(R, select[C = 'c{x}'](S)))"
        y = (x + 1) % (self.n_b if template == "bb" else self.n_a)
        if template == "bb":
            return f"project[A](join(select[B = 'b{x}' or B = 'b{y}'](R), S))"
        return f"project[C](join(select[A = 'a{x}' or A = 'a{y}'](R), S))"

    def lineage(self, kind, key):
        template, x = key
        n = self.n_b if template == "bb" else self.n_a
        keep_r = {
            "c": lambda a, b: True,
            "bb": lambda a, b: b in (f"b{x}", f"b{(x + 1) % n}"),
            "aa": lambda a, b: a in (f"a{x}", f"a{(x + 1) % n}"),
        }[template]
        keep_s = (lambda b, c: c == f"c{x}") if template == "c" else (lambda b, c: True)
        out_a = template in ("c", "bb")
        s_by_b: dict = {}
        for (b, c), var, _p in _relation_lineage(self.rows["S"], "ti:S"):
            if keep_s(b, c):
                s_by_b.setdefault(b, []).append((c, var))
        clauses: dict = {}
        for (a, b), rvar, _p in _relation_lineage(self.rows["R"], "ti:R"):
            if not keep_r(a, b):
                continue
            for c, svar in s_by_b.get(b, ()):
                clauses.setdefault((a,) if out_a else (c,), set()).add((rvar, svar))
        return {row: sorted(cl, key=repr) for row, cl in clauses.items()}


class HardLineage(LibraryWorkload):
    name = "hard_lineage"
    eps = 0.2
    delta = 0.05
    threshold = 0.5
    topk_k = 1
    group_column = "G"
    # H0: R(G,A) ⋈ S(A,B) ⋈ T(B).  Each G joins per_g A's; each A per_a B's.
    n_g, n_a, n_b = 2400, 20, 12
    per_g, per_a, n_t = 6, 6, 8
    window = {"conf_all": 2, "aselect": 2, "topk": 4}

    def generate(self):
        """R gives every G ``per_g`` random A's; S and T are fixed (below)."""
        rng = random.Random(self.seed)
        # S and T form one fixed design — A a joins B's a..a+per_a-1 (mod
        # n_b), T holds n_t of the B's — under a seeded relabelling of B,
        # so every seed's lineage has the same sharing structure.
        label = list(range(self.n_b))
        rng.shuffle(label)
        r = [(g, a) for g in range(self.n_g) for a in sorted(rng.sample(range(self.n_a), self.per_g))]
        s = [(a, label[(a + j) % self.n_b]) for a in range(self.n_a) for j in range(self.per_a)]
        t = [(label[b],) for b in range(self.n_t)]
        return [
            (name, columns, list(zip(values, _probs(rng, len(values), 5, 50))))
            for name, columns, values in (("R", ("G", "A"), r), ("S", ("A", "B"), s), ("T", ("B",), t))
        ]

    def op_stream(self):
        """conf_all, aselect, topk in turn, each on G values not used before."""
        kinds = ("conf_all", "aselect", "topk")
        starts = list(range(0, self.n_g, sum(self.window.values())))
        random.Random(self.seed + 1).shuffle(starts)
        for start in starts:
            lo = start
            for kind in kinds:
                hi = lo + self.window[kind]
                yield kind, (lo, hi)
                lo = hi

    def query_text(self, kind, key):
        lo, hi = key
        body = f"join(join(select[G >= {lo} and G < {hi}](R), S), T)"
        if kind == "aselect":
            return f"aselect[P > {self.threshold} ; conf(G) as P]({body})"
        return f"project[G]({body})"

    def lineage(self, kind, key):
        lo, hi = key
        t_vars = {b: var for (b,), var, _p in _relation_lineage(self.rows["T"], "ti:T")}
        s_by_a: dict = {}
        for (a, b), var, _p in _relation_lineage(self.rows["S"], "ti:S"):
            if b in t_vars:
                s_by_a.setdefault(a, []).append((var, t_vars[b]))
        clauses: dict = {}
        for (g, a), rvar, _p in _relation_lineage(self.rows["R"], "ti:R"):
            if lo <= g < hi:
                for svar, tvar in s_by_a.get(a, ()):
                    clauses.setdefault((g,), set()).add((rvar, svar, tvar))
        return {row: sorted(cl, key=repr) for row, cl in clauses.items()}


# ======================================================================= served
class ServedMix:
    """Two tenants, one wire client each, sessions of mixed requests."""

    name = "served_mix"
    eps = 0.1
    delta = 0.05
    threshold = 0.5
    topk_k = 2
    n_sensors, n_epochs, zone_size = 240, 6, 12
    hot_share = 0.3
    clients = 2
    zipf_exponent = 1.0
    max_cache_bytes = 1_000_000
    mix = (("query", 5), ("conf_all", 5), ("aselect", 3), ("topk", 3))

    def __init__(self, seed: int):
        self.seed = seed

    # -- set-up ------------------------------------------------------------
    def generate(self):
        """Readings(Sensor, Zone, Epoch, Level, W): per (sensor, epoch) three
        weighted levels; every zone has the same number of hot readings."""
        rng = random.Random(self.seed)
        per_zone = self.zone_size * self.n_epochs
        rows = []
        for zone in range(self.n_sensors // self.zone_size):
            hot = set(rng.sample(range(per_zone), round(self.hot_share * per_zone)))
            for i in range(per_zone):
                sensor = zone * self.zone_size + i // self.n_epochs
                epoch = i % self.n_epochs
                base = (1, 2, 6) if i in hot else (6, 2, 1)
                for level, weight in zip(("low", "mid", "high"), base):
                    rows.append((sensor, zone, epoch, level, weight + rng.randint(0, 2)))
        return rows

    def open(self, workers: int):
        self.readings = self.generate()
        relation = repro.Relation.from_rows(("Sensor", "Zone", "Epoch", "Level", "W"),
                                            self.readings)
        return repro.serve(
            {"Readings": relation},
            workers=workers,
            backend="numpy",
            eps=self.eps,
            delta=self.delta,
            max_cache_bytes=self.max_cache_bytes,
        )

    def close(self, server) -> None:
        if not server.closed:
            asyncio.run(server.aclose())

    # -- op streams ----------------------------------------------------------
    def session_script(self, client: int, index: int):
        rng = random.Random(f"{self.seed}/{client}/{index}")
        n_zones = self.n_sensors // self.zone_size
        zones = list(range(n_zones))
        random.Random(f"{self.seed}/zones").shuffle(zones)
        kinds = [kind for kind, count in self.mix for _ in range(count)]
        ranks = zipf_stream(rng, n_zones, self.zipf_exponent, len(kinds))
        rng.shuffle(kinds)
        return [(kind, zones[next(ranks)]) for kind in kinds]

    @staticmethod
    def session_seed(seed: int, client: int, index: int) -> int:
        return seed * 1_000_003 + client * 10_007 + index

    @staticmethod
    def _state(zone: int, levels: str) -> str:
        return (f"select[{levels}](repair-key[Sensor, Epoch @ W]"
                f"(select[Zone = {zone}](Readings)))")

    def query_text(self, kind, zone):
        high = self._state(zone, "Level = 'high'")
        if kind == "query":
            return f"conf[P](project[Sensor]({high}))"
        if kind == "conf_all":
            return f"project[Epoch]({high})"
        if kind == "aselect":
            return f"aselect[P > {self.threshold} ; conf(Sensor) as P]({high})"
        either = self._state(zone, "Level = 'high' or Level = 'mid'")
        return f"project[Sensor]({either})"

    # -- the timed loop ------------------------------------------------------
    def run(self, server, seconds: float, min_ops: int, replay=None, rec=None,
            prefix: int = 0, warmup: float = 0.0) -> Pass:
        return asyncio.run(self._run(server, seconds, min_ops, replay, rec, prefix, warmup))

    async def _run(self, server, seconds, min_ops, replay, rec, prefix, warmup) -> Pass:
        ops: list[Op] = []
        started = time.perf_counter() + (0.0 if replay is not None else warmup)

        def more(client: int, index: int) -> bool:
            if replay is not None:
                return index < replay[client]
            now = time.perf_counter()
            return (
                index < prefix
                or now < started + seconds
                or sum(op.done - op.latency >= started for op in ops) < min_ops
            )

        async def drive(client_no: int):
            client = repro.Client(server, tenant=f"tenant{client_no}", wire=True)
            index = 0
            while more(client_no, index):
                await self._session(client, client_no, index, ops, rec)
                index += 1
            return index

        sessions = await asyncio.gather(*(drive(c) for c in range(self.clients)))
        elapsed = time.perf_counter() - started
        stats = await repro.Client(server, tenant="observer").stats()
        await server.aclose()
        ops.sort(key=lambda op: op.key)
        return Pass(ops, elapsed, {"sessions": list(sessions), "stats": stats}, started)

    async def _session(self, client, client_no: int, index: int, ops: list, rec) -> None:
        script = self.session_script(client_no, index)

        async def timed(step: int, kind: str, zone, call):
            op_id = f"c{client_no}s{index}o{step}"
            token = CURRENT_OP.set(op_id)
            key = (client_no, index, step, zone)
            t0 = time.perf_counter()
            try:
                answer = await call
            except Exception as exc:  # typed server errors included
                ops.append(failed_op(kind, key, time.perf_counter() - t0, exc))
                return None
            finally:
                t1 = time.perf_counter()
                CURRENT_OP.reset(token)
            if rec is not None:
                rec.interval("op", t0, t1, op_id)
            ops.append(Op(kind, key, t1 - t0, self.tuples(kind, answer), answer,
                          self.counts(kind, answer), done=t1))
            return answer

        seed = self.session_seed(self.seed, client_no, index)
        session = await timed(0, "open", None, client.open_session(seed=seed))
        if session is None:
            return
        for step, (kind, zone) in enumerate(script, start=1):
            text = self.query_text(kind, zone)
            if kind == "query":
                call = session.query(text)
            elif kind == "conf_all":
                call = session.confidence_all(text)
            elif kind == "aselect":
                call = session.evaluate_with_guarantee(text, delta=self.delta, eps0=self.eps)
            else:
                call = session.topk(text, self.topk_k)
            await timed(step, kind, zone, call)
        await timed(len(script) + 1, "close", None, session.close())

    @staticmethod
    def prefix_ops(ops: list, prefix: int) -> list:
        return [op for op in ops if op.key[1] < prefix]

    def replay_plan(self, ops: list, prefix: int | None = None) -> list:
        """Sessions per client to replay: all of them, or the first ``prefix``."""
        done = [
            1 + max((op.key[1] for op in ops if op.key[0] == c), default=-1)
            for c in range(self.clients)
        ]
        return done if prefix is None else [min(prefix, n) for n in done]

    def describe(self, result: Pass) -> dict:
        answered = [op for op in result.ops if op.error is None]
        compute = [op for op in answered if op.kind not in ("open", "close")]
        return {
            "loop": "closed",
            "callers": self.clients,
            "sessions_per_client": result.info["sessions"],
            "base_rows": {"Readings": len(self.readings)},
            "tuples_per_op": sum(op.tuples for op in compute) / max(1, len(compute)),
            "max_cache_bytes": self.max_cache_bytes,
            "budget": result.info["stats"]["cache"],
            "scheduler": result.info["stats"]["scheduler"],
            "eps": self.eps,
            "delta": self.delta,
        }

    @staticmethod
    def tuples(kind: str, answer) -> int:
        if kind in ("query", "conf_all"):
            return len(answer)
        if kind == "aselect":
            return len(answer["tuple_bounds"])
        if kind == "topk":
            return len(answer["entries"])
        return 0

    @staticmethod
    def counts(kind: str, answer) -> dict:
        if kind == "conf_all":
            return {"trials": sum(r["samples"] for r in answer.values()),
                    "result_rows": len(answer)}
        if kind == "query":
            return {"result_rows": len(answer)}
        if kind == "aselect":
            return {"bounds_certified": answer["bounds_certified"],
                    "driver_evaluations": answer["evaluations"],
                    "result_rows": len(answer["rows"])}
        if kind == "topk":
            return {"topk_trials": answer["total_trials"],
                    "topk_bounds_decided": answer["bounds_decided"],
                    "result_rows": len(answer["entries"])}
        return {}

    @staticmethod
    def answer_key(kind: str, answer):
        if kind in ("open", "close"):
            return None  # session ids depend on the other tenant's timing
        if kind == "conf_all":
            return sorted(answer.items(), key=repr)
        return answer

    # -- answer checks -------------------------------------------------------
    def _level_probs(self):
        totals: dict = {}
        for sensor, _zone, epoch, _level, weight in self.readings:
            totals[(sensor, epoch)] = totals.get((sensor, epoch), 0) + weight
        return {
            (sensor, epoch, level): Fraction(weight, totals[(sensor, epoch)])
            for sensor, _zone, epoch, level, weight in self.readings
        }

    def check(self, ops: list[Op], rng: random.Random, n_ops: int, n_tuples: int) -> list:
        """(op key, message) per failed check on a seeded sample of ops."""
        probs = self._level_probs()
        sensors_in = {
            zone: sorted({s for s, z, *_ in self.readings if z == zone})
            for zone in range(self.n_sensors // self.zone_size)
        }

        def any_of(pairs, levels):
            miss = Fraction(1)
            for sensor, epoch in pairs:
                miss *= 1 - sum(probs[(sensor, epoch, level)] for level in levels)
            return 1 - miss

        def per_sensor(zone, levels):
            return {(s,): any_of([(s, e) for e in range(self.n_epochs)], levels)
                    for s in sensors_in[zone]}

        def per_epoch(zone):
            return {(e,): any_of([(s, e) for s in sensors_in[zone]], ("high",))
                    for e in range(self.n_epochs)}

        compute = [
            i for i, op in enumerate(ops)
            if op.error is None and op.kind not in ("open", "close")
        ]
        failures = []
        for index in sorted(rng.sample(compute, min(n_ops, len(compute)))):
            op = ops[index]
            zone = op.key[3]
            where = f"{self.name} op {op.key} {op.kind}"
            if op.kind == "query":
                got = {row[:-1]: (row[-1], True, None, None) for row in op.answer}
                found = check_confidences(where, got, per_sensor(zone, ("high",)), self.eps)
            elif op.kind == "conf_all":
                got = {row: (r["value"], r["exact"], r["lower"], r["upper"])
                       for row, r in op.answer.items()}
                found = check_confidences(where, got, per_epoch(zone), self.eps)
            elif op.kind == "aselect":
                present = {(row[0],) for row in op.answer["rows"]}
                found = check_selection(where, present, per_sensor(zone, ("high",)),
                                        self.threshold, self.eps)
            else:
                entries = [(e["row"], e["value"], e["exact"], e["lower"], e["upper"],
                            e["source"]) for e in op.answer["entries"]]
                found = check_topk(where, entries, op.answer["candidates"],
                                   per_sensor(zone, ("high", "mid")), self.eps)
            failures += [(op.key, message) for message in found]
        return failures


WORKLOADS = {cls.name: cls for cls in (JoinConf, HardLineage, ServedMix)}

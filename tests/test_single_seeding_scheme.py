"""One seeding scheme: sampled answers depend on the seed and nothing else.

Every session runs the shard plan (omitting ``workers`` means the plan
run serially), and the Karp–Luby kernels fix their clause order by
``repr`` rather than by ``frozenset`` iteration.  So sampled
``confidence_all`` answers, σ̂ driver reports and top-k reports must be
bit-identical whether ``workers`` is omitted or set to 1, 2 or 4, and
under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.generators.tpdb import add_tuple_independent
from repro.urel.udatabase import UDatabase
from repro.urel.variables import VariableTable
from repro.util.backends import available_backends

BODY = "join(join(R, S), T)"


def h0_database(n_g: int = 16, seed: int = 5) -> UDatabase:
    """Tuple-independent R(G,A), S(A,B), T(B): the unsafe H0 lineage.

    Each G's DNF has clauses sharing S and T variables, so it is not
    read-once and Karp–Luby has to sample it.  16 groups are enough for
    the shard plan to cut the tuple list and the σ̂ candidate list.
    """
    rng = random.Random(seed)

    def prob() -> Fraction:
        return Fraction(rng.randint(2, 8), 10)

    db = UDatabase({}, VariableTable(), set())
    r = [((g, a), prob()) for g in range(n_g) for a in sorted(rng.sample(range(8), 4))]
    s = [((a, b), prob()) for a in range(8) for b in sorted(rng.sample(range(6), 3))]
    t = [((b,), prob()) for b in range(6)]
    add_tuple_independent(db, "R", ("G", "A"), r)
    add_tuple_independent(db, "S", ("A", "B"), s)
    add_tuple_independent(db, "T", ("B",), t)
    return db


def transcript(backend: str, workers: int | None = None) -> tuple:
    """Sampled confidence_all, σ̂ driver and top-k answers of one session."""
    with repro.connect(
        h0_database(),
        strategy="karp-luby",
        eps=0.4,
        delta=0.1,
        rng=11,
        backend=backend,
        workers=workers,
    ) as db:
        conf = db.confidence_all(f"project[G]({BODY})")
        driver = db.evaluate_with_guarantee(
            f"aselect[P > 0.5 ; conf(G) as P]({BODY})",
            delta=0.3,
            eps0=0.4,
            bounds_budget=0,
        )
        top = db.topk(f"project[G]({BODY})", 3, bounds_budget=0)
    return (
        sorted((row, report.value, report.samples) for row, report in conf.items()),
        sorted(map(repr, driver.relation.rows)),
        sorted(map(repr, driver.tuple_bounds.items())),
        driver.rounds,
        [(record.data, record.decision) for record in driver.decisions],
        top,
    )


def digest() -> str:
    """SHA-256 of every backend's transcript in a default session."""
    text = repr([transcript(backend) for backend in available_backends()])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("backend", available_backends())
def test_default_session_matches_every_worker_count(backend):
    results = {workers: transcript(backend, workers) for workers in (None, 1, 2, 4)}
    assert results[None] == results[1] == results[2] == results[4]
    conf, _rows, _bounds, _rounds, decisions, top = results[None]
    # The transcript means little unless every layer actually sampled.
    assert all(samples > 0 for _row, _value, samples in conf)
    assert any(decision.total_trials > 0 for _data, decision in decisions)
    assert top.total_trials > 0


def test_answers_do_not_depend_on_the_hash_seed():
    """The same seed gives the same bits under PYTHONHASHSEED 1, 2 and 3.

    Conditions reach a DNF in ``frozenset`` order, which follows the
    hash seed; Definition 4.1's "smallest index" test must not.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import test_single_seeding_scheme as m; print(m.digest())"
    )
    digests = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env.pop("REPRO_WORKERS", None)
        out = subprocess.run(
            [sys.executable, "-c", script, src, tests],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests

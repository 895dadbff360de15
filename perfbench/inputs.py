"""Seeded input generators for the benchmark workloads.

Every input is generated here from the ``--seed`` argument and loaded only
through the public ``Database.create_table`` / ``Database.insert`` API.  The
program's own dataset generators are deliberately not used: a change to them
would silently change what the benchmark measures.

Sizes are fixed per workload and only identities vary with the seed (which
entity lands in which group), so every seed yields inputs of the same shape
and the same cost to within a few percent.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

COAUTHOR_QUERY = """
Nodes(ID, Name) :- Entity(ID, Name).
Edges(ID1, ID2) :- R(ID1, G), R(ID2, G).
"""

LAYERED_QUERY = """
Nodes(ID, Name) :- Entity(ID, Name).
Edges(ID1, ID2) :- A(K1, ID1), B(K1, P), B(K2, P), A(K2, ID2).
"""


@dataclass(frozen=True)
class Relations:
    """Generated rows, table by table, ready to load into a ``Database``."""

    #: table name -> (column spec, rows), in load order
    tables: dict[str, tuple[list[tuple[str, str]], list[tuple]]]
    query: str

    @property
    def rows(self) -> int:
        return sum(len(rows) for _, rows in self.tables.values())


def load(relations: Relations):
    """A fresh ``Database`` holding ``relations`` (the set-up step every
    workload times)."""
    from repro.relational.database import Database

    db = Database("bench")
    for table, (columns, rows) in relations.tables.items():
        db.create_table(table, columns)
        db.insert(table, rows)
    return db


def _entities(count: int) -> list[tuple]:
    return [(e, f"entity_{e}") for e in range(count)]


def cooccurrence(seed: int, entities: int, groups: int, mean_group: int) -> Relations:
    """A skewed two-column co-occurrence relation ``R(id, g)``.

    Group sizes cycle deterministically through ``mean_group - 4 ..
    mean_group + 4`` so every seed has the same row count; members are drawn
    with Zipf popularity (weight ``1 / (rank + 1)``) over a seeded
    permutation of the entities, so prolific entities exist as in the paper's
    co-author data.
    """
    rng = random.Random(seed)
    order = list(range(entities))
    rng.shuffle(order)
    cumulative = _zipf(entities)
    rows = []
    for group in range(groups):
        size = mean_group - 4 + group % 9
        members: set[int] = set()
        while len(members) < size:
            members.update(order[i] for i in _pick(rng, cumulative, size - len(members)))
        rows.extend((member, group) for member in sorted(members))
    return Relations(
        tables={
            "Entity": ([("id", "int"), ("name", "str")], _entities(entities)),
            "R": ([("id", "int"), ("g", "int")], rows),
        },
        query=COAUTHOR_QUERY,
    )


def _zipf(size: int) -> list[float]:
    """Cumulative Zipf weights ``1 / (rank + 1)`` of ``size`` ranks."""
    cumulative = []
    total = 0.0
    for rank in range(size):
        total += 1.0 / (rank + 1)
        cumulative.append(total)
    return cumulative


def _pick(rng: random.Random, cumulative: list[float], count: int) -> list[int]:
    """``count`` ranks drawn with the weights behind ``cumulative``."""
    return [bisect_left(cumulative, rng.random() * cumulative[-1]) for _ in range(count)]


def layered(
    seed: int,
    entities: int,
    covered: int,
    rows_a: int,
    rows_b: int,
    selectivity_outer: float,
    selectivity_inner: float,
) -> Relations:
    """A three-join chain ``A(k, id)``, ``B(k, p)`` in the paper's
    ``Layered_1`` shape, where selectivity is ``distinct(key) / rows``.

    Rows are spread evenly: every join key gets the same number of rows
    (give or take one), and ``A`` names exactly ``covered`` of the entities,
    each as evenly.  Which entity and which ``p`` value a key gets is
    random, so seeds differ in structure but not in size or cost.
    """
    rng = random.Random(seed)
    keys = max(1, int(selectivity_outer * rows_a))
    distinct_p = max(1, int(selectivity_inner * rows_b))
    a = _spread(rng, keys, rng.sample(range(entities), covered), rows_a)
    b = _spread(rng, keys, list(range(distinct_p)), rows_b)
    return Relations(
        tables={
            "Entity": ([("id", "int"), ("name", "str")], _entities(entities)),
            "A": ([("k", "int"), ("id", "int")], sorted(a)),
            "B": ([("k", "int"), ("p", "int")], sorted(b)),
        },
        query=LAYERED_QUERY,
    )


def _spread(rng: random.Random, keys: int, values: list[int], rows: int) -> list[tuple]:
    """``rows`` distinct ``(key, value)`` pairs in which every key and every
    value occurs as often as every other, give or take one."""
    while True:
        pool = values * (rows // len(values)) + rng.sample(values, rows % len(values))
        pairs = []
        for key in range(keys):
            size = rows // keys + (key < rows % keys)
            chosen: set[int] = set()
            for _ in range(100 * size):
                if len(chosen) == size:
                    break
                index = rng.randrange(len(pool))
                if pool[index] not in chosen:
                    chosen.add(pool[index])
                    pool[index] = pool[-1]
                    pool.pop()
            if len(chosen) < size:
                break  # the pool's last values repeat a chosen one: deal again
            pairs.extend((key, value) for value in chosen)
        else:
            return pairs


def catalogue(seed: int, vertices: list[int]) -> list[tuple[str, dict]]:
    """The serve workload's request catalogue, most popular first: (algorithm,
    params) variants of every kind, interleaved so that each kind has popular
    and rare variants.  The popularity order is fixed so every seed asks for
    the same mix of cheap and costly work; the seed picks the BFS sources
    among ``vertices``."""
    sources = random.Random(seed).sample(vertices, 6)
    dampings = (0.85, 0.9, 0.8, 0.875, 0.825)
    single = ("degree", "components", "kcore")
    entries: list[tuple[str, dict]] = []
    for rank, source in enumerate(sources):
        if rank < len(dampings):
            entries.append(("pagerank", {"damping": dampings[rank]}))
        entries.append(("bfs", {"source": source}))
        if rank < 4:
            entries.append(("betweenness", {"sample_size": 8, "seed": rank}))
        if rank < len(single):
            entries.append((single[rank], {}))
    return entries


def operations(seed: int, client: int, size: int, entities: int, write_every: int):
    """One client's endless operation stream: every ``write_every``-th
    operation adds a random edge, the rest read catalogue entry ``index``
    drawn with Zipf popularity (weight ``1 / (rank + 1)``)."""
    rng = random.Random(seed * 1000 + client)
    cumulative = _zipf(size)
    count = 0
    while True:
        count += 1
        if count % write_every == 0:
            yield "write", (rng.randrange(entities), rng.randrange(entities))
        else:
            yield "read", _pick(rng, cumulative, 1)[0]

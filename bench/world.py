"""Seeded scholarly world: the benchmark's input generator.

The world is the five-service federation of ``tests/synthfed.py`` grown by a
scale factor: people, organisations, papers and entities multiply by the
scale, while cities, sectors, topics and years stay fixed, so every anchored
query keeps its answer count (a person writes 3 papers, an organisation
employs 10 people, each paper cites 2 papers) and only the relations it joins
into grow.  At scale 1 and seed 0 the triples and queries are exactly those
of ``tests/synthfed.py``; any other seed draws other anchor constants of the
same shape and shuffles the query order.  Where a query's answers stream in
depends on its anchors (a paper's place in a paged, sorted relation), so a
workload may run the queries under several anchor draws at once, and the
draws together form a stratified sample of the anchors, which keeps its
figures from hinging on the seed.

Terms are plain N-Triples strings, so this module needs nothing from the
engine; ``write`` lays a world out as N-Triples files, a manifest and one
``.rq`` file per query, which is all the engine sees.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

NS = "http://synth.test/"

# Per unit of scale; N_PAPERS / N_PERSONS = 3 papers per person and
# N_PERSONS / N_ORGS = 10 people per organisation at every scale.
N_PERSONS = 200
N_ORGS = 20
N_PAPERS = 600
N_ENTITIES = 50
# Fixed at every scale.
N_CITIES = 5
N_SECTORS = 4
N_TOPICS = 12
N_YEARS = 20
# Papers below this index carry a second mention, at every scale.
DOUBLE_MENTION_PAPERS = 300


def u(name: str) -> str:
    return f"<{NS}{name}>"


def lit(value: str) -> str:
    return f'"{value}"'


WORKS_FOR, NAME, LOCATED_IN, SECTOR = u("worksFor"), u("name"), u("locatedIn"), u("sector")
AUTHOR, TOPIC, YEAR, CITES, MENTIONS = u("author"), u("topic"), u("year"), u("cites"), u("mentions")

Triple = tuple[str, str, str]
Query = tuple[str, tuple[Triple, ...]]


@dataclass(frozen=True)
class Service:
    uri: str
    interface: str
    triples: tuple[Triple, ...]


@dataclass(frozen=True)
class World:
    services: tuple[Service, ...]
    queries: tuple[Query, ...]

    @property
    def triple_count(self) -> int:
        return sum(len(svc.triples) for svc in self.services)


def scholarly_services(scale: int) -> tuple[Service, ...]:
    """The five services of the scholarly world, in manifest order."""
    persons, orgs, papers = N_PERSONS * scale, N_ORGS * scale, N_PAPERS * scale
    entities = N_ENTITIES * scale

    def person(i: int) -> str:
        return u(f"person_{i}")

    def org(j: int) -> str:
        return u(f"org_{j}")

    def paper(k: int) -> str:
        return u(f"paper_{k}")

    people = []
    for i in range(persons):
        people.append((person(i), WORKS_FOR, org(i % orgs)))
        people.append((person(i), NAME, lit(f"Person {i}")))
    organisations = []
    for j in range(orgs):
        organisations.append((org(j), LOCATED_IN, u(f"city_{j % N_CITIES}")))
        organisations.append((org(j), SECTOR, u(f"sector_{j % N_SECTORS}")))
    authorship = [(paper(k), AUTHOR, person(k % persons)) for k in range(papers)]
    topics = [(paper(k), TOPIC, u(f"topic_{k % N_TOPICS}")) for k in range(papers)]
    meta = topics + [(paper(k), YEAR, lit(f"y{2000 + k % N_YEARS}")) for k in range(papers)]
    links = []
    for k in range(papers):
        links.append((paper(k), CITES, paper((7 * k + 1) % papers)))
        links.append((paper(k), CITES, paper((13 * k + 5) % papers)))
        links.append((paper(k), MENTIONS, u(f"entity_{(3 * k) % entities}")))
        if k < DOUBLE_MENTION_PAPERS:
            links.append((paper(k), MENTIONS, u(f"entity_{(5 * k + 7) % entities}")))
    # the topic_0 slice is replicated here, making those patterns multi-source
    links.extend(t for t in topics if t[2] == u("topic_0"))
    return (
        Service(f"{NS}people", "sparql", tuple(people)),
        Service(f"{NS}orgs", "sparql", tuple(organisations)),
        Service(f"{NS}papers", "tpf", tuple(authorship)),
        Service(f"{NS}meta", "tpf", tuple(meta)),
        Service(f"{NS}links", "brtpf", tuple(links)),
    )


def subject_sharded(services: tuple[Service, ...], interfaces: tuple[str, ...]) -> tuple[Service, ...]:
    """The union of the services' triples split by a hash of the subject.

    Shard ``h`` gets interface ``interfaces[h]``.  A subject's triples stay
    together, but every unanchored pattern matches at nearly every shard.
    """
    union = dict.fromkeys(t for svc in services for t in svc.triples)
    shards: list[list[Triple]] = [[] for _ in interfaces]
    for t in union:
        shards[zlib.crc32(t[0].encode("utf-8")) % len(interfaces)].append(t)
    return tuple(
        Service(f"{NS}shard_{h:02d}", interface, tuple(shard))
        for h, (interface, shard) in enumerate(zip(interfaces, shards))
    )


@dataclass(frozen=True)
class Anchors:
    """The constants the anchored queries are built on."""

    persons: tuple[int, int, int, int, int]
    chain_org: int
    team_org: int
    city: int
    topic: int
    year: int


# The anchors of tests/synthfed.py.
CANONICAL = Anchors((3, 23, 43, 63, 83), 7, 3, 2, 5, 5)


def spread(rng: random.Random, n: int, k: int) -> list[int]:
    """``k`` values of ``range(n)``, evenly spaced from a random start, in
    random order."""
    step = n / k
    start = rng.random() * step
    picks = [int(start + j * step) % n for j in range(k)]
    rng.shuffle(picks)
    return picks


def draw_anchors(scale: int, draws: int, rng: random.Random) -> list[Anchors]:
    """``draws`` anchor sets of the canonical shape, drawn as a stratified
    sample: the persons of the cites queries, those of the mentions queries,
    the organisations, the cities and the topics are each spread evenly over
    their range from a random start.  A query's cost depends on its anchor,
    so every seed then gets about the same mix of cheap and costly anchors.
    The topic is never topic_0, whose slice is replicated, and the year
    agrees with the topic modulo gcd(12, 20) = 4, so topic and year always
    share papers."""
    cites = spread(rng, N_PERSONS * scale, 3 * draws)
    mentions = spread(rng, N_PERSONS * scale, 2 * draws)
    chain_orgs = spread(rng, N_ORGS * scale, draws)
    team_orgs = spread(rng, N_ORGS * scale, draws)
    cities = spread(rng, N_CITIES, draws)
    topics = spread(rng, N_TOPICS - 1, draws)
    anchors = []
    for d in range(draws):
        c, m, topic = cites[3 * d : 3 * d + 3], mentions[2 * d : 2 * d + 2], 1 + topics[d]
        year = rng.choice([y for y in range(N_YEARS) if y % 4 == topic % 4])
        anchors.append(Anchors((c[0], m[0], c[1], m[1], c[2]), chain_orgs[d], team_orgs[d], cities[d], topic, year))
    return anchors


def anchored_queries(a: Anchors) -> tuple[Query, ...]:
    """The ten anchored star and path queries of tests/synthfed.py."""

    def author_cites(i: int) -> Query:
        return f"author_cites_{i}", (("?paper", AUTHOR, u(f"person_{i}")), ("?paper", CITES, "?other"))

    def author_mentions(i: int) -> Query:
        return f"author_mentions_{i}", (
            ("?paper", AUTHOR, u(f"person_{i}")),
            ("?paper", MENTIONS, "?entity"),
        )

    p = a.persons
    return (
        author_cites(p[0]),
        author_mentions(p[1]),
        author_cites(p[2]),
        author_mentions(p[3]),
        (
            f"org_paper_chain_{a.chain_org}",
            (
                ("?person", WORKS_FOR, u(f"org_{a.chain_org}")),
                ("?paper", AUTHOR, "?person"),
                ("?paper", CITES, "?other"),
            ),
        ),
        (
            f"team_names_{a.team_org}",
            (("?person", WORKS_FOR, u(f"org_{a.team_org}")), ("?person", NAME, "?name")),
        ),
        (
            f"teams_in_city_{a.city}",
            (
                ("?person", WORKS_FOR, "?org"),
                ("?person", NAME, "?name"),
                ("?org", LOCATED_IN, u(f"city_{a.city}")),
            ),
        ),
        (
            f"topic_year_{2000 + a.year}",
            (("?paper", TOPIC, u(f"topic_{a.topic}")), ("?paper", YEAR, lit(f"y{2000 + a.year}"))),
        ),
        ("shared_topic_cites", (("?paper", TOPIC, u("topic_0")), ("?paper", CITES, "?other"))),
        author_cites(p[4]),
    )


def chain_queries(a: Anchors) -> tuple[Query, ...]:
    """Three longer chains (4, 5 and 6 patterns) over the same anchors."""
    return (
        (
            f"org_cites_topic_{a.chain_org}",
            (
                ("?person", WORKS_FOR, u(f"org_{a.chain_org}")),
                ("?paper", AUTHOR, "?person"),
                ("?paper", CITES, "?other"),
                ("?other", TOPIC, "?topic"),
            ),
        ),
        (
            f"city_papers_{a.city}",
            (
                ("?org", LOCATED_IN, u(f"city_{a.city}")),
                ("?person", WORKS_FOR, "?org"),
                ("?paper", AUTHOR, "?person"),
                ("?paper", TOPIC, "?topic"),
                ("?paper", YEAR, "?year"),
            ),
        ),
        (
            f"cites_chain_{a.persons[0]}",
            (
                ("?paper", AUTHOR, u(f"person_{a.persons[0]}")),
                ("?paper", CITES, "?p2"),
                ("?p2", CITES, "?p3"),
                ("?p3", AUTHOR, "?author"),
                ("?author", WORKS_FOR, "?org"),
                ("?org", SECTOR, "?sector"),
            ),
        ),
    )


def build(
    scale: int, seed: int, shards: tuple[str, ...] | None = None, chains: int = 0, draws: int = 1
) -> World:
    """The world at ``scale``: the scholarly services, or their union split
    over ``shards`` interfaces, with the anchored queries (plus the first
    ``chains`` chain queries) under ``draws`` anchor draws.  With several
    draws, query names end in ``@<draw>``.  Seed 0 keeps the canonical
    anchors for its first draw and the queries in order; any other seed
    shuffles them."""
    if scale < 1 or draws < 1:
        raise ValueError("scale and draws must be at least 1")
    services = scholarly_services(scale)
    if shards is not None:
        services = subject_sharded(services, shards)
    anchor_sets = draw_anchors(scale, draws, random.Random(f"anchors/{seed}"))
    if seed == 0:
        anchor_sets[0] = CANONICAL
    queries = []
    for d, anchors in enumerate(anchor_sets):
        drawn = anchored_queries(anchors) + chain_queries(anchors)[:chains]
        queries += [(f"{name}@{d}" if draws > 1 else name, ps) for name, ps in drawn]
    if seed != 0:
        random.Random(seed).shuffle(queries)
    return World(services, tuple(queries))


def query_text(patterns: tuple[Triple, ...]) -> str:
    body = "".join(f"  {s} {p} {o} .\n" for s, p, o in patterns)
    return f"SELECT * WHERE {{\n{body}}}\n"


def write(world: World, directory: Path) -> tuple[Path, tuple[tuple[str, Path], ...]]:
    """Lay the world out under ``directory``; returns the manifest path and
    one ``(name, path)`` per query, in query order."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for n, svc in enumerate(world.services):
        data = directory / f"service_{n:02d}.nt"
        data.write_text("".join(f"{s} {p} {o} .\n" for s, p, o in svc.triples), encoding="utf-8")
        entries.append({"uri": svc.uri, "interface": svc.interface, "data": data.name})
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"services": entries}, indent=1), encoding="utf-8")
    queries = []
    for name, patterns in world.queries:
        path = directory / f"{name}.rq"
        path.write_text(query_text(patterns), encoding="utf-8")
        queries.append((name, path))
    return manifest, tuple(queries)

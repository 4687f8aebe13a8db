"""Synthetic Open KB generator for desk-scale experiments.

Builds a KB from a known ground truth: entities with several distinct
alias surfaces (sharing a base token), relations with paraphrase groups,
and triples drawn from a per-entity fact list so that aliases of one
entity occur in the same structural contexts. Every alias and every
relation surface is guaranteed to appear in at least one triple. The
generator also emits gold files and a paraphrase-format side-information
file with controllable coverage and precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .kb import OpenKB, build_kb, write_jsonl, write_text

_SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "ne",
    "po", "ra", "su", "ta", "vi", "wo", "xa", "ye", "zo", "qu",
]
_ALIAS_SUFFIXES = [
    "inc", "group", "corp", "union", "org", "labs", "trust", "club",
    "society", "network",
]
_REL_PATTERNS = [
    "{v}s", "{v}s with", "{v}s at", "{v}s for", "{v}s on", "{v}s near",
]


def _code_word(i: int, salt: int) -> str:
    n = len(_SYLLABLES)
    i = i + salt * 7919
    return _SYLLABLES[(i // (n * n)) % n] + _SYLLABLES[(i // n) % n] + _SYLLABLES[i % n]


def _alias_text(base: str, j: int) -> str:
    if j == 0:
        return base
    suffix = _ALIAS_SUFFIXES[(j - 1) % len(_ALIAS_SUFFIXES)]
    if j - 1 < len(_ALIAS_SUFFIXES):
        return f"{base} {suffix}"
    return f"{base} {suffix} {j}"


def _rel_text(verb: str, k: int) -> str:
    pattern = _REL_PATTERNS[k % len(_REL_PATTERNS)]
    text = pattern.format(v=verb)
    if k >= len(_REL_PATTERNS):
        text = f"{text} {k}"
    return text


@dataclass(frozen=True)
class SyntheticKB:
    """Generated records plus the ground truth behind them."""

    records: tuple[dict, ...]
    np_gold: dict[str, str]        # alias text -> entity id
    rel_gold: dict[str, str]       # relation surface -> relation-group id
    alias_pairs: tuple[tuple[str, str], ...]  # all within-entity alias pairs
    seed: int

    def build(self) -> OpenKB:
        return build_kb(list(self.records))

    def write_triples(self, path) -> None:
        write_jsonl(path, self.records)

    def write_np_gold(self, path) -> None:
        write_text(path, "".join(f"{t}\t{self.np_gold[t]}\n" for t in sorted(self.np_gold)))

    def write_rel_gold(self, path) -> None:
        write_text(path, "".join(f"{t}\t{self.rel_gold[t]}\n" for t in sorted(self.rel_gold)))

    def write_side_file(
        self, path, coverage: float = 0.5, precision: float = 1.0,
        seed: int | None = None,
    ) -> tuple[int, int]:
        """Paraphrase-format pair file over alias surfaces. ``coverage`` is
        the fraction of true within-entity pairs emitted; ``precision`` the
        fraction of emitted pairs that are true (the rest pair aliases of
        different entities). Returns (true pairs, false pairs) written."""
        if not 0.0 <= coverage <= 1.0 or not 0.0 < precision <= 1.0:
            raise ValueError("coverage must be in [0,1] and precision in (0,1]")
        rng = random.Random(self.seed if seed is None else seed)
        true_pool = sorted(self.alias_pairs)
        n_true = round(coverage * len(true_pool))
        n_false = round(n_true * (1.0 - precision) / precision)
        n_cross = len(self.np_gold) * (len(self.np_gold) - 1) // 2 - len(true_pool)
        if n_false > n_cross:
            raise ValueError(f"precision={precision} needs {n_false} pairs of aliases of "
                             f"different entities, but only {n_cross} exist")
        chosen = sorted(rng.sample(true_pool, n_true)) if n_true else []
        aliases = sorted(self.np_gold)
        false_pairs: set[tuple[str, str]] = set()
        while len(false_pairs) < n_false:
            a, b = rng.sample(aliases, 2)
            if self.np_gold[a] == self.np_gold[b]:
                continue
            false_pairs.add((a, b) if a < b else (b, a))
        rows = chosen + sorted(false_pairs)
        rng.shuffle(rows)
        write_text(path, "".join(f"{a}\t{b}\t1.0\n" for a, b in rows))
        return len(chosen), len(false_pairs)


def make_synthetic_kb(
    n_entities: int,
    aliases_per_entity: int,
    n_relations: int,
    paraphrases_per_relation: int,
    n_triples: int,
    noise: float,
    seed: int,
) -> SyntheticKB:
    """Generate a KB whose gold clustering is known.

    Entity i has ``aliases_per_entity`` surfaces sharing a base word;
    relation group g has ``paraphrases_per_relation`` surfaces sharing a
    verb. Each entity carries a small fact list (relation group, object
    entity); triples instantiate facts with random alias and paraphrase
    choices. A first pass guarantees that every alias occurs as a subject
    and every relation surface occurs at least once; the remainder is
    random fills, of which a ``noise`` fraction is replaced by fully random
    (structure-free) triples.
    """
    if min(n_entities, aliases_per_entity, n_relations,
           paraphrases_per_relation, n_triples) < 1:
        raise ValueError("all sizes must be positive")
    if n_entities < 2:
        raise ValueError("need at least 2 entities to form facts")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    rng = random.Random(seed)

    aliases = [
        [_alias_text(_code_word(e, salt=0), j) for j in range(aliases_per_entity)]
        for e in range(n_entities)
    ]
    verbs = [_code_word(g, salt=1) for g in range(n_relations)]
    rels = [
        [_rel_text(verbs[g], k) for k in range(paraphrases_per_relation)]
        for g in range(n_relations)
    ]
    np_gold = {
        text: f"E{e:03d}" for e, group in enumerate(aliases) for text in group
    }
    rel_gold = {
        text: f"R{g:02d}" for g, group in enumerate(rels) for text in group
    }
    if len(np_gold) != n_entities * aliases_per_entity:
        raise ValueError("alias surfaces collide; reduce aliases_per_entity")
    if len(rel_gold) != n_relations * paraphrases_per_relation:
        raise ValueError("relation surfaces collide")

    # per-entity facts; round-robin group assignment covers every group
    facts_per_entity = min(n_relations, 3)
    facts = []
    for e in range(n_entities):
        entity_facts = []
        for t in range(facts_per_entity):
            g = (e + t) % n_relations
            o = rng.randrange(n_entities - 1)
            if o >= e:
                o += 1
            entity_facts.append((g, o))
        facts.append(entity_facts)

    def fact_triple(e: int, alias_j: int, fact: tuple[int, int], k: int) -> tuple[str, str, str]:
        g, o = fact
        return (
            aliases[e][alias_j],
            rels[g][k],
            aliases[o][rng.randrange(aliases_per_entity)],
        )

    planned: list[tuple[str, str, str]] = []
    c = 0
    for e in range(n_entities):
        for j in range(aliases_per_entity):
            fact = facts[e][c % len(facts[e])]
            planned.append(fact_triple(e, j, fact, c % paraphrases_per_relation))
            c += 1
    used_rels = {p for _, p, _ in planned}
    # each relation group's first entity and fact (reversed, so the first wins)
    holder = {f[0]: (e, f) for e in reversed(range(n_entities)) for f in reversed(facts[e])}
    for g in range(n_relations):
        for k in range(paraphrases_per_relation):
            if rels[g][k] in used_rels:
                continue
            if g not in holder:
                raise ValueError(f"n_relations={n_relations} is more than n_entities + 2 = "
                                 f"{n_entities + 2}: no entity's facts hold relation group {g}")
            e, fact = holder[g]
            planned.append(fact_triple(e, rng.randrange(aliases_per_entity), fact, k))
    if n_triples < len(planned):
        raise ValueError(
            f"n_triples={n_triples} too small to cover all {len(planned)} "
            "alias and relation surfaces"
        )
    n_noise = round(noise * (n_triples - len(planned)))
    while len(planned) < n_triples - n_noise:
        e = rng.randrange(n_entities)
        fact = facts[e][rng.randrange(len(facts[e]))]
        planned.append(
            fact_triple(e, rng.randrange(aliases_per_entity), fact,
                        rng.randrange(paraphrases_per_relation))
        )
    while len(planned) < n_triples:
        e, o = rng.sample(range(n_entities), 2)
        g = rng.randrange(n_relations)
        planned.append((
            aliases[e][rng.randrange(aliases_per_entity)],
            rels[g][rng.randrange(paraphrases_per_relation)],
            aliases[o][rng.randrange(aliases_per_entity)],
        ))

    records = tuple(
        {
            "triple_id": i + 1,
            "subject": s,
            "relation": p,
            "object": o,
            "src_sentences": [f"{s} {p} {o} ."],
            "gold_sub_id": np_gold[s],
            "gold_obj_id": np_gold[o],
        }
        for i, (s, p, o) in enumerate(planned)
    )
    alias_pairs = tuple(
        pair
        for group in aliases
        for pair in combinations(sorted(group), 2)
    )
    return SyntheticKB(
        records=records,
        np_gold=np_gold,
        rel_gold=rel_gold,
        alias_pairs=alias_pairs,
        seed=seed,
    )

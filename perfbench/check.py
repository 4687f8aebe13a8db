"""Output check of one pipeline run directory.

A run passes when every artifact the manifest lists exists, the NP and REL
cluster files partition the input vocabularies, ``canonical_triples.jsonl``
holds one record per input triple (same ids, same order) rewritten to its
clusters' representatives, ``metrics.json`` parses with both reports, and
``leaderboard.txt`` has one row per configured system. The sha256 digests
of the compared artifacts let two commits show bit-equal outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import sha256_file

DIGESTED = ("clusters_np.jsonl", "clusters_rel.jsonl", "canonical_triples.jsonl",
            "leaderboard.txt")


class OutputCheckError(Exception):
    pass


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _representatives(path: Path, vocab: set[str], kind: str) -> dict[str, str]:
    """Member -> representative, after checking the file partitions
    ``vocab``."""
    rep: dict[str, str] = {}
    for rec in _read_jsonl(path):
        members = rec["members"]
        if rec["representative"] not in members:
            raise OutputCheckError(f"{kind}: representative {rec['representative']!r} "
                                   "is not a member of its cluster")
        for m in members:
            if m in rep:
                raise OutputCheckError(f"{kind}: {m!r} is in two clusters")
            rep[m] = rec["representative"]
    if set(rep) != vocab:
        missing, extra = vocab - set(rep), set(rep) - vocab
        raise OutputCheckError(f"{kind} clusters do not partition the vocabulary: "
                               f"{len(missing)} missing, {len(extra)} unknown")
    return rep


def check_run(run_dir, triples_file, n_baselines: int) -> dict:
    """Raise OutputCheckError on the first failed condition; otherwise
    return {"digests": {...}, "np_mean_f1": x, "rel_mean_f1": y}."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    missing = [a for a in manifest["artifacts"] if not (run_dir / a).is_file()]
    if missing:
        raise OutputCheckError(f"artifacts listed in the manifest are missing: {missing}")
    for name in DIGESTED + ("metrics.json",):
        if name not in manifest["artifacts"]:
            raise OutputCheckError(f"manifest does not list {name}")

    triples = _read_jsonl(Path(triples_file))
    np_vocab = {t[k] for t in triples for k in ("subject", "object")}
    rel_vocab = {t["relation"] for t in triples}
    np_rep = _representatives(run_dir / "clusters_np.jsonl", np_vocab, "NP")
    rel_rep = _representatives(run_dir / "clusters_rel.jsonl", rel_vocab, "REL")

    canonical = _read_jsonl(run_dir / "canonical_triples.jsonl")
    if [r["triple_id"] for r in canonical] != [t["triple_id"] for t in triples]:
        raise OutputCheckError("canonical_triples.jsonl does not hold one record "
                               "per input triple with the ids preserved")
    for rec, t in zip(canonical, triples):
        expect = (np_rep[t["subject"]], rel_rep[t["relation"]], np_rep[t["object"]])
        got = (rec["canonical_subject"], rec["canonical_relation"],
               rec["canonical_object"])
        if (rec["subject"], rec["relation"], rec["object"]) != (
                t["subject"], t["relation"], t["object"]) or got != expect:
            raise OutputCheckError(f"triple {t['triple_id']} rewritten to {got}, "
                                   f"expected {expect}")

    metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
    f1 = {}
    for kind in ("np", "rel"):
        report = metrics.get(kind)
        if report is None:
            raise OutputCheckError(f"metrics.json has no {kind} report")
        f1[kind] = sum(report[k] or 0.0 for k in ("macro_f1", "micro_f1",
                                                  "pair_f1")) / 3.0

    rows = (run_dir / "leaderboard.txt").read_text(encoding="utf-8").splitlines()
    if len(rows) != 2 + n_baselines:
        raise OutputCheckError(f"leaderboard.txt has {len(rows)} lines, expected "
                               f"{2 + n_baselines}")

    return {
        "digests": {name: sha256_file(run_dir / name) for name in DIGESTED},
        "np_mean_f1": f1["np"],
        "rel_mean_f1": f1["rel"],
    }

"""Golden library outputs that the CLI golden table does not reach.

- The transfer of the T3 structure to T3's ideal of non-permutations, from
  the three generating sets of the ``transfer`` benchmark: the transferred
  structure, the restricted relation and the verifier's verdict.
- ``word_equality_report`` on 400 seeded word pairs per fixed instance.

Each entry is the SHA-256 of canonical JSON, so any change to a transferred
automaton or a word verdict shows up here.  When a change is intended,
print the new table with ``PYTHONPATH=src python tests/test_library_golden.py``
and paste it below.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import fixed_instances  # noqa: E402

from greenindex import automatic as au  # noqa: E402
from greenindex import core, factories, present, relgreen, rewrite  # noqa: E402

T3_GENERATING_SETS = (
    ("021", "102", "122"),
    ("021", "112", "210", "220"),
    ("001", "021", "120", "200", "212"),
)
WORD_PAIRS = 400


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def t3_ideal():
    t3 = factories.full_transformation_monoid(3)
    ideal = core.SubSemigroup(
        parent=t3,
        members=frozenset(i for i, m in enumerate(t3.names) if len(set(m)) < 3),
    )
    return t3, ideal


def transfer_fingerprints() -> dict:
    """Map "<generators> <part>" to the digest of that part of the T3
    transfer."""
    t3, ideal = t3_ideal()
    green = relgreen.relative_green(t3, ideal)
    conn = relgreen.connectors(green)
    out = {}
    for names in T3_GENERATING_SETS:
        st = au.structure_for_finite(t3, [t3.names.index(m) for m in names])
        res = au.transfer_details(st, ideal, green, conn)
        tag = ",".join(names)
        out[f"{tag} structure"] = _digest(au.structure_to_json(res.structure))
        out[f"{tag} restricted"] = _digest(
            au.nfa_to_json(res.restricted_relation.nfa))
        out[f"{tag} verify"] = _digest(
            au.verify_structure_report(res.structure, ideal, 3))
    return out


def word_fingerprint(name, sem, sub) -> str:
    """Digest of (equal, branch, detail) over seeded pairs of words of
    length 0 to 5 over the context's letters."""
    green = relgreen.relative_green(sem, sub)
    ctx = present.word_problem_context(
        sem, sub, green=green, conn=relgreen.connectors(green))
    letters = sorted(ctx.letter_eval)
    rng = random.Random(f"words:{name}")

    def word():
        return tuple(rng.choice(letters) for _ in range(rng.randrange(6)))

    verdicts = []
    for _ in range(WORD_PAIRS):
        v = rewrite.word_equality_report(word(), word(), ctx)
        verdicts.append([v.equal, v.branch, v.detail])
    return _digest(verdicts)


GOLDEN_TRANSFER = {
    '021,102,122 structure': 'c9e84a7961052d7e5b895f3deb099bf4ce031404bd73ab99c6fea4e68684ef51',
    '021,102,122 restricted': '73c67c41dc26de42cda1218dbd835626efa8124bdbb7335fb062ee7b399ebdb3',
    '021,102,122 verify': '15bded7e55bfcbcbe08373d5531ae6781668d6cf257bbc6c73471c8b8b734a2f',
    '021,112,210,220 structure': '20eabfda3a81d39d716e425fe1f0a87683eed9bc8600df78ee76303105b52ba7',
    '021,112,210,220 restricted': '91c6fe6892988eef8ae2c2d5f16f948c4aa6c5407999570df818168bbc7bde8b',
    '021,112,210,220 verify': '15bded7e55bfcbcbe08373d5531ae6781668d6cf257bbc6c73471c8b8b734a2f',
    '001,021,120,200,212 structure': 'e7f6e139cf039ea3b51e8adc7d7c51b9816c33dbae1fb5d7d710bce78e52a154',
    '001,021,120,200,212 restricted': 'b06836fa80b2b2c925b7a9d0346784e6189d26601abca6060563a785ccd848dc',
    '001,021,120,200,212 verify': '15bded7e55bfcbcbe08373d5531ae6781668d6cf257bbc6c73471c8b8b734a2f',
}

GOLDEN_WORDS = {
    'z6_mod2': '668624e45d73b25271c5421c2a6f33763a215c9b67afe1f5860706cbe8926f3e',
    'ss_z2_trivial': '5d4a68e9ade0a885505be6684cc36afbcdda85e2388e7e05d05c19ec0ade7b2f',
    'ss_z4_z2': '584f55e294f827ac30a7c178e0bee1fed95cf58345e8eb516a26eb99a8a99f30',
    's3_nonnormal': '50836a962c6329a59b158321c9f6dbffe09f98f169c686f1b4b9a32aac946b2e',
}


def test_t3_transfer_matches_golden():
    assert transfer_fingerprints() == GOLDEN_TRANSFER


@pytest.mark.parametrize("inst", fixed_instances(), ids=lambda i: i[0])
def test_word_verdicts_match_golden(inst):
    name, sem, sub = inst[:3]
    assert word_fingerprint(name, sem, sub) == GOLDEN_WORDS[name]


if __name__ == "__main__":
    print("GOLDEN_TRANSFER = {")
    for key, val in transfer_fingerprints().items():
        print(f"    {key!r}: {val!r},")
    print("}")
    print()
    print("GOLDEN_WORDS = {")
    for name, sem, sub, _a, _b in fixed_instances():
        print(f"    {name!r}: {word_fingerprint(name, sem, sub)!r},")
    print("}")

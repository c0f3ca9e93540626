"""Golden library outputs that the CLI golden table does not reach.

- The transfer of the T3 structure to T3's ideal of non-permutations, from
  the three generating sets of the ``transfer`` benchmark: the transferred
  structure, the restricted relation and the verifier's verdict.
- The languages of those transfers and of the four fixed instances' CLI
  transfers: the acceptor's words, and each multiplier's pairs up to the
  acceptor's longest word.  These were taken from the transfer that kept
  every letter not evaluating to the adjoined identity and never trimmed a
  composed relation; a transfer may keep fewer letters, but each letter it
  keeps must have the same multiplier language.
- ``word_equality_report`` on 400 seeded word pairs per fixed instance.
- The four connector tables (``left_class``, ``left_factor``,
  ``right_class``, ``right_factor``) on the fixed instances and on T4 over
  its ideal of non-permutations.  These hashes were taken from the linear
  witness scan of ``relgreen.connectors``, before its witnesses came from
  first-witness indexes; the indexes must pick the same witnesses.
- ``enumerate_presentation`` on the table presentations of S and T for the
  fixed instances, of T3 and its ideal of non-permutations and of Z_n for
  n <= 24, under the default class bound of ``verify_presentation``, and on
  runs capped below the quotient's size.  These hashes were taken from the
  enumerator that repeated its sweep until nothing changed.

Each entry is the SHA-256 of canonical JSON, so any change to a transferred
automaton, a word verdict, a connector table or an enumeration shows up
here.  When a change is intended, print the new table with
``PYTHONPATH=src python tests/test_library_golden.py`` and paste it below.
"""

import hashlib
import json
import random
import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import fixed_instances, nonperm_ideal, relation_pairs  # noqa: E402

from greenindex import automatic as au  # noqa: E402
from greenindex import factories, present, relgreen, rewrite  # noqa: E402

T3_GENERATING_SETS = (
    ("021", "102", "122"),
    ("021", "112", "210", "220"),
    ("001", "021", "120", "200", "212"),
)
WORD_PAIRS = 400


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def transfer_fingerprints() -> dict:
    """Map "<generators> <part>" to the digest of that part of the T3
    transfer."""
    t3, ideal = nonperm_ideal(3)
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


def transfer_cases():
    """(name, S, T, generators of S): T3 over its ideal from each benchmark
    generating set, and each fixed instance from the generators its CLI
    golden builds its structure on."""
    t3, ideal = nonperm_ideal(3)
    out = [(f"t3_ideal {','.join(names)}", t3, ideal,
            [t3.names.index(m) for m in names]) for names in T3_GENERATING_SETS]
    out += [(name, sem, sub, list(a_gens))
            for name, sem, sub, a_gens, _b in fixed_instances()]
    return out


def transfer_semantics() -> dict:
    """Map each transfer case to the digest of its acceptor's words, and to
    the keys ("" and letters) of each multiplier pair set, by that set's
    digest."""
    out = {}
    for name, sem, sub, gens in transfer_cases():
        green = relgreen.relative_green(sem, sub)
        st = au.structure_for_finite(sem, gens)
        res = au.transfer_details(st, sub, green, relgreen.connectors(green))
        words = au._finite_language(res.structure.acceptor)
        longest = max(map(len, words))
        pair_digest = {}  # by id(relation): letters may share one
        by_digest: dict = {}
        for key, rel in sorted(res.structure.multipliers.items()):
            if id(rel) not in pair_digest:
                pair_digest[id(rel)] = _digest(sorted(relation_pairs(rel, longest)))
            by_digest.setdefault(pair_digest[id(rel)], []).append(key)
        out[name] = {"acceptor": _digest(words), "multipliers": by_digest}
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


CONNECTOR_TABLES = ("left_class", "left_factor", "right_class", "right_factor")


def connector_instances():
    """The fixed instances and T4 over its ideal, as (name, S, T)."""
    out = [inst[:3] for inst in fixed_instances()]
    out.append(("t4_ideal", *nonperm_ideal(4)))
    return out


def connector_fingerprints(sem, sub) -> dict:
    """Map each connector table's name to its digest."""
    conn = relgreen.connectors(relgreen.relative_green(sem, sub))
    return {name: _digest(getattr(conn, name)) for name in CONNECTOR_TABLES}


def enumeration_cases():
    """(name, presentation, max_classes) for every enumerator digest."""
    tables = []
    for name, sem, sub, _a, _b in fixed_instances():
        tables.append((f"{name} S", present.presentation_from_table(sem)[0],
                       sem.order))
        tables.append((f"{name} T", present.sub_table_presentation(
            sem, sub)[0], len(sub)))
    t3, ideal = nonperm_ideal(3)
    t3_pres = present.presentation_from_table(t3)[0]
    tables.append(("t3 S", t3_pres, t3.order))
    tables.append(("t3 ideal", present.sub_table_presentation(t3, ideal)[0],
                   len(ideal)))
    for n in range(1, 25):
        tables.append((f"z{n}", present.presentation_from_table(
            factories.zmod(n))[0], n))
    cases = [(name, pres, max(4 * size, 64)) for name, pres, size in tables]
    # capped: the quotient is one class too big, or the node cap is hit
    cases += [(f"{name} cap {size - 1}", pres, size - 1)
              for name, pres, size in tables if size > 1]
    cases.append(("t3 S cap 5", t3_pres, 5))
    free = present.Presentation(("a", "b"), ((("a", "b"), ("b", "a")),))
    cases += [(f"free cap {m}", free, m) for m in (1, 7, 30)]
    return cases


def enumeration_fingerprints() -> dict:
    """Map each case name to the digest of its ``EnumerationResult``."""
    out = {}
    for name, pres, max_classes in enumeration_cases():
        r = present.enumerate_presentation(pres, max_classes)
        out[name] = _digest([r.complete, r.reason, r.size, r.reps])
    return out


GOLDEN_TRANSFER = {
    '021,102,122 structure': '4d90eddf1b7a5300f01421492f2c21e88dd6ce26c7746b494128223c62bf804c',
    '021,102,122 restricted': '0423dc654770b004bc0b81050d11ae2a16ab2c15b78d379334e57b0ddf45ea56',
    '021,102,122 verify': '15bded7e55bfcbcbe08373d5531ae6781668d6cf257bbc6c73471c8b8b734a2f',
    '021,112,210,220 structure': 'c733b38b9d5799828723d168ba7185d2062800f4f986765c81997eef69092b39',
    '021,112,210,220 restricted': 'd4e20b7eaac8c8b61a200e8b519abfec54226886c73bec42d38afad08f811e6e',
    '021,112,210,220 verify': '15bded7e55bfcbcbe08373d5531ae6781668d6cf257bbc6c73471c8b8b734a2f',
    '001,021,120,200,212 structure': 'e1d6e5687d2e621a30ea2a02b4154c83acb3e46c3f3135fe1cbdf10b539cd0dc',
    '001,021,120,200,212 restricted': '39008b629b5cc11fa1ea4c32d7319e8f5f9fbaf8077ae2793dbbe471512f04c0',
    '001,021,120,200,212 verify': '15bded7e55bfcbcbe08373d5531ae6781668d6cf257bbc6c73471c8b8b734a2f',
}

GOLDEN_TRANSFER_SEMANTICS = {
    't3_ideal 021,102,122': {
        'acceptor': 'a4f1340c5b1ae326aefe3730d751085bedc0a9f1fc9b57f74f2d1f5d95fec5dc',
        'multipliers': {
            'a5ff4a8aba0f701a0c1f2fe35766591a0abc11e5c45695216acf741ad693eebe': [
                '',
            ],
            '69a42db84486f8d575f1ca833c04f66a73437dad4efdc195fb954b738b2378b8': [
                'b0_a17_0', 'b0_a17_1', 'b1_a17_0', 'b1_a17_1', 'b2_a17_0',
                'b2_a17_1',
            ],
            '8df2a071d1c055406b8f4fad66d928f2c4f47fbf69e92ca9f65239c1f0146a98': [
                'b0_a17_2', 'b1_a17_2', 'b2_a17_2',
            ],
            '65ad89911fd8e1172c446c538c2d8afbbd12f33634c368d9bb1210112539cb9f': [
                'b0_a17_3', 'b1_a17_3', 'b2_a17_3',
            ],
            '2b7ba1cf660107f4e5412bd2bc839350bfa2df54d6e9d64d80311802e567fba6': [
                'b0_a17_4', 'b1_a17_4', 'b2_a17_4',
            ],
            '8b1c5a3a0966e102fe8f2cd92a18f42b211b87816b7c830fad019cb5a8b3870f': [
                'b0_a17_5', 'b1_a17_5', 'b2_a17_5',
            ],
            '8641905b74506c5110f18eb452b8b8da836fb0d0b338cb2b746695f7ce60b70a': [
                'b0_a17_6', 'b1_a17_6', 'b2_a17_6',
            ],
            '68efdf51eda9a86f1b5fb511b1b33f434e67d14bed9e62c5e99de8be885b2881': [
                'b3_a17_0', 'b3_a17_1', 'b5_a17_0', 'b5_a17_1',
            ],
            '8ac5395af2321d0a882eb5053bdb8a9474e3d22f2560e52db61542f2d4427c96': [
                'b3_a17_2', 'b5_a17_2',
            ],
            '1829013dddc7475c70fc4c4f10979e3428a89810e930f3c5b2b1529f8ab6d500': [
                'b3_a17_3', 'b5_a17_3',
            ],
            'b917d497c69ef2d79e4de217c863b992933700c24950c5f532f7a5af4fc1856d': [
                'b3_a17_4', 'b5_a17_4',
            ],
            '1e71678fade16d7f26e4cbbbb9874706b1b33bd0a6b9286cacac86f252ca92d8': [
                'b3_a17_5', 'b5_a17_5',
            ],
            '258286af75c640617664eab2dca1410bb4ce67974e85092e0e33fae9f4fdb1e1': [
                'b3_a17_6', 'b5_a17_6',
            ],
            '7e42fb15b6c8149eb876e21fc5201b1ab2b3d70bba6791a4699427bdc612db93': [
                'b4_a17_0', 'b4_a17_1', 'b6_a17_0', 'b6_a17_1',
            ],
            '6492076fd67ee34cd147afae4bbbece5a01ff09b4c0558bb29addb1e7c68f3f7': [
                'b4_a17_2', 'b6_a17_2',
            ],
            'aa7a462e6bea1dbc82320c92af95be7e29fda9720a39cfff679ddbc8a29d8cef': [
                'b4_a17_3', 'b6_a17_3',
            ],
            '0bca1d0447f7791f54eb3ca9bf6194e412a603d12b5bd3dc91307022d8a93688': [
                'b4_a17_4', 'b6_a17_4',
            ],
            'dd920e5ab580832bbbc54304e4a6949a5020d797ee03088ceafaf8ad8838fa7f': [
                'b4_a17_5', 'b6_a17_5',
            ],
            '78c480196706e820e835986f4f867c4366f51683c6f33ed042d0679313494c5d': [
                'b4_a17_6', 'b6_a17_6',
            ],
        },
    },
    't3_ideal 021,112,210,220': {
        'acceptor': 'bf6b5e31e341251c9a886af38a1a9fbec13ad8158921a020e2bcdd45b9ce6448',
        'multipliers': {
            'fa7d07c72034bc994619dd6f63fb131cee64f1af32b019bef739c804846c4cb6': [
                '',
            ],
            '6dbebfb7e74ea9a2a3fa772ff78779f4ff6745426ea48af9dff6d98a4830f8b8': [
                'b0_a14_0', 'b0_a14_1', 'b0_a24_5', 'b1_a14_0', 'b1_a14_1',
                'b1_a24_5', 'b3_a14_0', 'b3_a14_1', 'b3_a24_5',
            ],
            'ea2c957a42cf909c068b7d13d7354afdf31cdf6716429e2cc77ac8d82856ed39': [
                'b0_a14_2', 'b0_a24_3', 'b1_a14_2', 'b1_a24_3', 'b3_a14_2',
                'b3_a24_3',
            ],
            '876b18b32dce222b17d9a5568929def99f50891f511cf602b22b36754434795c': [
                'b0_a14_3', 'b0_a24_6', 'b1_a14_3', 'b1_a24_6', 'b3_a14_3',
                'b3_a24_6',
            ],
            '57d6dc4d4176083a092232efe3aedf69f942985a217ecf3fd76aedf3c5f091c0': [
                'b0_a14_4', 'b0_a24_0', 'b0_a24_1', 'b1_a14_4', 'b1_a24_0',
                'b1_a24_1', 'b3_a14_4', 'b3_a24_0', 'b3_a24_1',
            ],
            'e877e85ad0e0c292cd22b9d43894e71d1f6689ed498d02930476120f32b97d14': [
                'b0_a14_5', 'b0_a24_4', 'b1_a14_5', 'b1_a24_4', 'b3_a14_5',
                'b3_a24_4',
            ],
            'e2d6677d294df66a42214ed50718f4100deb1bd504898706c2bbdc3257572246': [
                'b0_a14_6', 'b0_a24_2', 'b1_a14_6', 'b1_a24_2', 'b3_a14_6',
                'b3_a24_2',
            ],
            'ef0e833c19be01a80ac37b3081d24798e2cf49ac04eb85e35d794437f21f4451': [
                'b2_a14_0', 'b2_a14_1', 'b2_a24_5', 'b4_a14_0', 'b4_a14_1',
                'b4_a24_5',
            ],
            '4b28911eead6246539e08c0015ad834002fe0fee0391089b341d903f83329f5a': [
                'b2_a14_2', 'b2_a24_3', 'b4_a14_2', 'b4_a24_3',
            ],
            '77b89c2b8155266a22238370d2b9b450017817cae5f2e62b7f6df2adeb0de056': [
                'b2_a14_3', 'b2_a24_6', 'b4_a14_3', 'b4_a24_6',
            ],
            '1682702f6e6fa340c8f14f211ed605e090f9eda2f04800ee7f13d9dd68736425': [
                'b2_a14_4', 'b2_a24_0', 'b2_a24_1', 'b4_a14_4', 'b4_a24_0',
                'b4_a24_1',
            ],
            '2b924cf86545a13087a67bda77ebadac481e6b6328c6bd5ebb3951cc23fe0c86': [
                'b2_a14_5', 'b2_a24_4', 'b4_a14_5', 'b4_a24_4',
            ],
            'bffc198d2b7abc1d84dab0ceff29bcaa01a5932694fab582fc59bc5f526f19b6': [
                'b2_a14_6', 'b2_a24_2', 'b4_a14_6', 'b4_a24_2',
            ],
            'e829c2b5fae4bb000c15c495c93ab9a3a2423177bbc7f6bec2e7b1f504aded72': [
                'b5_a14_0', 'b5_a14_1', 'b5_a24_5', 'b6_a14_0', 'b6_a14_1',
                'b6_a24_5',
            ],
            '93f5aa17804c79c33f5657eb210110747a23d5795111950ef71508b808f8c3c9': [
                'b5_a14_2', 'b5_a24_3', 'b6_a14_2', 'b6_a24_3',
            ],
            '243d12ddd09b8c92bfbee1b680fb05c1cc2894666eea691a3234090b962add42': [
                'b5_a14_3', 'b5_a24_6', 'b6_a14_3', 'b6_a24_6',
            ],
            'd4d50bd2c4b73da80d3549315929b8c7798ff9c3f868bd1e949541000cc96396': [
                'b5_a14_4', 'b5_a24_0', 'b5_a24_1', 'b6_a14_4', 'b6_a24_0',
                'b6_a24_1',
            ],
            '614d1d326242dc40d6cb86a50615d582e8613df16178373b797c788d7d3e4ec2': [
                'b5_a14_5', 'b5_a24_4', 'b6_a14_5', 'b6_a24_4',
            ],
            '15f340c6f038a21e92e7c56b7bf4f2e12b65a095c7d3882d1f173dd6ee44836a': [
                'b5_a14_6', 'b5_a24_2', 'b6_a14_6', 'b6_a24_2',
            ],
        },
    },
    't3_ideal 001,021,120,200,212': {
        'acceptor': '2d69c816a6cd7d53c6ae512d3b5d4ce206beabbd230bdcc8ce07f8ddbd57ec6c',
        'multipliers': {
            'f96962d42e818e8316972041b04746c5beab84ef05c67a7317be07727a230cbf': [
                '',
            ],
            '00ff7ee9e93b7c5d5069649633bc43cd5151cf3f6ed252a894dd6d486ea9b797': [
                'b0_a18_0', 'b0_a18_1', 'b1_a18_0', 'b1_a18_1', 'b2_a18_0',
                'b2_a18_1', 'b3_a23_4', 'b4_a23_4', 'b5_a1_2', 'b6_a1_2',
            ],
            'df595f2115b1fd79489c2bbbb0a6109f078009a51fbf784601c8c90803c0aebc': [
                'b0_a18_2', 'b1_a18_2', 'b2_a18_2', 'b3_a23_6', 'b4_a23_6',
                'b5_a1_0', 'b5_a1_1', 'b6_a1_0', 'b6_a1_1',
            ],
            '6c907d5a957828cdbeb166ad69b7d8f70cb4822db6a04d90bc31d86b84c34631': [
                'b0_a18_3', 'b1_a18_3', 'b2_a18_3', 'b3_a23_2', 'b4_a23_2',
                'b5_a1_4', 'b6_a1_4',
            ],
            '8368774efe873c39db1fd268fdbcbce76de82f37683f3bab6eedde897bf770e3': [
                'b0_a18_4', 'b1_a18_4', 'b2_a18_4', 'b3_a23_5', 'b4_a23_5',
                'b5_a1_3', 'b6_a1_3',
            ],
            '6ceae905a9990995a42cccb6fad9db4eec716f5c9d3cb943875e94a822118e3c': [
                'b0_a18_5', 'b1_a18_5', 'b2_a18_5', 'b3_a23_0', 'b3_a23_1',
                'b4_a23_0', 'b4_a23_1', 'b5_a1_6', 'b6_a1_6',
            ],
            '213ef79b4fbab1b8442123460319d0e8ceb05246bab3051944a97ef688e2f1b0': [
                'b0_a18_6', 'b1_a18_6', 'b2_a18_6', 'b3_a23_3', 'b4_a23_3',
                'b5_a1_5', 'b6_a1_5',
            ],
            '6000ddd78723c242f0dcdd3ac62b6c3db1929b09e4bf7753b55494caae03a2ce': [
                'b0_a1_0', 'b0_a1_1', 'b1_a1_0', 'b1_a1_1', 'b2_a23_6',
                'b3_a1_0', 'b3_a1_1', 'b4_a18_2', 'b5_a23_6', 'b6_a18_2',
            ],
            '1586d24a2c548e88e8aafe1de6c4df0aa0bafe43097ac0f8349cf569fceadd75': [
                'b0_a1_2', 'b1_a1_2', 'b2_a23_4', 'b3_a1_2', 'b4_a18_0',
                'b4_a18_1', 'b5_a23_4', 'b6_a18_0', 'b6_a18_1',
            ],
            'd3107837dcd671a677f219a080ed53f40685bcf7e8b819e7fa844d6d6b13296c': [
                'b0_a1_3', 'b1_a1_3', 'b2_a23_5', 'b3_a1_3', 'b4_a18_4',
                'b5_a23_5', 'b6_a18_4',
            ],
            '7a5150bcbf9be733e098de5628ce126856242270dae9b025e3d3568d839199f9': [
                'b0_a1_4', 'b1_a1_4', 'b2_a23_2', 'b3_a1_4', 'b4_a18_3',
                'b5_a23_2', 'b6_a18_3',
            ],
            '32d22c4a347a120d77e0ad923b428a9f066da392c48895a5ba2c47834ec32f7f': [
                'b0_a1_5', 'b1_a1_5', 'b2_a23_3', 'b3_a1_5', 'b4_a18_6',
                'b5_a23_3', 'b6_a18_6',
            ],
            '3abc50d752601b70b85b55343804b71f6b3fbd970b16cc323dc1ba7620610a38': [
                'b0_a1_6', 'b1_a1_6', 'b2_a23_0', 'b2_a23_1', 'b3_a1_6',
                'b4_a18_5', 'b5_a23_0', 'b5_a23_1', 'b6_a18_5',
            ],
            'd1c970557b67b37df7a1006a19d42bac14a0dbc10469fd48b00ff2b1fda76180': [
                'b0_a23_0', 'b0_a23_1', 'b1_a23_0', 'b1_a23_1', 'b2_a1_6',
                'b3_a18_5', 'b4_a1_6', 'b5_a18_5', 'b6_a23_0', 'b6_a23_1',
            ],
            'c127768752a8a769e06f054aebb05e6cab7d19803d27cc15f604af484e10026a': [
                'b0_a23_2', 'b1_a23_2', 'b2_a1_4', 'b3_a18_3', 'b4_a1_4',
                'b5_a18_3', 'b6_a23_2',
            ],
            '22d0b2e199250068e03baafdca5c3d4fbe4490e3dad5c9b0fdc0d4064ec0144f': [
                'b0_a23_3', 'b1_a23_3', 'b2_a1_5', 'b3_a18_6', 'b4_a1_5',
                'b5_a18_6', 'b6_a23_3',
            ],
            '47dcf4d0e3b196e5b6373b671cf06b3662130d2c1604569bb57640f293c57b76': [
                'b0_a23_4', 'b1_a23_4', 'b2_a1_2', 'b3_a18_0', 'b3_a18_1',
                'b4_a1_2', 'b5_a18_0', 'b5_a18_1', 'b6_a23_4',
            ],
            '66f9837e8b739d595fa8c64675e137b1db66ad34eb2c4ef365640746dfdf02ef': [
                'b0_a23_5', 'b1_a23_5', 'b2_a1_3', 'b3_a18_4', 'b4_a1_3',
                'b5_a18_4', 'b6_a23_5',
            ],
            'd9767659d2f40b7aa0361e45734c00730776c368743bb9b1b71baa0f3704a4a8': [
                'b0_a23_6', 'b1_a23_6', 'b2_a1_0', 'b2_a1_1', 'b3_a18_2',
                'b4_a1_0', 'b4_a1_1', 'b5_a18_2', 'b6_a23_6',
            ],
        },
    },
    'z6_mod2': {
        'acceptor': '11ea7762c9368a83496d6719ccfbd0c734b96ea441dae71931de2bd30ffe8146',
        'multipliers': {
            '484a6948116ddba33dd549a0679ef176c41c66d7ad324b923a8875cb5f40654b': [
                '', 'b0_a1_0', 'b0_a1_1', 'b1_a1_0', 'b1_a1_1', 'b2_a1_0',
                'b2_a1_1',
            ],
            '778090c3b608247e9c738059554bb8fe3cf81630ee8081cea5b8714783277ba7': [
                'b0_a1_2', 'b1_a1_2', 'b2_a1_2',
            ],
        },
    },
    'ss_z2_trivial': {
        'acceptor': '24b29e6662268d7f8ade365b634125d39003734391067a5e70c877bb73b84e0d',
        'multipliers': {
            '1bccceaef0db6070a0f038262c7bc4ec094f086d3f54c7ee1759f12f18c10fd2': [
                '', 'b0_a1_1', 'b0_a2_0', 'b0_a2_1', 'b1_a1_0', 'b1_a1_1',
                'b1_a2_0', 'b1_a2_1',
            ],
            '0c310bd3177c311cbb708b6e85d8818bb72c36e3f4a608734bd9314ef073c3a1': [
                'b0_a1_0',
            ],
        },
    },
    'ss_z4_z2': {
        'acceptor': '5c0ea20a4056b045e9e40592bf7d3d15cb827294a1cabf2208fbd1564bc9588b',
        'multipliers': {
            '96683ca63a02551bd34a4554bfc4160f677d59e17f8421dcb580ae993db5aed6': [
                '',
            ],
            'b0ff8722ae2f0ea8d4e2d7f3f63e9d4b8b7d15b0cd71af19f4d953cf1d05ed44': [
                'b0_a1_0', 'b0_a1_1', 'b0_a5_0', 'b0_a5_1', 'b1_a1_0',
                'b1_a1_1', 'b1_a5_0', 'b1_a5_1',
            ],
        },
    },
    's3_nonnormal': {
        'acceptor': '5b4a8f0c120cde7817ce10830264f3ea3a6efb91fe830dbed27b949b1869de5f',
        'multipliers': {
            '44a3183e10f3c9f301558314012e3964de7c4d9f3a8a11a4c7b5c3ae05c8033b': [
                '', 'b0_a2_1', 'b0_a2_2', 'b0_a2_3', 'b0_a2_4', 'b0_a3_0',
                'b0_a3_1', 'b0_a3_2', 'b0_a3_3', 'b1_a2_0', 'b1_a2_1',
                'b1_a2_2', 'b1_a2_3', 'b1_a2_4', 'b1_a3_0', 'b1_a3_1',
                'b1_a3_2', 'b1_a3_3', 'b1_a3_4', 'b2_a2_0', 'b2_a2_1',
                'b2_a2_2', 'b2_a2_3', 'b2_a2_4', 'b2_a3_0', 'b2_a3_1',
                'b2_a3_2', 'b2_a3_3', 'b2_a3_4', 'b3_a2_0', 'b3_a2_1',
                'b3_a2_2', 'b3_a2_3', 'b3_a2_4', 'b3_a3_0', 'b3_a3_1',
                'b3_a3_2', 'b3_a3_3', 'b3_a3_4', 'b4_a2_0', 'b4_a2_1',
                'b4_a2_2', 'b4_a2_3', 'b4_a2_4', 'b4_a3_0', 'b4_a3_1',
                'b4_a3_2', 'b4_a3_3', 'b4_a3_4',
            ],
            '2917a9bfa3fbb243d3277e4d45bffe3d1c37e2643b73f4ddadd013fd49233c45': [
                'b0_a2_0', 'b0_a3_4',
            ],
        },
    },
}

GOLDEN_WORDS = {
    'z6_mod2': '668624e45d73b25271c5421c2a6f33763a215c9b67afe1f5860706cbe8926f3e',
    'ss_z2_trivial': '5d4a68e9ade0a885505be6684cc36afbcdda85e2388e7e05d05c19ec0ade7b2f',
    'ss_z4_z2': '584f55e294f827ac30a7c178e0bee1fed95cf58345e8eb516a26eb99a8a99f30',
    's3_nonnormal': '50836a962c6329a59b158321c9f6dbffe09f98f169c686f1b4b9a32aac946b2e',
}


GOLDEN_CONNECTORS = {
    'z6_mod2': {
        'left_class': 'ab71e98497f2b5a2b0092c7321541b7b842533b7506e1644728ee28f171ca641',
        'left_factor': '839e1bb0d6f976782ed1f711189e9eebbd63e3d25801edb59090bb0652fa48a6',
        'right_class': 'e76dc37ec89607b73613cbad2fa7e571b2eacdf371717b9446fb142f6c153e82',
        'right_factor': 'c2fbc91d0442cddd77030256f08087b36ddc03cd3d201cb4284a1fc28b319335',
    },
    'ss_z2_trivial': {
        'left_class': '63d387275f7db4cfe74b01de4e379ea6e166f7f47c4ddd70b5be69789f32b3f4',
        'left_factor': '69d1d52df31c1a651d672159f52f4a453277d783e6fdf04335f3aae41cb02983',
        'right_class': '54e0db38e865a7a3c93e472db6fad9181bc006967b0f1cdfb03c153789ec5d5c',
        'right_factor': '055a0ac2d54cbddbb9b13d55735e4fbfc1c05adeb162e4cd4eaf501561a49da7',
    },
    'ss_z4_z2': {
        'left_class': '59035522878f6a083ecdc1d036f42f63610490b2bb9f986ac2b78a27f608d80f',
        'left_factor': '28b667cf55bbb05e2544f567c8cff46c61b1a59793a7be85835fb93f92d475b7',
        'right_class': 'cf14394e3788fa8697c096876bd357de50f3f08947326e7457e5360d762eb9aa',
        'right_factor': '9e6cedfe517157390210fd03c3b2f343102180e944ad8f62a28da26d9aedd345',
    },
    's3_nonnormal': {
        'left_class': '18958eb83806e5b884297dc931dfc71986f3a0a3471a8e1cb7569e98b786a987',
        'left_factor': 'eb47756ed212a2c19a52a070b23ecc19870825aa67b481779481636843e8143c',
        'right_class': '7067e48664f929db1a04872c1a8e7de6fb31623464bddf6a8bdbec774a8d24e5',
        'right_factor': '5bd1a2750d70d17c64b83ceb24d23a86fdf95b449c1c1e72b652535761987d10',
    },
    't4_ideal': {
        'left_class': 'ddd0f017ab397b4b30100c7bf73786b58444984f27eda5a14742043446b2d581',
        'left_factor': '1d6b2203311285ca5b2341c8f753cc6e9542f7a547028ca8db471e5e8d31bd29',
        'right_class': '52475f6d12fbb4a1123314924f565d7f74feecf0c6f3b4db434fa2bf87232a33',
        'right_factor': 'ca8839b1c74ca277b79550d7ea33a603581c1d1e504d25564b0747fd18a74c82',
    },
}


GOLDEN_ENUMERATIONS = {
    'z6_mod2 S': 'd7c89a2be5cda21f600a014f6ea74d28a43e699b9687a28b1e5c33b20cb87365',
    'z6_mod2 T': '96a7eae3d830ec4262916fc5e32feccb8983fad05cd3996df963537be9610672',
    'ss_z2_trivial S': 'eb76ec3ca820e62c259ce508c1a6795c8c4bdf573541f04f1427c7591255c756',
    'ss_z2_trivial T': '853a90532e3e5efcf11bf18065caae5ad215b9cd385523e5f535d53391f8a321',
    'ss_z4_z2 S': 'd7c89a2be5cda21f600a014f6ea74d28a43e699b9687a28b1e5c33b20cb87365',
    'ss_z4_z2 T': 'df0a74c0670853fac7ab159175e8449aed2c0f4e88826eebec341ef1603d2c9c',
    's3_nonnormal S': 'd7c89a2be5cda21f600a014f6ea74d28a43e699b9687a28b1e5c33b20cb87365',
    's3_nonnormal T': '2a133fe54611e8455a9d3de64c5393aad2ef0505fb7e39e1170bbf202304ad68',
    't3 S': '8f388ab2be2612a80bb660c05350f0f7513061704fea9aa5bd8345ef53af9f69',
    't3 ideal': '900a95221b42744acd6e582e05d0ce288843c20e6ef3b36827d0169e16441d30',
    'z1': '4196097181c4dbfc61a6194736ca936e3512fda94e209c0f7dd3eccd6d13b80d',
    'z2': 'e61aa38c1beac3bf49baa39f91157ad219acf51bde9469e816e509c607919d91',
    'z3': 'eb76ec3ca820e62c259ce508c1a6795c8c4bdf573541f04f1427c7591255c756',
    'z4': 'dfbcc24f71c76d3f7d8c7599596a87e3d85101859bd3ff89fb5ce567e7ca760d',
    'z5': '90a4bd615f435c9853ea1565bf6c584d9491b981afe8508da1d2dbc34a4b578b',
    'z6': 'd7c89a2be5cda21f600a014f6ea74d28a43e699b9687a28b1e5c33b20cb87365',
    'z7': '1880f381438049f245267e8201f88369f57a110c20e11b2e63db6ec00841a89d',
    'z8': '7e5665f2c70f3b3a215baa25585223431043f850241c4322dd73a858ae72ce6d',
    'z9': '8b066da9d4721b236d5713a1596e97f85419f4a97631997e505b0d43cbad08dd',
    'z10': 'c5df8aea2a889c918d265993a5876a9aab80a1210aa0bc2bb2cd66ebd2019bd7',
    'z11': 'e323668bef478346c436021531be498c74b03306dd9234d1a217583095bfc14c',
    'z12': '37bcc609f8986dfe1449cf28566361dd25e82a04ba6d367a09185f682c82803f',
    'z13': '4c1a6582a4738ffb4fbd7b7b0b5135b20ea4bba457de6457376090cf26d8e871',
    'z14': 'd15005d997b1f7143f602cddafacf514114a94e8663486ee8d963f91ccba4219',
    'z15': 'e33add0f66f32f575dd231dcc5a8530c3fced01ff200f04726ac4f47f0cf7f25',
    'z16': 'e8ca28ab3bc5631841b60e031a14470b8d7aad1be87b027e71bb26f096381601',
    'z17': '07d26d78dc872110275be9a960f7193ca5d0c73a47349cf09f80f92775f8de14',
    'z18': '682f2b142495ef7300f75a86b4dcb7e6deebf535a78f607abdab9ee09e21099b',
    'z19': '42cbfded2bbfddf9c26a9099388881f656f3c60a7d8ef6b0679bd90a0432b27a',
    'z20': 'cd003d72d92c5211a1d988f24c031ba5b8421d16b144792a8e33a6b6635a8db8',
    'z21': '00e43319f90d19c6e83d6c5578033c53f733d79760eb8c0199eb1212de8fd685',
    'z22': '671475a94ebd7c1bb553c29574ec2fb9e6892840ab4df9c9c74dce2f4c606146',
    'z23': '331a97b59ea9380183c6b5aa4b1b492948f9f9beed77e0d1324c6760d2d739e9',
    'z24': '8bc65b9cdd115d4ae76da0b9f075360b137571f7d5f22e3bfb7cb59ffe376b65',
    'z6_mod2 S cap 5': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z6_mod2 T cap 1': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'ss_z2_trivial S cap 2': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'ss_z2_trivial T cap 1': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'ss_z4_z2 S cap 5': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'ss_z4_z2 T cap 3': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    's3_nonnormal S cap 5': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    's3_nonnormal T cap 1': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    't3 S cap 26': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    't3 ideal cap 20': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z2 cap 1': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z3 cap 2': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z4 cap 3': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z5 cap 4': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z6 cap 5': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z7 cap 6': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z8 cap 7': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z9 cap 8': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z10 cap 9': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z11 cap 10': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z12 cap 11': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z13 cap 12': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z14 cap 13': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z15 cap 14': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z16 cap 15': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z17 cap 16': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z18 cap 17': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z19 cap 18': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z20 cap 19': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z21 cap 20': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z22 cap 21': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z23 cap 22': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'z24 cap 23': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    't3 S cap 5': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'free cap 1': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'free cap 7': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
    'free cap 30': '4acd4158f23243b4bc7cd9f3346de4966a0e5b757a56aa52404143de76701482',
}


def test_t3_transfer_matches_golden():
    assert transfer_fingerprints() == GOLDEN_TRANSFER


def test_transfer_languages_match_golden():
    # every key the transfer keeps accepts the pairs it accepted when every
    # letter was kept; the acceptor's words are the same
    got = transfer_semantics()
    assert set(got) == set(GOLDEN_TRANSFER_SEMANTICS)
    for case, want in GOLDEN_TRANSFER_SEMANTICS.items():
        assert got[case]["acceptor"] == want["acceptor"], case
        old, new = ({key: digest for digest, keys in entry["multipliers"].items()
                     for key in keys} for entry in (want, got[case]))
        assert set(new) <= set(old), case
        assert {key: old[key] for key in new} == new, case


@pytest.mark.parametrize("inst", fixed_instances(), ids=lambda i: i[0])
def test_word_verdicts_match_golden(inst):
    name, sem, sub = inst[:3]
    assert word_fingerprint(name, sem, sub) == GOLDEN_WORDS[name]


@pytest.mark.parametrize("inst", connector_instances(), ids=lambda i: i[0])
def test_connector_tables_match_golden(inst):
    name, sem, sub = inst
    assert connector_fingerprints(sem, sub) == GOLDEN_CONNECTORS[name]


def test_enumerations_match_golden():
    assert enumeration_fingerprints() == GOLDEN_ENUMERATIONS


def print_semantics(table: dict) -> None:
    print("GOLDEN_TRANSFER_SEMANTICS = {")
    for case, entry in table.items():
        print(f"    {case!r}: {{")
        print(f"        'acceptor': {entry['acceptor']!r},")
        print("        'multipliers': {")
        for digest, keys in entry["multipliers"].items():
            print(f"            {digest!r}: [")
            for line in textwrap.wrap(", ".join(map(repr, keys)) + ",", 60):
                print(f"                {line}")
            print("            ],")
        print("        },")
        print("    },")
    print("}")


if __name__ == "__main__":
    print_semantics(transfer_semantics())
    print()
    print("GOLDEN_TRANSFER = {")
    for key, val in transfer_fingerprints().items():
        print(f"    {key!r}: {val!r},")
    print("}")
    print()
    print("GOLDEN_WORDS = {")
    for name, sem, sub, _a, _b in fixed_instances():
        print(f"    {name!r}: {word_fingerprint(name, sem, sub)!r},")
    print("}")
    print()
    print("GOLDEN_CONNECTORS = {")
    for name, sem, sub in connector_instances():
        print(f"    {name!r}: {{")
        for table, val in connector_fingerprints(sem, sub).items():
            print(f"        {table!r}: {val!r},")
        print("    },")
    print("}")
    print()
    print("GOLDEN_ENUMERATIONS = {")
    for key, val in enumeration_fingerprints().items():
        print(f"    {key!r}: {val!r},")
    print("}")

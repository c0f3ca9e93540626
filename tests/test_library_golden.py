"""Golden library outputs that the CLI golden table does not reach.

- The transfer of the T3 structure to T3's ideal of non-permutations, from
  the three generating sets of the ``transfer`` benchmark: the transferred
  structure, the restricted relation and the verifier's verdict.
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
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import fixed_instances, nonperm_ideal  # noqa: E402

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

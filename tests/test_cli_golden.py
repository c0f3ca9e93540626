"""Golden CLI outputs: every subcommand, in both formats, on the four fixed
instances.  Each run is pinned by the SHA-256 of its stdout and its exit
code, so any change to a printed byte shows up here.

When an output change is intended, print the new table with
``PYTHONPATH=src python tests/test_cli_golden.py`` and paste it below.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import fixed_instances  # noqa: E402

from greenindex import cli  # noqa: E402


def _runs(sem, sub, a_gens, b_gens, paths):
    """(label, argv, file to save stdout to or None) for every subcommand."""
    s, t = ["--semigroup", paths["sem"]], ["--sub", paths["sub"]]
    n = sem.order
    members = sorted(sub.members)
    outside = min(set(sem.elements) - sub.members)
    r_set = sorted(set(sem.elements) - sub.members) + [n]
    a = ",".join(map(str, a_gens))
    b = ",".join(map(str, b_gens))
    tm = f"t{members[0]}"
    return [
        ("validate", ["validate", *s], None),
        ("green-index", ["green-index", *s, *t], None),
        ("eggbox-relative", ["eggbox", *s, *t, "--relative"], None),
        ("eggbox", ["eggbox", *s], None),
        ("connectors", ["connectors", *s, *t], None),
        ("rewrite-right", ["rewrite", *s, *t, "--class-index", "1",
                           "--word", a], None),
        ("rewrite-left", ["rewrite", *s, *t, "--class-index", "1",
                          "--word", a, "--direction", "left"], None),
        ("schreier", ["schreier", *s, *t, "--gens", a], None),
        ("schutz", ["schutz", *s, *t, "--class-of", str(outside)], None),
        ("schutz-sub-gens", ["schutz", *s, *t, "--class-of", str(outside),
                             "--sub-gens", b], None),
        ("present-synth", ["present", "synth", *s, *t], "pres"),
        ("present-enumerate", ["present", "enumerate", "--presentation",
                               paths["pres"], "--max-classes", "200"], None),
        ("present-verify", ["present", "verify", "--presentation",
                            paths["pres"], *s], None),
        ("wp-class", ["wp", *s, *t, "--word1", f"{tm},d1",
                      "--word2", f"d1,{tm}"], None),
        ("wp-sub", ["wp", *s, *t, "--word1", f"{tm},{tm}",
                    "--word2", tm], None),
        ("growth-series", ["growth", "series", *s, "--gens", a,
                           "--max", "8"], None),
        ("growth-blackbox", ["growth", "series", "--blackbox", "nat-plus",
                             "--max", "5"], None),
        ("growth-dominate", ["growth", "dominate", *s, *t,
                             "--r", ",".join(map(str, r_set)),
                             "--sub-gens", b, "--max", "6"], None),
        ("auto-build", ["auto", "build", *s, "--gens", a], "st"),
        ("auto-verify", ["auto", "verify", "--structure", paths["st"], *s,
                         "--max-len", str(n + 1)], None),
        ("auto-transfer", ["auto", "transfer", "--structure", paths["st"],
                           *s, *t], "tr"),
        ("auto-verify-sub", ["auto", "verify", "--structure", paths["tr"],
                             *s, *t, "--max-len", str(n + 1)], None),
    ]


def golden_outputs(_name, sem, sub, a_gens, b_gens, tmp_path, run):
    """Map "<label> <format>" to "<sha256 of stdout> <exit code>"; ``run``
    takes an argv and returns (exit code, stdout)."""
    paths = {key: str(tmp_path / f"{key}.json")
             for key in ("sem", "sub", "pres", "st", "tr")}
    Path(paths["sem"]).write_text(json.dumps(sem.to_json_dict()))
    Path(paths["sub"]).write_text(json.dumps(sub.to_json_dict()))
    out = {}
    for label, argv, save in _runs(sem, sub, a_gens, b_gens, paths):
        for fmt in ("human", "json"):
            code, text = run([*argv, "--format", fmt])
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            out[f"{label} {fmt}"] = f"{digest} {code}"
            if save:
                Path(paths[save]).write_text(text)
    return out


GOLDEN = {
    'z6_mod2': {
        'validate human': '19c300d759b90d7837fe18f4e4759fd0f981cb31ba3b6cf3c2b91cc1d9707b0f 0',
        'validate json': 'bfff42d74eda7f47ed80e45944be27882bc465832ca4d236d0b00822c9fa9e9e 0',
        'green-index human': '5ae49365996b26745d1396930464006eb09df36158b3b1ccccb47ce295590b07 0',
        'green-index json': '3011e75e1fe96f93744e606eadad0977b1ff445bdf8f6ffc3d7ac88471b922ba 0',
        'eggbox-relative human': '97e238e77773edd03fbebe766a3a76f153b37135e609ab09f29a5381bf79be3d 0',
        'eggbox-relative json': '1e5d2024567c1d86ed5baae1ad04ecd4aab58c4544ce2e1ea9b231d321bbb000 0',
        'eggbox human': 'd6f8f3199b3f7d3ce302c8594d6d3414ed4d0467332f0e7bc796997da05aa6e8 0',
        'eggbox json': '834ac09b90a6ca6138ab6105ebc4c1916ce2563ce2f20f4a52d72dab588a307f 0',
        'connectors human': '05ae3c940a527901eab3d974dc440e1f5e0c6e1c86586961910ee29b80c2720a 0',
        'connectors json': 'fd747088e8a0b874e1fe767531b71a9d55102caadb750034355e4ba855a6022f 0',
        'rewrite-right human': '5e16b5188e49d21a7ed7ca4dcab2f253ea18f43c48960ecbf6e593b6b13c7998 0',
        'rewrite-right json': '5ad674b2d293eafd684a187b8e73fe5dbb708587efc6931829e41ad9c008fab6 0',
        'rewrite-left human': 'bb9da18163671c4f1e6b800c0093fcd5b50617c38d1dc35f07c4db300a21d6bd 0',
        'rewrite-left json': '479f50938e9cd4d5cc043cc7964dc1adc97cb6a4d7f0c37ca765a0b61ea24d94 0',
        'schreier human': 'a147dce50afc57a1639ec57416ddf3cfe69fb25649ee98723bbf4edb78fa5d8f 0',
        'schreier json': '533197a5cf5652b722ed08efdddf98c9f4e96933e3bb661cc90e54b2e7845311 0',
        'schutz human': '2244dda9749e692817bda5d011019cb7c9b6ae9737e7d022a7fc1d54217e129a 0',
        'schutz json': '52a3dbdbada7c4b3342d74440144439f5490ba09afc070db6dc05b3b8db6c5ee 0',
        'schutz-sub-gens human': 'b5791d74011701c4cd16b9667dafeb5436832c32d7cc996e5256a9619b26e146 0',
        'schutz-sub-gens json': 'ac02225e7889247c0a586b0fbc6a5905f2686d33fa080ed12a318748c5fe5bc2 0',
        'present-synth human': '7136a8ccdce8ce37a0299534f18d67f86c9665a86362ee6dd6af1c7888c1bf8d 0',
        'present-synth json': '7136a8ccdce8ce37a0299534f18d67f86c9665a86362ee6dd6af1c7888c1bf8d 0',
        'present-enumerate human': '637eb237392b1af9697438cb2033db57e1a8ca1451b3494f1aed52527ab3afb6 0',
        'present-enumerate json': '637eb237392b1af9697438cb2033db57e1a8ca1451b3494f1aed52527ab3afb6 0',
        'present-verify human': '501913c6b27cae67129513c959717b96dea691e69d0dacbc9d1f5807efabb4d4 0',
        'present-verify json': '501913c6b27cae67129513c959717b96dea691e69d0dacbc9d1f5807efabb4d4 0',
        'wp-class human': 'fed7ad7d4bb740beeb489a6c18289f38bc30a903efb326facb2ae041b4154b28 0',
        'wp-class json': '682e26bb6ab404b10d3c53970fffc082795832f435b383e2b6a5de5436d94597 0',
        'wp-sub human': 'ebb7465fbceeaadf86b1fa53e9bbcdb75fa90e066534bac5ac917af692f1dd85 0',
        'wp-sub json': 'da11f7ec8943f796168d70978dd81d30703c6fe3acdf3071f88fc8328f4e0c66 0',
        'growth-series human': '6390c5b9ef9d94e7a0729df7175884f8512e9514d2860d75f0392bb68138fb9f 0',
        'growth-series json': '7d2cd883adf8ff98d0b59beb30b1f593f3b9b1a25c571773916e86b5aec68cf6 0',
        'growth-blackbox human': '7d1b48cfa5d363b08180e4c05e4aa129bcd146cf6f7d12481de91391e0d1e09c 0',
        'growth-blackbox json': '36b9a58ebdea576bbee3e729d70c67b1536173efe07f6a5522c7206fec21d294 0',
        'growth-dominate human': 'bf826d6db81dcaed407c95ebf875ebeb2e2744184ac97e73dd8875087d841341 0',
        'growth-dominate json': 'c9e01769446f7242b8aa278468bff523bc3f7cebf8569acc00d2620f799adc70 0',
        'auto-build human': '9f2b8e5ee2daafe12c5cef6c157636d8b4d32294200cb5d11dc6e32a4f49aabc 0',
        'auto-build json': '9f2b8e5ee2daafe12c5cef6c157636d8b4d32294200cb5d11dc6e32a4f49aabc 0',
        'auto-verify human': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-verify json': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-transfer human': 'e429263634d242e3361e5c51fe7dce4b4169b7dde58956b1c30775e977cc671e 0',
        'auto-transfer json': 'e429263634d242e3361e5c51fe7dce4b4169b7dde58956b1c30775e977cc671e 0',
        'auto-verify-sub human': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-verify-sub json': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
    },
    'ss_z2_trivial': {
        'validate human': '99748ba84f04a680f502466f172c6ee3f611bf4d0dbcea0e82760b390a6f38e2 0',
        'validate json': '42aad4678949bfa4e36cf83f4bfc465172bfa8b9ab63d1af1197c1ee149363c9 0',
        'green-index human': '4759e5376459a96132e09d7022826d3ec7fa7b959b927cbeb96ccad15cc7427d 0',
        'green-index json': '6b22c62299d6b24cce0e9b132e1bdcbe23f7fa06e0442702bed05d8d7e1b693f 0',
        'eggbox-relative human': '6a68c0d93682dbb3b5bfcb8d7a6975b48ea2dd61c3701da13bfad3dd52c98498 0',
        'eggbox-relative json': '04e21acdf46738b0e29b2f7e11f751c6ada8208ffa20e94b2883384f945bee90 0',
        'eggbox human': 'e5f3fd0b092e4910e305c0706590a3a9f57da6211e87dc97396ffe0a3c20b1ba 0',
        'eggbox json': '174ce73ce2ed1fad8ce7d78a8abc0b81ae2b34480057018671f9abb1964a22be 0',
        'connectors human': 'b1878e69cc7ff8e74c4ee9b9e7750e49250a78d11f47e14e6e223863b1f6324d 0',
        'connectors json': '87b6c38dd18d1981cc905d17a0356e07271c929a931af706ce855454140f2546 0',
        'rewrite-right human': '673229fa03de305b613078cb196cbe3323709a42ea7444b36974aad011d89345 0',
        'rewrite-right json': '56bd1e588de5b5944e439163ee84c354a3b4b7bf640eb3b91d7fb266216a5c36 0',
        'rewrite-left human': '1d1a1e2281bb2945792ee4cb94edb7f680704b646dd247b251d29610dbbc1f83 0',
        'rewrite-left json': 'a3f57106d3d92474b5efff5dcf9e0004d9dd243dd9ab1d5be97cef39225db6cb 0',
        'schreier human': '8fd91250fb89628a66aab2b7d1c7a6fbe5cacb06634671fd2bb77c586bb8faf1 0',
        'schreier json': '5d9ffeb563a32678e9c201fbb3b9e770566e175ac2f9e538c4ddaed394f10039 0',
        'schutz human': '6d2f9f65a6dde154ddc4080cdbe3f63293730662507bcb3aa9aad58f56db0a79 0',
        'schutz json': '26cbc6fa7b62220af0c761554173e77a5d5714a071457e14f40dee7c80a7dfdb 0',
        'schutz-sub-gens human': '6d2f9f65a6dde154ddc4080cdbe3f63293730662507bcb3aa9aad58f56db0a79 0',
        'schutz-sub-gens json': '26cbc6fa7b62220af0c761554173e77a5d5714a071457e14f40dee7c80a7dfdb 0',
        'present-synth human': 'b59e337d8d13bc7e403570fcfd6d736f3a89a5837ef77aca040751ebd1062e24 0',
        'present-synth json': 'b59e337d8d13bc7e403570fcfd6d736f3a89a5837ef77aca040751ebd1062e24 0',
        'present-enumerate human': 'd0d9ebc25381ee078ec6ee7582053d978af8c31a835379de2352ff4e847d70cb 0',
        'present-enumerate json': 'd0d9ebc25381ee078ec6ee7582053d978af8c31a835379de2352ff4e847d70cb 0',
        'present-verify human': '501913c6b27cae67129513c959717b96dea691e69d0dacbc9d1f5807efabb4d4 0',
        'present-verify json': '501913c6b27cae67129513c959717b96dea691e69d0dacbc9d1f5807efabb4d4 0',
        'wp-class human': 'fed7ad7d4bb740beeb489a6c18289f38bc30a903efb326facb2ae041b4154b28 0',
        'wp-class json': '682e26bb6ab404b10d3c53970fffc082795832f435b383e2b6a5de5436d94597 0',
        'wp-sub human': 'ebb7465fbceeaadf86b1fa53e9bbcdb75fa90e066534bac5ac917af692f1dd85 0',
        'wp-sub json': 'da11f7ec8943f796168d70978dd81d30703c6fe3acdf3071f88fc8328f4e0c66 0',
        'growth-series human': 'a81fce3edebb74f48530a98ad520a92054ffdc484f99331e2c60ba22b0e3f3ad 0',
        'growth-series json': '60f21ea537328ec16ec6ee2fe9b73d8710a958c619be582d02eb8eb8848d2ba2 0',
        'growth-blackbox human': '7d1b48cfa5d363b08180e4c05e4aa129bcd146cf6f7d12481de91391e0d1e09c 0',
        'growth-blackbox json': '36b9a58ebdea576bbee3e729d70c67b1536173efe07f6a5522c7206fec21d294 0',
        'growth-dominate human': '9e94f883500a1a374f17ea466913c41a260dd6e6bee0c0c3004fc31fdb671f53 0',
        'growth-dominate json': '5de51ff02a6d23ce8d613ff50ed4136498264f144c37bed680598dafce05a8b6 0',
        'auto-build human': '065428f4ef30e2853f5cb4bfef292a8c889c9d5eb692a6a778109a45ed5358a7 0',
        'auto-build json': '065428f4ef30e2853f5cb4bfef292a8c889c9d5eb692a6a778109a45ed5358a7 0',
        'auto-verify human': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-verify json': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-transfer human': '132ac5df2f06c196cb705044e521b5e314d1eef62d8b6470a0c01538717c3802 0',
        'auto-transfer json': '132ac5df2f06c196cb705044e521b5e314d1eef62d8b6470a0c01538717c3802 0',
        'auto-verify-sub human': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-verify-sub json': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
    },
    'ss_z4_z2': {
        'validate human': 'cfe26fe7ca54f4838fd4cff400a19683dee921f99911ddf1c2b514da9134f297 0',
        'validate json': '697c73ea99c4ff37b2ec4257bae146f1e84256ec2d528988eb226aceab8d1932 0',
        'green-index human': 'ccf300bf4f1daa1a5863dc48d5a59a83c13e6f429ff4018d4d27af16ac42ff1c 0',
        'green-index json': 'f3eb99a07cfca648e1ead8525c14006fcd06251fe5d641b8885990b07954f799 0',
        'eggbox-relative human': '882ee4a904e221e7c8bdd1d70d2dc8f250abd5bb57490c380163bb7d2788051c 0',
        'eggbox-relative json': '0f5152190485bd3096ccebabf81bbdbb759cdfdb525fb6d9c0101aaf8260392b 0',
        'eggbox human': '6c6a9f2a0eb2d133a1941e4ec7c39e650bc292e6ded598835ec2e36fad4050b5 0',
        'eggbox json': 'b32f7bd13ba0b03139276a1edb6fd55a60407d43aba8b82fd31a1bc26a2b237e 0',
        'connectors human': 'c70bac86c5766608d0a46d4cc9a421442a3909ef8fa2a50d615eb802d2aa2ea4 0',
        'connectors json': 'c309d8ea368d9f992e364f8afdf1db335e0bdcac37828aab793609b99fb35c48 0',
        'rewrite-right human': '415666e2cde84fe755aaf01d7a0402091a2f1a9b9a89b931ed9438ea55dc445f 0',
        'rewrite-right json': 'fd847adde24779e614055fbf3f5b26c9bdba0a3cbed282fdf597d7918350851b 0',
        'rewrite-left human': 'fe8d774b1e9ca564e292d366332de4cd2b8e9b8136b0640dbfa602178222bde6 0',
        'rewrite-left json': '19b650f95d85039ee4795689854702fa0c8ded67b319fd278eee6f41381a79e7 0',
        'schreier human': '3cb83f4b220c29d4042dd5a2eb2297a8726a65153eaf9b0e69b92e6c19e710da 0',
        'schreier json': '903b8bfc6fce9c10cef276ca4a22f86e4e76f6ebafa738dd42af30d9b0830bbf 0',
        'schutz human': 'c2b8f2fed70d75f7ae27454e86c0d016cd344955ae789cd5a3bc68974e79bf68 0',
        'schutz json': '85850f0506241839de489e53610b975212eed1f5b30f92dacaf8c5155c38ed7c 0',
        'schutz-sub-gens human': '7e45bfe887326485106c50789539b2e8caafd17cadf474264cf2f916e4989b15 0',
        'schutz-sub-gens json': '967987119031659e2b81568a2c8915b4b6f4feaea84ea35e1eeec64f9eecd5d5 0',
        'present-synth human': 'a117060b34021ab8829efede58e93b13a7ae203479c3397d2944e8fa8896e7ca 0',
        'present-synth json': 'a117060b34021ab8829efede58e93b13a7ae203479c3397d2944e8fa8896e7ca 0',
        'present-enumerate human': '8e0fc311c69b2fdbd013ecc9b0c9a733d72d05aea248b25a225ba9b9037050e5 0',
        'present-enumerate json': '8e0fc311c69b2fdbd013ecc9b0c9a733d72d05aea248b25a225ba9b9037050e5 0',
        'present-verify human': '501913c6b27cae67129513c959717b96dea691e69d0dacbc9d1f5807efabb4d4 0',
        'present-verify json': '501913c6b27cae67129513c959717b96dea691e69d0dacbc9d1f5807efabb4d4 0',
        'wp-class human': 'fed7ad7d4bb740beeb489a6c18289f38bc30a903efb326facb2ae041b4154b28 0',
        'wp-class json': '682e26bb6ab404b10d3c53970fffc082795832f435b383e2b6a5de5436d94597 0',
        'wp-sub human': 'ebb7465fbceeaadf86b1fa53e9bbcdb75fa90e066534bac5ac917af692f1dd85 0',
        'wp-sub json': 'da11f7ec8943f796168d70978dd81d30703c6fe3acdf3071f88fc8328f4e0c66 0',
        'growth-series human': '717be248b285909fecab4951f0f28cb16ed39490eb63e6bedc3ef46d7cebb225 0',
        'growth-series json': '22dea650b11a7cb7081ec02054d3e17f224bbbb260838200a1f2780e24bfdd31 0',
        'growth-blackbox human': '7d1b48cfa5d363b08180e4c05e4aa129bcd146cf6f7d12481de91391e0d1e09c 0',
        'growth-blackbox json': '36b9a58ebdea576bbee3e729d70c67b1536173efe07f6a5522c7206fec21d294 0',
        'growth-dominate human': '747a3fa0ab210987e46ad36481312a93557bab53a2d1876ccb6e9e9b0ede1b15 0',
        'growth-dominate json': 'b831d599e933b9ffa032825b775143212106bcb128dd5f2f8726d2b034bbf00f 0',
        'auto-build human': 'e7681b20d610e5ca8dc9723b0c7102c8fdb31294a7d8d6f04ed6be5c1cff9e46 0',
        'auto-build json': 'e7681b20d610e5ca8dc9723b0c7102c8fdb31294a7d8d6f04ed6be5c1cff9e46 0',
        'auto-verify human': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-verify json': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-transfer human': 'd5023af0882a967faf1f745cf540b0197a8eec2939e3da69b9319a7664eda0e7 0',
        'auto-transfer json': 'd5023af0882a967faf1f745cf540b0197a8eec2939e3da69b9319a7664eda0e7 0',
        'auto-verify-sub human': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-verify-sub json': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
    },
    's3_nonnormal': {
        'validate human': '19c300d759b90d7837fe18f4e4759fd0f981cb31ba3b6cf3c2b91cc1d9707b0f 0',
        'validate json': 'bfff42d74eda7f47ed80e45944be27882bc465832ca4d236d0b00822c9fa9e9e 0',
        'green-index human': '1850107c360b8abf0c9e9acd85e165e102abbeeaa4ae8b0eaac9e93813dbc0a2 0',
        'green-index json': 'b631d0fce5efaaa299ce21f225373377c39a77d6542c37b77a23b09b15a08d06 0',
        'eggbox-relative human': '940de58f55a1a73b324f37cdcfbd0b7b26829da0f89845c7e7b418aeb4a599b3 0',
        'eggbox-relative json': 'a84478d2ba1dc1a54f9c9bb9dddea25c3c78dfbd1d8bbbbb69af91eba748f964 0',
        'eggbox human': 'e9b41503b197f675e159fe1ddd0887a2954372d1e68b512e027e3d846cd1cb6c 0',
        'eggbox json': '974424e02e1dda432cc998554e0bc7ff1f2bd162da9f2f1742afe26d33f32b03 0',
        'connectors human': '362c8d0225ee07b602e054ea33f50112bcaccf5a1e0a76a2b063e9b149b4cd38 0',
        'connectors json': '374979ce03fd159f6f4467e8b59701de1a7fb8b1763e59a36350dd772210d85a 0',
        'rewrite-right human': 'ca6db3e76f9dc6aa930c78c8170bb4ddb5cb88e2af353d3b37d6dcea5dae38d8 0',
        'rewrite-right json': 'eea9d7ed177374a68ca084a171e23826d85bf67bc4f268467afacd9af782ba6a 0',
        'rewrite-left human': 'dbdbc2166329f28e8ee2553d5f8b19063a3f68c57daeaac3fc55257289c1c67f 0',
        'rewrite-left json': '7281a6f919db6982f657a3f85f71b93a62bf79b219a23a6f7c98961a01d6ead2 0',
        'schreier human': 'e948a12919702196710ea4e8cfae90948e23db7a7c157f92caadd664a6da1c23 0',
        'schreier json': '8ea27f775b2ef6a5f6363f43b5da48773aebb08397fcd36469ca67831279ceec 0',
        'schutz human': '824b729fdc3e0989c05ec2d5b9157b1297e2f525dee3e957944138987173c102 0',
        'schutz json': 'de478564aa06014a14d49ae47272470353171658bb7bfafd6459a48ef746e588 0',
        'schutz-sub-gens human': '824b729fdc3e0989c05ec2d5b9157b1297e2f525dee3e957944138987173c102 0',
        'schutz-sub-gens json': 'de478564aa06014a14d49ae47272470353171658bb7bfafd6459a48ef746e588 0',
        'present-synth human': '013411301d78a48f1f966f11b7ca396065a2d0e2d266ead12f39adfb859c244a 0',
        'present-synth json': '013411301d78a48f1f966f11b7ca396065a2d0e2d266ead12f39adfb859c244a 0',
        'present-enumerate human': '4edaf46371d42e3512a898dd7b553a79ec27a78ba76645d84b6eb5d5c01d00a6 0',
        'present-enumerate json': '4edaf46371d42e3512a898dd7b553a79ec27a78ba76645d84b6eb5d5c01d00a6 0',
        'present-verify human': '501913c6b27cae67129513c959717b96dea691e69d0dacbc9d1f5807efabb4d4 0',
        'present-verify json': '501913c6b27cae67129513c959717b96dea691e69d0dacbc9d1f5807efabb4d4 0',
        'wp-class human': 'fed7ad7d4bb740beeb489a6c18289f38bc30a903efb326facb2ae041b4154b28 0',
        'wp-class json': '682e26bb6ab404b10d3c53970fffc082795832f435b383e2b6a5de5436d94597 0',
        'wp-sub human': 'ebb7465fbceeaadf86b1fa53e9bbcdb75fa90e066534bac5ac917af692f1dd85 0',
        'wp-sub json': 'da11f7ec8943f796168d70978dd81d30703c6fe3acdf3071f88fc8328f4e0c66 0',
        'growth-series human': '1b20181c5ec1de254f64b96523f840aa2000b4886cca623b1b49a6408256f9ce 0',
        'growth-series json': '7d09a15dcbf78e1a37204c22c1a3f6c5065a77ad578835d389cb0b481efce2d1 0',
        'growth-blackbox human': '7d1b48cfa5d363b08180e4c05e4aa129bcd146cf6f7d12481de91391e0d1e09c 0',
        'growth-blackbox json': '36b9a58ebdea576bbee3e729d70c67b1536173efe07f6a5522c7206fec21d294 0',
        'growth-dominate human': '19db50bd3ffaf4c16ba777e0c59df0d82c494c7d5134611f9881bc90e9517495 0',
        'growth-dominate json': 'bc1305ab9272389d3df8405b87d6d530347f06a953837f6a638a4860e5590c1b 0',
        'auto-build human': '81b026787238c8786fe2b55870a911425572a71e604e98f20a866a834b67a738 0',
        'auto-build json': '81b026787238c8786fe2b55870a911425572a71e604e98f20a866a834b67a738 0',
        'auto-verify human': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-verify json': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-transfer human': '66d17f4eca594c58656eb3031bbe85627eb4430efb4dafbef38688632432ae15 0',
        'auto-transfer json': '66d17f4eca594c58656eb3031bbe85627eb4430efb4dafbef38688632432ae15 0',
        'auto-verify-sub human': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
        'auto-verify-sub json': '541be8261417cf6f6976aed21606b30fdc8c1025137d9c01450a8239404e1f3d 0',
    },
}


@pytest.mark.parametrize("inst", fixed_instances(), ids=lambda i: i[0])
def test_cli_outputs_match_golden(inst, tmp_path, capsys):
    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    assert golden_outputs(*inst, tmp_path, run) == GOLDEN[inst[0]]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    print("GOLDEN = {")
    for inst in fixed_instances():
        with tempfile.TemporaryDirectory() as tmp:
            runs = golden_outputs(*inst, Path(tmp), run)
        print(f"    {inst[0]!r}: {{")
        for key, val in runs.items():
            print(f"        {key!r}: {val!r},")
        print("    },")
    print("}")

import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orthoforms import build_dual_set, builtin_lattice, qzero_from_dual_sets, realize
from orthoforms import classify as classify_mod, roots as roots_mod, series as series_mod
from orthoforms.cli import build_parser, main
from orthoforms.lattice import _quoted, _short_half, builtin_names
from orthoforms.series import series_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def shown(path) -> str:
    """A file path or lattice reference as refusal lines quote it: whole up to 80 characters, else shortened.

    Expected lines are built through it, so they hold wherever pytest puts its temporary files.
    """
    return _quoted(str(path), str)


EMPTY_PHI = {
    "lattice": "builtin:A1",
    "coeffs": [{"n": -1, "l": ["0/1"], "f": 1}],
    "k": 12,
}


class TestLattice:
    def test_builtin_a2(self, capsys):
        code, out, _ = run(capsys, "lattice", "builtin:A2")
        assert code == 0
        assert "determinant   3" in out
        assert "Z/3" in out
        assert "level         3" in out

    def test_builtin_e8_json(self, capsys):
        code, out, _ = run(capsys, "lattice", "builtin:E8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["determinant"] == 1
        assert doc["discriminant_group"] == []

    def test_non_symmetric_file(self, capsys, tmp_path):
        path = write_json(tmp_path / "bad.json", {"gram": [[2, 1], [0, 2]]})
        code, out, err = run(capsys, "lattice", path)
        assert code == 2
        assert "(0,1)" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "lattice", "no-such-file.json")
        assert code == 2

    def test_bool_gram_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path / "bool.json", {"gram": [[True]]})
        code, out, err = run(capsys, "lattice", path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "gram entry (0,0) is not an integer" in err

    @pytest.mark.parametrize("label", [[1], 5, True, {"x": "y"}], ids=["list", "int", "bool", "object"])
    def test_label_that_is_not_a_string_refused(self, capsys, tmp_path, label):
        path = write_json(tmp_path / "lat.json", {"gram": [[2, 1], [1, 2]], "label": label})
        code, out, err = run(capsys, "lattice", path, "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"error: invalid lattice {shown(path)}: 'label' must be a string or null, got {label!r}\n"

    def test_null_label_is_unlabelled(self, capsys, tmp_path):
        path = write_json(tmp_path / "lat.json", {"gram": [[2, 1], [1, 2]], "label": None})
        code, out, _ = run(capsys, "lattice", path, "--format", "json")
        assert code == 0 and json.loads(out)["label"] is None

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "gram, invariant",
        [
            # diag(2 * 10^600) of rank 8 is even: its determinant 2^8 * 10^4800 has 4803 digits
            ([[2 * 10**600 if i == j else 0 for j in range(8)] for i in range(8)], "determinant"),
            # (2d) with 2d of 4300 digits: the determinant prints, but the level 4d has 4301
            ([[6 * 10**4299]], "level"),
        ],
        ids=["diag(2e600)x8", "(6e4299)"],
    )
    def test_invariant_too_long_to_print(self, capsys, tmp_path, fmt, gram, invariant):
        path = write_json(tmp_path / "lat.json", {"gram": gram})
        code, out, err = run(capsys, "lattice", path, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: lattice {shown(path)} has a {invariant} of more than 4300 digits, too long to print\n"


# SHA-256 of `lattice builtin:NAME(s) --format json` stdout for the 23 built-ins at four scales,
# recorded before any change to the Smith form or the discriminant group, so that one must keep them
LATTICE_DIGESTS = {
    ("A1", 1): "a216bb78ea719b43481e39a9abb89049a26932e68e47cdd5857d604309f65456",
    ("A1", 2): "93e4e05f157bb635b2363d536a260634b6908b21641efa4f1f2458c3a915ec33",
    ("A1", 3): "d28e278d7510155351290226773e2c1086e111ece38038148f8441f1bb2561af",
    ("A1", -1): "d2b0dc9f07408a6775eb937034b06aab792147dd26ebab06342833f4c9591a5a",
    ("A2", 1): "35343d618f5702d16f3ac5c0daa85795e1673649dd77bf800e44579a6457c91a",
    ("A2", 2): "00d8cb442c063ddd6cb930742ead07553e174096fed01041d76859b6f5fbc07d",
    ("A2", 3): "a89017a92c82228c8ae9f5262ff556ad8b3cac6d370334b1334bd799ac440828",
    ("A2", -1): "ec8e52e2ab48c2d20f9c8801dd4806dbcdfbcb384c07207a743017f1522af5c4",
    ("A3", 1): "c57f3534c7bc22309a1ee7d699d558261e7a62a0bc3f7f89bf3296840e30bdd9",
    ("A3", 2): "5493d3e67be3612e2beaa13ab4419b51fd434fb7faee553435ff2079e867cfa6",
    ("A3", 3): "7f50a2970f56402454ecb118e80bce3ee881d14189d6d8cc2a9ccad36234a9fb",
    ("A3", -1): "2f957e682a60a3bd4ff9376981b7a9ffc67e940969dd730c0367099023d82670",
    ("A4", 1): "62c9c34e4f3fdfaf7c668c7c6279ad23ca95904244d50b2863112872e9933c45",
    ("A4", 2): "a5afc5a045f3b78acfbaf3dd1b3e6394f9d282bc4e2e9966b75d91ceeeb57fde",
    ("A4", 3): "47544d5076acc57be3f9b948612d6b0955b5c68cb1b33162d6105090795f5e22",
    ("A4", -1): "b6affa665c3f2b295e8e3f9081441e9f59a67716c6b0bfb0bea85c2654f3330b",
    ("A5", 1): "a59e1e93145b14dd16569935f7b8965546cc5cc4f23c7aebae66df59ece2c666",
    ("A5", 2): "b34cee46c94f47c39630edab7e65ee6d7e53031f1ccc273a6fbb4105ce6de2eb",
    ("A5", 3): "4662c96406d7912fa413e891c915d173cd46864851f05da61fcb28779be734cd",
    ("A5", -1): "7d75874042d15123228359125b9652ed1abdda9acd417692ad592df392169d98",
    ("A6", 1): "3f39e8cf36ee94aa7a8e9417cd1a2d38eb3540f52b1f261e489fdc6f5929752a",
    ("A6", 2): "ab2b0b3d673241802a1efdb700ba36f1748b2a3645f396cd93bced029cfb9887",
    ("A6", 3): "93d714c1671f9e5b5b357fb45ba723ef9eabb3837f68a7ab4ca08e9917632478",
    ("A6", -1): "57e77165fbb6cfba41d3653ed7d65966ad293b921532ef9e1aea1b77806402b5",
    ("A7", 1): "b1ce76c4afb23706d968b92ffb1ae3c41d47cec7680717332299da5752840153",
    ("A7", 2): "4122a714eb796b05523125ce4cad5394649dfd4f1b4131cf627d2ecc60500664",
    ("A7", 3): "c2e9c29149e3c4746e6af48c955acf5b1b1d0e0f58f3f77bd42a204b1bea5703",
    ("A7", -1): "6a1d842181fb15494fd49affdde65500f2319fd259707946c138c6b30f23c6ed",
    ("A8", 1): "26e2c41d1675c2d31cdc106f6ebec6825fbfdfe23938d03e19a39e7b9387e336",
    ("A8", 2): "bc95b1340217af512e7ebd490e758416fa7689d4eee7f7b1edd186e06e4b2152",
    ("A8", 3): "bf91035da08f3ca5f94fb4a8c2591ad181d931add656245ac646e7d789a83ce0",
    ("A8", -1): "216409620c71fc28604d16564fe057295ecceb1e00182144b8ac3c22a731abca",
    ("D4", 1): "8c32c8d6bdaa93793485acfd85f18f4079cd946408af04f1d031244c252eb59e",
    ("D4", 2): "dc17fe940ca89d12ca8dee5738083bb34d023a5825a8ca7db494f33df1a21c45",
    ("D4", 3): "bf3d783d737c79792db5f3cc728f2877f8591ba1355080832f56dcda1054995e",
    ("D4", -1): "3cbebb68fd4e214008efc993ba94424f2b235773b43f09a3077dfbabc2148c28",
    ("D5", 1): "4e39d0f903a371c6f2bc2366afd047e0d789b65d97977645c5894295c7a28298",
    ("D5", 2): "17adecbc37cde391d8b1ab6c86b2e81b837fd79045d87d8d87beefa4a07e92fe",
    ("D5", 3): "caf9edfed0fbc087245474822b4c4b27541b3ac9c0023dc862b3e57f7b793e85",
    ("D5", -1): "353ea810003e739d6c2be5f2c6c72dba7b96737aedb538d38735a353c02932f0",
    ("D6", 1): "a850d1cee4a627927f5eb093698a6a8a453e141ca87bfde361c48ee7491d7ffa",
    ("D6", 2): "66cc5d2ffa21470cac89ef468c1ed5bac31c90bb68d6a564dffbeb493e4c6baf",
    ("D6", 3): "c840a294e3a9d9a6625dfbda7ebd006b3bb4d620900645bd8f5ce7d3cce22c97",
    ("D6", -1): "8030c0c75c4fffe263ec750823e9f848329f943a447a4533fb9c6159455ff39e",
    ("D7", 1): "1a71f277e13a94d8f9cdf933c4bc67c652514f6ff604a971b1809cfb2b11e201",
    ("D7", 2): "f3994490d4a1055063894254205041dba9d5846cf8b2b3763fc92b3232d9ec92",
    ("D7", 3): "21364696209f1a0bf50d2ba4806e2ea6a5468d84f5240306a5b33dc384f4dfa5",
    ("D7", -1): "f1f657b0e740c2175419358dd0da13e71e5ee87150e3217aadb526892a0410a2",
    ("D8", 1): "2a992bf67b1e33d19b221520e95c461236fbe92d0bd776efb7df1d8f4653f3e1",
    ("D8", 2): "1fe36ad3c9685d7ca41fb976b9fe05dcd8d435216495814082db129db93259f5",
    ("D8", 3): "49dcd4ebc31ca6538450c9c6eaf34179c74554c67a0a64a616ef7b3621bed025",
    ("D8", -1): "e3ade1a8da6c58b35b58db36528c8485761cd8e42a2f729cd70d7abdf64d8059",
    ("E6", 1): "95c1d70ee261593c27814f6ee87d1c5ad0c229bd496a8c3653fed6132b32042a",
    ("E6", 2): "9d55038645e0d14aa3fe7686e7577de425098066ba941dd2dc1c9d6aab043855",
    ("E6", 3): "a9f026799d0a32d22605de66f43f84a1bf222433f80aa428e3aa61cb0e4ee46c",
    ("E6", -1): "7b606a4023d7a2475a98b910581e1f14e8d51554a0520b570d9d91cc4badb6ba",
    ("E7", 1): "1660b9fe6162034a6ed7dccd9b5a2656e47a01fceec4bd0ac8922f54c04dde78",
    ("E7", 2): "cb3e00b963a52ebcdf2416a01b75180b08eaaae9e1c1f53e1b8c17ecb08040a6",
    ("E7", 3): "08103742ab9a8da00789e4266fb6ad720f75d50ae5cdfc088d6d42dd7034badb",
    ("E7", -1): "490e534ff981b39ce06b4cce9793047bdfc154ac7e003affa6d06c4657deddee",
    ("E8", 1): "9bdbe5cb7ffc5e766bb41e6b3d45455105cafc04a27e9c3a885c630bd7320b72",
    ("E8", 2): "e0621f76ac56d07e619db01240be571bf5913c54bf4c4a15bade0ddd313b1576",
    ("E8", 3): "649df87b11c21127d7f9dc807eeda51f55c3a76283fd318f4479520a231fede6",
    ("E8", -1): "2be9695e35202796557d29ec75cb7b0f8ccc8de023623bb8fdc653d4b4a70dbb",
    ("2A1", 1): "90dd02d092be70cd77c1cb52b55cd7da3eaacf3ccd50b7554723a3070550bbfb",
    ("2A1", 2): "49baa6d16a4ded9ee93715a40ec126a0fe59ca39074a86b82c61e0c1bfef1ad6",
    ("2A1", 3): "707d496ee4fa4305ad837eab718c87affaf94e78b7ed536e45730acb50763e8f",
    ("2A1", -1): "c92317f35449313c4cee440d9afcc9ca8be9f4d667ec632daf7389a8c9438445",
    ("3A1", 1): "dfcdff1f57ae85a31c0906c8e19e0a5f152a03f3c9e09442c84c88f0e6ce2257",
    ("3A1", 2): "24ebde17ed3c8f9bb884d56a6c1c56158cb4d5e49ae3c9ca0ebbaad43a016953",
    ("3A1", 3): "0c1de380a00e0be51519a637a1e0c09c5ec8214496129c02bff6636a47ac7a4e",
    ("3A1", -1): "42db6e0467dd165b77638460cb5154310b50a358ea14c21f5aac8bb165ad2e44",
    ("4A1", 1): "ccbf5b2a20fcb24c0e816d84884ba6ef3e4fa5e18c549be386cad1c76d92d18e",
    ("4A1", 2): "ec013fb5540f69d96dc6c3f9976d80ef873ed27bea43bf4829c23ceffc45b63f",
    ("4A1", 3): "8a1fdeeed102013f0decf38e45da8d2795dab16a82ea465b4214a558886fbf16",
    ("4A1", -1): "8732c23c6ea7f3dc6d682d498773d4ef9281ee17b0a24421eb8b98e186d0dbd0",
    ("5A1", 1): "f24f3dda4ee30c81e53afaa31ca73313d07d7758b3da68abf95273100a3a9073",
    ("5A1", 2): "4ecfb45f53f85d2ac84663f6ee4faf591dcba46180544ed4de307def2b2d1a7f",
    ("5A1", 3): "7a097ce681abb7889fd16172f7bc55cbc187029dedbccbd68ffb5c37656b889f",
    ("5A1", -1): "61e8c0fe1e3e646d0df21a0e45cafa426b21d85a8472bb026fca995a12dc3281",
    ("6A1", 1): "2b326845548e10a3b6b59d5dfa34ef10d1d8f4f4881979f89d851f4c4e6c666d",
    ("6A1", 2): "38694a71588961ef67b0e765d83d3116f68d5f53053b4d778e0c4c9261da0d4b",
    ("6A1", 3): "771ecced49cd828c22823d10cb7e6de0b89ee152bf192a8b2bf48fb5bd034926",
    ("6A1", -1): "12fc9aeee65e20e50d43e69e69df5a09bbdebe68a40bc9c4f38e8d406ec408f8",
    ("7A1", 1): "3a388e7ff7493446fd40cdffe68cd55756dead1ed24325685cae2aebba136db9",
    ("7A1", 2): "d8391cf1877bb5ba7cf6262aea5f2eb4f1d71969b06878a4fa447faebc58723b",
    ("7A1", 3): "50d99a56d78a09ee14c1ce0d577e07b8263713fd17271c54ea393b115cdaef1a",
    ("7A1", -1): "afbcc96fae550bb727363ccb7f5d935f5a0d54a8cbeb1e9fe0566d15dc1e4090",
    ("8A1", 1): "a98215edfb1b6a69173775babbe2f8dab07e8790af7950e32a0dba622ae1a722",
    ("8A1", 2): "e8ce98d753e75a055d9c103d6a8369e1f327677d2738463f6286e25a97c4b061",
    ("8A1", 3): "eed80abc0d8ba3ee2a7c4fa446a8b27fbc523de20eb8c497d910c01702db31dd",
    ("8A1", -1): "17d771562dcde5154f7c67c64f144fd481b26f50a459f5f246b9db11dcca5900",
}


@pytest.mark.parametrize("name, scale", sorted(LATTICE_DIGESTS))
def test_lattice_output_pinned(capsys, name, scale):
    code, out, err = run(capsys, "lattice", f"builtin:{name}({scale})", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_DIGESTS[name, scale]


class TestRoots:
    def test_d4_norm4(self, capsys):
        code, out, _ = run(
            capsys, "roots", "builtin:D4", "--max-norm", "4", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_roots"] == 48
        (comp,) = doc["components"]
        assert comp["type"] == "F4" and comp["coxeter"] == 9
        assert comp["modified_coxeter"] == "9/1"

    def test_a2_report_shape(self, capsys):
        code, out, _ = run(
            capsys, "roots", "builtin:A2", "--max-norm", "2", "--format", "json"
        )
        doc = json.loads(out)
        (comp,) = doc["components"]
        assert comp == {
            "type": "A",
            "rank": 2,
            "d": 1,
            "scale": 1,
            "roots": 6,
            "coxeter": 3,
            "modified_coxeter": "3/1",
            "subcase": None,
            "short_div": 1,
            "long_div": None,
        }

    def test_c3_report_example(self, capsys):
        code, out, _ = run(
            capsys, "roots", "builtin:A3", "--max-norm", "4", "--format", "json"
        )
        assert code == 0
        (comp,) = json.loads(out)["components"]
        for field, value in {
            "type": "C",
            "rank": 3,
            "d": 1,
            "roots": 18,
            "coxeter": 5,
            "modified_coxeter": "5/1",
            "subcase": None,
        }.items():
            assert comp[field] == value

    def test_large_max_norm_matches_norm_2(self, capsys, monkeypatch):
        # E8 has e = 1, so no root has norm above 4e^2 = 4 and the search stops there
        asked = []

        def bounded(lat, max_norm):
            assert max_norm <= 4, f"short vectors enumerated up to norm {max_norm}"
            asked.append(max_norm)
            return _short_half(lat, max_norm)

        monkeypatch.setattr(roots_mod, "_short_half", bounded)
        outs = {}
        for fmt in ("json", "table"):
            for max_norm in ("2", "1000000"):
                code, outs[fmt, max_norm], _ = run(
                    capsys, "roots", "builtin:E8", "--max-norm", max_norm, "--format", fmt
                )
                assert code == 0
        assert outs["json", "1000000"] == outs["json", "2"]
        assert json.loads(outs["json", "2"])["total_roots"] == 240
        head, *components = outs["table", "1000000"].splitlines()
        assert head == "240 reflective vectors up to norm 1000000"
        assert components == outs["table", "2"].splitlines()[1:]
        assert len(asked) == 4, "the enumeration detect_roots calls was not the one watched"

    def test_enumeration_past_the_cap_is_one_error_line(self, capsys, tmp_path, deadline):
        # 7A1 + <100> has e = 100, so a max norm past 2e = 200 is clamped there, and up to norm 200
        # it has about 5 * 10^7 short vectors
        gram = [[2 * (i == j) + 98 * (i == j == 7) for j in range(8)] for i in range(8)]
        path = write_json(tmp_path / "wide.json", {"gram": gram})
        with deadline(10):
            code, out, err = run(capsys, "roots", path, "--max-norm", "1000000")
        assert (code, out) == (2, "")
        assert err == "error: short vectors of norm <= 200 in rank 8 exceed the cap of 200000\n"

    # the one component the mirrors of each built-in form (ROADMAP item 17): its type and rank
    MIRROR_SYSTEMS = {
        "A1": ("A", 1), "A2": ("G2", 2), "A3": ("C", 3), **{f"A{n}": ("A", n) for n in range(4, 9)},
        "D4": ("F4", 4), **{f"D{n}": ("C", n) for n in range(5, 9)},
        **{f"E{n}": (f"E{n}", n) for n in (6, 7, 8)}, **{f"{n}A1": ("B", n) for n in range(2, 9)},
    }

    @pytest.mark.parametrize("scale", [1, 3])
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_at_a_max_norm_past_2e(self, capsys, deadline, name, scale):
        # a mirror's primitive vector has norm <= 2e, so --max-norm 10^6 enumerates only to 2e: each of
        # the 46 took under 0.4 s when measured (A8, whose 2e is 18, the longest), and each is given 10 s
        with deadline(10):
            code, out, err = run(capsys, "roots", f"builtin:{name}({scale})", "--max-norm", "1000000", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [(c["type"], c["rank"], c["d"]) for c in doc["components"]] == [(*self.MIRROR_SYSTEMS[name], scale)]
        assert doc["total_roots"] == doc["components"][0]["roots"]

    @pytest.mark.parametrize("name, max_norm", [("A1", "8"), ("A1", "1000000")] + [(f"{n}A1", "1000000") for n in range(2, 9)])
    def test_only_mirrors_decompose(self, capsys, name, max_norm):
        # 2r reflects in r's mirror and would join r's component: only the primitive reflective
        # vectors are counted and decomposed, so A1 is A1 and nA1, with its e_i +- e_j, is B_n
        n = int(name[:-2] or 1)
        code, out, err = run(capsys, "roots", f"builtin:{name}", "--max-norm", max_norm, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        shape = ("A", 1, 2) if n == 1 else ("B", n, 2 * n * n)
        assert doc["total_roots"] == shape[2]
        assert [(c["type"], c["rank"], c["roots"]) for c in doc["components"]] == [shape]

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4", "D5", "E6", "2A1", "3A1", "A2(2)", "D4(3)"])
    @pytest.mark.parametrize("max_norm", [2, 4, 8])
    def test_a_set_that_decomposes_is_reported_whole(self, capsys, name, max_norm):
        # an imprimitive reflective vector comes with its primitive one at a norm ratio of at least 4,
        # so a set that decomposes holds none: there the report is that of every reflective vector
        rd = roots_mod.detect_roots(builtin_lattice(name), max_norm)
        try:
            comps = roots_mod.decompose(rd) if rd.roots else []
        except roots_mod.UnrecognizedRootSystemError:
            assert any(math.gcd(*r) > 1 for r in rd.roots)
            return
        code, out, _ = run(capsys, "roots", f"builtin:{name}", "--max-norm", str(max_norm), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_roots"] == len(rd.roots)
        assert [(c["type"], c["rank"], c["roots"]) for c in doc["components"]] == [
            (c.type_tag, c.rank, len(c.roots)) for c in comps
        ]

    @pytest.mark.parametrize("gram, reason", [([[1]], "odd root norm 1"), ([[1, 0], [0, 1]], "odd short norm 1")])
    def test_unrecognized_mirrors_name_the_lattice(self, capsys, tmp_path, gram, reason):
        # the mirrors of Z and Z^2 have norm 1, which no type in the table has: the line names the file
        path = write_json(tmp_path / "odd.json", {"gram": gram})
        code, out, err = run(capsys, "roots", path, "--max-norm", "2")
        assert (code, out) == (2, "")
        assert err == f"error: the mirrors of lattice {shown(path)} match no type in the table: {reason}\n"

    @pytest.mark.parametrize("gram", [[[-2, 1], [1, -2]], [[0, 1], [1, 0]], [[2, 3], [3, 2]]])
    def test_not_positive_definite_names_the_lattice(self, capsys, tmp_path, gram):
        for ref in ("builtin:A2(-1)", write_json(tmp_path / "indefinite.json", {"gram": gram})):
            code, out, err = run(capsys, "roots", ref, "--max-norm", "2")
            assert code == 2 and out == ""
            assert err == f"error: lattice {shown(ref)} is not positive definite, so it has no finite root set\n"


class TestWeyl:
    def test_empty_phi(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        code, out, _ = run(capsys, "weyl", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == "1/1" and doc["C"] == "0/1"
        assert doc["weight"] == "12/1"
        assert doc["character_D"] == 1 and doc["character_sign"] == -1

    def test_solves_symbolic_weight(self, capsys, tmp_path):
        phi = {
            "lattice": "builtin:A1",
            "coeffs": [
                {"n": -1, "l": ["0/1"], "f": 1},
                {"n": 0, "l": ["1/1"], "f": 1},
                {"n": 0, "l": ["-1/1"], "f": 1},
            ],
            "k": "symbolic",
        }
        path = write_json(tmp_path / "phi.json", phi)
        code, out, _ = run(capsys, "weyl", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["weight"] == "35/1"
        assert doc["C"] == "2/1" and doc["sum_rule_C"] == "2/1"

    @pytest.mark.parametrize("command", ["weyl", "borch"])
    @pytest.mark.parametrize("gram", [[[-2]], [[2, 0], [0, -2]], [[2, 3], [3, 2]]])
    @pytest.mark.parametrize("by_file", [False, True])
    def test_indefinite_lattice_refused(self, capsys, tmp_path, deadline, command, gram, by_file):
        lattice = write_json(tmp_path / "lat.json", {"gram": gram}) if by_file else {"gram": gram}
        doc = {"lattice": lattice, "coeffs": [{"n": -1, "l": ["0/1"] * len(gram), "f": 1}], "k": "symbolic"}
        path = write_json(tmp_path / "phi.json", doc)
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, command, path)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: invalid coefficient file {shown(path)}: its lattice is not positive definite\n"

    @pytest.mark.parametrize("field,value,named", [("k", "1e-99999999", "'k'"), ("l", ["1E4_301"], "'l' entry")])
    def test_huge_decimal_exponent_in_coefficients(self, capsys, tmp_path, deadline, field, value, named):
        doc = dict(EMPTY_PHI, k=value) if field == "k" else dict(
            EMPTY_PHI, coeffs=EMPTY_PHI["coeffs"] + [{"n": 0, "l": value, "f": 1}]
        )
        path = write_json(tmp_path / "phi.json", doc)
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, "weyl", path)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"{named} has a decimal exponent beyond 4300 in absolute value" in err

    @staticmethod
    def non_spanning(tmp_path, lattice, l, k):
        """A coefficient file whose support ±l does not give a Gram multiple."""
        coeffs = [{"n": -1, "l": ["0/1", "0/1"], "f": 1}]
        coeffs += [{"n": 0, "l": [f"{s * x}/1" for x in l], "f": 1} for s in (1, -1)]
        return write_json(tmp_path / "phi.json", {"lattice": lattice, "coeffs": coeffs, "k": k})

    def test_symbolic_weight_with_failed_sum_rule(self, capsys, tmp_path):
        path = self.non_spanning(tmp_path, "builtin:A2", (1, 0), "symbolic")
        code, out, err = run(capsys, "weyl", path)
        assert (code, out) == (3, "")
        assert err == (
            "error: weight is symbolic and the sum rule failed: "
            "left side has rank 1 and is not proportional to the Gram matrix\n"
        )

    def test_numeric_weight_reports_the_failed_sum_rule(self, capsys, tmp_path):
        path = self.non_spanning(tmp_path, "builtin:2A1", (1, 1), 12)
        code, out, _ = run(capsys, "weyl", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["sum_rule_C"] is None
        assert doc["sum_rule_failure"] == "left side is not a Gram multiple"

    def test_missing_evenness_partner(self, capsys, tmp_path):
        phi = {
            "lattice": "builtin:A1",
            "coeffs": [
                {"n": -1, "l": ["0/1"], "f": 1},
                {"n": 0, "l": ["1/1"], "f": 1},
            ],
        }
        path = write_json(tmp_path / "phi.json", phi)
        code, _, err = run(capsys, "weyl", path)
        assert code == 3
        assert "l=[-1/1]" in err

    def test_off_dual_vector_reads_as_a_rational(self, capsys, tmp_path):
        phi = {
            "lattice": "builtin:A1",
            "coeffs": [{"n": -1, "l": ["0/1"], "f": 1}] + [{"n": 0, "l": [l], "f": 1} for l in ("1/10", "-1/10")],
        }
        path = write_json(tmp_path / "phi.json", phi)
        code, out, err = run(capsys, "weyl", path)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "vector (1/10) does not pair integrally" in err

    def test_missing_principal_part(self, capsys, tmp_path):
        phi = {"lattice": "builtin:A1", "coeffs": []}
        path = write_json(tmp_path / "phi.json", phi)
        code, _, err = run(capsys, "weyl", path)
        assert code == 3
        assert "n=-1" in err

    @pytest.mark.parametrize(
        "coeffs, named",
        [
            (5, "'coeffs' must be a list"),
            ([7], "entry 0 must be an object"),
            ([{"n": -1, "l": ["0/1"], "f": 1.5}], "'f' must be an integer, got 1.5"),
            ([{"n": -1, "l": ["0/1"], "f": True}], "'f' must be an integer, got True"),
            ([{"n": -1.0, "l": ["0/1"], "f": 1}], "'n' must be an integer, got -1.0"),
            ([{"n": -1, "l": ["0/1"]}], "'f' must be an integer, got None"),
            ([{"n": -1, "l": "0", "f": 1}], "'l' must be a list, got '0'"),
            (
                [{"n": -1, "l": ["0/1"], "f": 1}, {"n": 0, "l": ["1/2"], "f": 1}, {"n": 0, "l": ["2/4"], "f": 2}],
                "entry 2 {'n': 0, 'l': ['2/4'], 'f': 2} conflicts with an earlier entry",
            ),
            # an entry its partner or the principal part needs with another value is a conflict, not a gap
            (
                [{"n": -1, "l": ["0/1"], "f": 1}, {"n": 0, "l": ["1/1"], "f": 1}, {"n": 0, "l": ["-1/1"], "f": 3}],
                "coefficient entry 1 {'n': 0, 'l': ['1/1'], 'f': 1} and coefficient entry 2 {'n': 0, 'l': ['-1/1'], 'f': 3}"
                " conflict: f(n, -l) must equal f(n, l)",
            ),
            (
                [{"n": -1, "l": ["0/1"], "f": 2}],
                "coefficient entry 0 {'n': -1, 'l': ['0/1'], 'f': 2} conflicts with the principal part f(-1, 0) = 1",
            ),
        ],
    )
    def test_malformed_coeffs(self, capsys, tmp_path, coeffs, named):
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs})
        code, out, err = run(capsys, "weyl", path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and named in err


    @pytest.mark.parametrize("l", [[0.5], [0.0], [True], [None]])
    def test_non_rational_l_entry(self, capsys, tmp_path, l):
        coeffs = [{"n": -1, "l": ["0/1"], "f": 1}, {"n": 0, "l": l, "f": 1}]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs})
        code, out, err = run(capsys, "weyl", path)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and shown(path) in err
        assert f"coefficient entry 1 {coeffs[1]!r}: 'l' entry must be a rational 'p/q', got {l[0]!r}" in err

    def test_invalid_inline_lattice_names_the_file(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, lattice={"gram": [[0]]}))
        code, out, err = run(capsys, "weyl", path)
        assert code == 2 and out == ""
        assert err == f"error: invalid coefficient file {shown(path)}: degenerate lattice\n"

    @pytest.mark.parametrize("label", [[1], 5], ids=["list", "int"])
    def test_inline_lattice_label_that_is_not_a_string_refused(self, capsys, tmp_path, label):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, lattice={"gram": [[2]], "label": label}))
        code, out, err = run(capsys, "weyl", path)
        assert (code, out) == (2, "")
        assert err == f"error: invalid coefficient file {shown(path)}: 'label' must be a string or null, got {label!r}\n"

    def test_lattice_path_is_a_directory(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, lattice=str(tmp_path)))
        code, out, err = run(capsys, "weyl", path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cannot read" in err


class TestBorch:
    def test_empty_phi_expansion(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        out_path = tmp_path / "series.json"
        code, out, _ = run(
            capsys, "borch", path, "--rect", "2,2", "-o", str(out_path)
        )
        assert code == 0
        assert "A = 1/1" in out and "C = 0/1" in out
        assert "weight = 12/1" in out
        assert "D = 1, chi(V) = -1" in out
        doc = json.loads(out_path.read_text())
        x = series_from_json(doc)
        assert x.prefactor.a == 1 and x.prefactor.c == 0
        # constant term of the reduced series is 1
        assert x.terms[(Q(0), (Q(0),), Q(0))] == 1

    def test_boundary_block_over_the_term_cap(self, capsys, tmp_path):
        # (1 - zeta^-1)^300000 alone has 300001 terms, past the default cap
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 300000} for l in ("1/1", "-1/1")]
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, coeffs=coeffs))
        code, out, err = run(capsys, "borch", path, "--rect", "1,1")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "exceeds the term cap" in err

    def test_truncation_zero_keeps_prefactor_only(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        out_path = tmp_path / "series.json"
        code, out, _ = run(capsys, "borch", path, "--rect", "0,0", "-o", str(out_path))
        assert code == 0
        x = series_from_json(json.loads(out_path.read_text()))
        assert x.prefactor.a == 1
        assert dict(x.terms) == {(Q(0), (Q(0),), Q(0)): Q(1)}

    @pytest.mark.parametrize("rect, a_max", [("-1,2", "-1/1"), ("-1/2,2", "-1/2")])
    def test_negative_rect_bound(self, capsys, tmp_path, rect, a_max):
        # README's A1 file; '--rect -1,2' reads as '--rect=-1,2'
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 1} for l in ("1/1", "-1/1")]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        docs = []
        for spelling in (["--rect", rect], [f"--rect={rect}"]):
            out_path = tmp_path / "series.json"
            code, out, err = run(capsys, "borch", path, *spelling, "-o", str(out_path))
            assert (code, err) == (0, "")
            assert "terms stored: 6" in out
            docs.append(json.loads(out_path.read_text()))
        assert docs[0] == docs[1]
        assert docs[0]["rect"] == [a_max, "2/1"]

    def test_rect_bound_off_the_grid(self, capsys, tmp_path):
        # 1/7 is off the (1/24)Z grid: the JSON rect reads it back exactly, and the
        # integer q-exponents of the A1 factors keep the terms of --rect 0,2
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 1} for l in ("1/1", "-1/1")]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        docs = []
        for rect in ("1/7,2", "0,2"):
            out_path = tmp_path / "series.json"
            code, _, err = run(capsys, "borch", path, "--rect", rect, "-o", str(out_path))
            assert (code, err) == (0, "")
            docs.append(json.loads(out_path.read_text()))
        assert docs[0]["rect"] == ["1/7", "2/1"]
        assert docs[0]["terms"] == docs[1]["terms"]

    def test_huge_rect_is_one_error_line(self, capsys, tmp_path, deadline):
        # two factors per n <= 10^400: counted and refused before any is built
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 1} for l in ("1/1", "-1/1")]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, "borch", path, "--rect", "1e400,1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.endswith("factors, more than the term cap of 200000\n")

    def test_factor_count_too_long_to_print(self, capsys, tmp_path, deadline):
        # f(0, +-1/2) = 1 on rect (9e4299, 9e4299): about 5.4e4300 factors, a count str() cannot print
        coeffs = [{"n": -1, "l": ["0"], "f": 1}, {"n": 0, "l": ["1/2"], "f": 1}, {"n": 0, "l": ["-1/2"], "f": 1}]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        with deadline(10):
            code, out, err = run(capsys, "borch", path, "--rect", "9e4299,9e4299")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and len(err) < 300
        assert err == "error: the expansion has a 4301-digit number of factors, more than the term cap of 200000\n"

    @pytest.mark.parametrize(
        "rect, message",
        [
            ("1", "--rect expects 'A,T', got '1'"),
            ("1,2,3", "--rect expects 'A,T', got '1,2,3'"),
            ("a,b", "--rect bound must be a rational 'p/q', got 'a'"),
            ("1/0,1", "--rect bound must be a rational 'p/q', got '1/0'"),
        ],
    )
    def test_malformed_rect_refused(self, capsys, tmp_path, rect, message):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        code, out, err = run(capsys, "borch", path, "--rect", rect)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("rect", ["0,1e4300", "0,12345e4296", "1e-4300,1", "0,-3e+0_4300"])
    def test_bound_too_long_to_print_refused(self, capsys, tmp_path, rect):
        # the exponent is within 4300, but the value has 4301 digits, more than q_str can print
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        code, out, err = run(capsys, "borch", path, "--rect", rect)
        assert (code, out) == (2, "")
        assert err == "error: --rect bound has a numerator or denominator of more than 4300 digits\n"

    @pytest.mark.parametrize("rect", ["1e100000000,1", "1,-1e-100000000", "1E4_301,1", "0.5e+00000000000000004301,1"])
    def test_huge_decimal_exponent_refused(self, capsys, tmp_path, deadline, rect):
        # Fraction would expand the power of ten digit by digit; q_str could not print it
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, "borch", path, "--rect", rect)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        bound = next(b for b in rect.split(",") if "e" in b.lower())
        assert err == f"error: --rect bound has a decimal exponent beyond 4300 in absolute value, got {bound!r}\n"

    def test_principal_part_only_on_a_huge_rect(self, capsys, tmp_path, deadline):
        # one factor (1 - q^-1 xi)^1, whose binomial stops at u^1 however far t_max reaches
        doc = {"lattice": "builtin:A1", "k": "0", "coeffs": [{"n": -1, "l": ["0"], "f": 1}]}
        path = write_json(tmp_path / "phi.json", doc)
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, "borch", path, "--rect", "0,1e400")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert "terms stored: 2" in out

    @pytest.mark.parametrize("output", [False, True])
    def test_coefficient_too_long_to_print(self, capsys, tmp_path, deadline, output):
        # (1 - zeta^(-1/2))^14400 holds C(14400, 7200), of 4333 digits: the whole document
        # is built before the first line is printed, so neither stdout nor -o gets any of it
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 14400} for l in ("1/2", "-1/2")]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        out_path = tmp_path / "series.json"
        with deadline(10):
            code, out, err = run(capsys, "borch", path, "--rect", "0,0", *(["-o", str(out_path)] if output else []))
        assert (code, out) == (2, "")
        assert err == "error: the expansion has a coefficient or exponent of more than 4300 digits, too long to print\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("f, digits", [(10**4300 - 1, 4301), (10**4299, 4300)], ids=["10^4300-1", "10^4299"])
    def test_boundary_bound_too_long_to_print(self, capsys, tmp_path, deadline, f, digits):
        # the bound 10^4300 is past str()'s limit, and 10^4299 + 1 would spell out 4300 digits
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": f} for l in ("1/2", "-1/2")]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        with deadline(10):
            code, out, err = run(capsys, "borch", path)
        assert (code, out) == (1, "")
        assert err == (
            "error: the bound prod (exponent + 1) on the zeta monomials of the m = n = 0 factor block is "
            f"a number of {digits} digits over its first 1 factors, which exceeds the term cap of 200000\n"
        )

    def test_den_zero_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        code, out, err = run(capsys, "borch", path, "--rect", "1,1", "--den", "0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "den" in err


    def test_den_off_the_weyl_vector_grid(self, capsys, tmp_path):
        # the A1 subcase-i product has Weyl vector A = 3/2, C = 1/2
        comp = dataclasses.replace(realize("A", 1, 1), subcase="i")
        phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)])
        coeffs = [
            {"n": n, "l": [str(x) for x in l], "f": f}
            for (n, l), f in phi.coefficient_table().items()
        ]
        doc = {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"}
        path = write_json(tmp_path / "phi.json", doc)
        code, out, err = run(capsys, "borch", path, "--rect", "1,1", "--den", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--den 1" in err and "A = 3/2" in err
        code, out, _ = run(capsys, "borch", path, "--rect", "1,1", "--den", "2")
        assert code == 0 and "A = 3/2, B = [1/4], C = 1/2" in out


class TestJacobian:
    def series_doc(self, a, l, t):
        return {
            "rank": 1,
            "den": 24,
            "prefactor": {"A": "0/1", "B": ["0/1"], "C": "0/1"},
            "terms": [{"a": f"{a}/1", "l": [f"{l}/1"], "t": f"{t}/1", "c": "1/1"}],
            "rect": ["4/1", "4/1"],
        }

    def test_monomial_quadruple(self, capsys, tmp_path):
        paths = []
        for i, (a, l, t) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            paths.append(write_json(tmp_path / f"f{i}.json", self.series_doc(a, l, t)))
        out_path = tmp_path / "j.json"
        code, out, _ = run(
            capsys, "jacobian", *paths, "--weights", "1,1,1,1", "-o", str(out_path)
        )
        assert code == 0
        assert "leading order: q^1/1 xi^1/1" in out
        j = series_from_json(json.loads(out_path.read_text()))
        assert dict(j.terms) == {(Q(1), (Q(1),), Q(1)): Q(1)}

    def test_duplicate_inputs_vanish(self, capsys, tmp_path):
        p = write_json(tmp_path / "f.json", self.series_doc(1, 0, 0))
        paths = [p, p]
        paths.append(write_json(tmp_path / "g.json", self.series_doc(0, 1, 0)))
        paths.append(write_json(tmp_path / "h.json", self.series_doc(0, 0, 1)))
        code, out, _ = run(capsys, "jacobian", *paths, "--weights", "2,2,1,1")
        assert code == 0
        assert "vanishes to rectangle order" in out

    def test_syzygy_mode(self, capsys, tmp_path):
        paths = []
        for i, (a, l, t) in enumerate(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)]
        ):
            paths.append(write_json(tmp_path / f"s{i}.json", self.series_doc(a, l, t)))
        code, out, _ = run(
            capsys, "jacobian", *paths, "--weights", "1,2,3,4,5", "--syzygy"
        )
        assert code == 0
        assert "vanishes to rectangle order" in out

    @pytest.mark.parametrize("syzygy", [[], ["--syzygy"]])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("prefactor", {"A": "-1/1", "B": ["0/1"], "C": "0/1"}, "prefactor A = -1"),
            ("terms", [{"a": "0/1", "l": ["0/1"], "t": "-1/1", "c": "1/1"}], "a term at absolute t = -1"),
        ],
    )
    def test_negative_exponent_refused(self, capsys, tmp_path, syzygy, field, value, message):
        # a modular form has no exponent below 0: the one line names the file of the second form
        paths = [write_json(tmp_path / f"f{i}.json", self.series_doc(a, l, t))
                 for i, (a, l, t) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)])]
        bad = self.series_doc(1, 0, 0)
        bad[field] = value
        paths[1] = write_json(tmp_path / "bad.json", bad)
        count = 5 if syzygy else 4
        code, out, err = run(capsys, "jacobian", *paths[:count], "--weights", ",".join(["1"] * count), *syzygy)
        assert (code, out) == (2, "")
        assert err == (
            f"error: invalid series file {shown(paths[1])}: form 1 has {message} below 0: "
            "the Jacobian takes modular forms only, every exponent a, t >= 0\n"
        )

    @pytest.mark.parametrize("syzygy", [[], ["--syzygy"]])
    def test_all_zero_file_vanishes(self, capsys, tmp_path, syzygy):
        # a file with no terms is a zero column whatever its prefactor: never refused
        paths = [write_json(tmp_path / f"f{i}.json", self.series_doc(a, l, t))
                 for i, (a, l, t) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)])]
        for prefactor in ({"A": "0/1", "B": ["0/1"], "C": "0/1"}, {"A": "-1/1", "B": ["0/1"], "C": "-2/1"}):
            doc = self.series_doc(0, 0, 0)
            doc["terms"], doc["prefactor"] = [], prefactor
            paths[2] = write_json(tmp_path / "zero.json", doc)
            count = 5 if syzygy else 4
            code, out, err = run(capsys, "jacobian", *paths[:count], "--weights", ",".join(["1"] * count), *syzygy)
            assert (code, err) == (0, "")
            assert out.startswith("vanishes to rectangle order\n")

    @pytest.mark.parametrize("spelling", [["--weights", "-2,1,1,1"], ["--weights=-2,1,1,1"]])
    def test_negative_first_weight(self, capsys, tmp_path, spelling):
        paths = []
        for i, (a, l, t) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            paths.append(write_json(tmp_path / f"f{i}.json", self.series_doc(a, l, t)))
        code, out, err = run(capsys, "jacobian", *paths, *spelling)
        assert (code, err) == (0, "")
        assert "leading order: q^1/1 xi^1/1" in out
        assert json.loads(out.split("\n", 2)[2])["terms"] == [
            {"a": "1/1", "l": ["1/1"], "t": "1/1", "c": "-2/1"}
        ]

    @pytest.mark.parametrize("syzygy", [[], ["--syzygy"]])
    def test_term_cap_overflow(self, capsys, tmp_path, monkeypatch, syzygy):
        doc = self.series_doc(0, 0, 0)
        # four terms with every exponent nonzero, so each 1x1 minor on the omega row has four
        doc["terms"] = [{"a": f"{j}/1", "l": [f"{j}/1"], "t": f"{j}/1", "c": "1/1"} for j in range(1, 5)]
        count = 5 if syzygy else 4
        weights = ",".join(["1"] * count)
        monkeypatch.setattr(series_mod, "DEFAULT_TERM_CAP", 3)
        # floor 1 in every form on rect (4, 4): the minor cut keeps one term of each 1x1 minor
        paths = [write_json(tmp_path / "f.json", doc)] * count
        code, out, err = run(capsys, "jacobian", *paths, "--weights", weights, *syzygy)
        assert (code, err) == (0, "") and "vanishes to rectangle order" in out
        # a term 1 puts the floors at 0, so the cut keeps all four
        doc["terms"].append({"a": "0/1", "l": ["0/1"], "t": "0/1", "c": "1/1"})
        paths = [write_json(tmp_path / "g.json", doc)] * count
        code, out, err = run(capsys, "jacobian", *paths, "--weights", weights, *syzygy)
        assert (code, out) == (1, "")
        assert err.startswith("error: 1x1 minor at row 3") and err.count("\n") == 1 and "cap of 3" in err

    def test_count_mismatch(self, capsys, tmp_path):
        p = write_json(tmp_path / "f.json", self.series_doc(1, 0, 0))
        code, _, err = run(capsys, "jacobian", p, p, p, "--weights", "1,1,1")
        assert code == 2
        assert "forms" in err

    def test_weight_count_mismatch(self, capsys, tmp_path):
        p = write_json(tmp_path / "f.json", self.series_doc(1, 0, 0))
        code, _, err = run(capsys, "jacobian", p, p, "--weights", "1,1,1")
        assert code == 2

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("den", 0, "den"),
            ("terms", 5, "terms"),
            ("rect", ["4/1"], "rect"),
            ("rank", 1.7, "rank"),
            ("rank", True, "rank"),
            ("rank", "1", "rank"),
            ("rank", -1, "rank"),
            ("den", 24.9, "den"),
            ("prefactor", {"A": "1/7", "B": ["0/1"], "C": "0/1"}, "prefactor A"),
            ("prefactor", {"A": "0/1", "B": ["0/1"], "C": "1/48"}, "prefactor C"),
        ],
    )
    def test_malformed_series_file(self, capsys, tmp_path, field, value, named):
        doc = self.series_doc(1, 0, 0)
        doc[field] = value
        p = write_json(tmp_path / "f.json", doc)
        code, out, err = run(capsys, "jacobian", p, p, p, p, "--weights", "1,1,1,1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and named in err


    def test_coefficient_too_long_to_print(self, capsys, tmp_path):
        # each 4000-digit coefficient is accepted, but the Jacobian multiplies four of them:
        # the document is built before the leading order is printed
        paths = []
        for i, (a, l, t) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            doc = self.series_doc(a, l, t)
            doc["terms"][0]["c"] = "9" * 4000 + "/1"
            paths.append(write_json(tmp_path / f"f{i}.json", doc))
        code, out, err = run(capsys, "jacobian", *paths, "--weights", "1,1,1,1")
        assert (code, out) == (2, "")
        assert err == "error: the Jacobian has a coefficient or exponent of more than 4300 digits, too long to print\n"

    @pytest.mark.parametrize("prefactor", [None, {"B": []}])
    @pytest.mark.parametrize("syzygy", [[], ["--syzygy"]])
    def test_enormous_rank_refused_before_allocation(self, capsys, tmp_path, deadline, prefactor, syzygy):
        # a rank-sized default B, or anything else rank-sized, would not fit in memory
        doc = {"rank": 2**62, "rect": ["1/1", "1/1"]}
        if prefactor is not None:
            doc["prefactor"] = prefactor
        p = write_json(tmp_path / "f.json", doc)
        extra = 4 if syzygy else 3
        count = extra + 1
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, "jacobian", *[p] * count, "--weights", ",".join(["1"] * count), *syzygy)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: invalid series file {shown(p)}: rank {2**62} needs exactly {2**62 + extra} forms, got {count}\n"

    def test_huge_decimal_exponent_refused(self, capsys, tmp_path, deadline):
        doc = self.series_doc(1, 0, 0)
        doc["rect"] = ["1e100000000", "1"]
        p = write_json(tmp_path / "f.json", doc)
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, "jacobian", p, p, p, p, "--weights", "1,1,1,1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: invalid series file {shown(p)}: rect entry has a decimal exponent beyond 4300 "
            "in absolute value, got '1e100000000'\n"
        )

    @pytest.mark.parametrize(
        "shape, message",
        [
            ("list", "a series must be a JSON object, got ["),
            ("prefactor", "prefactor must be an object, got [1]"),
            ("term", "terms[0] must be an object with a, l, t and c, got 5"),
        ],
    )
    def test_series_file_of_the_wrong_shape(self, capsys, tmp_path, shape, message):
        doc = self.series_doc(1, 0, 0)
        if shape == "list":
            doc = [doc]
        elif shape == "prefactor":
            doc["prefactor"] = [1]
        else:
            doc["terms"] = [5]
        p = write_json(tmp_path / "f.json", doc)
        code, out, err = run(capsys, "jacobian", p, p, p, p, "--weights", "1,1,1,1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid series file {shown(p)}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["rank", "rect"])
    def test_missing_series_field(self, capsys, tmp_path, field):
        doc = self.series_doc(1, 0, 0)
        del doc[field]
        p = write_json(tmp_path / "f.json", doc)
        code, out, err = run(capsys, "jacobian", p, p, p, p, "--weights", "1,1,1,1")
        assert (code, out) == (2, "")
        assert err == f"error: invalid series file {shown(p)}: series document must contain a '{field}' field\n"

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("terms", [{"a": "1/1", "l": ["0/1"], "t": "0/1", "c": 0.1}], "terms[0].c"),
            ("terms", [{"a": "1/1", "l": ["0/1"], "t": "0/1", "c": True}], "terms[0].c"),
            ("rect", [float("inf"), "4/1"], "rect entry"),
        ],
    )
    def test_non_integer_number_in_series_file(self, capsys, tmp_path, field, value, named):
        doc = self.series_doc(1, 0, 0)
        doc[field] = value
        p = write_json(tmp_path / "f.json", doc)
        code, out, err = run(capsys, "jacobian", p, p, p, p, "--weights", "1,1,1,1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert shown(p) in err and f"{named} must be a rational 'p/q'" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nosuch"],
            ["jacobian"],
            ["jacobian", "f.json", "--weights"],
            ["borch", "f.json", "--den", "two"],
            ["classify", "--format", "yaml"],
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestClassify:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "classify")
        assert code == 0
        assert "26 pairs" in out
        assert "(D4, O1+)" in out
        assert "arithmetic checks" in out

    def test_partial_banner(self, capsys):
        code, out, _ = run(capsys, "classify", "--max-rank", "4")
        assert code == 0
        assert "PARTIAL" in out
        assert "(A4, O~+)" in out

    def test_unresolved_candidate_is_an_internal_error(self, capsys, monkeypatch):
        # a candidate in neither table stays unresolved: one line and exit 1, no table; the row
        # goes from a copy, as deleting it in place would put it back last and reorder the output
        monkeypatch.setattr(classify_mod, "EXCLUDED", dict(list(classify_mod.EXCLUDED.items())[1:]))
        code, out, err = run(capsys, "classify")
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: internal check failed: unresolved candidates \['[^']+'\]\n", err)

    @pytest.mark.parametrize("bound", ["-3", "0", "9", "-2", "12"])
    def test_rank_bound_out_of_range(self, capsys, bound):
        code, out, err = run(capsys, "classify", "--max-rank", bound)
        assert (code, out) == (2, "")
        assert err == f"error: rank bound must be between 1 and 8, got {bound}\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["accepted"]) == 26
        assert doc["complete"] is True
        assert all(c["passed"] for c in doc["arithmetic_checks"])

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "classify", "--format", "json")
        _, out2, _ = run(capsys, "classify", "--format", "json")
        assert out1 == out2


class TestInputFiles:
    """Every file input goes through one reader: a failure is one exit-2 line naming the file."""

    ARGV = {
        "lattice": lambda p: ["lattice", p],
        "roots": lambda p: ["roots", p],
        "weyl": lambda p: ["weyl", p],
        "borch": lambda p: ["borch", p],
        "jacobian": lambda p: ["jacobian", p, p, p, p, "--weights", "1,1,1,1"],
    }

    @pytest.mark.parametrize("command", list(ARGV))
    @pytest.mark.parametrize(
        "content", [b"[" * 100_000 + b"]" * 100_000, b'\xff{"gram": [[2]]}'], ids=["deep", "non-utf8"]
    )
    def test_unparseable_file(self, capsys, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code, out, err = run(capsys, *self.ARGV[command](str(path)))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and shown(path) in err

    def test_utf8_label(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_bytes('{"gram": [[2]], "label": "\u039b"}'.encode("utf-8"))
        code, out, _ = run(capsys, "lattice", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["label"] == "\u039b"

    def test_unknown_builtin(self, capsys):
        assert run(capsys, "lattice", "builtin:Z9") == (2, "", "error: unknown built-in lattice 'Z9'\n")

    @pytest.mark.parametrize("name", ["A01", "02A1", "D05(2)"])
    def test_leading_zero_builtin_is_unknown(self, capsys, name):
        assert run(capsys, "lattice", f"builtin:{name}") == (2, "", f"error: unknown built-in lattice {name!r}\n")

    @pytest.mark.parametrize("k", [None, [1], {}, True, 1.5, "abc", "1/0", "symbolic "])
    def test_bad_weight(self, capsys, tmp_path, k):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, k=k))
        code, out, err = run(capsys, "weyl", path)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and shown(path) in err and "'k' must be" in err and repr(k) in err

    @pytest.mark.parametrize(
        "scale",
        ["2_0", "+2", " 2", "02", "\u0663", "\uff12", "x"],
        ids=["underscore", "plus", "space", "leading-zero", "arabic-indic", "fullwidth", "letter"],
    )
    def test_builtin_scale_is_an_integer_in_ascii_digits(self, capsys, scale):
        # int() would read the first six as 20, 2, 2, 2, 3 and 2
        ref = f"builtin:A2({scale})"
        message = f"error: invalid lattice {ref}: scale {scale!r} is not an integer in ASCII digits\n"
        assert run(capsys, "lattice", ref) == (2, "", message)

    # each run that reads an integer from the command line, with the integer spelled {v}
    INT_ARGV = {
        "--max-norm": ["roots", "builtin:A2", "--max-norm={v}"],
        "--den": ["borch", "{phi}", "--rect", "1,1", "--den={v}"],
        "--max-rank": ["classify", "--max-rank={v}"],
        "--weights": ["jacobian", "{f0}", "{f1}", "{f2}", "{f3}", "--weights={v},1,1,1"],
        "scale": ["lattice", "builtin:A2({v})"],
    }

    def int_argv(self, tmp_path, option, value):
        files = {"{phi}": write_json(tmp_path / "phi.json", EMPTY_PHI)}
        for i, (a, l, t) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            doc = {"rank": 1, "terms": [{"a": f"{a}/1", "l": [f"{l}/1"], "t": f"{t}/1", "c": "1/1"}], "rect": ["4/1", "4/1"]}
            files[f"{{f{i}}}"] = write_json(tmp_path / f"f{i}.json", doc)
        return [files.get(arg, arg).replace("{v}", value) for arg in self.INT_ARGV[option]]

    @pytest.mark.parametrize("value", ["1_0", "\uff12", " 4", "+4", "04"], ids=["underscore", "fullwidth", "space", "plus", "leading-zero"])
    @pytest.mark.parametrize("option", ["--max-norm", "--den", "--max-rank", "--weights"])
    def test_integer_text_refused(self, capsys, tmp_path, option, value):
        # int() would read them as 10, 2, 4, 4 and 4; the scale's refusals are
        # test_builtin_scale_is_an_integer_in_ascii_digits's
        if option == "--weights":
            refusal = f"--weights expects comma-separated integers, got {value + ',1,1,1'!r}"
        else:
            refusal = f"argument {option}: invalid int value: {value!r}"
        assert run(capsys, *self.int_argv(tmp_path, option, value)) == (2, "", f"error: {refusal}\n")

    @pytest.mark.parametrize(
        "option, value, shown",
        [
            ("--max-norm", "-2", "error: max_norm must be a positive even integer"),
            ("--max-norm", "0", "error: max_norm must be a positive even integer"),
            ("--max-norm", "12", "12 reflective vectors up to norm 12"),
            ("--den", "-2", "error: den must be an integer >= 1, got -2"),
            ("--den", "0", "error: den must be an integer >= 1, got 0"),
            ("--den", "12", '"den": 12'),
            ("--weights", "-2", '"c": "-2/1"'),
            ("--weights", "0", "vanishes to rectangle order"),
            ("--weights", "12", '"c": "12/1"'),
            ("scale", "-2", "lattice A2(-2)"),
            ("scale", "0", "error: invalid lattice builtin:A2(0): rescaling by zero is not allowed"),
            ("scale", "12", "lattice A2(12)"),
        ],
    )
    def test_integer_text_accepted(self, capsys, tmp_path, option, value, shown):
        # each value reaches the command, which runs on it or refuses it by its own range;
        # --max-rank's are test_rank_bound_out_of_range's
        code, out, err = run(capsys, *self.int_argv(tmp_path, option, value))
        if shown.startswith("error: "):
            assert (code, out, err) == (2, "", shown + "\n")
        else:
            assert code == 0 and err == "" and shown in out

    @pytest.mark.parametrize("field", ["k", "c", "rect"])
    def test_interpreter_digit_limit_is_named(self, capsys, tmp_path, field):
        # under a digit limit of 640, Fraction refuses a 1,001-digit string as it refuses a malformed one:
        # the line names the field and the limit, and does not echo the digits
        big = "1" + "0" * 1000
        phi = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, k=big if field == "k" else 12))
        doc = {"rank": 1, "terms": [{"a": "0", "l": ["0"], "t": "0", "c": big}], "rect": ["4", "4"]}
        argv = {
            "k": ["weyl", phi],
            "c": ["jacobian", *[write_json(tmp_path / "f.json", doc)] * 4, "--weights", "1,1,1,1"],
            "rect": ["borch", phi, "--rect", f"1,{big}"],
        }[field]
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(previous)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 300
        name = {"k": "'k'", "c": "terms[0].c", "rect": "--rect bound"}[field]
        assert f"{name} has a run of more than 640 digits, past the interpreter's limit" in err

    @pytest.mark.parametrize(
        "field",
        [
            "--max-norm", "--weights", "--rect bound", "'k'", "--den", "--max-rank", "scale",
            "--format", "argument command", "unrecognized arguments", "invalid lattice",
        ],
    )
    def test_long_value_is_not_echoed_whole(self, capsys, tmp_path, field):
        # each value is about 5,000 characters, past the interpreter's digit limit where it is an integer
        # and inside it where it is a rational; the refusal quotes its start and its length, so the line
        # stays short and still names the field; tail is what the line says after the value
        ones = "1" * 5001
        xs = "x" * 5000
        phi = write_json(tmp_path / "phi.json", EMPTY_PHI)
        form = write_json(tmp_path / "f.json", {"rank": 1, "terms": [], "rect": ["4", "4"]})
        argv, tail = {
            "--max-norm": (["roots", "builtin:E8", "--max-norm", ones], ""),
            "--weights": (["jacobian", form, form, form, form, "--weights", f"{ones},1,1,1"], ""),
            "--rect bound": (["borch", phi, "--rect", f"1,{ones}e99999"], ""),
            "'k'": (["weyl", write_json(tmp_path / "k.json", dict(EMPTY_PHI, k=xs))], ""),
            "--den": (["borch", phi, "--den", ones], ""),
            "--max-rank": (["classify", "--max-rank", ones], ""),
            "scale": (["lattice", f"builtin:A2({ones})"], " is not an integer in ASCII digits"),
            "--format": (["lattice", "builtin:E8", "--format", xs], " (choose from 'json', 'table')"),
            "argument command": ([xs], " (choose from 'lattice', 'roots', 'weyl', 'borch', 'jacobian', 'classify')"),
            "unrecognized arguments": (["lattice", "builtin:E8", xs], ""),
            "invalid lattice": (["lattice", f"builtin:A2({xs})"], " is not an integer in ASCII digits"),
        }[field]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 300 and field in err
        assert re.search(rf"\.\.\. \(500\d characters\){re.escape(tail)}$", err.rstrip("\n"))

    @pytest.mark.parametrize("argv, tail", [
        (["lattice", f"builtin:A2(1{'0' * 4299})"], " has a determinant of more than 4300 digits, too long to print"),
        (["roots", f"builtin:A2(-1{'0' * 4299})"], " is not positive definite, so it has no finite root set"),
        (["lattice", "x" * 5000], ": File name too long"),
    ])
    def test_long_reference_is_quoted(self, capsys, argv, tail):
        # the lattice reference or file path these lines name is quoted by its start and length
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 300
        assert re.search(rf"\.\.\. \((43\d\d|5000) characters\){re.escape(tail)}$", err.rstrip("\n"))

    def test_long_value_in_every_position(self, capsys, tmp_path):
        # each argument of a command that runs, in turn replaced by a 5,000-character value: every
        # such command is refused with exit 2, nothing on stdout and one short line on stderr
        phi = write_json(tmp_path / "phi.json", EMPTY_PHI)
        form = write_json(tmp_path / "f.json", {"rank": 1, "terms": [], "rect": ["4", "4"]})
        commands = [
            ["lattice", "builtin:A1", "--format", "json", "-o", "-"],
            ["roots", "builtin:A1", "--max-norm", "2", "--format", "json", "-o", "-"],
            ["weyl", phi, "--format", "json", "-o", "-"],
            ["borch", phi, "--rect", "1,1", "--den", "24", "-o", "-"],
            ["jacobian", form, form, form, form, "--weights", "1,1,1,1", "-o", "-"],
            ["jacobian", form, form, form, form, form, "--weights", "1,1,1,1,1", "--syzygy", "-o", "-"],
            ["classify", "--max-rank", "1", "--format", "json", "-o", "-"],
        ]
        for argv in commands:
            assert run(capsys, *argv)[0] == 0
            for i in range(len(argv)):
                for value in ("x" * 5000, "1" * 5000):
                    code, out, err = run(capsys, *argv[:i], value, *argv[i + 1:])
                    assert (code, out) == (2, ""), (argv, i)
                    assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 300, (argv, i, err[:100])

    @pytest.mark.parametrize("k, weight", [(12, "12/1"), ("5/2", "5/2"), ("-4", "-4/1")])
    def test_weight_spellings(self, capsys, tmp_path, k, weight):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, k=k))
        code, out, _ = run(capsys, "weyl", path, "--format", "json")
        assert code == 0 and json.loads(out)["weight"] == weight


class TestRoundTrip:
    def test_series_output_reparses(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        out_path = tmp_path / "series.json"
        code, _, _ = run(capsys, "borch", path, "--rect", "3,3", "-o", str(out_path))
        assert code == 0
        x = series_from_json(json.loads(out_path.read_text()))
        assert x == series_from_json(json.loads(out_path.read_text()))


class TestOutputOption:
    @pytest.mark.parametrize(
        "argv",
        [["lattice", "builtin:A2"], ["roots", "builtin:A2"], ["weyl", None], ["classify", "--max-rank", "4"]],
        ids=["lattice", "roots", "weyl", "classify"],
    )
    def test_table_with_output_file_is_refused(self, capsys, tmp_path, argv):
        argv = [a or write_json(tmp_path / "phi.json", EMPTY_PHI) for a in argv]
        out_path = tmp_path / "out.json"
        for fmt in ([], ["--format", "table"]):
            code, out, err = run(capsys, *argv, *fmt, "-o", str(out_path))
            assert code == 2 and out == "" and not out_path.exists()
            assert err == "error: -o writes the JSON document, so it needs --format json\n"
        code, out, _ = run(capsys, *argv, "--format", "json", "-o", str(out_path))
        assert code == 0 and out == "" and json.loads(out_path.read_text())

    @pytest.mark.parametrize("command,target", [
        ("lattice", "missing-directory"), ("lattice", "directory"),
        ("borch", "missing-directory"), ("borch", "directory"),
        ("jacobian", "missing-directory"), ("jacobian", "directory"),
    ], ids=[
        "missing-directory", "directory", "borch-missing-directory", "borch-directory",
        "jacobian-missing-directory", "jacobian-directory",
    ])
    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path, command, target):
        # the file is written before stdout, so borch's and jacobian's summary lines do not appear
        argv = output_argv(tmp_path, command)
        out_path, reason = tmp_path / "nodir" / "x.json", os.strerror(errno.ENOENT)
        if target == "directory":
            out_path, reason = tmp_path, os.strerror(errno.EISDIR)
        code, out, err = run(capsys, *argv, "-o", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {shown(out_path)}: {reason}\n"

    @pytest.mark.parametrize("command", ["lattice", "roots", "weyl", "classify", "borch", "jacobian"])
    def test_output_file_and_stdout_carry_the_same_document(self, capsys, tmp_path, command):
        # without -o the document follows the text on stdout; with -o the text alone is on stdout
        # (none for --format json) and the document is the file, byte for byte
        argv = output_argv(tmp_path, command)
        out_path = tmp_path / "out.json"
        code, plain, _ = run(capsys, *argv)
        assert code == 0 and json.loads(plain[plain.index("{"):])
        code, out, _ = run(capsys, *argv, "-o", str(out_path))
        assert code == 0
        assert out + out_path.read_bytes().decode() == plain
        assert out == ("" if "--format" in argv else plain[:plain.index("{")])

    @pytest.mark.parametrize("command,fmt", [("borch", None), ("lattice", "json"), ("lattice", "table")])
    def test_dash_is_standard_output(self, capsys, tmp_path, monkeypatch, command, fmt):
        # -o - prints the bytes the run without -o prints, with its exit code, and writes no file '-'
        monkeypatch.chdir(tmp_path)
        argv = output_argv(tmp_path, command)
        if fmt == "table":
            argv = argv[: argv.index("--format")]
        before = sorted(os.listdir(tmp_path))
        plain = run(capsys, *argv)
        assert plain[0] == 0 and plain[1]
        assert run(capsys, *argv, "-o", "-") == plain
        assert run(capsys, *argv, "--output", "-") == plain
        assert sorted(os.listdir(tmp_path)) == before and "-" not in before

    @pytest.mark.parametrize("argv,target", [
        (["lattice", "builtin:E8"], "closed-pipe"), (["classify", "--format", "json"], "closed-pipe"),
        (["lattice", "builtin:E8"], "dev-full"), (["classify", "--format", "json"], "dev-full"),
    ], ids=["table", "json", "table-dev-full", "json-dev-full"])
    def test_closed_stdout_is_one_error_line(self, argv, target):
        # a pipe whose read end is closed before the child starts, or a full device: the table
        # fails at the writer's flush, the JSON document at its write, and neither in the flush at exit
        if target == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("this system has no /dev/full")
            write, reason = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
        else:
            read, write = os.pipe()
            os.close(read)
            reason = errno.EPIPE
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        try:
            proc = subprocess.run([sys.executable, "-m", "orthoforms.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write to standard output: {os.strerror(reason)}\n"

    @pytest.mark.parametrize("case, code", [("invalid", 2), ("usage", 2), ("overflow", 1)])
    def test_stderr_on_full_device_keeps_the_exit_code(self, tmp_path, case, code):
        # the error line cannot be written, yet the exit code still tells the failure: an invalid
        # input or a usage error is 2 and a term-cap overflow 1, not the 1 of a traceback on stderr
        if not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 10**6} for l in ("1/2", "-1/2")]
        phi = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        argv = {"invalid": ["lattice", "builtin:X9"], "usage": ["lattice"], "overflow": ["borch", phi]}[case]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "orthoforms.cli", *argv], stdout=subprocess.PIPE,
                                  stderr=full, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, "")


def output_argv(tmp_path, command):
    """A successful argv of command whose document -o can take (--format json where there is a table)."""
    if command == "borch":
        return ["borch", write_json(tmp_path / "phi.json", EMPTY_PHI), "--rect", "1,1"]
    if command == "jacobian":
        monomials = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        paths = [write_json(tmp_path / f"f{i}.json", TestJacobian().series_doc(*m)) for i, m in enumerate(monomials)]
        return ["jacobian", *paths, "--weights", "1,1,1,1"]
    argv = {
        "lattice": ["lattice", "builtin:A1"],
        "roots": ["roots", "builtin:A2"],
        "weyl": ["weyl", write_json(tmp_path / "phi.json", EMPTY_PHI)],
        "classify": ["classify", "--max-rank", "4"],
    }[command]
    return [*argv, "--format", "json"]


def _action(a):
    return (
        tuple(a.option_strings), a.dest, a.default, a.choices, a.required, a.nargs,
        None if a.type is None else a.type.__name__, a.help,
    )


HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False, 0, None, "show this help message and exit")
FORMAT = (("--format",), "format", "table", ("json", "table"), False, None, None, None)
OUTPUT = (("-o", "--output"), "output", None, None, False, None, None, None)


class TestParser:
    """Every subcommand's actions, field by field (argparse's help layout differs between versions)."""

    STRUCTURE = [
        ("lattice", [HELP, ((), "ref", None, None, True, None, None, "JSON file path or builtin:NAME"), FORMAT, OUTPUT]),
        ("roots", [
            HELP,
            ((), "ref", None, None, True, None, None, None),
            (("--max-norm",), "max_norm", 2, None, False, None, "_int_arg", None),
            FORMAT,
            OUTPUT,
        ]),
        ("weyl", [HELP, ((), "coeffs", None, None, True, None, None, None), FORMAT, OUTPUT]),
        ("borch", [
            HELP,
            ((), "coeffs", None, None, True, None, None, None),
            (("--rect",), "rect", "2,2", None, False, None, None, "exactness rectangle 'A,T'"),
            (("--den",), "den", 24, None, False, None, "_int_arg", None),
            OUTPUT,
        ]),
        ("jacobian", [
            HELP,
            ((), "series", None, None, True, "+", None, None),
            (("--weights",), "weights", None, None, True, None, None, "comma-separated weights"),
            (("--syzygy",), "syzygy", False, None, False, 0, None, "alternating-sum mode"),
            OUTPUT,
        ]),
        ("classify", [HELP, (("--max-rank",), "max_rank", 8, None, False, None, "_int_arg", None), FORMAT, OUTPUT]),
    ]

    def test_structure(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert [(name, [_action(a) for a in p._actions]) for name, p in sub.choices.items()] == self.STRUCTURE


# ---------------------------------------------------------------------------
# the exit-code contract under generated coefficient files
# ---------------------------------------------------------------------------

RATIONAL = st.builds("{}/{}".format, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2), st.just({"p": 1}),
)
LATTICES = {
    1: ["builtin:A1", "builtin:A1(3)", {"gram": [[2]]}, {"gram": [[6]], "label": 5}],
    2: ["builtin:A2", "builtin:2A1", "builtin:A2(2)", {"gram": [[2, -1], [-1, 2]]}, {"gram": [[4, 1], [1, 2]]}],
}
BAD_LATTICES = [
    "builtin:Z9", "builtin:A2(x)", "builtin:A2(0)", ".", "missing.json", {"gram": [[0]]},
    {"gram": [[1, 2]]}, {"gram": [[2.5]]}, {"gram": "x"}, {}, 5, None,
    {"gram": [[-2]]}, {"gram": [[2, 0], [0, -2]]},  # not positive definite
]


def negated(x):
    """-x for ints and rational strings; anything else unchanged."""
    if isinstance(x, int) and not isinstance(x, bool):
        return -x
    try:
        return str(-Q(x)) if isinstance(x, str) else x
    except (ValueError, ZeroDivisionError):
        return x


def contract(code, out, err):
    """Exit 0, 2 or 3; an error is one stderr line and no stdout."""
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


@st.composite
def coefficient_docs(draw):
    """Coefficient files: wrong types, odd tables, vectors off the dual lattice, repeats."""

    def mostly(common, rare=JUNK):
        return draw(rare) if draw(st.integers(0, 9)) == 0 else draw(common)

    rank = draw(st.sampled_from([1, 2]))
    lattice = mostly(st.sampled_from(LATTICES[rank]), st.sampled_from(BAD_LATTICES))
    coeffs = []
    if draw(st.integers(0, 5)):
        coeffs.append({"n": -1, "l": ["0/1"] * rank, "f": 1})
    for _ in range(draw(st.integers(0, 4))):
        size = mostly(st.just(rank), st.integers(0, 3))
        item = {
            "n": mostly(st.sampled_from([0, 0, 0, -1, 1])),
            "l": [mostly(RATIONAL | st.integers(-2, 2)) for _ in range(size)],
            "f": mostly(st.integers(-2, 2)),
        }
        coeffs.append(item)
        partner = draw(st.sampled_from(["even", "even", "even", "odd", "repeat", "conflict", None]))
        f = item["f"]
        if partner in ("even", "odd"):
            odd = partner == "odd" and isinstance(f, int)
            coeffs.append(dict(item, l=[negated(x) for x in item["l"]], f=-f if odd else f))
        elif partner:
            coeffs.append(dict(item, f=f + 1 if partner == "conflict" and isinstance(f, int) else f))
    doc = {"lattice": lattice, "coeffs": draw(st.permutations(coeffs))}
    doc["k"] = mostly(st.sampled_from(["symbolic", "symbolic", 12, 30, "35/1", "5/2"]))
    doc.pop(mostly(st.just(None), st.sampled_from(["lattice", "coeffs", "k"])), None)
    return doc


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(coefficient_docs(), st.sampled_from(["weyl", "borch"]))
def test_coefficient_file_contract(capsys, tmp_path, doc, command):
    path = write_json(tmp_path / "phi.json", doc)
    argv = [command, path] + (["--rect", "1,1"] if command == "borch" else [])
    contract(*run(capsys, *argv))


# ---------------------------------------------------------------------------
# the exit-code contract under generated lattice and series documents
# ---------------------------------------------------------------------------

GOOD_BUILTINS = ["A1", "A2", "A3(2)", "D4", "E6", "E8(3)", "2A1", "3A1(3)", "D5(2)", "A2(-1)"]
BAD_BUILTINS = ["Z9", "A9", "D3", "E9", "1A1", "9A1", "A2(x)", "A2(0)", "A2(", "A2()", "A2(1)(2)", ""]
ENTRY_JUNK = st.one_of(
    st.booleans(), st.floats(allow_nan=False), st.just("2"), st.none(), st.just([2]), st.just([[1]])
)


@st.composite
def gram_docs(draw, max_rank):
    """Lattice documents: Gram matrices M M^T + D, then bent out of shape, or junk."""
    n = draw(st.integers(1, max_rank))
    m = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)]
    shift = [draw(st.sampled_from([0, 0, 1, 2, -3])) for _ in range(n)]
    gram = [[sum(a * b for a, b in zip(m[i], m[j])) + (shift[i] if i == j else 0) for j in range(n)] for i in range(n)]
    bend = draw(st.sampled_from(["none", "none", "none", "entry", "asymmetric", "ragged", "rows", "doc"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if bend == "entry":
        gram[i][j] = draw(ENTRY_JUNK)
    elif bend == "asymmetric":
        gram[i][j] += 1 if i != j else 0
    elif bend == "ragged":
        gram[i].append(0)
    elif bend == "rows":
        gram = draw(st.sampled_from([[], [[]], [5], "x", None, [[2], 2]]))
    doc = {"gram": gram}
    if draw(st.booleans()):
        doc["label"] = draw(st.one_of(st.text(max_size=3), st.integers(), st.none(), st.just([1])))
    if bend == "doc":
        doc = draw(st.sampled_from([[], 5, None, "gram", {"label": "x"}, {"gram": {"0": [2]}}]))
    return doc


@st.composite
def lattice_refs(draw, tmp_path, max_rank):
    kind = draw(st.sampled_from(["file", "file", "file", "builtin", "bad builtin"]))
    if kind == "builtin":
        return "builtin:" + draw(st.sampled_from([b for b in GOOD_BUILTINS if builtin_lattice(b).rank <= max_rank]))
    if kind == "bad builtin":
        return "builtin:" + draw(st.sampled_from(BAD_BUILTINS))
    return write_json(tmp_path / "lattice.json", draw(gram_docs(max_rank)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from(["table", "json"]))
def test_lattice_file_contract(capsys, tmp_path, data, fmt):
    ref = data.draw(lattice_refs(tmp_path, 10))
    contract(*run(capsys, "lattice", ref, "--format", fmt))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from([2, 4, 6, 3, 0]), st.sampled_from(["table", "json"]))
def test_roots_file_contract(capsys, tmp_path, data, max_norm, fmt):
    ref = data.draw(lattice_refs(tmp_path, 4))
    contract(*run(capsys, "roots", ref, "--max-norm", str(max_norm), "--format", fmt))


@st.composite
def series_docs(draw, rank):
    """Series documents: valid ones, and ones with one field bent out of the schema."""
    terms = [
        {"a": draw(RATIONAL), "l": [draw(RATIONAL) for _ in range(rank)], "t": draw(RATIONAL), "c": draw(RATIONAL)}
        for _ in range(draw(st.integers(0, 4)))
    ]
    doc = {
        "rank": rank,
        "den": draw(st.sampled_from([24, 12, 6])),
        "prefactor": {"A": draw(RATIONAL), "B": [draw(RATIONAL) for _ in range(rank)], "C": draw(RATIONAL)},
        "terms": terms,
        "rect": [draw(RATIONAL), draw(RATIONAL)],
    }
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(["drop"] + list(doc) + ["term"] * 2))
        junk = JUNK | st.integers(-1, 3) | RATIONAL | st.lists(RATIONAL, max_size=3)
        if field == "drop":
            doc.pop(draw(st.sampled_from(list(doc))))
        elif field == "term" and terms:
            terms[0][draw(st.sampled_from(["a", "l", "t", "c"]))] = draw(junk)
        elif field == "prefactor":
            doc["prefactor"][draw(st.sampled_from(["A", "B", "C"]))] = draw(junk)
        else:
            doc[field] = draw(junk)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.integers(0, 2), st.booleans())
def test_series_file_contract(capsys, tmp_path, data, rank, syzygy):
    count = data.draw(st.sampled_from([rank + 3 + syzygy] * 6 + [1, rank + 4 - syzygy]))
    paths = [write_json(tmp_path / f"f{i}.json", data.draw(series_docs(rank))) for i in range(count)]
    weights = [str(data.draw(st.integers(-2, 5))) for _ in range(count)]
    weights = data.draw(st.sampled_from([",".join(weights)] * 6 + [",".join(weights[1:]), "1,x", ""]))
    argv = ["jacobian", *paths, f"--weights={weights}"] + (["--syzygy"] if syzygy else [])
    contract(*run(capsys, *argv))

"""Golden sha256 digests of outputs that must stay the same byte for byte:
the `mindist` and `dualdist` tree reports, the generator files `gen`
writes, the randomized dual support families, the automorphism
permutations at (3, 3) and the uncertified `table`; and, as literal
strings, the details of two `verify` checks.
None of these outputs has a timing field.  A change that alters one of
them on purpose says why and updates its digest here."""

import hashlib
import json

import numpy as np
import pytest

from hermgrass import verify
from hermgrass.cli import main
from hermgrass.codebuild import (
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    build_generator,
    congruence_permutation,
    translate_permutation,
    transpose_permutation,
)
from hermgrass.dual import DEFAULT_SEED, dual_support_families
from hermgrass.galois import tower_for_q

# (family, ell, q, method) -> digest of `mindist --format tree`
MINDIST_REPORTS = {
    (FAMILY_HERMITIAN, 2, 2, "subfield"):
        "d050c3e8e248fce75b0b33d4fd7acb4810a28a57ff84243567af545b903f883d",
    (FAMILY_HERMITIAN, 2, 3, "subfield"):
        "47dd587dcbf1d255c63cc1c9c53ba9c677eb8a4b20c546b4193bcba6f5fcdef7",
    (FAMILY_HERMITIAN, 2, 4, "subfield"):
        "b88acb61bf1de9e42ed78a99d82b735fc82ecf30bb52e6c5f5a09fc17f3954cd",
    (FAMILY_HERMITIAN, 2, 5, "subfield"):
        "cd6ce72f79b560b456d226ff5fea4951d3fd33a57a22520a5a28ab60cd465de0",
    (FAMILY_HERMITIAN, 2, 7, "subfield"):
        "93306ea34884c5d93acfffe38a163d648db1e74516792f6e312e93dd3748d83a",
    (FAMILY_HERMITIAN, 2, 8, "subfield"):
        "d620f2ad7cce400492b2655e3f7a986b6f1342d069dfde78bdeeaf68b986cce9",
    (FAMILY_HERMITIAN, 3, 2, "subfield"):
        "39bfdab951eaec44c587b40c19a584ca9375beae6a74ec54b938f16582eb2feb",
    (FAMILY_AFFINE, 2, 2, "exhaustive"):
        "f8b1183ad535c770e35406cf7781fd97e55fe2f2179457194514c3c151f50fea",
    (FAMILY_AFFINE, 2, 3, "exhaustive"):
        "498ff6f0b398c3b18ff8751dca2d395e5fd0197e35efe4565bac6a4499831a50",
    (FAMILY_AFFINE, 2, 4, "exhaustive"):
        "ec692dc0f141e7702fedf5e264aadf704aa90f93efe84eac057b5255fe1c1bd9",
    (FAMILY_AFFINE, 2, 5, "exhaustive"):
        "52f28ef2a6098a14ceb40785a258a206d3b3fbfc5f48407418014a8a3218f7de",
    (FAMILY_AFFINE, 3, 2, "exhaustive"):
        "893f479b62a90e7a92044fcb01275e2fe5a0531a32c76f7f50a2a2a050af676e",
    (FAMILY_HERMITIAN, 2, 3, "exhaustive"):
        "76ce72d583d0c56c7da5b54ec8e451a3275dd2428d161b26e79ac0e1d293f288",
}

# (ell, q) -> digest of `dualdist --format tree`
DUALDIST_REPORTS = {
    (2, 2): "d7eff2a1aec4c0387c47e894dec80aa96211f289b93b581170b1919c3dbbdec2",
    (2, 3): "d2792f443169e6295cef2860cbf9db35ee5c0f60657a2b623579a78266cc5d04",
    (2, 4): "4b825f3e61d3eb8a132200b7a237d9cc511e9743aa1f65ce52d9af2211ed812d",
    (2, 5): "122ae34149e56e5d6c416adfc073d86b7ce0a5bc9b920712a5f2bd3de73951cd",
    (3, 2): "ef681017ce311bd87c3da59a1f0f385f384a92775a7818ccc875f096c6ad7184",
}

# (family, ell, q) -> digest of the file `gen` writes; q = 4 and 9 have
# two-digit field indices
GENERATOR_FILES = {
    (FAMILY_HERMITIAN, 2, 2): "eaee12d6f000dd1c90f39a79aa8ee2ae5641dcabf506610ada33de274e981445",
    (FAMILY_HERMITIAN, 2, 4): "009858e56d09b487e65bc1c17170ede41f07960601fa38a10c796d5a6e814c03",
    (FAMILY_HERMITIAN, 2, 9): "aa0bcd18b89ba304c7ffa8c20fce4267271dbf47700da5976254e8338435e466",
    (FAMILY_AFFINE, 2, 4): "80a0628d602ab3943d66d8b7f005a94a1738a262d531b0ea353716e3f8a8e6c9",
    (FAMILY_HERMITIAN, 3, 2): "093658bf63f030df83295ef33d017df3df04fea5a991b15e726709e0224a7ee2",
    (FAMILY_HERMITIAN, 3, 3): "b6af4a717d17155b36e00ab7a982bb37293571bb1d9a1db39c7813a2fa63ac33",
    (FAMILY_AFFINE, 3, 3): "478c675c7dfe447ad3c3d8df49c1f855e189d982f9d6d0c32baddd083d7e5899",
}

# (ell, q, seed) -> digest of the (positions, coefficients) of each word
DUAL_SUPPORT_FAMILIES = {
    (2, 2, 987654321):
        "3dd98292dd2d6e40eac538a86978ec55a723caa964abef9ff4c8c61ce8c882e0",
    (2, 2, 5):
        "0526e189c5f5005b1755f3d736a70df1cba7939ae9d1c947840908e8413a23dc",
    (2, 3, 987654321):
        "66d621f1587e93d93bbec18154bd576f83f0cb419ac3d188fbcca8988f91796d",
    (2, 3, 5):
        "fd6d155434c12c889aa0fd08a87a931339ea87bc52c5677be40dbcd958d645cc",
    (3, 2, 987654321):
        "b51e035616ca662af0a05dad418aaca0dc8792a0170ea92f1e7db97b8077c634",
    (3, 2, 5):
        "2c127e0e966bdb8ed1826f320abfb1641d1bf6d87772d377459a991ef1a45f87",
}

# the permutations at (3, 3), as int64 bytes, for the inputs below
PERMUTATIONS = {
    "congruence": "371d7caf76a2d0581a0dfec3666baf01e4c7f87796812737296fb2eebd14e1c9",
    "translate": "75b992a153de6c6553df770d9970bc21b0b776023321d1ffc04adae66dfafc7c",
    "transpose": "393bb30daaa6a645966c18c422bcd19340eab4b962febfaa958a291a98b44dac",
}
# ell -> digest of `table --ell <ell>` with HERMGRASS_BUDGET_MESSAGES=0
TABLES = {
    2: "93c4e0061b73a5ac86a809be0fe8c0ca9c10d2798eeffd3e838f33754337427f",
    3: "4c125f9557a7b368acc8c44c2a36bbdf75108251c3f642c442e9477c33425b33",
}

# check name -> its detail at the default seed
CHECK_DETAILS = {
    "distance_certifications":
        "H(2,2)=6; H(2,3)=51; H(2,4)=188; H(2,5)=495; H(3,2)=192; A(2,2)=6; A(2,3)=48; "
        "A(2,4)=180; A(2,5)=480; A(3,2)=168; witness weight at (3,2) = 192",
    "file_round_trip": "write/read identical at (2,2) and (3,2), rank re-verified",
}

CONGRUENCE = ((1, 0, 0), (4, 1, 0), (2, 7, 1))  # unit lower triangular, so invertible
TRANSLATION = ((1, 5, 3), (6, 2, 8), (7, 4, 0))  # Hermitian over F_9


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def tree_report(tmp_path, *argv) -> str:
    path = tmp_path / "report.json"
    assert main([*argv, "--format", "tree", "--out", str(path)]) == 0
    return sha256(path.read_bytes())


@pytest.mark.parametrize("family,ell,q,method", list(MINDIST_REPORTS))
def test_mindist_report(tmp_path, family, ell, q, method):
    digest = tree_report(tmp_path, "mindist", "--q", str(q), "--ell", str(ell),
                         "--family", family, "--method", method)
    assert digest == MINDIST_REPORTS[family, ell, q, method]


@pytest.mark.parametrize("ell,q", [(ell, q) for family, ell, q, method in MINDIST_REPORTS
                                   if family == FAMILY_AFFINE])
def test_affine_mindist_defaults_to_exhaustive(tmp_path, ell, q):
    digest = tree_report(tmp_path, "mindist", "--q", str(q), "--ell", str(ell),
                         "--family", FAMILY_AFFINE)
    assert digest == MINDIST_REPORTS[FAMILY_AFFINE, ell, q, "exhaustive"]


@pytest.mark.parametrize("ell,q", list(DUALDIST_REPORTS))
def test_dualdist_report(tmp_path, ell, q):
    digest = tree_report(tmp_path, "dualdist", "--q", str(q), "--ell", str(ell))
    assert digest == DUALDIST_REPORTS[ell, q]


@pytest.mark.parametrize("family,ell,q", list(GENERATOR_FILES))
def test_generator_file(tmp_path, capsys, family, ell, q):
    path = tmp_path / "gen.txt"
    assert main(["gen", "--q", str(q), "--ell", str(ell), "--family", family,
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert sha256(path.read_bytes()) == GENERATOR_FILES[family, ell, q]


@pytest.mark.parametrize("ell,q,seed", list(DUAL_SUPPORT_FAMILIES))
def test_dual_support_families(ell, q, seed):
    words = dual_support_families(build_generator(FAMILY_HERMITIAN, ell, q), seed=seed)
    plain = [[list(map(int, positions)), list(map(int, coeffs))] for positions, coeffs in words]
    assert sha256(json.dumps(plain)) == DUAL_SUPPORT_FAMILIES[ell, q, seed]


def test_permutations():
    tower = tower_for_q(3)
    perms = {
        "congruence": congruence_permutation(tower, 3, CONGRUENCE),
        "translate": translate_permutation(tower, 3, TRANSLATION),
        "transpose": transpose_permutation(tower, 3),
    }
    digests = {kind: sha256(perm.astype(np.int64).tobytes()) for kind, perm in perms.items()}
    assert digests == PERMUTATIONS


@pytest.mark.parametrize("ell", list(TABLES))
def test_table_without_certification(capsys, monkeypatch, ell):
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "0")
    assert main(["table", "--ell", str(ell)]) == 0
    assert sha256(capsys.readouterr().out) == TABLES[ell]


@pytest.mark.parametrize("name", list(CHECK_DETAILS))
def test_check_detail(name):
    assert dict(verify.checks_for("all"))[name](DEFAULT_SEED) == CHECK_DETAILS[name]

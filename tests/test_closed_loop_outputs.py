"""Golden digests of the closed-loop CLI outputs.

The behaviour contract keeps default outputs byte-identical at 12
significant digits.  These SHA-256 digests pin the saved program, the
``simulate --csv`` file and stdout, and the ``verify --json`` stdout for the
three acceptance examples and the unlimited quarter turn, at a 1e-3 step so
the whole module runs in about a second.

A second table pins the ``simulate --csv`` file at the default 1e-4 step,
the one the benchmark runs, for two of those programs.

A third table pins the stdout of the other commands that print numbers:
``landmarks`` and ``curves`` over six bounds, ``synthesize`` and ``verify``
for the six benchmark programs, and two small seeded ``oracle`` searches.
"""

import hashlib

import pytest

from blochpulse.cli import main

STEP = "1e-3"

# (m flag, target, r) -> (program file, simulate CSV, simulate stdout, verify stdout)
GOLDEN = {
    ("2", "pi", "0.39"): (
        "06e25347a42634bdf1aa12b9de1ead6d426460fa9df343e5b2aaf0be7bf572b5",
        "2e27748d908a75700659b0b4ff72254e6f022bdcb8651cfa696d0b3aac41e1ad",
        "f440ee95d54a06141f5a71fec401722a80732170695187795137a88fe956cd95",
        "4ffa129b62deb34f9511aa8982d964c6a97560e7a1b22d9f38ec351cba3994af",
    ),
    ("2", "pi2", "0.61"): (
        "939da5ca3b1155ce30a1d9a0683abfb21ba0d7ff1097d71bf52212dba8ca4908",
        "a9db34861f3a8b3b541b8593935d3baf681a701e0dd066c31a41eb8c28440adb",
        "b07bc95591505aaa4dfa2e09337b1a98c07ba6e0d3fa98775cb00e95cf21fb45",
        "6f13c025ae9738b85aecbf501242f9c3b5959f888f9d7f608cde0bf2ab24ba91",
    ),
    ("0.95", "pi2", "0.2"): (
        "5f0ff46793b4369733116e05d2cf88de6b709a0cc3d31ac44e414a5a489791f6",
        "bf71ca6b757ae5683d0dfcce124da5ed7231ffe99914d9a15071a162d5f8462a",
        "5fedcf07f4c1d5b5d80881661bbef69a92f86f529b867c93f2a40e4c7625a0c0",
        "b8c8db01331f84a91499cd99c79efc6bd8c65ea5f871c85dc285d8a6a26e0698",
    ),
    ("inf", "pi2", "0.6"): (
        "6ec6b9ecc358d9379f831f460b2dafc089e0eea6d26c510a5d36580f955ac602",
        "df79408f891e684a67c207723b86bc4863c84652d1c213bccba5e0aaa2ee7ac8",
        "59baf82d9ca8b571d7f741d9de54444de4de8d699185f627d450699b06741ddd",
        "bd97b534acfdded01760a6cdea44c322281ca1757424045291f2d4aaa54783fd",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(capsys, *argv) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_closed_loop_outputs_are_byte_identical(case, capsys, tmp_path):
    m, target, r = case
    pulse, csv = tmp_path / "pulse.json", tmp_path / "run.csv"
    _stdout(capsys, "synthesize", "--m", m, "--target", target, "--r-final", r,
            "--out", str(pulse))
    simulated = _stdout(capsys, "simulate", "--pulse", str(pulse), "--csv", str(csv),
                        "--step", STEP)
    verified = _stdout(capsys, "verify", "--pulse", str(pulse), "--json", "--step", STEP)
    digests = (
        _sha(pulse.read_bytes()), _sha(csv.read_bytes()), _sha(simulated), _sha(verified)
    )
    assert digests == GOLDEN[case]


# (m flag, target, r) -> simulate CSV at the default step
DEFAULT_STEP_CSV = {
    ("2", "pi2", "0.61"): "ae560b0be851893b215c27005e7c3ca5cc3435efd772558db0a6d6b5bdc5d0fd",
    ("inf", "pi2", "0.6"): "8e1d890047583420be8c6d672aead6c27560d1c88e0b672cb1faf388ac99fadd",
}


@pytest.mark.parametrize("case", sorted(DEFAULT_STEP_CSV), ids="-".join)
def test_default_step_csv_is_byte_identical(case, capsys, tmp_path):
    m, target, r = case
    pulse, csv = tmp_path / "pulse.json", tmp_path / "run.csv"
    _stdout(capsys, "synthesize", "--m", m, "--target", target, "--r-final", r,
            "--out", str(pulse))
    _stdout(capsys, "simulate", "--pulse", str(pulse), "--csv", str(csv))
    assert _sha(csv.read_bytes()) == DEFAULT_STEP_CSV[case]


# command line -> SHA-256 of its stdout.  "--pulse m:target:r" names the
# program that ``synthesize`` saves for the command to read.
STDOUT_GOLDEN = {
    "landmarks --m 0.51": "7174dbc8bacf29b6ef34dc60d355a3e43d0cf560e183b126fe834f294e67b4f9",
    "landmarks --m 0.51 --json": "09c37e99dbec47d69be1ff567f14c72ae23f1e34fdcb18c002e940e2621df814",
    "curves --m 0.51 --samples 60": "f6a84dae5635b08157fbd1327703415b938b2d101f8e5c3feec53b86c293e826",
    "landmarks --m 0.95": "1542d1f5e069eff9ab7296f57edc5717c53d66b96d3da9d1c8d9a3ea3def269e",
    "landmarks --m 0.95 --json": "26b3785933ae7348a9e3e27e429f1bcd4a1fe7dada517622fba6bd4bf4b19da0",
    "curves --m 0.95 --samples 60": "07d19a3dd4665328881341aea739890ca5dbfce9e93ee4a7dc078c2d687b00c3",
    "landmarks --m 1": "37dc89b94b2a71cf9541cb47ca140882f5b76a99370045f890919e7d3d60547a",
    "landmarks --m 1 --json": "e71c118bbd125670637150a3ebf475b5ff3e61f7ab6261bc653c3fb21e5e5a46",
    "curves --m 1 --samples 60": "177ac4d3867eff701f7e7af077080edc6cc7dfeaccc04a860c7f3a9f5823381a",
    "landmarks --m 2": "f0f2e7b629209b5c01c85bc8be4e14a31e32cd7ab0cc673f66684c3f0a7520c2",
    "landmarks --m 2 --json": "ec93ea09396b3e5fa9ac3836bc826ea826a68fa18acb819c0ae93d7798d97ef4",
    "curves --m 2 --samples 60": "57543eff5d7f948b44559d94c4a7fea00994687eeef70ff4d5fafe28054e7934",
    "landmarks --m 10": "08689c9adfeb9e1f6db943050a3e2eed4589ce495ab627cf6f62ed9731994d0a",
    "landmarks --m 10 --json": "65f08eb4ee8293b8bdaccff683d0b77d0be73a51731ae89ebe0e445af891ebb1",
    "curves --m 10 --samples 60": "221dfc04fa742e9ca69ae85042cf56ba47e1f50dab4e407e282f2c5b0e01bc3f",
    "landmarks --m 1e4": "e3b3387398e8713a33f9a86f0f186eff7eadc6363fcedfb44d95fbaa25d91e4d",
    "landmarks --m 1e4 --json": "bdbd6d99896c8816a46874c0804868b366434d541ca392cb574064ca9692b49a",
    "curves --m 1e4 --samples 60": "090a66b2743cddcb96cfcf2c3e3ea59d6e00f2df876066a688f842366f302c58",
    "synthesize --m 2 --target pi --r-final 0.39": "99adc43c3341d65c912b3f33b99a4e846c5f3578847dfc0811f912be456cb1f7",
    "synthesize --m 2 --target pi --r-final 0.39 --json": "06e25347a42634bdf1aa12b9de1ead6d426460fa9df343e5b2aaf0be7bf572b5",
    "synthesize --m 2 --target pi2 --r-final 0.61": "9984b92e3e5a98caaddcfa1249c591b68eaa4292f48777cc933ae9c7e097ed53",
    "synthesize --m 2 --target pi2 --r-final 0.61 --json": "939da5ca3b1155ce30a1d9a0683abfb21ba0d7ff1097d71bf52212dba8ca4908",
    "synthesize --m 0.95 --target pi2 --r-final 0.2": "f5694a98b591bdca77f59e1eec30e3000cf6cf642335e7c717b7d2520ad03486",
    "synthesize --m 0.95 --target pi2 --r-final 0.2 --json": "5f0ff46793b4369733116e05d2cf88de6b709a0cc3d31ac44e414a5a489791f6",
    "synthesize --m inf --target pi2 --r-final 0.6": "a4a4fe6c87e29a5f695080374a50fc99c8fcc97e141cc17d00c4e60810654a2b",
    "synthesize --m inf --target pi2 --r-final 0.6 --json": "6ec6b9ecc358d9379f831f460b2dafc089e0eea6d26c510a5d36580f955ac602",
    "synthesize --m 10 --target pi --r-final 0.5": "9395e8ea7d858630d30094bf69475264fd88fe202aa7ed9fc1c891cf1d3bb5f1",
    "synthesize --m 10 --target pi --r-final 0.5 --json": "6f4e9e549cf5cbfe73589928c5befe27771bab41520c0d6febd9a4785d6efdd1",
    "synthesize --m 0.6 --target pi2 --r-final 0.005": "25643088384cb0bc0a51f80c6613c5f63943a81628f9e6e19f804dbde72ff5c7",
    "synthesize --m 0.6 --target pi2 --r-final 0.005 --json": "4348db83f01344c1b5e207ed1f143e31b787779f39e2fbb94e2f165d28dbf978",
    "verify --pulse 2:pi:0.39 --step 1e-3": "8d95c0ecbeaf5ab0deb3a835733e42616cbe5a478ab058699e39674497a32b90",
    "verify --pulse 2:pi2:0.61 --step 1e-3": "2a177b98b2b8f680debbbd840e07025828ff23a2db84337a031cc891cba4adb0",
    "verify --pulse 0.95:pi2:0.2 --step 1e-3": "ca0859e76629f0ddca269657838795bbee4d0e7f7bcb778c69590ad8e324767e",
    "verify --pulse inf:pi2:0.6 --step 1e-3": "a57a63477e8c993842ad0dc9fb1d8cd9bcc7329f599f0987f7b11558b3a9d435",
    "verify --pulse 10:pi:0.5 --step 1e-3": "e730cee9b1bc90c59f6d3e7910bbc40be8dfceec11e00a318cfd042df94a45d8",
    "verify --pulse 0.6:pi2:0.005 --step 1e-3": "b8ae57cfd2230b994a6cc046da576bf934f2bcfe81692b34ddbabe8f533ed500",
    "oracle --m 2 --target pi --r-final 0.39 --grid 40 --evals 600 --seed 3": "8f810c12ef4cb6ae09f7a388080001a536eb7b97e701602945cbb17b5617095d",
    "oracle --m 2 --target pi --r-final 0.39 --grid 40 --evals 600 --seed 3 --json": "449d76950fb78c5ce2fe5b54fc1248124d3f2ead28641c5997c2d9274d934cf8",
    "oracle --m inf --target pi2 --r-final 0.6 --grid 40 --evals 600 --seed 3": "3d7ff71a959c14c8cdc10d3ae13b57b7b45d48b25d4c9d230e5b0ae26812e8ca",
    "oracle --m inf --target pi2 --r-final 0.6 --grid 40 --evals 600 --seed 3 --json": "19419f2062612571ef129ee13e731fd2458bb6aaed2199ba2db24cb2caba9456",
}


@pytest.mark.parametrize("command", sorted(STDOUT_GOLDEN))
def test_printed_numbers_are_byte_identical(command, capsys, tmp_path):
    argv = command.split()
    if "--pulse" in argv:
        at = argv.index("--pulse") + 1
        m, target, r = argv[at].split(":")
        argv[at] = str(tmp_path / "pulse.json")
        _stdout(capsys, "synthesize", "--m", m, "--target", target, "--r-final", r,
                "--out", argv[at])
    assert _sha(_stdout(capsys, *argv)) == STDOUT_GOLDEN[command]

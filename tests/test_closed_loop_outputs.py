"""Golden digests of the closed-loop CLI outputs.

The behaviour contract keeps default outputs byte-identical at 12
significant digits.  These SHA-256 digests pin the saved program, the
``simulate --csv`` file and stdout, and the ``verify --json`` stdout for the
three acceptance examples and the unlimited quarter turn, at a 1e-3 step so
the whole module runs in about a second.
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

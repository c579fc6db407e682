"""Byte identity of CLI documents against digests recorded from an earlier build.

Each case is a command's argv and the sha256 of its --json document,
re-serialized with sorted keys; a refactor must leave these bytes unchanged.
Scan documents are hashed without wall_time_seconds, the one value that
varies from run to run.
"""

import hashlib
import json

import pytest

from boolfun.cli import main

GOLDEN = {
    "analyze_maj9_spectrum": (
        ["analyze", "--fn", "maj:9", "--spectrum"],
        "a20ee45b73d4b0f5ce1b3abd27ac9cefee9a9e2977e0ecc6927f3c37e7b1888f"),
    "derivative_parity10_i3": (
        ["derivative", "--fn", "parity:10", "--i", "3"],
        "7f391d6e8838b6d584dd364c93b51658baf58aa7ea231df56db6902c5631390b"),
    "equiv_maj5_d20": (
        ["equiv", "--fn", "maj:5", "--d", "20"],
        "70ad88e167b865adb7dffc80fb85ffed2ff57944d2673cfb00094df21d5bab1e"),
    "maj_d22": (
        ["maj", "--d", "22"],
        "0b1cca5fd8b9053ea19e141dc7a91c1ab97696888a963b27f0832fb127a9ebfa"),
    "maj_d24": (
        ["maj", "--d", "24"],
        "eba82d0d62f879c6a0c587630ab7beea7a323033947e955db1a3d11a6f3dba20"),
    "scan_n3_equiv_1_5": (
        ["scan", "--n", "3", "--equiv-d", "1,2,3,4,5"],
        "abc7a2051489adc88960a37950405de790acc973dd7c7faaddb628a784f14b20"),
    "scan_n4": (
        ["scan", "--n", "4"],
        "e5c202a224884ce052583fd9abdffa6d9da83ba4fa588144862eb6c6b835ce01"),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_cli_document_is_byte_identical(label, capsys):
    argv, digest = GOLDEN[label]
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if doc["command"] == "scan":
        assert isinstance(doc["payload"].pop("wall_time_seconds"), float)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text

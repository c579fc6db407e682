"""Byte identity of CLI documents against digests recorded from an earlier build.

Each case is a command's argv and the sha256 of its --json document,
re-serialized with sorted keys; a refactor must leave these bytes unchanged.
Scan documents are hashed without wall_time_seconds, the one value that
varies from run to run.  A correct build reports no violation and no
equivalence failure, so the witness records are pinned through a
hand-built ScanResult instead of a command.
"""

import dataclasses
import hashlib
import json

import pytest

from boolfun.cli import _scan_payload, main
from boolfun.dyadic import DyadicRational
from boolfun.scan import ConjectureWitness, EquivalenceWitness, ScanConfig, run_scan

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
    "scan_random_n7_equiv_1_4_8": (
        ["scan", "--n", "7", "--mode", "random", "--samples", "300", "--seed", "11",
         "--chunk-size", "64", "--equiv-d", "1,4,8"],
        "8b687bdba4a0c5c88bfb78132988b5fde8e62c167d32d790acf91adce2a33257"),
    "scan_random_n12_equiv_1_2_13": (
        ["scan", "--n", "12", "--mode", "random", "--samples", "96", "--seed", "7",
         "--equiv-d", "1,2,13"],
        "29a4c3ca82084ba80ac4c3148a04674e088bd7a4c8bb613bf236a8fdd8d51537"),
    "scan_random_n16_equiv_16_17": (
        ["scan", "--n", "16", "--mode", "random", "--samples", "8", "--seed", "3",
         "--equiv-d", "16,17"],
        "6afc55e469f23ce99dd9cc3d270e5399c984589e3b2f08d7da8dedc60089fbb9"),
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


def test_scan_witness_records_are_byte_identical():
    base = run_scan(ScanConfig(n=3, mode="exhaustive", equivalence_d_range=(1, 4)))
    result = dataclasses.replace(
        base,
        violations=(
            ConjectureWitness("0x17", 3, 3, DyadicRational(7, 2), DyadicRational(3, 2)),
            ConjectureWitness("0xe8", 3, 2, DyadicRational(-5, 3), DyadicRational(1)),
        ),
        equivalence_failures=(
            EquivalenceWitness("0x17", 3, 1, True, False, True, True),
            EquivalenceWitness("0x96", 3, 4, False, True, False, False),
        ),
        violations_omitted=3,
        equivalence_failures_omitted=11,
    )
    payload = _scan_payload(result)
    assert isinstance(payload.pop("wall_time_seconds"), float)
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "6af344a6150a04c24f747dbef60c47d0b5962ca561bbf6ba107dfe3ddc79a535"), text

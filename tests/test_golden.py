"""Byte identity of CLI documents against digests recorded from an earlier build.

Each case is a command's argv and the sha256 of its --json document,
re-serialized with sorted keys; a refactor must leave these bytes unchanged.
Scan documents are hashed without wall_time_seconds, the one value that
varies from run to run.  The scan command adds it to _scan_payload's
output, so that output is hashed whole.  A correct build reports no
violation and no equivalence failure, so the witness records are pinned
through a hand-built ScanResult instead of a command.
"""

import dataclasses
import hashlib
import json

import pytest

from boolfun.cli import _scan_payload, main
from boolfun.dyadic import DyadicRational
from boolfun.scan import (
    ConjectureWitness,
    EquivalenceWitness,
    ScanConfig,
    run_scan,
    scan_table_range,
)

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
    # every n = 5 table: the per-degree table and the equivalence verdict, at
    # other run settings and at the default ones, which an exhaustive scan
    # ignores alike
    "scan_n5_equiv_1_6": (
        ["scan", "--n", "5", "--equiv-d", "1,2,3,4,5,6", "--jobs", "2",
         "--chunk-size", "1048576"],
        "d319187b5abb52e54976c5bae6aa37c357a657a17165d844acea1efdfea479fc"),
    "scan_n5_equiv_1_6_default_run": (
        ["scan", "--n", "5", "--equiv-d", "1,2,3,4,5,6", "--jobs", "2"],
        "d319187b5abb52e54976c5bae6aa37c357a657a17165d844acea1efdfea479fc"),
    # every n = 5 table with the equivalence check off: the per-degree table
    # alone, read on a level the identity proof must accept
    "scan_n5_bound_only": (
        ["scan", "--n", "5"],
        "f0443c309d7a9a821ec4ab9045feb5d1d06bb5b1eb8e9b2be9f6e848b4102222"),
    "scan_random_n7_equiv_1_4_8": (
        ["scan", "--n", "7", "--mode", "random", "--samples", "300", "--seed", "11",
         "--chunk-size", "64", "--equiv-d", "1,4,8"],
        "8b687bdba4a0c5c88bfb78132988b5fde8e62c167d32d790acf91adce2a33257"),
    "scan_random_n12_equiv_1_2_13": (
        ["scan", "--n", "12", "--mode", "random", "--samples", "96", "--seed", "7",
         "--equiv-d", "1,2,13"],
        "29a4c3ca82084ba80ac4c3148a04674e088bd7a4c8bb613bf236a8fdd8d51537"),
    # two tables a spectrum block, whose stage for coordinate 15 runs on
    # int32 rows after the int16 stages
    "scan_random_n15_equiv_1_15_16": (
        ["scan", "--n", "15", "--mode", "random", "--samples", "12", "--seed", "5",
         "--equiv-d", "1,15,16"],
        "8b499bdd7f5c95291e9b4fee685bb3023f42b1ad4a06ad290fde70144ecd7bff"),
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


def test_whole_n5_table_from_one_range_call():
    # the range primitive reads all 2^32 tables at once, to the CLI's bytes
    cfg = ScanConfig(n=5, mode="exhaustive", equivalence_d_range=(1, 2, 3, 4, 5, 6))
    doc = {"schema_version": "1", "command": "scan",
           "payload": _scan_payload(scan_table_range(cfg, 0, 1 << 32))}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["scan_n5_equiv_1_6"][1], text


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
    text = json.dumps(_scan_payload(result), indent=2, sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "6af344a6150a04c24f747dbef60c47d0b5962ca561bbf6ba107dfe3ddc79a535"), text

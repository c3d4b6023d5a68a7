"""Golden fingerprints: output bytes of a few pinned runs.

Output bytes are the behaviour contract. A refactor or speed-up must leave
these hashes unchanged; a deliberate change to the model updates them in the
same change and says why in CHANGES.md. ``runtime_wall_s`` is the one
wall-clock field in the outputs, so its line is dropped from
``summary.json`` before hashing.
"""

import hashlib

import pytest

from sentinet.config import RunConfig
from sentinet.sim import run_simulation, write_outputs

pytestmark = pytest.mark.oracle

# name -> (flat config, sentinel failures as (time, count-or-None))
GOLDEN_RUNS = {
    "table1_piggybacked": (
        {"nodes": "50", "field": "100x100", "duration": "400", "seed": "11",
         "link_control": "piggybacked", "grid_step": "5"}, ()),
    "table1_standalone": (
        {"nodes": "50", "field": "100x100", "duration": "300", "seed": "11",
         "link_control": "standalone", "grid_step": "5"}, ()),
    "hazard_global": (
        {"nodes": "50", "field": "100x100", "duration": "150", "seed": "5",
         "hazard_feedback": "global", "grid_step": "5",
         "metric_interval": "10"}, ()),
    "sentinels_killed": (
        {"nodes": "200", "field": "100x100", "duration": "300", "seed": "7",
         "lambda": "0.02", "shadowing_sigma": "0", "sensing_range": "18",
         "grid_step": "4", "metric_interval": "2"}, ((150.0, None),)),
    # shadowed runs at the other block sizes a sender's maps come in: five
    # frames a block at 100 nodes, where escalations remake the rest of a
    # block, and one frame a block at 300 nodes
    "shadowed_100_piggybacked": (
        {"nodes": "100", "field": "140x140", "duration": "200", "seed": "13",
         "link_control": "piggybacked", "grid_step": "5",
         "metric_interval": "10"}, ()),
    "shadowed_300_standalone": (
        {"nodes": "300", "field": "245x245", "duration": "40", "seed": "17",
         "link_control": "standalone", "grid_step": "7",
         "metric_interval": "10"}, ()),
}

GOLDEN_SHA256 = {
    "table1_piggybacked": {
        "metrics.csv":
            "f63727a4584def07746c7357a1a992fd897252b9915e70a895e7037d80f65e99",
        "snapshot.json":
            "0e426119362e835c1367e5cf698d29d667c684bc0c9f03e2f970646c4267d55e",
        "summary.json":
            "ca8e7b176b4ed8045ba56c56665161f9ff44ba77a898aa606937f150b9cc7a9a",
    },
    "table1_standalone": {
        "metrics.csv":
            "1288456ace2868886b8970559889fcb198883ef15efbd98812b27bd4bed28ea7",
        "snapshot.json":
            "163e89a0e11d56974fe7e3a52b0102a4e5305b90373abb8b48af0cfe7510a3d7",
        "summary.json":
            "1661d6e17ff97aea37ec8207585753e2d3acc2b069c439f9834befebcc30be7a",
    },
    "hazard_global": {
        "metrics.csv":
            "e1b25e735758ba6813789bc441e515841218ed6ce9d0f45291cb58ea82da986b",
        "snapshot.json":
            "71671edc4c96f4e2db5f7c33a0f444e3dc7f482309181b11d311f4f14588feac",
        "summary.json":
            "6dbf5a9205ea9da8e6d9f72993efca98478be8edad572fb7206156eb5dbf7c04",
    },
    "sentinels_killed": {
        "metrics.csv":
            "7217aeaeaada742774ac38a3b82833ccdc2875211fea81df80a9497586287461",
        "snapshot.json":
            "94a537cd8573f6d229165de93e880fa215892a99ac320262355429fd0818b086",
        "summary.json":
            "4bb0c65acacf889cc0596157752e148cd1006f115596a373447f2a30f5c09e5c",
    },
    "shadowed_100_piggybacked": {
        "metrics.csv":
            "e81df603185bc24fe58ac10b1c6d43391a9c9b785b0a5c6ae25e48fcb87f38d2",
        "snapshot.json":
            "de3c9985faa65652ad99a1e7ca7e160590811f021359dbe739c3e8b93b4fc01f",
        "summary.json":
            "8c48ae4634495c4e60009155b2a0166a2d732b3856b1b1721f0fe4272150b9ac",
    },
    "shadowed_300_standalone": {
        "metrics.csv":
            "0767c48cfc0392d4e27c15bcbb2b0af1c138be637b32dbdd134f7a139710999f",
        "snapshot.json":
            "14850e70ec8ba0f7ce88ea9f7dd22da18967865fd3268e2e837d18439846d470",
        "summary.json":
            "5cbd533900509b53baa2346f315521ed3f77a6a3064729a0a6655a557ae25398",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(out_dir) -> dict[str, str]:
    digests = {}
    for name in ("metrics.csv", "snapshot.json"):
        digests[name] = _sha256((out_dir / name).read_bytes())
    lines = (out_dir / "summary.json").read_bytes().splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(b' "runtime_wall_s": ')]
    assert len(kept) == len(lines) - 1
    digests["summary.json"] = _sha256(b"".join(kept))
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_fingerprint(name, tmp_path):
    flat, sentinel_failures = GOLDEN_RUNS[name]
    result = run_simulation(RunConfig.from_flat(flat),
                            sentinel_failures=sentinel_failures)
    write_outputs(result, tmp_path)
    assert fingerprint(tmp_path) == GOLDEN_SHA256[name]

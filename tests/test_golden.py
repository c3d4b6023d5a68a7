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
            "449d41c50415fc6aa7fd3b1737cf41df9b562b270c2133031e8164e9d119080f",
        "snapshot.json":
            "ec0948b881cf2641a9da5dde56ea07fa310d700a096616258d89fa5dc48e0c96",
        "summary.json":
            "29502176825964ce948c39317f0f16a739f71983d98d849ad8857b338e0a970a",
    },
    "table1_standalone": {
        "metrics.csv":
            "314bdd96acc024a54405b15abd9f467418b177395f5e6072d25020b4340f166c",
        "snapshot.json":
            "8b1a9e6bdbabe2d516eb084d2a58d2b8c906e7c3fde6b9beefe3d8025c00f07b",
        "summary.json":
            "79da9b4e99702010ed46ab62a54b963e28ef448624bc1e0d10ed808d5ad328b3",
    },
    "hazard_global": {
        "metrics.csv":
            "bce815155cee5416d78a23d633d0616921a64c8b25757153d9d5d08378e1f160",
        "snapshot.json":
            "9fcb2e3819a22baf67c5bb9de2482632d0f00577e291ca2c68a82b0c3ab5a276",
        "summary.json":
            "bda33d5906b5625f9c20828e44ba2de28662e63612dd9cfca5e24798c4652069",
    },
    "sentinels_killed": {
        "metrics.csv":
            "583d0706d1edd8ffa9bd8b1962c7f5b4803ec975964709b6e046c4e79fc3aad0",
        "snapshot.json":
            "c029fc9a9f5d8a8c0cfac4022779dfc9aa54c7b24f0e9072b8d75a916944e372",
        "summary.json":
            "26902c73215bd029d81bfe261d1425e83612074867e140aec7a5a9d4ca673410",
    },
    "shadowed_100_piggybacked": {
        "metrics.csv":
            "2d44aaa092822bf5bf6d5b6f0e594cc5d5bd247daff1e7057648e465adeabd8f",
        "snapshot.json":
            "2b78be75e9f1ed53b1000758d50bf51ba12d896aa76118a492bcaacecc1ddd1f",
        "summary.json":
            "830ff41c24e13ecadd5c3b256c84bf7576a1d2bf626baf78ff617320bb5c5662",
    },
    "shadowed_300_standalone": {
        "metrics.csv":
            "e85f7eded7e345c1b1923ee079d128919fbacf4a47b05934f2e1672423192253",
        "snapshot.json":
            "3b95b566264d5440e53c6de02c708681152816977986d54a5c365a48378f6ccb",
        "summary.json":
            "2e07aa847f64bff61726f64d9607e8c02e6d7ac963c760e01941bd656aec22a7",
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

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
            "8c689c66ac8f1a59fda099e6d9bf85b63caa6ceaab2428ad203f3abad2f29305",
        "snapshot.json":
            "c29a12938a82ecd68c8394a3cdab090cdcb209eb4813d2bfc88f4c710fe09292",
        "summary.json":
            "1ffb2735a44aa56073ff6d73d0e26aa240ea3738beaa73fe83123eb866d6d0ad",
    },
    "table1_standalone": {
        "metrics.csv":
            "64b198ce956d3db1ddc4a4535369562b2ee562285c9716ef709483c6fef200f5",
        "snapshot.json":
            "91e747a765e6cd78dd825aa391ef820913e3c982847099200b11a23b29c2778c",
        "summary.json":
            "d90c90f274777b5a6b98a23b1398d1cb0463697a501939cfa1ccd4d453dc4ee3",
    },
    "hazard_global": {
        "metrics.csv":
            "a98fa119dec596086e5de4161d404c4f2cfb12ad15bdb002edda68a74657ef43",
        "snapshot.json":
            "5233f596278c635214448e2e1796cec8c4a77cbffc87813ecbf753fe1b57f42d",
        "summary.json":
            "d98db4f34a00aa8b1975a5bc5c7f9b9f2d6e73f244dc507619b3f6dcea772d17",
    },
    "sentinels_killed": {
        "metrics.csv":
            "fcd236b40e9a1f8f4e3d55457067b620c08d7aa19d61f9b110600f5c6203413a",
        "snapshot.json":
            "f698ab56ac1e064ae45d276480797cf78c451c29a7bb305a4f5a8f3e3f6a4e8a",
        "summary.json":
            "919cbb3861c22ed1e8fa24139c243366ced611a196d4b947c2e942ed3f5e4895",
    },
    "shadowed_100_piggybacked": {
        "metrics.csv":
            "e404676f82f4078b5249e5f589b21304ebbffd9d8045ee89be63f7518e33515e",
        "snapshot.json":
            "bd585343a59f9d914722ca0025e416115c7d260f164d5d6e94cabf942c6471de",
        "summary.json":
            "62058060ecd5a0bba868b84259606de816041927f41054d6857ef11b226e92a8",
    },
    "shadowed_300_standalone": {
        "metrics.csv":
            "2ce2399436f32e1f08eeab2c1fb9f875fb7100c65138a971ef853ecaad9fc80f",
        "snapshot.json":
            "8fe3e6c3165a9f7d7a38d636c96f92045df582ccc44e126ee836edfc23821477",
        "summary.json":
            "74cb425595451eeae84c82391cb9c979124b025eec252491a80709ae2043e3e0",
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

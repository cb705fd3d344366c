"""Golden digests of harness CSVs and audit reports.

They were pinned before the harness evaluated trials in blocks and before
the audit drew its trials in batches; both changes must leave every byte
of these outputs as it was.  Each harness case runs at 1, 2 and 4 workers,
and the grids cover both sides of graphs.BATCH_MAX_N.
"""

import hashlib
from fractions import Fraction

import pytest

from depgraphs.distributions import (audit_model, blocks_from_text,
                                     connectivity_gadget, correlated_star,
                                     custom_blocks, edge_block_exact,
                                     erdos_renyi)
from depgraphs.harness import ExperimentConfig, run_experiment

HARNESS_CASES = {
    "probability-er-connected": dict(
        task="probability", kind="er", ns=(9, 30, 66), ps=(0.1, Fraction(1, 4)),
        trials=90, seed=11, predicate="connected"),
    "probability-edge-block-isolated": dict(
        task="probability", kind="edge-block", ns=(9, 16, 33), a=1, m=3,
        trials=90, seed=12, predicate="isolated-vertex"),
    "probability-gadget-deviation": dict(
        task="probability", kind="gadget", ns=(40,), ps=(0.2,), ds=(3,),
        trials=90, seed=13, predicate="deviation:4:0,1,2:3,4,5,6"),
    "sweep-star-connected": dict(
        task="sweep", kind="star", ns=(20, 64), ps=(0.05, 0.1, 0.2), ds=(1, 3),
        trials=60, seed=14, predicate="connected"),
    "degree-violation-er": dict(
        task="degree-violation", kind="er", ns=(30, 64, 70), ps=(0.2,),
        trials=60, seed=15),
    "degree-violation-star": dict(
        task="degree-violation", kind="star", ns=(40,), ps=(0.3,), ds=(3,),
        trials=60, seed=16),
    "witness-star": dict(
        task="witness", kind="star", ns=(20, 48, 65), ps=(0.3,), ds=(2,),
        trials=60, seed=17),
    "containment-er-k4": dict(
        task="containment", kind="er", ns=(12, 24), ps=(0.3, 0.5),
        trials=60, seed=18, pattern="k4"),
    "containment-custom-c5": dict(
        task="containment", kind="custom", ns=(10,), ps=(0.4,),
        blocks="0 1 2; 3 4 5 6", trials=60, seed=19, pattern="c5"),
    "clique-er": dict(
        task="clique", kind="er", ns=(12, 30), ps=(0.5,), trials=40, seed=20),
    "clique-edge-block": dict(
        task="clique", kind="edge-block", ns=(10,), a=2, m=3, trials=40,
        seed=21),
}

HARNESS_DIGESTS = {
    "probability-er-connected":
        "71b87b483ec43f4ebe3d909a9dea9627fe095fe0a6a61211ec0c10a765b9fbc5",
    "probability-edge-block-isolated":
        "7d1dc75a7d2ae820ef0526398e19db7c677b80bec26bd4a38545a4dbdb591fe1",
    "probability-gadget-deviation":
        "c4d9c65ac9f19e7b5bcfe941a134dccb117e5435b396261a6624ee22a2382fd8",
    "sweep-star-connected":
        "804b70b27031132e6a380f1ddb1df9add675785947762c41e4176bbe23c26317",
    "degree-violation-er":
        "96e512a7b6a8e7eb94caa4bee8d534460a1b6347ee5e0dfbd89c72176ce1fc2f",
    "degree-violation-star":
        "9e046a31cea569a400bdd0fc285a4f808cf98d56e09a64cdffa9bcaa2f0cb3a7",
    "witness-star":
        "742e20f3fe1d2d5dbc9c8ed93a66fb363c11b1b1d65a96239773e58cedf9271f",
    "containment-er-k4":
        "46aa3491c2ef44c531ed881fecdaff3fbe75235d61e5d309c41a26194e65640c",
    # re-pinned when a custom-blocks row took its model's d: the row's d
    # went 0 -> 3 and its hypothesis true -> false, every other byte as before
    "containment-custom-c5":
        "24cebb8fac8539f7b44cafb3c656b47fbc91470097aeaa2ef7f4b089ef70a553",
    "clique-er":
        "69c788b83738373e4702f308ab8659d6f6ee6b112e484a99cccb64ab26ccac74",
    "clique-edge-block":
        "ee97d342446f9fe11588af7ffa24e772404c9590ed84cb4ad062c992e2520a14",
}

AUDIT_CASES = {
    "er-30-0.2": (lambda: erdos_renyi(30, 0.2), 3000),
    "star-24-1/4-3": (lambda: correlated_star(24, Fraction(1, 4), 3), 2500),
    "gadget-40-0.2-8": (lambda: connectivity_gadget(40, 0.2, 8), 1500),
    "edge-block-48-1-3": (lambda: edge_block_exact(48, 1, 3), 300),
    "edge-block-24-1-2": (lambda: edge_block_exact(24, 1, 2), 800),
    "edge-block-9-2-4": (lambda: edge_block_exact(9, 2, 4), 1200),
    "edge-block-6-3-3": (lambda: edge_block_exact(6, 3, 3), 50),
    "custom-8-0.4": (lambda: custom_blocks(
        8, 0.4, blocks_from_text(8, "27 0 5; 3 4 1 2; 26 9")), 1000),
}

AUDIT_DIGESTS = {
    "er-30-0.2":
        "76f7d31e0155e566f8433e8eed2fd2052b802929a6a815fd350b51d27d126e0b",
    "star-24-1/4-3":
        "df495123b91b7fffa489fa5925165766af825745801749842c9405e550d562bf",
    "gadget-40-0.2-8":
        "ae1177e3eed211186b30656edf6d64396c05fa42efa2a1cd8e9222102da83837",
    "edge-block-48-1-3":
        "9490c00170145fc28b31865ad8741c1a8a2f2fba3370f46a8828e50ba3fb2a8d",
    "edge-block-24-1-2":
        "d2b002542bbdc1fbf7219ae20dfe226620ed55b2ded38d0fc0a74bfa614db288",
    "edge-block-9-2-4":
        "1538da30d706ba16a6cc8e8eb60740ce753ff55a8c369011eebffe1b8d63196a",
    "edge-block-6-3-3":
        "ef0cc41c5e40f68536111006e0657643d8179065c54565583c9cda69f1ade008",
    "custom-8-0.4":
        "9b2074edbe874c75b1a877aeb5c8b9418073885dd8ece15e1b74af030d1fc747",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_digest_tables_cover_every_case():
    assert set(HARNESS_DIGESTS) == set(HARNESS_CASES)
    assert set(AUDIT_DIGESTS) == set(AUDIT_CASES)
    assert {c["task"] for c in HARNESS_CASES.values()} == {
        "probability", "sweep", "degree-violation", "witness", "containment",
        "clique"}


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(HARNESS_CASES))
def test_harness_csv_is_pinned(name, workers):
    config = ExperimentConfig(workers=workers, **HARNESS_CASES[name])
    assert _sha(run_experiment(config).to_csv()) == HARNESS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(AUDIT_CASES))
def test_audit_report_is_pinned(name):
    make, trials = AUDIT_CASES[name]
    report = audit_model(make(), trials, seed=2024 + len(name))
    assert _sha(repr(report)) == AUDIT_DIGESTS[name]

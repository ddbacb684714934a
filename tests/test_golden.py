"""Golden corpus: every CLI command's canonical bytes stay identical.

`golden/cli_digests.json` holds the exit code and the sha256 of stdout
(timing off) of `build`, `fan`, `map-to-proj`, `local-model`,
`lc-check --samples 50 --seed 1` and `base-change` on the stress tower, the
8-cube tower, the 500-ray near-cap draw `near_cap_tower(57)` and
`verify.random_towers(12, 20260810)`, plus `verify --suite all --seed
20260810`.  The near-cap and cube entries pin the largest reports
(`local-model` writes 87.9 MB on the near-cap draw).  Re-record only after
an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from corpus import CUBE_TOWER, STRESS_TOWER, near_cap_tower
from torictower.cli import main
from torictower.documents import emit_tower
from torictower.lattice import fan_validate
from torictower.tower import build_model
from torictower.verify import random_towers

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli_digests.json")
SEED = 20260810


def corpus():
    """(case name, argv, stdin text) for every recorded command."""
    towers = [("stress", STRESS_TOWER), ("cube", CUBE_TOWER), ("nearcap57", near_cap_tower(57))]
    towers += [(f"random{i:02d}", spec) for i, spec in enumerate(random_towers(12, SEED))]
    out = []
    for name, spec in towers:
        doc = emit_tower(spec)
        orders = ",".join(str(i % 3 + 1) for i in range(spec.base_dim))
        for argv in (
            ["build"],
            ["fan"],
            ["map-to-proj"],
            ["local-model"],
            ["lc-check", "--samples", "50", "--seed", "1"],
            ["base-change", "--orders", orders, "--on-boundary"],
        ):
            out.append((f"{name}/{argv[0]}", argv + ["--input", "-"], doc))
    out.append(("verify/all", ["verify", "--suite", "all", "--seed", str(SEED)], ""))
    return out


def run_cli(argv, stdin_text):
    """(exit code, sha256 of stdout) of one in-process CLI run."""
    stdout = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    finally:
        sys.stdin = saved
    return {"exit": rc, "sha256": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}


def record():
    digests = {name: run_cli(argv, doc) for name, argv, doc in corpus()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


CASES = corpus()


def test_corpus_matches_recorded_names():
    assert sorted(_golden()) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name,argv,doc", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_byte_identical(name, argv, doc):
    assert run_cli(argv, doc) == _golden()[name]


def test_commands_in_a_row_give_the_bytes_each_gives_alone():
    """Each case above runs on an empty cli cache (tests/conftest.py); here
    the corpus runs in one go, so every command after a document's first
    reads the model the cli kept."""
    golden = _golden()
    assert {name: run_cli(argv, doc) for name, argv, doc in CASES} == golden


def test_stress_tower_shape_and_validity():
    model = build_model(STRESS_TOWER)
    top = model.levels[-1].fan
    assert len(top.all_rays) == 104
    assert len(top.maximal_cones) == 8
    for level in model.levels:
        assert fan_validate(level.fan) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()

"""Census golden: the canonical bytes of six commands on every tower of a corpus.

For each (p, depth) of `corpus.SMALL_CORPUS` and `corpus.DRIVER_CORPUS`,
and each of `build`, `fan`, `map-to-proj`, `local-model`,
`lc-check --samples 50 --seed 1` and `base-change --orders 1[,2]
--on-boundary`, `golden/census.json` holds one sha256 over every tower's
exit code and stdout, run in process through `cli.main` in
`corpus.small_towers` order, and one sha256 per block of BLOCK towers, so a
mismatch names the command and the first block that differs (its tower
range and its first document).  Tier-1 checks SMALL_CORPUS
(`tests/test_census.py`); the corpus driver checks DRIVER_CORPUS.
Re-record only after an intended change of output:

    PYTHONPATH=src python tests/census.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from corpus import DRIVER_CORPUS, SMALL_CORPUS, small_towers
from torictower.cli import main as cli_main
from torictower.documents import emit_tower

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "census.json")
BLOCK = 100  # towers per block digest
COMMANDS = ("build", "fan", "map-to-proj", "local-model", "lc-check", "base-change")


def argvs(spec):
    """The argv of each command in COMMANDS on `spec`'s document, read from stdin."""
    orders = ",".join(str(i + 1) for i in range(spec.base_dim))
    flags = {"lc-check": ["--samples", "50", "--seed", "1"], "base-change": ["--orders", orders, "--on-boundary"]}
    return [[name, *flags.get(name, ()), "--input", "-"] for name in COMMANDS]


def run(argv, doc):
    """The exit code and stdout of one in-process `cli.main` run, as bytes to hash."""
    stdout, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    text = stdout.getvalue()
    return f"{code} {len(text)}\n{text}".encode("utf-8")


def census(p, depth):
    """{command: {"sha256": digest of every tower, "blocks": [digest per block]}}
    over `small_towers(p, depth)`; each tower runs every command in a row, so
    the cli builds it once."""
    towers = small_towers(p, depth)
    whole = {name: hashlib.sha256() for name in COMMANDS}
    blocks = {name: [] for name in COMMANDS}
    for start in range(0, len(towers), BLOCK):
        part = {name: hashlib.sha256() for name in COMMANDS}
        for spec in towers[start:start + BLOCK]:
            doc = emit_tower(spec)
            for argv in argvs(spec):
                data = run(argv, doc)
                part[argv[0]].update(data)
                whole[argv[0]].update(data)
        for name in COMMANDS:
            blocks[name].append(part[name].hexdigest())
    return {name: {"sha256": whole[name].hexdigest(), "blocks": blocks[name]} for name in COMMANDS}


def key(p, depth):
    return f"p={p} depth={depth}"


def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def census_mismatches(corpus):
    """(number of towers, [one line per (command, p, depth) whose digest
    differs from the golden's, naming its first differing block])."""
    want, towers, bad = golden(), 0, []
    for p, depth in corpus:
        specs, got, recorded = small_towers(p, depth), census(p, depth), want[key(p, depth)]
        towers += len(specs)
        for name in COMMANDS:
            if got[name]["sha256"] == recorded[name]["sha256"]:
                continue
            pairs = zip(got[name]["blocks"], recorded[name]["blocks"])
            b = next((b for b, (x, y) in enumerate(pairs) if x != y), len(recorded[name]["blocks"]))
            block = specs[b * BLOCK:(b + 1) * BLOCK]
            first = " ".join(emit_tower(block[0]).split()) if block else "none"
            bad.append(f"{name} {key(p, depth)}: block {b} (towers {b * BLOCK}..{b * BLOCK + len(block) - 1}) "
                       f"differs; its first document: {first}")
    return towers, bad


def record():
    digests = {key(p, depth): census(p, depth) for p, depth in SMALL_CORPUS + DRIVER_CORPUS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()

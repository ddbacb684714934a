"""Standing mutation check: each mutant below must fail the tests named with it.

    PYTHONPATH=src python tests/mutants.py

Each entry is (file under src/torictower, old text, new text, test
selection).  For each entry the script copies `src/` to a temporary
directory, replaces the old text, which must occur exactly once, and runs
the selection with pytest against the copy.  A mutant is killed when the
selection fails (a run past TIMEOUT seconds counts as killed too: the mutant
hangs).  Before any mutant, every selection must pass on the unmutated copy,
so a broken selection cannot kill anything.  The script exits 1 on a
surviving mutant, on an old text that no longer matches exactly once, and on
a selection that fails unmutated or cannot run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 120  # seconds per pytest run
LATTICE_AND_VERIFY = ("tests/test_verify.py", "tests/test_lattice.py")
MAKE_OVERRIDE = (
    "    @classmethod\n"
    "    def _make(cls, iterable):  # _replace builds through _make, so every path runs __new__\n"
    "        return cls(*iterable)\n"
)

MUTANTS = (
    # the DD keeps a lineality vector with pairing 0 as it is
    ("lattice.py", "l if s == 0 else", "l if s % 3 == 0 else", ("tests/test_lattice.py",)),
    # regularity: <m, u> = 0 is regular
    ("toric.py", "if dot(char, u) < 0)", "if dot(char, u) <= 0)",
     ("tests/test_regular_face_net.py", "tests/test_toric.py")),
    # the regular-face search steps only to facets that miss the lowest irregular ray
    ("toric.py", "if not f & low:", "if f & low:", ("tests/test_regular_face_net.py",)),
    # a product level keeps the facet sigma x {0}
    ("tower.py", "for f in below.facet_masks(j)] + [sigma]", "for f in below.facet_masks(j)]",
     ("tests/test_facet_net.py",)),
    # a cone is safe only with its certificate <w, g> > 0
    ("tower.py", "in_projective_support(spec, g) and dot(w, g) > 0 for g in gens",
     "in_projective_support(spec, g) for g in gens", ("tests/test_lc_net.py",)),
    # the oracles' Leibniz sign, cofactor sign and Fourier-Motzkin test
    ("verify.py", "% 2 else 1", "% 2 else -1", LATTICE_AND_VERIFY),
    ("verify.py", "(-1) ** j * _leibniz_det", "_leibniz_det", LATTICE_AND_VERIFY),
    ("verify.py", "return all(c[-1] >= 0 for c in cons)", "return all(c[-1] > 0 for c in cons)",
     LATTICE_AND_VERIFY),
    # a TowerSpec rejects a node move with too few t-exponents
    ("tower.py", "if len(move.t_exponents) != base_dim:", "if len(move.t_exponents) > base_dim:",
     ("tests/test_tower.py",)),
    # pullback_divisor raises the NotQCartier that cartier_data returns
    ("toric.py", "raise cd\n    coeffs = {}", "pass\n    coeffs = {}", ("tests/test_toric.py",)),
    # the regularity edit above, which the support-by-lattice-points net must kill on its own
    ("toric.py", "if dot(char, u) < 0)", "if dot(char, u) <= 0)", ("tests/test_support_net.py",)),
    # _replace and _make build through __new__, which checks the rules of TowerSpec and ProjectiveDivisorData
    ("tower.py", MAKE_OVERRIDE, "", ("tests/test_records.py",)),
    ("polytope.py", MAKE_OVERRIDE, "", ("tests/test_records.py",)),
    # a ProductMove, a tuple with no fields, is true
    ("tower.py", "    def __bool__(self):  # a move, not an empty sequence\n        return True\n", "",
     ("tests/test_records.py",)),
    # verify --suite all reaps its kernel child, merges kernel first, and keeps the child's outcome
    ("verify.py", "            os.waitpid(pid, 0)\n", "            pass\n", ("tests/test_verify.py",)),
    ("verify.py", '{"kernel": first, **rest}', '{**rest, "kernel": first}', ("tests/test_verify.py",)),
    ("verify.py", "                result = fn()\n", "                result = CheckOutcome()\n",
     ("tests/test_verify.py",)),
)


def run_selection(src, selection):
    """pytest's exit code on `selection` against the package in `src`, or
    None when it runs past TIMEOUT."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def copy_src(tmp, name):
    src = os.path.join(tmp, name)
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main():
    failures = 0
    with tempfile.TemporaryDirectory(prefix="torictower-mutants-") as tmp:
        clean = copy_src(tmp, "clean")
        probe = [sys.executable, "-c", "import torictower; print(torictower.__file__)"]
        loaded = subprocess.run(probe, env={**os.environ, "PYTHONPATH": clean},
                                capture_output=True, text=True).stdout
        if not loaded.startswith(clean):
            print(f"the tests would import torictower from {loaded.strip()!r}, not the copy")
            return 1
        for selection in sorted({entry[3] for entry in MUTANTS}):
            if run_selection(clean, selection) != 0:
                print(f"BROKEN  {' '.join(selection)} fails unmutated")
                failures += 1
        for k, (name, old, new, selection) in enumerate(MUTANTS):
            label = f"{name}: {old!r} -> {new!r}"
            src = copy_src(tmp, f"mutant{k}")
            path = os.path.join(src, "torictower", name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"STALE   {label}: old text occurs {text.count(old)} times")
                failures += 1
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            start = time.monotonic()
            code = run_selection(src, selection)
            took = f"({time.monotonic() - start:.1f} s)"
            if code == 0:
                print(f"SURVIVED {label} {took}")
                failures += 1
            elif code in (1, None):
                print(f"killed  {label} {took}{' by timeout' if code is None else ''}")
            else:
                print(f"BROKEN  {label}: pytest exit code {code} {took}")
                failures += 1
            shutil.rmtree(src)
    print(f"{len(MUTANTS)} mutants, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

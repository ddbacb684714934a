"""Standing mutation check: each mutant below must fail the tests named with it.

    PYTHONPATH=src python tests/mutants.py

Each entry is (file under src/torictower, old text, new text, test
selection).  For each entry the script copies `src/` to a temporary
directory of its own, replaces the old text, which must occur exactly once,
and runs the selection with pytest against the copy.  A mutant is killed
when the selection fails (a run past TIMEOUT seconds counts as killed too:
the mutant hangs).  Before any mutant, every selection must pass on the
unmutated copy, so a broken selection cannot kill anything.  The unmutated
runs, and then the mutants, run os.cpu_count() at a time; the lines print in
MUTANTS order.  The script exits 1 on a surviving mutant, on an old text
that no longer matches exactly once, and on a selection that fails
unmutated or cannot run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

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
    # a cone coordinate or dimension that is not an integer is an error, not truncated
    ("lattice.py", "return tuple(map(operator.index, values))", "return tuple(map(int, values))",
     ("tests/test_lattice.py::test_cones_and_fans_take_integer_coordinates_only",)),
    # a node move lifts only rays with <m,u> >= 0, to (u, 0) and (u, <m,u>): every ray of every level is nonnegative
    ("toric.py", "if dot(char, u) < 0)", "if dot(char, u) < -1)",
     ("tests/test_lc_net.py::test_every_ray_of_every_tower_level_is_nonnegative",)),
    # a generator is extreme iff the facets through it meet in it alone
    ("lattice.py", "if _face_hull(b, top, facets) == b:", "if _face_hull(0, top, facets) == b:",
     ("tests/test_lattice.py::test_fan_validate_matches_all_pairs_oracle_on_defective_fans",)),
    # the face hull of a mask takes only the facets that hold all of it
    ("lattice.py", "if f & mask == mask)", "if f & mask)", ("tests/test_lattice.py",)),
    # a fallback intersection with a ray outside the ray index is no face
    ("lattice.py", "if not (all(bits) and all(", "if not (all(", ("tests/test_lattice.py",)),
    # the node chart's semigroup presentation holds (m, -1)
    ("tower.py", "presentation += [unit_vector(n_prev + 1, n_prev), tuple(m) + (-1,)]",
     "presentation += [unit_vector(n_prev + 1, n_prev)]", ("tests/test_tower.py",)),
    # fan_validate raises past MAX_FACES pairs of pointed cones, not at MAX_FACES
    ("lattice.py", "if len(cones) * (len(cones) - 1) // 2 > MAX_FACES:",
     "if len(cones) * (len(cones) - 1) // 2 >= MAX_FACES:",
     ("tests/test_lattice.py::test_fan_validate_caps_its_cone_pairs",)),
    ("lattice.py", "if len(cones) * (len(cones) - 1) // 2 > MAX_FACES:", "if False:",
     ("tests/test_lattice.py::test_fan_validate_caps_its_cone_pairs",)),
    # cartier_data scales each numerator to the divisor's common denominator
    ("toric.py", "d.numerator * (den // d.denominator)", "d.numerator",
     ("tests/test_toric.py::test_cartier_data_matches_elimination_oracle",)),
    # base_dim and every germ order are ints
    ("tower.py", 'if not _is_int(base_dim):\n            details.append(f"base_dim {base_dim!r} is not an int")\n'
     "        elif base_dim < 1:", "if base_dim < 1:", ("tests/test_records.py",)),
    ("tower.py", "if not _is_int(c)]", "if False]", ("tests/test_tower.py::test_base_change_errors",)),
    # and none of base_dim, an exponent or a germ order is a bool
    ("tower.py", "if not _is_int(base_dim):", "if not isinstance(base_dim, int):", ("tests/test_records.py",)),
    ("tower.py", "if not _is_int(e)]", "if not isinstance(e, int)]", ("tests/test_records.py",)),
    ("tower.py", "if not _is_int(c)]", "if not isinstance(c, int)]", ("tests/test_tower.py::test_base_change_errors",)),
    # normalized_volume raises past MAX_FACES popped faces, not at MAX_FACES
    ("polytope.py", "if popped > MAX_FACES:", "if popped >= MAX_FACES:",
     ("tests/test_polytope.py::test_normalized_volume_caps_its_triangulation_stack",)),
    ("polytope.py", "if popped > MAX_FACES:", "if False:",
     ("tests/test_polytope.py::test_normalized_volume_caps_its_triangulation_stack",)),
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


def run_mutant(tmp, k):
    """The report line of mutant k, and whether it counts as a failure."""
    name, old, new, selection = MUTANTS[k]
    label = f"{name}: {old!r} -> {new!r}"
    src = copy_src(tmp, f"mutant{k}")
    try:
        path = os.path.join(src, "torictower", name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            return f"STALE   {label}: old text occurs {text.count(old)} times", True
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        start = time.monotonic()
        code = run_selection(src, selection)
        took = f"({time.monotonic() - start:.1f} s)"
    finally:
        shutil.rmtree(src)
    if code == 0:
        return f"SURVIVED {label} {took}", True
    if code in (1, None):
        return f"killed  {label} {took}{' by timeout' if code is None else ''}", False
    return f"BROKEN  {label}: pytest exit code {code} {took}", True


def main():
    failures = 0
    with tempfile.TemporaryDirectory(prefix="torictower-mutants-") as tmp, \
            ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        clean = copy_src(tmp, "clean")
        probe = [sys.executable, "-c", "import torictower; print(torictower.__file__)"]
        loaded = subprocess.run(probe, env={**os.environ, "PYTHONPATH": clean},
                                capture_output=True, text=True).stdout
        if not loaded.startswith(clean):
            print(f"the tests would import torictower from {loaded.strip()!r}, not the copy")
            return 1
        selections = sorted({entry[3] for entry in MUTANTS})
        for selection, code in zip(selections, pool.map(lambda sel: run_selection(clean, sel), selections)):
            if code != 0:
                print(f"BROKEN  {' '.join(selection)} fails unmutated")
                failures += 1
        for line, failed in pool.map(lambda k: run_mutant(tmp, k), range(len(MUTANTS))):
            print(line, flush=True)
            failures += failed
    print(f"{len(MUTANTS)} mutants, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

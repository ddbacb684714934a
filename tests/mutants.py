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
unmutated or cannot run.  A selection names the tests that kill its mutant,
not a whole test file, so the unmutated runs stay short.
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
ORACLES = ("tests/test_lattice.py::test_dual_cone_facet_oracle_matches_fraction_reference",
           "tests/test_lattice.py::test_in_cone_fm_matches_fraction_reference")
BAD_TORIC = "tests/test_toric.py::test_bad_toric_inputs_are_lattice_errors"
COEFFICIENTS = "tests/test_cli.py::test_divisor_coefficients_are_integers_or_fraction_strings"
PINNED = "tests/test_violations.py::test_each_violation_keeps_its_text_witnesses_and_counts"
COUNTS = "tests/test_counts.py::test_every_count_site_follows_the_count_rule"
REGULAR_CUBES = "tests/test_regular_face_net.py::test_regular_faces_match_the_walk_on_cube_cones"
SEVERAL_CONES = "tests/test_facet_net.py::test_derived_facet_masks_match_oracle_where_a_move_meets_several_cones"
RECORDS = ("tests/test_records.py::test_a_tower_spec_checks_its_rules_on_every_construction_path",
           "tests/test_records.py::test_projective_divisor_data_checks_its_rules_on_every_construction_path",
           "tests/test_records.py::test_a_product_move_is_true")
VERIFY_ALL = ("tests/test_verify.py::test_a_lattice_error_in_any_suite_of_all_is_exit_2",
              "tests/test_verify.py::test_all_merges_kernel_first_and_tags_each_entry_with_its_suite")
NOT_SEQUENCES = "tests/test_records.py::test_an_input_that_is_not_a_sequence_is_named"
ROUTES = "tests/test_toric.py::test_the_normals_route_matches_the_hermite_route_and_the_oracle"
MEMOS = "tests/test_facet_net.py::test_carried_halfspace_memos_match_the_double_description"
NODE_LEVELS = "tests/test_node_level_net.py::test_node_levels_match_the_two_step_route_where_faces_come_from_several_cones"
CHECK_HEIGHTS = "    _check_digits(u[-1] for u in fan.all_rays)\n"
DIGIT_CAP = "tests/test_tower.py::test_the_digit_cap_reads_the_heights_of_kept_rays_only"
CHAR_LENGTH = '    if len(char) != fan.ambient_dim:\n        raise LatticeError("character dimension does not match fan")\n'
LOOKUP = "            level = _LEVELS[key] = _LEVELS.pop(key, None) or TowerLevel(fan=_level_above(level.fan, spec.moves[k - 1]))\n"
KEY = "key = (spec.base_dim, spec.moves[:k], sys.get_int_max_str_digits())"
KEPT_CAPS = "tests/test_tower.py::test_a_kept_level_still_trips_a_lower_ray_cap_and_the_digit_limit"
RAY_CAP = "        if len(level.fan.all_rays) > max_rays:\n"
EVICT = "            if len(_LEVELS) > _LEVELS_KEPT:\n                _LEVELS.popitem(last=False)\n"
LOAD = "    return _model_of(_read_input(args.input), args.max_rays, args.max_dim, sys.get_int_max_str_digits())\n"
ANY_CAP = 'type("AnyCap", (int,), {"__eq__": lambda a, b: True, "__hash__": lambda a: 0})(args.max_rays)'
LOWER_CAP = "tests/test_cli.py::test_a_lower_cap_right_after_a_default_run_is_a_cap"
LOCAL_MODEL_ORACLE = "tests/test_cli.py::test_local_model_levels_match_the_face_by_face_oracle"
TWO_INDENTS = "tests/test_documents.py::test_a_list_and_a_flat_dict_at_two_indents"
MISSING_FIELD = (
    "            for field in NodeMove._fields:\n"
    "                if field not in raw:\n"
    '                    raise TowerDocumentError(f"{where}: node move missing field {field!r}")\n'
)
PARSE = "    args = _parsed(tuple(sys.argv[1:] if argv is None else argv), sys.get_int_max_str_digits())\n"
PART = "_projective_part(model.spec.base_dim, model.spec.depth)"
KEPT_TEXT = (
    "        text = self.texts.get(newline)\n"
    "        if text is None:\n"
    "            out = []\n"
    "            _emit(self.value, newline, out, {})\n"
    '            text = self.texts[newline] = "".join(out)\n'
)
ONCE = "tests/test_polytope.py::test_each_face_is_expanded_once_per_call"
PARITY = "tests/test_polytope.py::test_refined_products_with_points_that_are_not_vertices_match_both_oracles"
STORE = (
    "            if ref is None:\n"
    "                t, ref = q[apex] * part[1], (apex,) + part[2]\n"
    "        if visited > MAX_FACES:\n"
    '            raise ResourceCapError(f"triangulation passed the cap of {MAX_FACES} faces")\n'
    "        memo[face] = q[apex] * s, t, ref\n"
    "        return memo[face]\n"
)
WALLS = "tests/test_lattice.py::test_fan_validate_matches_the_oracle_on_refined_products_and_forged_copies"
CERTIFIES = "tests/test_lattice.py::test_fan_validate_certifies_valid_fans_without_double_description"
BAREISS = "tests/test_lattice.py::test_bareiss_step_matches_the_one_expression_step"
DD_ORACLE = "tests/test_lattice.py::test_halfspace_intersection_of_redundant_rows_matches_oracle"
EMITTER = "tests/test_documents.py::test_canonical_json_equals_indented_json_dumps"
BAREISS_BRANCHES = (
    "        if not rc:  # nothing to clear in this row\n"
    "            out.append([x * p // prev for x in rest])\n"
    "        elif prev != 1:\n"
)
MAKE_OVERRIDE = (
    "    @classmethod\n"
    "    def _make(cls, iterable):  # _replace builds through _make, so every path runs __new__\n"
    "        return cls(*iterable)\n"
)

MUTANTS = (
    # the DD keeps a lineality vector with pairing 0 as it is
    ("lattice.py", "l if s == 0 else", "l if s % 3 == 0 else",
     ("tests/test_lattice.py::test_halfspace_intersection_of_redundant_rows_matches_oracle",)),
    # regularity: <m, u> = 0 is regular
    ("toric.py", "if dot(char, u) < 0)", "if dot(char, u) <= 0)",
     (REGULAR_CUBES, "tests/test_toric.py::test_regularity_subfan_regular_character")),
    # the regular-face search steps only to facets that miss the lowest irregular ray
    ("toric.py", "if not f & low:", "if f & low:", (REGULAR_CUBES,)),
    # a product level keeps the facet sigma x {0}, the image of sigma under u -> (u, 0) without the apex
    ("lattice.py", "        candidates += map(sum, each)\n",
     "        candidates += map(sum, each) if apex is None else ()\n", (SEVERAL_CONES,)),
    # a derived fan's facet candidates hold the images of tau under each map alone,
    # its cuts lift with the apex, and the lift itself is no facet of its own
    ("lattice.py", "        candidates += map(sum, each)\n", "", (SEVERAL_CONES,)),
    ("lattice.py", "if f >> u & 1], base)", "if f >> u & 1])", (SEVERAL_CONES,)),
    ("lattice.py", "maximal_masks([c for c in candidates if c != tops[j]])", "maximal_masks(candidates)",
     (SEVERAL_CONES,)),
    # a derived fan lifts each listed face, not the whole maximal cone it lies in
    ("lattice.py", "        idx = bit_indices(tau)\n", "        idx = bit_indices(source.tops[k])\n",
     (REGULAR_CUBES,)),
    # a node level lifts each maximal regular face, with the facets of the cone it was found under,
    # and reads the digit cap on the heights of the rays it keeps
    ("toric.py", "return [(found[a], a) for a in maximal_masks(found)]", "return [(0, a) for a in maximal_masks(found)]",
     (NODE_LEVELS,)),
    ("toric.py", "return [(found[a], a) for a in maximal_masks(found)]", "return [(found[a], a) for a in found]",
     (NODE_LEVELS,)),
    ("tower.py", "derived_fan(prev, n, _regular_faces(prev, m),", "derived_fan(prev, n, enumerate(prev.tops),",
     (NODE_LEVELS,)),
    ("tower.py", CHECK_HEIGHTS, "    _check_digits(u[-1] for u in prev.all_rays)\n", (DIGIT_CAP,)),
    ("tower.py", CHECK_HEIGHTS, "    _check_digits(dot(m, u) for u in prev.all_rays)\n", (DIGIT_CAP,)),
    ("tower.py", CHECK_HEIGHTS, "", (DIGIT_CAP,)),
    # the orthant carries every normal e_i, and facet_masks reads its facets, one per ray left out, off them
    ("lattice.py", "._halfspaces = (fan.all_rays, ())", "._halfspaces = (fan.all_rays[1:], ())",
     ("tests/test_facet_net.py::test_derived_facet_masks_match_oracle_on_near_cap_towers",)),
    # no int-to-str digit limit (0) is no digit cap
    ("tower.py", "if limit and any(", "if any(",
     ("tests/test_tower.py::test_no_int_to_str_digit_limit_is_no_digit_cap",)),
    # --output - is stdout, not a file named "-"
    ("cli.py", 'if path is None or path == "-":\n        sys.stdout', 'if path is None:\n        sys.stdout',
     ("tests/test_cli.py::test_output_dash_writes_the_report_to_stdout",)),
    # a cone is safe only with its certificate <w, g> > 0
    ("tower.py", "in_projective_support(spec, g) and dot(w, g) > 0 for g in gens",
     "in_projective_support(spec, g) for g in gens",
     ("tests/test_lc_net.py::test_lc_check_matches_oracle_on_forged_cones_without_the_certificate",)),
    # the oracles' Leibniz sign, cofactor sign and Fourier-Motzkin test
    ("verify.py", "% 2 else 1", "% 2 else -1", ORACLES),
    ("verify.py", "(-1) ** j * _leibniz_det", "_leibniz_det", ORACLES),
    ("verify.py", "return all(c[-1] >= 0 for c in cons)", "return all(c[-1] > 0 for c in cons)",
     ORACLES),
    # a TowerSpec rejects a node move with too few t-exponents
    ("tower.py", "if len(move.t_exponents) != base_dim:", "if len(move.t_exponents) > base_dim:",
     ("tests/test_tower.py::test_validate_t_arity",)),
    # pullback_divisor raises the NotQCartier that cartier_data returns
    ("toric.py", "raise cd\n    coeffs = {}", "pass\n    coeffs = {}",
     ("tests/test_toric.py::test_pullback_matches_per_ray_oracle",)),
    # the regularity edit above, which the support-by-lattice-points net must kill on its own
    ("toric.py", "if dot(char, u) < 0)", "if dot(char, u) <= 0)",
     ("tests/test_support_net.py::test_level_supports_match_the_construction_on_every_p1_tower",)),
    # _replace and _make build through __new__, which checks the rules of TowerSpec and ProjectiveDivisorData
    # and keeps a node move's and a germ's list fields as tuples: the one lattice._Record override serves all four
    ("lattice.py", MAKE_OVERRIDE, "", RECORDS),
    # a ProductMove, a tuple with no fields, is true
    ("tower.py", "    def __bool__(self):  # a move, not an empty sequence\n        return True\n", "",
     RECORDS),
    # verify --suite all runs every suite, in SUITES order, in the calling process
    ("verify.py", "for sub, suite in suites.items():", "for sub, suite in reversed(suites.items()):", VERIFY_ALL),
    ("verify.py", "for sub, suite in suites.items():", "for sub, suite in list(suites.items())[1:]:",
     ("tests/test_verify.py::test_all_runs_every_suite_in_the_calling_process",)),
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
    ("lattice.py", "if f & mask == mask)", "if f & mask)",
     ("tests/test_lattice.py::test_fan_face_mask_matches_geometric_oracle",)),
    # a fallback intersection with a ray outside the ray index is no face
    ("lattice.py", "if not (all(bits) and all(", "if not (all(",
     ("tests/test_lattice.py::test_fan_validate_fallback_reads_its_sign_tables",)),
    # the node chart's semigroup presentation holds (m, -1)
    ("tower.py", "presentation += [unit_vector(n_prev + 1, n_prev), tuple(m) + (-1,)]",
     "presentation += [unit_vector(n_prev + 1, n_prev)]",
     ("tests/test_tower.py::test_node_chart_dual_violations_flags_a_wrong_top_lift",)),
    # fan_validate pairs each wall's sign row once: its negation is = 0 where the row is and <= 0 where
    # the row is > 0 or = 0, over every ray of the fan
    ("lattice.py", "signs[vneg(row)] = z, everything ^ np | z", "signs[vneg(row)] = z, np", (WALLS, CERTIFIES)),
    ("lattice.py", "everything = (1 << len(bit)) - 1", "everything = (1 << len(bit) - 1) - 1", (WALLS, CERTIFIES)),
    # a DD pair is adjacent iff no third ray holds its common tight rows: p and q hold them, so the count passes 2
    ("lattice.py", ".count(t) > 2", ".count(t) > 1", (DD_ORACLE,)),
    # a Bareiss row with no entry in the pivot column is only rescaled, and a prev of 1 divides nothing
    ("lattice.py", BAREISS_BRANCHES, BAREISS_BRANCHES.replace("if not rc:", "if prev != 1:").replace(
        "elif prev != 1:", "elif not rc:"), (BAREISS,)),
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
    ("tower.py", 'if not _is_int(base_dim):\n            details.append(f"base_dim {_shown(base_dim)} is not an int")\n'
     "        elif base_dim < 1:", "if base_dim < 1:", RECORDS),
    ("tower.py", '    for c in germ.orders:\n        check_count(c, "vanishing order")\n', "",
     ("tests/test_tower.py::test_base_change_errors",)),
    # and none of base_dim or an exponent is a bool
    ("tower.py", "if not _is_int(base_dim):", "if not isinstance(base_dim, int):", RECORDS),
    ("tower.py", "if not _is_int(e)]", "if not isinstance(e, int)]", RECORDS),
    # a germ order is counted from 0
    ("tower.py", 'check_count(c, "vanishing order")', 'check_count(c, "vanishing order", low=-1)',
     ("tests/test_tower.py::test_base_change_errors",)),
    # normalized_volume raises past MAX_FACES visited faces, memo hits and closed-form edges too, not at MAX_FACES
    ("polytope.py", "if visited > MAX_FACES:", "if visited >= MAX_FACES:",
     ("tests/test_polytope.py::test_normalized_volume_caps_its_triangulation_stack",)),
    ("polytope.py", "if visited > MAX_FACES:", "if False:",
     ("tests/test_polytope.py::test_normalized_volume_caps_its_triangulation_stack",)),
    # a polygon's closed-form triangle is |det|, its edges through the apex are no triangles,
    # and an edge with a third collinear point takes the general path
    ("polytope.py", "abs((a * y - b * x) // p)", "(a * y - b * x) // p",
     ("tests/test_polytope.py::test_divisor_polytope_and_volume_match_oracles",)),
    ("polytope.py", "if sub >> apex & 1:", "if sub >> apex & 1 and dim != 2:",
     ("tests/test_polytope.py::test_divisor_polytope_and_volume_match_oracles",)),
    ("polytope.py", "sub.bit_count() == 2", "sub.bit_count() >= 2",
     ("tests/test_polytope.py::test_edges_with_a_collinear_midpoint_match_the_oracle",)),
    # a simplex weighs |det| * prod(lcd // den), its volume times lcd^(n + 1), a closed-form edge too
    ("polytope.py", "q = [lcd // r[-1] for r in rows]", "q = [r[-1] for r in rows]",
     ("tests/test_polytope.py::test_divisor_polytope_and_volume_match_oracles",)),
    ("polytope.py", "abs((a * y - b * x) // p) * q[i] * q[j]", "abs((a * y - b * x) // p)",
     ("tests/test_polytope.py::test_divisor_polytope_and_volume_match_oracles",)),
    ("polytope.py", "lcd ** (n + 1)", "lcd ** n",
     ("tests/test_polytope.py::test_divisor_polytope_and_volume_match_oracles",)),
    # a face is expanded on its first visit only, and a later visit rescales its weight by its reference
    # simplex, which holds the apex, weighs q[apex] as the face's sum does, and is stored with the whole sum
    ("polytope.py", "if face in memo:", "if False:", (ONCE,)),
    ("polytope.py", "return s * t2 // t, t2, ref", "return s, t2, ref", (PARITY,)),
    ("polytope.py", "(apex,) + part[2]", "part[2]", (PARITY,)),
    ("polytope.py", "memo[face] = q[apex] * s, t, ref", "memo[face] = s, t, ref", (PARITY,)),
    ("polytope.py", "t, ref = q[apex] * part[1]", "t, ref = part[1]", (PARITY,)),
    ("polytope.py", STORE, STORE.replace("        memo[face] = q[apex] * s, t, ref\n        return memo[face]\n",
                                         "        return q[apex] * s, t, ref\n").replace(
        "(apex,) + part[2]\n", "(apex,) + part[2]\n                memo[face] = q[apex] * s, t, ref\n"), (PARITY,)),
    # a polytope with an equation is flat, and its walk never starts
    ("polytope.py", "if not rows or full in (masks := ", "if not rows or -1 in (masks := ",
     ("tests/test_polytope.py::test_lower_dimensional_polytopes_have_zero_volume",)),
    # a divisor polytope's rows are sorted into its vertex order, each ray's key brought to the common denominator
    ("polytope.py", "rows = tuple(sorted(rays, key=lambda r: [x * (lcd // r[-1]) for x in r[:-1]]))",
     "rows = tuple(rays)", ("tests/test_polytope.py::test_divisor_polytope_rows_are_its_homogenized_vertices",)),
    ("polytope.py", "[x * (lcd // r[-1]) for x in r[:-1]]", "r[:-1]",
     ("tests/test_polytope.py::test_divisor_polytope_and_volume_match_oracles",)),
    # and the package divides no int by true division
    ("polytope.py", "(a * y - b * x) // p", "(a * y - b * x) / p",
     ("tests/test_exactness.py::test_the_package_holds_no_float_arithmetic",)),
    # a dual holds each lineality vector and its negation
    ("lattice.py", "gens.append(primitive(vneg(l)))", "gens.append(primitive(l))",
     ("tests/test_lattice.py::test_dual_cone_involution_and_oracle_random",)),
    # a cone's dimension is n less its equations, not its facet normals
    ("lattice.py", "len(self.halfspaces()[1])", "len(self.halfspaces()[0])",
     ("tests/test_lattice.py::test_dim_is_the_rank_of_the_generators",)),
    # a sample count is an int, not a float or a bool
    ("lattice.py", '    check_count(samples, "samples", cap=MAX_SAMPLES)\n', "    pass\n",
     ("tests/test_verify.py::test_sample_counts_that_are_not_ints_are_rejected",
      "tests/test_tower.py::test_lc_transfer_check_rejects_a_sample_count_that_is_not_an_int")),
    # the count rule: a bool is no count, and each site's least count and cap hold
    ("lattice.py", "if not _is_int(value):", "if not isinstance(value, int):", (COUNTS,)),
    ("lattice.py", "if value < low:", "if value < 0:", (COUNTS,)),
    ("lattice.py", "if cap is not None and value > cap:", "if False:", (COUNTS,)),
    # a value whose repr passes the int-to-str digit limit is named, not left to raise a bare ValueError
    ("lattice.py", '        return f"<{type(value).__name__} past the digit limit>"\n', "        raise\n", (COUNTS,)),
    # each fan constructor reads n by the count rule, and an unknown suite name is a LatticeError
    ("lattice.py", 'one ray."""\n    check_count(n, "n")\n', 'one ray."""\n', (COUNTS,)),
    ("lattice.py", 'without the last ray."""\n    check_count(n, "n")\n', 'without the last ray."""\n', (COUNTS,)),
    ("lattice.py", '    check_count(n, "n")\n    lineality = [', "    lineality = [", (COUNTS,)),
    ("verify.py", 'raise LatticeError(f"unknown suite', 'raise ValueError(f"unknown suite', (COUNTS,)),
    # a suite name is looked up in a tuple, so an unhashable one is unknown too, and named by _shown
    ("verify.py", "    if name in SUITES:", "    if name in suites:", (NOT_SEQUENCES + "[run_suite-list]",)),
    ("verify.py", "unknown suite {_shown(name)}", "unknown suite {name!r}", (NOT_SEQUENCES + "[run_suite-digits]",)),
    # a field that holds entries by position is a list or a tuple, and is named otherwise
    ("tower.py", "if not isinstance(moves, (list, tuple)):", "if False:", (NOT_SEQUENCES,)),
    ("tower.py", "            if loose:\n", "            if False:\n", (NOT_SEQUENCES,)),
    ("tower.py", "if not isinstance(germ.orders, (list, tuple)):", "if False:", (NOT_SEQUENCES,)),
    ("polytope.py", "if not isinstance(hyperplane_coefficients, (list, tuple)):", "if False:", (NOT_SEQUENCES,)),
    # a polytope reads its points as a sequence of sequences and its dimension by the count rule
    ("polytope.py", 'for v in _sequence(points, "points")', "for v in points", (NOT_SEQUENCES + "[polytope-none]",)),
    ("polytope.py", '_sequence(v, "point")', "v",
     (NOT_SEQUENCES + "[polytope-point-none]", NOT_SEQUENCES + "[polytope-point-number]")),
    ("polytope.py", '    check_count(n, "ambient dimension")\n', "",
     tuple(NOT_SEQUENCES + f"[polytope-dim-{kind}]" for kind in ("str", "none", "bool"))),
    ("lattice.py", "list(map(_integers, _sequence(vectors,", "list(map(tuple, _sequence(vectors,", (NOT_SEQUENCES,)),
    ("lattice.py", 'if not hasattr(values, "__iter__"):', "if False:", (NOT_SEQUENCES,)),
    # and an argument that holds vectors, rows, cones or divisor entries is read by that one rule
    ("lattice.py", 'gens = tuple(map(_integers, _sequence(generators, "generators")))',
     "gens = tuple(map(_integers, generators))", (NOT_SEQUENCES + "[cone-none]",)),
    ("lattice.py", 'for c in _sequence(cones, "cones"):', "for c in cones:", (NOT_SEQUENCES + "[fan-none]",)),
    ("lattice.py", 'vectors = list(map(_integers, _sequence(vectors, "vectors")))',
     "vectors = list(map(_integers, vectors))", (NOT_SEQUENCES + "[generated_by-none]",)),
    ("lattice.py", 'h = [_integers(row) for row in _sequence(m, "matrix")]', "h = [_integers(row) for row in m]",
     (NOT_SEQUENCES + "[hnf-none]",)),
    ("lattice.py", 'm = [_integers(row) for row in _sequence(m, "matrix")]', "m = [_integers(row) for row in m]",
     (NOT_SEQUENCES + "[kernel_basis-none]",)),
    ("toric.py", '_sequence(coefficients, "coefficients")', "coefficients", (NOT_SEQUENCES + "[divisor-number]",)),
    # hnf (so snf and kernel_basis) and the double description read each row by _integers; hnf names a ragged row
    ("lattice.py", "h = [_integers(row) for row in _sequence(", "h = [tuple(row) for row in _sequence(",
     (NOT_SEQUENCES + "[hnf-float]",)),
    ("lattice.py", "        if len(row) != nc:\n", "        if False:\n", (NOT_SEQUENCES + "[hnf-ragged]",)),
    ("lattice.py", "        a = _integers(a)\n", "        a = tuple(a)\n",
     (NOT_SEQUENCES + "[halfspace_intersection-float]",)),
    # kernel_basis checks each row against ncols, a divisor reads each ray by _integers, and a fan's cone is a Cone
    ("lattice.py", "        if len(row) != ncols:\n", "        if False:\n", (NOT_SEQUENCES + "[kernel_basis-short]",)),
    ("toric.py", "            ray = _integers(ray)\n", "            ray = tuple(ray)\n", (BAD_TORIC + "[float-ray]",)),
    # and reads each entry as a (ray, coefficient) pair
    ("toric.py", "if not isinstance(item, (list, tuple)) or len(item) != 2:", "if False:",
     (BAD_TORIC + "[str-entries]", BAD_TORIC + "[number-entries]")),
    ("toric.py", "if not isinstance(item, (list, tuple)) or len(item) != 2:", "if not isinstance(item, (list, tuple)):",
     (BAD_TORIC + "[short-entry]",)),
    ("lattice.py", "            if not isinstance(c, Cone):\n", "            if False:\n", (BAD_TORIC + "[list-cone]",)),
    # the DD returns the saturated kernel basis of its rows, not the basis it kept through the pass
    ("lattice.py", "    if lineality:\n        lineality = kernel_basis(tuple(processed), n)\n", "",
     ("tests/test_lattice.py::test_halfspace_intersection_lineality_is_a_saturated_basis_of_the_row_kernel",)),
    # a tower spec keeps its moves and exponents as tuples, and names a base_dim past the digit limit
    ("lattice.py", "tuple(v) if isinstance(v, list) else v", "v",
     ("tests/test_records.py::test_a_tower_spec_keeps_its_moves_and_exponents_as_tuples",)),
    ("tower.py", "base_dim {_shown(base_dim)} must be >= 1", "base_dim {base_dim} must be >= 1", RECORDS),
    # a sampled suite called directly applies the sample rule itself
    ("verify.py", 'reports the result."""\n    check_samples(samples)\n', 'reports the result."""\n',
     ("tests/test_verify.py::test_sampled_suites_called_directly_apply_the_sample_rule",)),
    # a level cone projects into a cone below and holds at most one fiber ray
    ("tower.py", "if len(fiber_rays) > 1:", "if len(fiber_rays) > 2:",
     ("tests/test_tower.py::test_torus_splitting_detects_bad_projection_and_fiber",)),
    ("tower.py", "if nonzero and prev.fan.cone_index(*nonzero) is None:", "if False:",
     ("tests/test_tower.py::test_torus_splitting_detects_bad_projection_and_fiber",)),
    # a valuation, a subdivision centre and a character are integer vectors
    ("toric.py", "    e = _integers(e)\n", "    e = tuple(e)\n", (BAD_TORIC,)),
    ("toric.py", "v = primitive(_integers(v))", "v = primitive(tuple(v))", (BAD_TORIC,)),
    ("toric.py", "    char = _integers(char)\n" + CHAR_LENGTH + "    return derived_fan",
     "    char = tuple(char)\n" + CHAR_LENGTH + "    return derived_fan", (BAD_TORIC,)),
    ("toric.py", "    char = _integers(char)\n" + CHAR_LENGTH + "    return ToricDivisor",
     "    char = tuple(char)\n" + CHAR_LENGTH + "    return ToricDivisor", (BAD_TORIC,)),
    # a fiber dimension and a polarization degree are counts
    ("polytope.py", '        check_count(fiber_dim, "fiber dimension", low=1, cap=DEFAULT_MAX_DIM)\n', "",
     RECORDS),
    # a polytope point is read by the rational rule, not by Fraction, which takes a float's binary expansion
    ("polytope.py", "tuple(map(_rational, _sequence(", "tuple(map(Fraction, _sequence(", (BAD_TORIC,)),
    # Cartier data and a divisor polytope take a divisor on their own fan, or on an equal one
    ("toric.py", "    _same_fan(fan, divisor)\n    n = fan.ambient_dim\n", "    n = fan.ambient_dim\n", (BAD_TORIC,)),
    ("polytope.py", "    _same_fan(fan, divisor)\n    n = fan.ambient_dim\n", "    n = fan.ambient_dim\n",
     ("tests/test_polytope.py::test_divisor_polytope_rejects_a_divisor_on_another_fan",)),
    ("toric.py", "if divisor.fan is not fan and divisor.fan != fan:", "if divisor.fan is not fan:",
     ("tests/test_toric.py::test_a_divisor_on_an_equal_fan_is_on_the_fan",)),
    # map-to-proj reports a top ray outside |P|
    ("cli.py", 'report.check(ok, "support"', 'report.check(True, "support"',
     ("tests/test_cli.py::test_map_to_proj_reports_a_top_ray_outside_the_support",)),
    # the one check rule: a failed check is not passed, and a skip is a check
    ("tower.py", "        if ok:\n            self.passed += 1\n",
     "        self.passed += 1\n        if ok:\n            pass\n", (PINNED,)),
    ("tower.py", "        self.checked += 1\n        self.add_skip(", "        self.add_skip(", (PINNED,)),
    # a tower with a violation fails its check, and each certified lc draw is a passed check
    ("verify.py", "        out.check(len(out.violations) == before)\n", "        out.check(True)\n",
     (PINNED,)),
    ("tower.py", "            certified += 1\n", "            pass\n",
     ("tests/test_tower.py::test_lc_check_matches_per_vector_oracle_on_random_towers",)),
    # a float coefficient is an error, not its binary expansion
    ("lattice.py", "if isinstance(value, Fraction) or _is_int(value):",
     "if isinstance(value, (Fraction, float)) or _is_int(value):", (BAD_TORIC, *RECORDS)),
    # a decimal is ASCII: `１` is no coefficient, though int() reads it
    ("lattice.py", "if digits.isascii() and digits.isdigit():", "if digits.isdigit():", (COEFFICIENTS,)),
    # a bad document is a LatticeError, which main reports with exit 2
    ("documents.py", "class TowerDocumentError(LatticeError):", "class TowerDocumentError(ValueError):",
     ("tests/test_cli.py::test_divisor_documents_follow_the_tower_document_rules",)),
    # suite_tower keeps every violation of its inner checks, not the first
    ("verify.py", "torus_splitting_check(model).violations + node_chart_dual_violations(model).violations:",
     "torus_splitting_check(model).violations[:1] + node_chart_dual_violations(model).violations[:1]:",
     (PINNED + "[suite_splitting]",)),
    ("verify.py", "for v in fan_validate(fan)]", "for v in fan_validate(fan)[:1]]", (PINNED + "[fan]",)),
    # Cartier data's forward substitution subtracts the solved terms, so K on a tower level is Cartier;
    # the K + C check before it solved the zero divisor, with no Hermite form, and missed this
    ("toric.py", "rhs = t * big_d[p] - sum(", "rhs = t * big_d[p] + sum(",
     ("tests/test_verify.py::test_suite_runs_clean[tower]",)),
    # and on the toric suite's simplicial cones, built without normals, that sign flip makes K + B fail to be
    # Q-Cartier: a violation, not a traceback
    ("toric.py", "rhs = t * big_d[p] - sum(", "rhs = t * big_d[p] + sum(", (PINNED + "[q_cartier]",)),
    # a cone that carries n normals and no equation is solved from them: each normal scaled by t over its
    # pairing with its own ray, only on n rays, and the per-ray check still catches a memo of another cone
    ("toric.py", "[d * (t // h) for h, d in pairs]", "[d * (t * h) for h, d in pairs]",
     (ROUTES, PINNED + "[q_cartier]")),
    ("toric.py", "zip(rays, big_d) if (h :=", "zip(rays, big_d[1:] + big_d[:1]) if (h :=", (ROUTES,)),
    ("toric.py", "not len(normals) == cone.ambient_dim == len(big_d)", "len(normals) != len(big_d)", (ROUTES,)),
    ("toric.py", "        if any(sum(map(mul, m, u)) != t * d for u, d in zip(rays, big_d)):\n", "        if False:\n",
     ("tests/test_toric.py::test_a_memo_of_another_cone_is_not_q_cartier_and_a_zero_normal_takes_the_hermite_form",)),
    # the kept model's key holds --max-rays (an int equal to every int drops it) and the digit limit,
    # and its build reads --max-dim
    ("cli.py", LOAD, LOAD.replace("args.max_rays", ANY_CAP), (LOWER_CAP,)),
    ("cli.py", LOAD, LOAD.replace("sys.get_int_max_str_digits()", "0"),
     ("tests/test_cli.py::test_a_lowered_digit_limit_reads_the_document_again",)),
    ("cli.py", "max_rays=max_rays, max_dim=max_dim)", "max_rays=max_rays)", (LOWER_CAP,)),
    # an orbit where both branch coordinates vanish is a node, and only a node entry carries the character
    ("tower.py", '"node" if mask & alpha and mask & alpha_prime', '"smooth_plain" if mask & alpha and mask & alpha_prime',
     ("tests/test_tower.py::test_local_model_matches_jacobian_oracle",)),
    ("cli.py", 'if kind == "node":', 'if kind != "smooth_on_section":', (LOCAL_MODEL_ORACLE,)),
    # a move's document type follows its record, and a node move names each of NodeMove's fields it lacks
    ("documents.py", '"product" if isinstance(move, ProductMove) else "node"', '"node"',
     ("tests/test_documents.py::test_round_trip_on_random_specs",)),
    ("documents.py", MISSING_FIELD, "", ("tests/test_documents.py::test_parse_missing_field_error",)),
    # an empty list, tuple or dict is written by _scalar without json.dumps, and a non-empty one is no scalar
    ("documents.py", "if type(x) in _EMPTY and not x:", "if type(x) in _EMPTY:", (EMITTER, TWO_INDENTS)),
    # the emitter keeps a flat value's text per indent, sorts each key set, separates the texts
    # of a list of lists by commas, and looks a record value up at its own indent
    ("documents.py", "memo = texts.setdefault(newline, {})", 'memo = texts.setdefault("\\n", {})', (TWO_INDENTS,)),
    ("documents.py", "keys = sorted(keys)", "keys = list(keys)",
     ("tests/test_documents.py::test_records_with_equal_and_different_key_sets",)),
    ("documents.py", "out += sep, text", "out.append(text)", (TWO_INDENTS,)),
    ("documents.py", "get = texts.setdefault(at, {}).get", "get = texts.setdefault(inner, {}).get", (TWO_INDENTS,)),
    # main keeps a parse per argv and digit limit, map-to-proj its projective part per (p, d), and the
    # inline lc draw takes 4 bits again on 11 as randrange(11) does
    ("cli.py", PARSE, PARSE.replace("sys.get_int_max_str_digits()", "0"),
     ("tests/test_cli.py::test_a_lowered_digit_limit_parses_an_argv_again",)),
    ("cli.py", PART, f'globals().setdefault("by_p", {{}}).setdefault(model.spec.base_dim, {PART})',
     ("tests/test_cli.py::test_map_to_proj_builds_the_projective_part_once_per_pair",)),
    ("tower.py", "while (r := bits(4)) >= 11:", "while (r := bits(4)) > 11:",
     ("tests/test_tower.py::test_lc_check_matches_per_vector_oracle_on_random_towers",)),
    # the inline cone draw takes n.bit_length() bits again on n, as randrange(n) does
    ("tower.py", "while (k := bits(width)) >= n:", "while (k := bits(width)) > n:",
     ("tests/test_tower.py::test_lc_draws_are_the_randrange_stream",)),
    # a piece of a star subdivision carries m_tau and, per maximal cut tau & F, the combination of
    # m_tau and m_F that vanishes on v; P^n's cones carry e_i - e_skip, and a product pads each factor's normals
    ("toric.py", "_primitive_combination(tau_v, m_f, f_v, m_tau)", "_primitive_combination(f_v, m_tau, tau_v, m_f)",
     (MEMOS,)),
    ("toric.py", "map(cuts.get, maximal_masks(cuts))", "cuts.values()", (MEMOS,)),
    ("toric.py", "sorted(ridges + [m_tau])", "sorted(ridges)", (MEMOS,)),
    # a piece's rays are read off its facet's mask over the fan's ray index, not by generator position;
    # test_toric builds its fan tables on first use, so its oracle test fails here rather than its collection
    ("toric.py", "[rays[i] for i in bit_indices(tau)]", "[cone.generators[i] for i in bit_indices(tau)]",
     ("tests/test_facet_net.py::test_star_subdivision_of_derived_level_fans_matches_oracle",
      "tests/test_toric.py::test_star_subdivision_matches_oracle")),
    ("lattice.py", "vadd(e, vneg(units[skip]))", "vadd(e, units[skip])", (MEMOS,)),
    ("lattice.py", "[m + zero_b for m in na] + [zero_a + m for m in nb]", "[zero_b + m for m in na] + [m + zero_a for m in nb]",
     (MEMOS,)),
    # a node move and a germ keep a list field as a tuple
    ("lattice.py", "if isinstance(v, list) else v", "if isinstance(v, tuple) else v",
     ("tests/test_records.py::test_a_node_move_or_a_germ_keeps_list_fields_as_tuples",)),
    # a kept level's key holds base_dim and the digit limit, a kept level meets the ray cap as a new one
    # does, and a level's heights are checked where it is built, not again when it is kept
    ("tower.py", KEY, "key = (spec.moves[:k], sys.get_int_max_str_digits())",
     ("tests/test_tower.py::test_towers_over_two_base_dimensions_share_no_level",)),
    ("tower.py", KEY, "key = (spec.base_dim, spec.moves[:k])", (KEPT_CAPS,)),
    ("tower.py", LOOKUP, "            if key in _LEVELS:\n                level = _LEVELS[key]\n"
     "                levels.append(level)\n                continue\n" + LOOKUP, (KEPT_CAPS,)),
    ("tower.py", LOOKUP + EVICT + RAY_CAP,
     "            kept = key in _LEVELS\n" + LOOKUP + EVICT + RAY_CAP.replace(":", " and not (k and kept):"),
     (KEPT_CAPS,)),
    ("tower.py", LOOKUP, LOOKUP + "            _check_digits(u[-1] for u in level.fan.all_rays)\n",
     ("tests/test_tower.py::test_a_second_build_builds_and_checks_no_level",)),
    # the kept parse's key holds the digit limit, on the build's path and on base-change's
    ("cli.py", "build_model(_spec_of(text, digit_limit)", "build_model(_spec_of(text, 0)",
     ("tests/test_cli.py::test_a_lowered_digit_limit_reads_the_document_again",)),
    ("cli.py", "_spec_of(_read_input(args.input), sys.get_int_max_str_digits())", "_spec_of(_read_input(args.input), 0)",
     ("tests/test_cli.py::test_a_lowered_digit_limit_reads_the_document_again",)),
    # a kept value's text is kept per indent
    ("documents.py", KEPT_TEXT, KEPT_TEXT.replace("[newline]", "[None]").replace("get(newline)", "get(None)"),
     ("tests/test_documents.py::test_a_kept_value_writes_the_text_of_each_indent",)),
    # suite_tower checks a level fan once, kept by the fan's id, not by its level
    ("verify.py", "key = id(fan)", "key = li", ("tests/test_verify.py::test_suite_tower_checks_each_distinct_level_fan_once",)),
    # log_discrepancy's kept solve is for one fan and one set of boundary coefficients
    ("toric.py", "if last_fan is not fan or last_coeffs != boundary._coeffs:", "if last_fan is not fan:",
     ("tests/test_toric.py::test_log_discrepancy_solves_k_plus_b_once_per_fan_and_boundary",)),
)


def run_selection(src, selection):
    """pytest's exit code on `selection` against the package in `src`, or
    None when it runs past TIMEOUT."""
    # no plugin from an entry point: no selection needs one, and Hypothesis's alone takes about a second to load
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
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

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import torictower.cli
from corpus import STRESS_TOWER
from oracles import local_model_report_oracle
from torictower.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VIOLATIONS, build_parser, main
from torictower.documents import TowerDocumentError, emit_tower, parse_divisor, random_tower
from torictower.lattice import Cone, Fan, LatticeError, orthant_fan
from torictower.polytope import ProjectiveDivisorData
from torictower.tower import (
    NodeMove,
    ProductMove,
    TowerLevel,
    TowerModel,
    TowerSpec,
    build_model,
    in_projective_support,
    projective_model,
)
from torictower.verify import random_towers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tower(tmp_path, text, name="tower.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SIMPLE = '{"base_dim": "1", "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": ["2"]}]}'


def test_random_then_build_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "t.json")
    code, _, _ = run_cli(capsys, "random", "--p", "2", "--d", "3", "--seed", "7", "--output", out_path)
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "build", "--input", out_path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["command"] == "build"
    assert doc["violations"] == []
    assert len(doc["data"]["levels"]) == 3


def test_fan_prints_levels(tmp_path, capsys):
    path = write_tower(tmp_path, SIMPLE)
    code, out, _ = run_cli(capsys, "fan", "--input", path, "--level", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    level = doc["data"]["levels"][0]
    assert level["ambient_dim"] == "2"
    assert [["1", "0"], ["1", "2"]] == level["rays"]


def test_map_to_proj_support(tmp_path, capsys):
    path = write_tower(tmp_path, SIMPLE)
    code, out, _ = run_cli(capsys, "map-to-proj", "--input", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["violations"] == []
    assert all(entry["supported"] for entry in doc["data"]["level_d_rays_in_support"])
    assert doc["data"]["identification"] == [["1", "0"], ["0", "1"]]


def test_map_to_proj_support_is_the_sign_test(tmp_path, capsys):
    """|P| = {x_1..x_p >= 0}: the sign test agrees with the support of the
    projective model's fan on every top ray, on the CLI's report, and on
    vectors with negative or zero x_1..x_p."""
    rng = random.Random(20261018)
    outcomes = set()
    for k, spec in enumerate(random_towers(60, 20261018)):
        fan = projective_model(spec)
        rays = build_model(spec).levels[-1].fan.all_rays
        path = write_tower(tmp_path, emit_tower(spec), f"t{k}.json")
        code, out, _ = run_cli(capsys, "map-to-proj", "--input", path)
        assert code == EXIT_OK
        entries = json.loads(out)["data"]["level_d_rays_in_support"]
        assert [entry["supported"] for entry in entries] == [fan.cone_index(r) is not None for r in rays]
        vectors = list(rays) + [tuple(rng.randint(-2, 2) for _ in range(fan.ambient_dim)) for _ in range(20)]
        vectors += [(0,) * spec.base_dim + r[spec.base_dim:] for r in rays]
        for v in vectors:
            got = in_projective_support(spec, v)
            assert got == (fan.cone_index(v) is not None), (spec, v)
            outcomes.add((got, min(v[: spec.base_dim])))
    assert {(True, 0), (False, -1)} <= outcomes


def test_map_to_proj_reports_a_top_ray_outside_the_support(tmp_path, capsys, monkeypatch):
    """A forged model whose top fan has a ray with x_1 < 0 is a "support"
    violation, exit 1; build_model never makes one."""
    forged = Fan(2, (Cone(2, ((-1, 0), (0, 1))),))
    monkeypatch.setattr(torictower.cli, "build_model",
                        lambda spec, **caps: TowerModel(spec, (TowerLevel(orthant_fan(1)), TowerLevel(forged))))
    code, out, _ = run_cli(capsys, "map-to-proj", "--input", write_tower(tmp_path, SIMPLE))
    assert code == EXIT_VIOLATIONS
    doc = json.loads(out)
    assert [v["kind"] for v in doc["violations"]] == ["support"]
    assert [e["supported"] for e in doc["data"]["level_d_rays_in_support"]] == [False, True]


def test_base_change_command(tmp_path, capsys):
    path = write_tower(
        tmp_path,
        '{"base_dim": "2", "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": ["1", "1"]}]}',
    )
    code, out, _ = run_cli(capsys, "base-change", "--input", path, "--orders", "1,1", "--on-boundary")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["base_dim"] == "1"
    assert doc["moves"][0]["t_exponents"] == ["2"]


def test_lc_check_command(tmp_path, capsys):
    path = write_tower(tmp_path, SIMPLE)
    code, out, _ = run_cli(capsys, "lc-check", "--input", path, "--samples", "10", "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["violations"] == []
    assert int(doc["counts"]["checked"]) >= 2


def test_local_model_command(tmp_path, capsys):
    path = write_tower(tmp_path, SIMPLE)
    code, out, _ = run_cli(capsys, "local-model", "--input", path, "--level", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    kinds = {tuple(map(tuple, c["rays"])): c["kind"] for c in doc["data"]["levels"][0]["cones"]}
    assert kinds[(("1", "0"), ("1", "2"))] == "node"
    assert kinds[()] == "smooth_plain"


@pytest.mark.parametrize("command, level", [("fan", "0"), ("fan", "3"), ("local-model", "1"), ("local-model", "3")])
def test_a_level_out_of_range_is_a_usage_error(command, level, tmp_path, capsys):
    path = write_tower(tmp_path, SIMPLE)  # depth 2: fan takes levels 1..2, local-model 2..2
    code, out, err = run_cli(capsys, command, "--input", path, "--level", level)
    assert code == EXIT_USAGE and out == "" and f"level {level} out of range" in err


PRODUCT_ONLY = TowerSpec(2, (ProductMove(), ProductMove()))
ZERO_TOP = TowerSpec(1, (NodeMove((), (-1,)),))  # the character has a pole on the only ray


def test_local_model_levels_match_the_face_by_face_oracle(tmp_path, capsys):
    assert build_model(ZERO_TOP).levels[-1].fan.all_rays == ()
    specs = [s for s in random_towers(60, 20261018) if s.depth > 1]
    kinds = set()
    for spec in specs + [STRESS_TOWER, PRODUCT_ONLY, ZERO_TOP]:
        path = write_tower(tmp_path, emit_tower(spec))
        code, out, _ = run_cli(capsys, "local-model", "--input", path)
        assert code == EXIT_OK
        levels = json.loads(out)["data"]["levels"]
        model = build_model(spec)
        assert levels == local_model_report_oracle(model, range(2, model.depth + 1))
        kinds.update(c["kind"] for level in levels for c in level["cones"])
    assert len(specs) > 40
    assert kinds == {"smooth_plain", "smooth_on_section", "node"}


def test_degree_and_volume_commands(tmp_path, capsys):
    path = write_tower(
        tmp_path,
        '{"fiber_dim": "2", "hyperplane_coefficients": ["1", "1", "1"], "polarization": "1"}',
        name="div.json",
    )
    code, out, _ = run_cli(capsys, "degree", "--input", path)
    assert code == EXIT_OK and json.loads(out)["data"]["relative_degree"] == "3"
    code, out, _ = run_cli(capsys, "volume", "--input", path)
    assert code == EXIT_OK and json.loads(out)["data"]["relative_volume"] == "9"


@pytest.mark.parametrize("command, value", [("degree", "9"), ("volume", "81/4")])
def test_degree_and_volume_reports_byte_for_byte(command, value, tmp_path, capsys):
    """The whole canonical report, not only `data`: sum of coefficients 9/2,
    polarization 2, fiber P^2, so degree 2 * 9/2 and volume (9/2)^2."""
    path = write_tower(
        tmp_path,
        '{"fiber_dim": "2", "hyperplane_coefficients": ["1/2", "1", "3"], "polarization": "2"}',
        name="div.json",
    )
    code, out, _ = run_cli(capsys, command, "--input", path, "--seed", "5")
    assert code == EXIT_OK
    assert out == (
        "{\n"
        f'  "command": "{command}",\n'
        '  "counts": {\n    "checked": "1",\n    "passed": "1",\n    "skipped": "0"\n  },\n'
        f'  "data": {{\n    "relative_{command}": "{value}"\n  }},\n'
        '  "seed": "5",\n'
        '  "violations": []\n'
        "}\n"
    )


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "basechange", "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["command"] == "verify:basechange"
    assert doc["violations"] == []


@pytest.mark.parametrize("argv", [["random", "--p", "1", "--d", "2"], ["verify", "--suite", "volume"]])
def test_unwritable_output_is_a_usage_error(argv, tmp_path, capsys):
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path))  # a directory
    assert code == EXIT_USAGE and out == "" and err.startswith("error:")


def test_output_dash_writes_the_report_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a file named "-" would land
    path = write_tower(tmp_path, SIMPLE)
    want = run_cli(capsys, "build", "--input", path)
    assert want[0] == EXIT_OK and want[1].startswith("{")
    assert run_cli(capsys, "build", "--input", path, "--output", "-") == want
    assert not (tmp_path / "-").exists()


def test_parse_error_exit_code(tmp_path, capsys):
    path = write_tower(tmp_path, "{broken", name="bad.json")
    code, _, err = run_cli(capsys, "build", "--input", path)
    assert code == EXIT_USAGE
    assert "malformed" in err


def test_schema_error_exit_code(tmp_path, capsys):
    path = write_tower(
        tmp_path,
        '{"base_dim": "1", "moves": [{"type": "node", "alpha_exponents": ["1"], "t_exponents": ["1"]}]}',
        name="bad.json",
    )
    code, _, err = run_cli(capsys, "build", "--input", path)
    assert code == EXIT_USAGE
    assert "invalid tower" in err


def test_a_base_dim_below_one_is_a_usage_error(tmp_path, capsys):
    path = write_tower(tmp_path, '{"base_dim": "0", "moves": []}', name="bad.json")
    code, out, err = run_cli(capsys, "build", "--input", path)
    assert code == EXIT_USAGE and out == ""
    assert "invalid tower: base_dim 0 must be >= 1" in err


def test_resource_cap_exit_code(tmp_path, capsys):
    path = write_tower(
        tmp_path,
        '{"base_dim": "3", "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": ["1", "1", "1"]}]}',
    )
    code, _, err = run_cli(capsys, "build", "--input", path, "--max-rays", "2")
    assert code == EXIT_RESOURCE
    assert "cap" in err


@pytest.mark.parametrize("command", ["build", "degree"])
@pytest.mark.parametrize(
    "text",
    [
        # a bare integer over the interpreter's int-to-str digit limit: ValueError
        '{"base_dim": %s, "fiber_dim": %s, "moves": []}' % ("1" * 5000, "1" * 5000),
        # nesting deeper than the recursion limit: RecursionError
        "[" * 200_000 + "]" * 200_000,
    ],
    ids=["long-integer", "deep-nesting"],
)
def test_undecodable_json_is_a_usage_error(command, text, tmp_path, capsys):
    path = write_tower(tmp_path, text, name="bad.json")
    code, out, err = run_cli(capsys, command, "--input", path)
    assert code == EXIT_USAGE and out == "" and err.startswith("error: malformed document")


def test_oversized_degree_or_volume_is_a_cap(tmp_path, capsys):
    big = "1" * 500
    for command, doc in (
        ("volume", {"fiber_dim": "11", "hyperplane_coefficients": ["2"]}),  # over DEFAULT_MAX_DIM
        ("degree", {"fiber_dim": "11", "hyperplane_coefficients": ["2"]}),
        ("volume", {"fiber_dim": "10", "hyperplane_coefficients": [big]}),  # 4,991 digits
        ("degree", {"fiber_dim": "10", "hyperplane_coefficients": ["1"], "polarization": big}),
    ):
        path = write_tower(tmp_path, json.dumps(doc), name="div.json")
        code, out, err = run_cli(capsys, command, "--input", path)
        assert code == EXIT_RESOURCE and out == "" and err.startswith("resource cap:"), (command, doc)
    path = write_tower(tmp_path, '{"fiber_dim": "10", "hyperplane_coefficients": ["2"]}', name="div.json")
    code, out, _ = run_cli(capsys, "volume", "--input", path)
    assert code == EXIT_OK and json.loads(out)["data"]["relative_volume"] == "1024"


def test_infinite_fiber_dim_is_a_usage_error(tmp_path, capsys):
    path = write_tower(tmp_path, '{"fiber_dim": 1e400, "hyperplane_coefficients": ["1"]}', name="div.json")
    code, out, err = run_cli(capsys, "degree", "--input", path)
    assert code == EXIT_USAGE and out == "" and err.startswith("error: bad divisor data")


# each coefficient spelling and the rational it stands for, or None where it is rejected
COEFFICIENT_SPELLINGS = (
    ("1", 1), ("-3", -3), ("+7", 7), ("0", 0), ("-0", 0), ("00012", 12), (2, 2), (-5, -5), (0, 0),
    ("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)), ("+1/-2", Fraction(-1, 2)), ("6/4", Fraction(3, 2)),
    ("0/5", 0), ("-0/3", 0), ("9" * 4300, int("9" * 4300)), ("1/" + "9" * 4300, Fraction(1, int("9" * 4300))),
    # a zero denominator, a slash too many or too few, and no digits
    ("1/0", None), ("0/0", None), ("1/-0", None), ("1/2/3", None), ("2/", None), ("/2", None), ("/", None),
    ("", None), (" ", None), ("+", None), ("-", None), ("+-1", None), ("--1", None),
    # spaces, digit groups, other bases, exponents, decimals and non-ASCII digits
    ("1 ", None), (" 1", None), ("1\n", None), ("1_0", None), ("1_0/2", None), ("0x10", None), ("1e3", None),
    ("1E2", None), ("1e1000000", None), ("1e1000000000", None), ("0.5", None), (".5", None), ("1.", None),
    ("1/2.0", None), ("inf", None), ("nan", None), ("\uff11", None), ("\u0661", None), ("\u00b2", None),
    ("\u00bd", None), ("1/\uff12", None),
    # past the int-to-str digit limit, in the numerator or the denominator
    ("1" * 5000, None), ("1/" + "1" * 5000, None), ("1" * 5000 + "/1", None),
    # JSON values that are not integers or strings
    (0.5, None), (2.0, None), (-0.0, None), (True, None), (False, None), (None, None), ([1], None), ({"a": 1}, None),
)


def test_divisor_coefficients_are_integers_or_fraction_strings(tmp_path, capsys):
    """A bare integer or a `p` or `p/q` string of ASCII decimals.  Exponent
    notation would build a huge integer before any cap, and decimals are not
    in the format: both are bad divisor data, at once.  The library record,
    the document parser and the `degree` command read one table alike."""
    for spelling, value in COEFFICIENT_SPELLINGS:
        doc = json.dumps({"fiber_dim": "2", "hyperplane_coefficients": [spelling]})
        code, out, err = run_cli(capsys, "degree", "--input", write_tower(tmp_path, doc, name="div.json"))
        if value is None:
            with pytest.raises(LatticeError, match="is not an int, a Fraction or a decimal string"):
                ProjectiveDivisorData(2, (spelling,))
            with pytest.raises(TowerDocumentError, match="^bad divisor data: "):
                parse_divisor(doc)
            assert code == EXIT_USAGE and out == "" and err.startswith("error: bad divisor data"), spelling
        else:
            assert ProjectiveDivisorData(2, (spelling,)).hyperplane_coefficients == (value,), spelling
            assert parse_divisor(doc).hyperplane_coefficients == (value,), spelling
            assert code == EXIT_OK and json.loads(out)["data"]["relative_degree"] == str(Fraction(value)), spelling
    path = write_tower(tmp_path, '{"fiber_dim": "2", "hyperplane_coefficients": ["1/2", "-3", 2]}', name="div.json")
    code, out, _ = run_cli(capsys, "degree", "--input", path)
    assert code == EXIT_OK and json.loads(out)["data"]["relative_degree"] == "-1/2"


def test_divisor_documents_follow_the_tower_document_rules(tmp_path, capsys):
    """fiber_dim and polarization are document integers and the coefficients
    a list: a float, bool, null, list or non-ASCII-decimal string is bad
    divisor data (exit 2), never truncated, iterated or a traceback."""
    good = {"fiber_dim": "2", "hyperplane_coefficients": ["1", "1"]}
    for field, value in (
        ("fiber_dim", 2.7),
        ("fiber_dim", True),
        ("fiber_dim", [2]),
        ("fiber_dim", None),
        ("fiber_dim", "\uff12"),
        ("fiber_dim", "1_0"),
        ("polarization", 3.9),
        ("polarization", " 2\n"),
        ("hyperplane_coefficients", "123"),
        ("hyperplane_coefficients", {"1": "2"}),
        ("hyperplane_coefficients", 5),
        ("hyperplane_coefficients", [" 1_0 "]),
        ("hyperplane_coefficients", ["1_0/2"]),
    ):
        path = write_tower(tmp_path, json.dumps({**good, field: value}), name="div.json")
        for command in ("degree", "volume"):
            code, out, err = run_cli(capsys, command, "--input", path)
            assert code == EXIT_USAGE and out == "" and err.startswith("error: bad divisor data"), (field, value)
    # "vertical" is not part of the document: like any unknown key, it is ignored
    path = write_tower(tmp_path, json.dumps({**good, "vertical": True}), name="div.json")
    code, out, _ = run_cli(capsys, "degree", "--input", path)
    assert code == EXIT_OK and json.loads(out)["data"]["relative_degree"] == "2"
    # an infinite fiber_dim stays a bad document, a 4,991-digit volume a cap
    path = write_tower(tmp_path, '{"fiber_dim": 1e400, "hyperplane_coefficients": ["1"]}', name="div.json")
    assert run_cli(capsys, "degree", "--input", path)[0] == EXIT_USAGE
    path = write_tower(tmp_path, json.dumps({"fiber_dim": "10", "hyperplane_coefficients": ["1" * 500]}), name="div.json")
    assert run_cli(capsys, "volume", "--input", path)[0] == EXIT_RESOURCE


def test_reports_are_byte_deterministic(tmp_path, capsys):
    outputs = []
    for name in ("a.json", "b.json"):
        out_path = str(tmp_path / name)
        code = main(["verify", "--suite", "basechange", "--seed", "11", "--output", out_path])
        assert code == EXIT_OK
        outputs.append((tmp_path / name).read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_reports_embed_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "volume", "--seed", "123")
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == "123"


def test_max_dim_cap_exit_code(tmp_path, capsys):
    # base_dim 2 and depth 2: the top level has ambient dimension 3
    path = write_tower(
        tmp_path,
        '{"base_dim": "2", "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": ["1", "1"]}]}',
    )
    for command in ("build", "fan", "map-to-proj", "lc-check", "local-model"):
        code, out, err = run_cli(capsys, command, "--input", path, "--max-dim", "2")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == "resource cap: tower ambient dimension 3 exceeds cap 2\n"
        code, _, _ = run_cli(capsys, command, "--input", path, "--max-dim", "3")
        assert code == EXIT_OK


def _run(argv, capsys, tmp_path):
    """(exit code, stdout, stderr, --output file text) of one main call;
    SystemExit from argparse counts as the exit code."""
    out_path = tmp_path / "out.json"
    if out_path.exists():
        out_path.unlink()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return code, captured.out, captured.err, written


def _parser_calls(path, out_path):
    """argv lists over most subcommands, with their defaults and their flags."""
    return [
        ["lc-check", "--input", path, "--samples", "7", "--seed", "5", "--timing"],
        ["lc-check", "--input", path],
        ["fan", "--input", path, "--level", "2", "--output", out_path],
        ["fan", "--input", path],
        ["local-model", "--input", path, "--level", "2", "--seed", "9"],
        ["local-model", "--input", path],
        ["base-change", "--input", path, "--orders", "1", "--on-boundary"],
        ["base-change", "--input", path, "--orders", "0", "--off-boundary"],
        ["build", "--input", path, "--max-rays", "1"],
        ["build", "--input", path],
        ["verify", "--suite", "basechange", "--seed", "3", "--samples", "4"],
        ["verify", "--suite", "volume"],
        ["random", "--p", "2", "--d", "3", "--seed", "7", "--max-exponent", "2"],
        ["random", "--p", "1", "--d", "2"],
    ]


def test_parser_is_reused_without_carrying_state(tmp_path, capsys):
    path = write_tower(tmp_path, SIMPLE)
    calls = _parser_calls(path, str(tmp_path / "out.json"))
    shared = build_parser()
    assert build_parser() is shared
    fresh = []
    for argv in calls:  # each call on a newly built parser
        build_parser.cache_clear()
        fresh.append(_run(argv, capsys, tmp_path))
    build_parser.cache_clear()
    shared = build_parser()
    for argv, want in zip(calls, fresh):  # the same calls on one parser
        assert vars(shared.parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))
        got = _run(argv, capsys, tmp_path)
        if "--timing" in argv:
            assert '"elapsed_ms"' in got[1]
            got, want = got[0], want[0]
        assert got == want, argv
    assert build_parser() is shared
    # defaults come back: 2 rays + 50 samples, seed 0, every level, stdout
    assert json.loads(fresh[1][1])["counts"]["checked"] == "52"
    assert json.loads(fresh[1][1])["seed"] == "0"
    assert fresh[2][1] == "" and json.loads(fresh[2][3])["data"]["levels"][0]["level"] == "2"
    assert len(json.loads(fresh[3][1])["data"]["levels"]) == 2 and fresh[3][3] is None
    assert json.loads(fresh[6][1]) != json.loads(fresh[7][1])
    assert (fresh[8][0], fresh[9][0]) == (EXIT_RESOURCE, EXIT_OK)


def test_a_subcommand_parses_its_own_arguments():
    """main hands argv[1:] to the subcommand's parser; that parse is the
    top-level one without `command`, for every subcommand."""
    parser = build_parser()
    argvs = _parser_calls("tower.json", "out.json") + [
        ["map-to-proj", "--input", "-", "--max-dim", "4", "--max-rays", "9", "--timing"],
        ["degree", "--input", "divisor.json", "--seed", "2"],
        ["volume", "--timing", "--output", "-"],
        ["verify"],
        ["base-change", "--orders", "1,2", "--off-boundary"],
    ] + [[a.replace("{tower}", "t.json").replace("{}", good) for a in argv] for argv, good in INTEGER_FLAGS]
    assert {argv[0] for argv in argvs} == set(parser.commands)
    for argv in argvs:
        top = vars(parser.parse_args(argv))
        assert top.pop("command") == argv[0]
        assert vars(parser.commands[argv[0]].parse_args(argv[1:])) == top, argv


@pytest.mark.parametrize("command", ["build", "lc-check", "verify"])
def test_an_unrecognized_flag_is_reported_by_its_subcommand(command, tmp_path, capsys):
    code, out, err, written = _run([command, "--no-such-flag", "7"], capsys, tmp_path)
    assert (code, out, written) == (EXIT_USAGE, "", None)
    assert err.startswith(f"usage: torictower {command} ")
    assert err.endswith(f"torictower {command}: error: unrecognized arguments: --no-such-flag 7\n")


UNREAD_FLAGS = [  # flags no handler of the command reads, so none is accepted
    (command, flag)
    for command in ("degree", "volume", "random", "base-change", "verify")
    for flag in ("--max-dim", "--max-rays")
] + [("random", "--timing"), ("base-change", "--timing"), ("base-change", "--seed")]
COMMAND_ARGS = {"random": ["--p", "1", "--d", "1"], "base-change": ["--orders", "1", "--on-boundary"]}


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flags_are_usage_errors(command, flag, tmp_path, capsys):
    extra = [flag] if flag == "--timing" else [flag, "3"]
    code, out, err, written = _run([command, *COMMAND_ARGS.get(command, []), *extra], capsys, tmp_path)
    assert (code, out, written) == (EXIT_USAGE, "", None)
    assert f"unrecognized arguments: {' '.join(extra)}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        ["lc-check", "--help"],
        ["verify", "-h"],
        ["base-change", "--help"],
        [],
        ["no-such-command"],
        ["lc-check", "--samples", "many"],
        ["base-change", "--orders", "1", "--on-boundary", "--off-boundary"],
        ["verify", "--suite", "nope"],
    ],
)
def test_help_and_usage_errors_match_a_fresh_parser(argv, tmp_path, capsys):
    main(["verify", "--suite", "volume", "--seed", "1"])  # the shared parser has run
    capsys.readouterr()
    got = _run(argv, capsys, tmp_path)
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args(argv)
    captured = capsys.readouterr()
    assert got == (exc.value.code, captured.out, captured.err, None)
    helps = "--help" in argv or "-h" in argv
    assert got[0] == (0 if helps else EXIT_USAGE)
    assert got[1 if helps else 2].startswith("usage: torictower")


NOT_DECIMAL = ["２", "1_0", "5_0_0", " 2", "2\n", "+", "0x10", "2.0"]  # int() reads the first five
INTEGER_FLAGS = [  # (argv with {} for the value, a value every command accepts)
    (["random", "--p", "{}", "--d", "2"], "2"),
    (["random", "--p", "2", "--d", "{}"], "2"),
    (["random", "--p", "2", "--d", "2", "--seed", "{}"], "10"),
    (["random", "--p", "2", "--d", "2", "--max-exponent", "{}"], "2"),
    (["fan", "--input", "{tower}", "--level", "{}"], "2"),
    (["fan", "--input", "{tower}", "--max-rays", "{}"], "500"),
    (["build", "--input", "{tower}", "--max-dim", "{}"], "6"),
    (["local-model", "--input", "{tower}", "--level", "{}"], "2"),
    (["lc-check", "--input", "{tower}", "--samples", "{}"], "0"),
    (["verify", "--suite", "volume", "--samples", "{}"], "0"),
    (["base-change", "--input", "{tower}", "--orders", "{},1", "--on-boundary"], "1"),
]


@pytest.mark.parametrize("argv, good", INTEGER_FLAGS)
def test_integer_flags_follow_the_document_integer_rule(argv, good, tmp_path, capsys):
    """Every integer flag, and each --orders entry, is ASCII [+-]?[0-9]+ as in
    a document: `int` would read non-ASCII digits, underscores and spaces."""
    tower = write_tower(tmp_path, emit_tower(TowerSpec(2, (ProductMove(), ProductMove()))))

    def fill(value):
        return [a.replace("{tower}", tower).replace("{}", value) for a in argv]

    assert _run(fill(good), capsys, tmp_path)[0] == EXIT_OK
    for value in NOT_DECIMAL:
        code, out, err, _ = _run(fill(value), capsys, tmp_path)
        assert (code, out) == (EXIT_USAGE, ""), value
        assert "is not a decimal integer" in err, value


def test_negative_sample_counts_are_usage_errors(tmp_path, capsys):
    """--samples -7 used to check only the rays, and verify ran none of its
    sampled checks; --samples 0 still runs, with no samples."""
    path = write_tower(tmp_path, SIMPLE)
    for argv in (["lc-check", "--input", path], ["verify", "--suite", "kernel"], ["verify", "--suite", "all"]):
        code, out, err, _ = _run([*argv, "--samples", "-1"], capsys, tmp_path)
        assert (code, out) == (EXIT_USAGE, "") and "samples must be >= 0" in err, argv
    code, out, _, _ = _run(["lc-check", "--input", path, "--samples", "0"], capsys, tmp_path)
    assert code == EXIT_OK and json.loads(out)["counts"]["checked"] == "2"  # the two rays


def test_importing_the_cli_loads_every_module_the_benchmark_reads():
    """The benchmark imports only `torictower.cli`, then reads the `verify` and
    `polytope` modules from `sys.modules` and traces `torictower.fan_validate`:
    `cli` must import every module at load time, not inside its commands."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    probe = (
        "import json, sys, torictower, torictower.cli, torictower.lattice\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('torictower.')),\n"
        "                  torictower.fan_validate is torictower.lattice.fan_validate]))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    modules, same = json.loads(out.stdout)
    names = ("cli", "documents", "lattice", "polytope", "toric", "tower", "verify")
    assert {f"torictower.{name}" for name in names} <= set(modules)
    assert same is True


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """Every CLI process pays the import: the records are named tuples and
    plain classes, so `dataclasses` and the `inspect` it pulls in stay out."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import torictower.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    added = set(json.loads(out.stdout))
    assert "torictower.cli" in added
    assert not added & {"dataclasses", "inspect"}


# The cli keeps the model of the last tower document it built: every command
# in a row on one document parses and builds it once (base-change reads no
# model and parses its document each time).  Each test starts with the cache
# empty (tests/conftest.py).


def _counted(monkeypatch, name):
    """The list of calls the cli makes through its binding `name`."""
    calls, real = [], getattr(torictower.cli, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(torictower.cli, name, counting)
    return calls


MODEL_COMMANDS = [["build"], ["fan"], ["map-to-proj"], ["local-model"], ["lc-check"],
                  ["base-change", "--orders", "1", "--on-boundary"]]


def test_commands_in_a_row_on_one_document_parse_and_build_it_once(tmp_path, capsys, monkeypatch):
    builds, parses = _counted(monkeypatch, "build_model"), _counted(monkeypatch, "parse_tower")
    path, copy = write_tower(tmp_path, SIMPLE), write_tower(tmp_path, SIMPLE, "copy.json")
    for argv in MODEL_COMMANDS:
        alone = run_cli(capsys, *argv, "--input", path)
        assert alone[0] == EXIT_OK
        assert run_cli(capsys, *argv, "--input", copy) == alone  # the key is the text, not the path
    assert (len(builds), len(parses)) == (1, 1)  # base-change reads the parse the load made


def test_a_new_text_or_cap_builds_again(tmp_path, capsys, monkeypatch):
    builds, parses = _counted(monkeypatch, "build_model"), _counted(monkeypatch, "parse_tower")
    path = write_tower(tmp_path, SIMPLE)
    other = write_tower(tmp_path, SIMPLE.replace('"2"', '"3"'), "other.json")
    steps = [  # (argv, builds, parses): a new cap builds the parsed text again
        ([path], 1, 1),
        ([other], 2, 2),
        ([path], 3, 3),
        ([path, "--max-rays", "9"], 4, 3),
        ([path, "--max-rays", "9", "--max-dim", "9"], 5, 3),
        ([path, "--max-rays", "9", "--max-dim", "9", "--seed", "4"], 5, 3),  # the seed is no part of a build
    ]
    for argv, loads, reads in steps:
        assert run_cli(capsys, "build", "--input", *argv)[0] == EXIT_OK
        assert (len(builds), len(parses)) == (loads, reads), argv
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(641 if saved == 640 else 640)
    try:
        assert run_cli(capsys, "build", "--input", path)[0] == EXIT_OK
    finally:
        sys.set_int_max_str_digits(saved)
    assert (len(builds), len(parses)) == (6, 4)


def test_a_lowered_digit_limit_reads_the_document_again(tmp_path, capsys):
    """A 701-digit exponent parses under the default int-to-str digit limit
    and is a bad document under 640 digits, though the text is the same."""
    path = write_tower(tmp_path, SIMPLE.replace('"2"', '"1' + "0" * 700 + '"'))
    saved = sys.get_int_max_str_digits()
    for argv in (["build"], ["base-change", "--orders", "1", "--on-boundary"]):
        assert run_cli(capsys, *argv, "--input", path)[0] == EXIT_OK
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, *argv, "--input", path)
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, out) == (EXIT_USAGE, "") and "is not a decimal integer" in err, argv


def test_a_lower_cap_right_after_a_default_run_is_a_cap(tmp_path, capsys):
    """The stress tower (104 top rays, ambient dimension 10) passes the
    default caps and fails --max-rays 5 and --max-dim 9 right after."""
    path = write_tower(tmp_path, emit_tower(STRESS_TOWER))
    for command in ("build", "lc-check"):
        for cap, message in ((["--max-rays", "5"], "rays, exceeding cap 5"),
                             (["--max-dim", "9"], "tower ambient dimension 10 exceeds cap 9")):
            assert run_cli(capsys, command, "--input", path)[0] == EXIT_OK
            code, out, err = run_cli(capsys, command, "--input", path, *cap)
            assert (code, out) == (EXIT_RESOURCE, "") and message in err, (command, cap)


def test_a_document_that_fails_fails_again(tmp_path, capsys, monkeypatch):
    builds, parses = _counted(monkeypatch, "build_model"), _counted(monkeypatch, "parse_tower")
    over = write_tower(tmp_path, '{"base_dim": "3", "moves": []}')
    bad = write_tower(tmp_path, '{"base_dim": "0", "moves": []}', "bad.json")
    for _ in range(2):
        assert run_cli(capsys, "build", "--input", over, "--max-rays", "2")[:2] == (EXIT_RESOURCE, "")
        for argv in MODEL_COMMANDS:
            assert run_cli(capsys, *argv, "--input", bad)[:2] == (EXIT_USAGE, ""), argv
    # the capped build failed twice on its one parse; the bad document failed to parse twice per command
    assert (len(builds), len(parses)) == (2, 1 + 2 * len(MODEL_COMMANDS))


# main keeps each argv's parsed arguments per int-to-str digit limit, and
# map-to-proj the projective part per (p, d): in-process callers repeat both.


def _clear_cli_caches():
    for cache in (torictower.cli._spec_of, torictower.cli._model_of, torictower.cli._parsed,
                  torictower.cli._projective_part):
        cache.cache_clear()


def test_each_distinct_argv_is_parsed_once(tmp_path, capsys, monkeypatch):
    parses, real = [], argparse.ArgumentParser.parse_args

    def counting(self, args=None, namespace=None):
        parses.append((self.prog, *args))
        return real(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting)
    paths = [write_tower(tmp_path, SIMPLE), write_tower(tmp_path, SIMPLE.replace('"2"', '"3"'), "other.json"),
             write_tower(tmp_path, emit_tower(TowerSpec(2, (ProductMove(), NodeMove((1,), (1, -1))))), "third.json")]
    argvs = [[command, "--input", path] for path in paths
             for command in ("build", "fan", "map-to-proj", "lc-check", "local-model")]
    first = [run_cli(capsys, *argv) for argv in argvs]
    assert {code for code, _, _ in first} == {EXIT_OK}
    for _ in range(2):
        assert [run_cli(capsys, *argv) for argv in reversed(argvs)] == first[::-1]
    assert sorted(parses) == sorted((f"torictower {argv[0]}", *argv[1:]) for argv in argvs)


@pytest.mark.parametrize("argv", [["--help"], ["lc-check", "--help"], [], ["no-such-command"],
                                  ["lc-check", "--samples", "many"], ["build", "--no-such-flag"]])
def test_a_usage_error_or_help_prints_again_on_every_call(argv, tmp_path, capsys):
    first = _run(argv, capsys, tmp_path)
    assert first[0] == (0 if "--help" in argv else EXIT_USAGE)
    assert first[1 if "--help" in argv else 2].startswith("usage: torictower")
    assert _run(argv, capsys, tmp_path) == first
    assert torictower.cli._parsed.cache_info().currsize == 0


def test_a_lowered_digit_limit_parses_an_argv_again(tmp_path, capsys):
    """A 701-digit seed is an integer flag under the default int-to-str digit
    limit and a usage error under 640 digits, though the argv is the same."""
    argv = ["lc-check", "--input", write_tower(tmp_path, SIMPLE), "--seed", "1" + "0" * 700]
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        assert _run(argv, capsys, tmp_path)[0] == EXIT_OK
        sys.set_int_max_str_digits(640)
        code, out, err, _ = _run(argv, capsys, tmp_path)
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, out) == (EXIT_USAGE, "") and "is not a decimal integer" in err


def test_map_to_proj_builds_the_projective_part_once_per_pair(tmp_path, capsys, monkeypatch):
    calls = _counted(monkeypatch, "projective_model")
    pairs = [(p, d) for p in range(1, 4) for d in range(1, 6)]
    docs = [(p, d, write_tower(tmp_path, emit_tower(random_tower(p, d, 3, seed)), f"t{p}{d}{seed}.json"))
            for seed in (1, 2) for p, d in pairs]
    warm = [run_cli(capsys, "map-to-proj", "--input", path) for _, _, path in docs]
    assert sorted((spec.base_dim, spec.depth) for spec, in calls) == pairs
    for (p, d, path), got in zip(docs, warm):
        _clear_cli_caches()
        assert got[0] == EXIT_OK and run_cli(capsys, "map-to-proj", "--input", path) == got
        fan = projective_model(TowerSpec(p, (ProductMove(),) * (d - 1)))
        data = json.loads(got[1])["data"]
        assert data["fan"]["rays"] == [list(map(str, r)) for r in fan.all_rays], (p, d)
        assert len(data["identification"]) == p + d - 1

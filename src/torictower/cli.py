"""Command-line surface: one document in, one report out.

Commands: build, fan, map-to-proj, base-change, lc-check, local-model,
volume, degree, random, verify.  Documents and reports are canonical JSON
with integers (and rationals) as decimal strings.  Exit codes: 0 success,
1 violations, 2 usage or parse error, 3 resource cap exceeded.
"""

import argparse
import functools
import sys
import time

from .documents import (
    Report,
    TowerDocumentError,
    _Kept,
    emit_tower,
    parse_divisor,
    parse_int,
    parse_tower,
    random_tower,
)
from .lattice import DEFAULT_MAX_DIM, DEFAULT_MAX_RAYS, LatticeError, ResourceCapError, bit_indices, check_samples
from .polytope import relative_degree_on_P, relative_volume_on_P
from .tower import (
    CurveGermData,
    ProductMove,
    TowerSpec,
    base_change_to_curve,
    build_model,
    in_projective_support,
    lc_place_transfer_check,
    orbit_classifier,
    projective_model,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read_input(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fan_document(fan):  # every fan written here lists its cones' rays in lex order
    return {
        "ambient_dim": fan.ambient_dim,
        "rays": fan.all_rays,
        "maximal_cones": [bit_indices(top) for top in fan.tops],
    }


@functools.lru_cache(maxsize=1)
def _spec_of(text, digit_limit):
    """The spec of the last tower document parsed, so that commands run one
    after another on one document, base-change too, parse it once; keyed on
    the text and the int-to-str digit limit it reads.  A failure is not kept."""
    return parse_tower(text)


@functools.lru_cache(maxsize=1)
def _model_of(text, max_rays, max_dim, digit_limit):
    """The model of the last tower document built, so that commands run one
    after another in one process on one document build it once.  The key is
    everything a load reads: the text, both caps and the int-to-str digit
    limit, which the parse and build_model's digit check read.  A failed
    parse or build is not kept and raises again.  Every handler shares the
    model, so none may mutate it."""
    return build_model(_spec_of(text, digit_limit), max_rays=max_rays, max_dim=max_dim)


def _load_model(args):
    return _model_of(_read_input(args.input), args.max_rays, args.max_dim, sys.get_int_max_str_digits())


def cmd_build(args):
    model = _load_model(args)
    levels = [{"ambient_dim": level.fan.ambient_dim, "ray_count": len(level.fan.all_rays),
               "maximal_cone_count": len(level.fan.maximal_cones)} for level in model.levels]
    data = {"base_dim": model.spec.base_dim, "depth": model.depth, "levels": levels}
    return Report(command="build", seed=args.seed, data=data, checked=model.depth, passed=model.depth)


def cmd_fan(args):
    model = _load_model(args)
    if args.level is not None and not 1 <= args.level <= model.depth:
        raise TowerDocumentError(f"level {args.level} out of range 1..{model.depth}")
    levels = range(model.depth) if args.level is None else [args.level - 1]
    data = {"levels": [{"level": i + 1, **_fan_document(model.levels[i].fan)} for i in levels]}
    return Report(command="fan", seed=args.seed, data=data, checked=len(levels), passed=len(levels))


@functools.lru_cache(maxsize=64)
def _projective_part(p, d):
    """map-to-proj's data on A^p x P^(d-1), which reads p and d alone, built
    once per pair in a process, each value kept with its text.  Every report
    on the pair shares them, so no handler may mutate them."""
    proj = projective_model(TowerSpec(p, (ProductMove(),) * (d - 1)))
    n = proj.ambient_dim
    return {  # shared torus coordinates and the full toric boundary of P
        "fan": _Kept(_fan_document(proj)),
        "identification": _Kept([[int(i == j) for j in range(n)] for i in range(n)]),
        "boundary_coefficients": _Kept({str(list(r)): 1 for r in proj.all_rays}),
    }


def cmd_map_to_proj(args):
    model = _load_model(args)
    rays = model.levels[-1].fan.all_rays
    supported = [in_projective_support(model.spec, r) for r in rays]
    report = Report(command="map-to-proj", seed=args.seed, data={
        **_projective_part(model.spec.base_dim, model.spec.depth),
        "level_d_rays_in_support": [{"ray": r, "supported": ok} for r, ok in zip(rays, supported)],
    })
    for r, ok in zip(rays, supported):
        report.check(ok, "support", f"ray {list(r)} outside |P|")
    return report


def cmd_base_change(args):
    spec = _spec_of(_read_input(args.input), sys.get_int_max_str_digits())
    orders = tuple(parse_int(c, "--orders") for c in args.orders.split(",")) if args.orders else ()
    germ = CurveGermData(orders=orders, on_boundary=args.on_boundary)
    return emit_tower(base_change_to_curve(spec, germ))


def cmd_lc_check(args):
    check_samples(args.samples)  # a cap before any build
    outcome = lc_place_transfer_check(_load_model(args), samples=args.samples, seed=args.seed)
    return Report(command="lc-check", seed=args.seed).merge(outcome)


def cmd_local_model(args):
    model = _load_model(args)
    if model.depth < 2:
        raise TowerDocumentError("tower has depth 1: no fibration level to classify")
    if args.level is not None and not 2 <= args.level <= model.depth:
        raise TowerDocumentError(f"level {args.level} out of range 2..{model.depth}")
    levels = range(2, model.depth + 1) if args.level is None else [args.level]
    data_levels = []
    for level in levels:
        fan = model.levels[level - 1].fan
        move = model.spec.moves[level - 2]
        classify = orbit_classifier(move, fan.all_rays)
        character = move._asdict()  # one dict per level, shared by the level's node entries
        entries = []
        # (size, ray indices) is the (size, generators) order: all_rays is lex-sorted
        for _, face, mask in sorted((m.bit_count(), bit_indices(m), m) for m in fan.face_masks()):
            kind = classify(mask)
            entry = {"rays": [fan.all_rays[i] for i in face], "kind": kind}
            if kind == "node":
                entry["node_character"] = character
            entries.append(entry)
        data_levels.append({"level": level, "cones": entries})
    n = sum(len(level["cones"]) for level in data_levels)  # every face entry is one passed check
    return Report(command="local-model", seed=args.seed, data={"levels": data_levels}, checked=n, passed=n)


def cmd_divisor(command, formula, args):
    data = parse_divisor(_read_input(args.input))
    return Report(command=command, seed=args.seed, checked=1, passed=1, data={f"relative_{command}": formula(data)})


def cmd_random(args):
    return emit_tower(random_tower(args.p, args.d, args.max_exponent, args.seed))


def cmd_verify(args):
    outcome = run_suite(args.suite, seed=args.seed, samples=args.samples)
    return Report(command=f"verify:{args.suite}", seed=args.seed).merge(outcome)


def _integer(text):
    """An integer flag, by the document integer rule: ASCII [+-]?[0-9]+."""
    try:
        return parse_int(text, "flag")
    except TowerDocumentError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer") from None


@functools.cache
def build_parser():
    """The argument parser, built on the first call and reused by every later
    `main` call in the process (parsing keeps no state between calls).  Its
    `commands` attribute maps each subcommand name to its subparser."""
    parser = argparse.ArgumentParser(
        prog="torictower",
        description="Exact combinatorial engine for special toric towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {  # the flags a command's handler reads, besides --output
        "--input": dict(default=None, help="input document ('-' for stdin)"),
        "--seed": dict(type=_integer, default=0, help="random seed"),
        "--max-dim": dict(type=_integer, default=DEFAULT_MAX_DIM, help="dimension cap"),
        "--max-rays": dict(type=_integer, default=DEFAULT_MAX_RAYS, help="ray-count cap"),
        "--timing": dict(action="store_true", help="include wall-clock timing in the report"),
    }

    def common(p, *flags):
        p.add_argument("--output", default=None, help="output path ('-' for stdout)")
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("build", help="build the tower model and summarize its levels")
    common(p, *shared)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("fan", help="print level fans")
    p.add_argument("--level", type=_integer, default=None, help="single level to print")
    common(p, *shared)
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("map-to-proj", help="the congruent projective-space model")
    common(p, *shared)
    p.set_defaults(func=cmd_map_to_proj)

    p = sub.add_parser("base-change", help="base change the tower to a curve germ")
    p.add_argument("--orders", required=True, help="comma-separated vanishing orders c_1,..,c_p")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--on-boundary", dest="on_boundary", action="store_true")
    group.add_argument("--off-boundary", dest="on_boundary", action="store_false")
    common(p, "--input")
    p.set_defaults(func=cmd_base_change)

    p = sub.add_parser("lc-check", help="lc-place transfer check")
    p.add_argument("--samples", type=_integer, default=50)
    common(p, *shared)
    p.set_defaults(func=cmd_lc_check)

    p = sub.add_parser("local-model", help="classify torus orbits per level")
    p.add_argument("--level", type=_integer, default=None)
    common(p, *shared)
    p.set_defaults(func=cmd_local_model)

    for name, formula in (("degree", relative_degree_on_P), ("volume", relative_volume_on_P)):
        p = sub.add_parser(name, help=f"relative {name} on a projective fiber")
        common(p, "--input", "--seed", "--timing")
        p.set_defaults(func=functools.partial(cmd_divisor, name, formula))

    p = sub.add_parser("random", help="generate a seeded random tower document")
    p.add_argument("--p", type=_integer, required=True, help="base dimension")
    p.add_argument("--d", type=_integer, required=True, help="tower depth")
    p.add_argument("--max-exponent", type=_integer, default=3)
    common(p, "--seed")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--samples", type=_integer, default=None)
    common(p, "--seed", "--timing")
    p.set_defaults(func=cmd_verify)

    parser.commands = sub.choices  # name -> subparser, for _parsed's one-pass parse
    return parser


@functools.lru_cache(maxsize=256)
def _parsed(argv, digit_limit):
    """The arguments of `argv`, parsed by its subcommand alone (the top level
    would parse them again), once per argv and int-to-str digit limit, which
    integer flags read.  A usage error or --help raises SystemExit, which is
    not kept, so it prints again.  No handler mutates the shared arguments."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    return parser.parse_args(argv) if command is None else command.parse_args(argv[1:])


def main(argv=None):
    args = _parsed(tuple(sys.argv[1:] if argv is None else argv), sys.get_int_max_str_digits())
    start = time.monotonic()
    try:
        result = args.func(args)  # a Report, or the text of a tower document
        if isinstance(result, str):
            _write_output(args.output, result)
            return EXIT_OK
        result.elapsed_ms = (time.monotonic() - start) * 1000.0
        _write_output(args.output, result.to_json(include_timing=args.timing))
        return EXIT_OK if result.ok() else EXIT_VIOLATIONS
    except (LatticeError, OSError) as exc:  # TowerDocumentError is a LatticeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

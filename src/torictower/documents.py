"""Tower and divisor document formats, seeded random tower generation, and reports.

Documents and reports are UTF-8 JSON.  The one emitter, _canonical_json,
writes every integer (and rational, as "p/q") as a decimal string so
arbitrary precision survives any consumer: callers hand it ints and
Fractions, never their text, and one past the int-to-str digit limit is a
ResourceCapError.  Parsing accepts bare JSON integers as well.
Serialization is canonical - sorted keys, fixed indentation - so identical
inputs and seeds produce byte-identical output.  Wall-clock timing is
carried on the Report object but kept out of the canonical bytes unless
explicitly requested, to preserve byte-for-byte determinism.
"""

import json
import random
from fractions import Fraction

from .lattice import DEFAULT_MAX_DIM, LatticeError, ResourceCapError, _decimal_int, check_count, check_seed
from .polytope import ProjectiveDivisorData
from .tower import CheckOutcome, NodeMove, ProductMove, TowerSpec

FORMAT_VERSION = 1


class TowerDocumentError(LatticeError):
    """Malformed or schema-violating tower document; message carries context."""


_encode_str = json.encoder.encode_basestring_ascii


def _canonical_json(obj):
    """json.dumps(obj, indent=2, sort_keys=True) + newline, for JSON values
    with str keys, where every int (not bool) and Fraction is written as a
    quoted decimal string, "p/q" for a non-integral rational.  json.dumps
    never runs its C encoder when indenting, so containers are laid out here
    and only strings go through the C escaper.  The text of each list of
    scalars is made once per indent: a report that holds one list object in
    many places (a ray in every face that has it) reuses it."""
    out = []
    _emit(obj, "\n", out.append, {})
    out.append("\n")
    return "".join(out)


_CONSTANTS = {True: "true", False: "false", None: "null"}  # read only for a bool or None: 1 == True


def _scalar(x):
    """The text of a scalar or an empty container; TypeError for any other
    list, tuple or dict."""
    if isinstance(x, str):
        return _encode_str(x)
    if x is None or x is True or x is False:
        return _CONSTANTS[x]
    if isinstance(x, (int, Fraction)):
        try:
            return '"' + str(x) + '"'
        except ValueError:  # more digits than the interpreter's int-to-str limit
            raise ResourceCapError("result has too many digits to print") from None
    if x and isinstance(x, (list, tuple, dict)):
        raise TypeError("not a scalar")
    return json.dumps(x)


def _emit(obj, newline, put, texts):
    """Append the canonical text of `obj`, nested at the indent `newline` ends
    in; `texts` maps (id, indent) of each list of scalars written to its text.
    A tuple subclass (a record) is no array: _scalar raises TypeError on it."""
    if type(obj) in (list, tuple) and obj:
        inner = newline + "  "
        key = id(obj), newline  # obj outlives the emission, so its id is not reused
        text = texts.get(key)
        if text is None and not isinstance(obj[0], (list, tuple, dict)):
            try:  # a list of scalars in one join; _scalar rejects anything else
                text = texts[key] = "[" + inner + ("," + inner).join(map(_scalar, obj)) + newline + "]"
            except TypeError:
                pass
        if text is not None:
            put(text)
        else:
            sep = "[" + inner
            for x in obj:
                put(sep)
                _emit(x, inner, put, texts)
                sep = "," + inner
            put(newline + "]")
    elif isinstance(obj, dict) and obj:
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if value and isinstance(value, (list, tuple, dict)):
                put(sep + _encode_str(key) + ": ")
                _emit(value, inner, put, texts)
            else:  # a scalar or an empty container goes on the key's line
                put(sep + _encode_str(key) + ": " + _scalar(value))
            sep = "," + inner
        put(newline + "}")
    else:  # scalars and empty containers: one line
        put(_scalar(obj))


def parse_int(value, where):
    """A bare JSON integer, or a string of ASCII decimal digits with an optional sign."""
    if isinstance(value, bool):
        raise TowerDocumentError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        n = _decimal_int(value)
        if n is not None:
            return n
        raise TowerDocumentError(f"{where}: {value!r} is not a decimal integer")
    raise TowerDocumentError(f"{where}: expected an integer or decimal string, got {type(value).__name__}")


def _parse_int_list(value, where):
    if not isinstance(value, list):
        raise TowerDocumentError(f"{where}: expected a list")
    return tuple(parse_int(v, f"{where}[{i}]") for i, v in enumerate(value))


def emit_tower(spec):
    """Canonical JSON text of a tower spec."""
    moves = []
    for move in spec.moves:
        if isinstance(move, ProductMove):
            moves.append({"type": "product"})
        else:
            moves.append(
                {
                    "type": "node",
                    "alpha_exponents": move.alpha_exponents,
                    "t_exponents": move.t_exponents,
                }
            )
    return _canonical_json({"format_version": FORMAT_VERSION, "base_dim": spec.base_dim, "moves": moves})


def load_json_object(text):
    """The JSON object of a document; json.loads failing in any way is a
    TowerDocumentError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise TowerDocumentError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict):
        raise TowerDocumentError("document root must be an object")
    return doc


def parse_divisor(text):
    """Parse divisor data by the tower document rules; unknown keys are ignored."""
    doc = load_json_object(text)
    if "fiber_dim" not in doc:
        raise TowerDocumentError("missing field 'fiber_dim'")
    try:
        coeffs = doc.get("hyperplane_coefficients", [])
        if not isinstance(coeffs, list):
            raise TowerDocumentError("hyperplane_coefficients: expected a list")
        return ProjectiveDivisorData(
            fiber_dim=parse_int(doc["fiber_dim"], "fiber_dim"),
            hyperplane_coefficients=coeffs,
            polarization=parse_int(doc.get("polarization", 1), "polarization"),
        )
    except LatticeError as exc:  # TowerDocumentError is a LatticeError
        raise TowerDocumentError(f"bad divisor data: {exc}") from None


def parse_tower(text):
    """Parse and validate a tower document; errors carry line/field context."""
    doc = load_json_object(text)
    version = parse_int(doc.get("format_version", FORMAT_VERSION), "format_version")
    if version != FORMAT_VERSION:
        raise TowerDocumentError(f"format_version: unsupported version {version}")
    if "base_dim" not in doc:
        raise TowerDocumentError("missing field 'base_dim'")
    base_dim = parse_int(doc["base_dim"], "base_dim")
    raw_moves = doc.get("moves", [])
    if not isinstance(raw_moves, list):
        raise TowerDocumentError("moves: expected a list")
    moves = []
    for i, raw in enumerate(raw_moves):
        where = f"moves[{i}]"
        if not isinstance(raw, dict):
            raise TowerDocumentError(f"{where}: expected an object")
        kind = raw.get("type")
        if kind == "product":
            moves.append(ProductMove())
        elif kind == "node":
            if "alpha_exponents" not in raw:
                raise TowerDocumentError(f"{where}: node move missing field 'alpha_exponents'")
            if "t_exponents" not in raw:
                raise TowerDocumentError(f"{where}: node move missing field 't_exponents'")
            moves.append(
                NodeMove(
                    alpha_exponents=_parse_int_list(raw["alpha_exponents"], f"{where}.alpha_exponents"),
                    t_exponents=_parse_int_list(raw["t_exponents"], f"{where}.t_exponents"),
                )
            )
        else:
            raise TowerDocumentError(f"{where}: unknown move type {kind!r}")
    try:
        return TowerSpec(base_dim=base_dim, moves=tuple(moves))
    except LatticeError as exc:  # the tower rules, which TowerSpec checks
        raise TowerDocumentError(str(exc)) from None


def random_tower(p, d, max_exponent, seed):
    """Deterministic random tower: d-1 moves, each uniformly Product or Node,
    Node exponents uniform in [-max_exponent, max_exponent] (the trivial
    character is allowed).  The draws grow as d^2, and a tower of dimension
    p + d - 1 over DEFAULT_MAX_DIM cannot be built, so that is a cap error
    before any draw.  p, d and max_exponent are counts >= 1, and seed an int."""
    for name, value in (("p", p), ("d", d), ("max_exponent", max_exponent)):
        check_count(value, name, low=1)
    check_seed(seed)
    check_count(p + d - 1, "tower ambient dimension", cap=DEFAULT_MAX_DIM)
    rng = random.Random(seed)
    moves = []
    for k in range(d - 1):
        if rng.randrange(2) == 0:
            moves.append(ProductMove())
        else:
            alpha = tuple(rng.randint(-max_exponent, max_exponent) for _ in range(k))
            t = tuple(rng.randint(-max_exponent, max_exponent) for _ in range(p))
            moves.append(NodeMove(alpha_exponents=alpha, t_exponents=t))
    return TowerSpec(base_dim=p, moves=tuple(moves))


class Report(CheckOutcome):
    """Machine-readable command report: a CheckOutcome plus command, seed and data."""

    def __init__(self, *, command, seed=None, data=None, elapsed_ms=None, **counts):
        super().__init__(**counts)
        self.command, self.seed, self.elapsed_ms = command, seed, elapsed_ms
        self.data = {} if data is None else data

    def to_dict(self, include_timing=False):
        out = {
            "command": self.command,
            "seed": self.seed,
            "counts": {"checked": self.checked, "passed": self.passed, "skipped": self.skipped},
            "violations": self.violations,
        }
        if self.data:
            out["data"] = self.data
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self, include_timing=False):
        return _canonical_json(self.to_dict(include_timing=include_timing))

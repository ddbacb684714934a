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

import functools
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
    and only strings go through the C escaper.  Three rules keep a large
    report at one Python step per item: a flat value (a list of scalars, or a
    dict of scalars and lists of scalars) gets its text once per indent, and
    one object held in many places (a ray in every face that has it, a
    node character in each node entry) reuses it; a list of lists adds its
    items' texts to the output by reference; a dict's key set is sorted and
    its key lines made once per indent, for every record that has it."""
    out = []
    _emit(obj, "\n", out, {})
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


def _flat(obj, newline, texts):
    """The text of `obj`, a non-empty list, tuple or dict, at the indent
    `newline` ends in if it is flat, else None.  `texts[indent]` maps the id
    of each flat value written at that indent to its text."""
    memo = texts.setdefault(newline, {})
    text = memo.get(id(obj))  # obj outlives the emission, so its id is not reused
    if text is None:
        inner = newline + "  "
        if isinstance(obj, dict):
            parts = []
            for key, line in _key_lines(tuple(obj), inner):
                v = obj[key]
                if not v or type(v) not in (list, tuple) and not isinstance(v, dict):
                    v = _scalar(v)
                elif isinstance(v, dict) or (v := _flat(v, inner, texts)) is None:
                    return None
                parts += line, v
            text = "".join(parts) + newline + "}"
        else:
            try:  # _scalar rejects a container
                text = "[" + inner + ("," + inner).join(map(_scalar, obj)) + newline + "]"
            except TypeError:
                return None
        memo[id(obj)] = text
    return text


@functools.lru_cache(maxsize=256)
def _key_lines(keys, newline):
    """Each key of a dict, sorted, with its line at the indent `newline` ends
    in; kept across reports, which share a few key sets, in a bounded cache."""
    keys = sorted(keys)
    return tuple((k, ("," if i else "{") + newline + _encode_str(k) + ": ") for i, k in enumerate(keys))


def _emit(obj, newline, out, texts):
    """Append to `out` the text of `obj` nested at the indent `newline` ends
    in, by the three rules of _canonical_json, with _flat's memo `texts`."""
    if not obj or type(obj) not in (list, tuple) and not isinstance(obj, dict):
        out.append(_scalar(obj))  # TypeError on a record: a tuple subclass is no array
        return
    inner = newline + "  "
    if isinstance(obj, dict):
        for key, line in _key_lines(tuple(obj), inner):
            v = obj[key]
            if not v or type(v) not in (list, tuple) and not isinstance(v, dict):
                out.append(line + _scalar(v))
            else:
                out.append(line)
                _emit(v, inner, out, texts)
        out.append(newline + "}")
        return
    comma, sep = "," + inner, "[" + inner
    if not isinstance(obj[0], dict):  # a list of lists or of scalars: each item's text by reference
        text = None if type(obj[0]) in (list, tuple) else _flat(obj, newline, texts)
        if text is not None:
            out.append(text)
            return
        get = texts.setdefault(inner, {}).get
        for x in obj:
            text = get(id(x)) or (_flat(x, inner, texts) if x and type(x) in (list, tuple) else None)
            if text is None:
                out.append(sep)
                _emit(x, inner, out, texts)
            else:
                out += sep, text
            sep = comma
        out.append(newline + "]")
        return
    at, close = inner + "  ", inner + "}"
    get = texts.setdefault(at, {}).get
    for x in obj:
        out.append(sep)
        sep = comma
        if not (isinstance(x, dict) and x):
            _emit(x, inner, out, texts)
            continue
        for key, line in _key_lines(tuple(x), at):
            v = x[key]
            if not v or type(v) not in (list, tuple) and not isinstance(v, dict):
                out.append(line + _scalar(v))
                continue
            text = get(id(v))
            if text is None and (isinstance(v, dict) or not isinstance(v[0], (list, tuple, dict))):
                text = _flat(v, at, texts)  # a flat record value: its text once per indent
            out.append(line)
            if text is None:
                _emit(v, at, out, texts)
            else:
                out.append(text)
        out.append(close)
    out.append(newline + "]")


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
    return [parse_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


def emit_tower(spec):
    """Canonical JSON text of a tower spec: each move is its type and its record's fields."""
    moves = [{"type": "product" if isinstance(move, ProductMove) else "node", **move._asdict()} for move in spec.moves]
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
            for field in NodeMove._fields:
                if field not in raw:
                    raise TowerDocumentError(f"{where}: node move missing field {field!r}")
            moves.append(NodeMove._make(_parse_int_list(raw[f], f"{where}.{f}") for f in NodeMove._fields))
        else:
            raise TowerDocumentError(f"{where}: unknown move type {kind!r}")
    try:
        return TowerSpec(base_dim=base_dim, moves=moves)
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
            alpha = [rng.randint(-max_exponent, max_exponent) for _ in range(k)]
            t = [rng.randint(-max_exponent, max_exponent) for _ in range(p)]
            moves.append(NodeMove(alpha_exponents=alpha, t_exponents=t))
    return TowerSpec(base_dim=p, moves=moves)


class Report(CheckOutcome):
    """Machine-readable command report: a CheckOutcome plus command, seed and data."""

    def __init__(self, *, command, seed=None, data=None, **counts):
        super().__init__(**counts)
        self.command, self.seed, self.elapsed_ms = command, seed, None  # cli.main times the handler
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

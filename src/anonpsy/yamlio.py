"""Bit-stable YAML serialization of semantic graphs.

One field table, derived at import from the `model.py` dataclasses, drives
both directions. The emitter is hand-rolled so that equal graphs always
produce byte-identical documents: dataclass field order, 2-space indent, LF
line endings, one scalar per line, flow style only for string lists. The
parser is strict: unknown keys, missing keys, type mismatches, and invariant
violations raise with the offending path.

Every other YAML read and write of the program also goes through this module:
`load_yaml` for YAML the program wrote or ships, `safe_load` for model replies
and user files, `reply_mapping` for a model reply that must be a mapping, and
`safe_dump` for the program's own documents. One file is canonical JSON, which
YAML reads as the same value: `run_manifest.yaml`, which every command loads
and writes back, goes out through `json_dump` and is read by `load_yaml`
through `json`.

The common shapes skip PyYAML's Python layers. A flat mapping of plain
scalars and lists of them, `meta.yaml` and the eval's and judge's replies,
is written by `_flat_dump` and read by `_flat_load` line by line. Any other
document libyaml writes as pure PyYAML does is built as a node tree in one
walk (`_node_tree`) and handed to libyaml's serializer, so PyYAML's Python
representer walk never runs. Each fast path gives what `yaml.safe_load` or
`yaml.safe_dump` gives, or declines and leaves the text or document to them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, get_args, get_origin, get_type_hints

import yaml

from .model import NODE_KINDS, TEST_RESULT_KEYS, CaseAttributes, SemanticGraph, Violation, validate_graph


class GraphSerializationError(ValueError):
    """Raised when an invalid graph is handed to serialize_yaml."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"refusing to serialize invalid graph: {lines}{more}")


class GraphParseError(ValueError):
    """Raised on malformed documents; carries the path of the bad element."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_PLAIN_SCALAR = re.compile(r"[A-Za-z0-9][A-Za-z0-9 _'./()%+=°,;-]*")
_PLAIN_FLOW = re.compile(r"[A-Za-z0-9][A-Za-z0-9 _'./%+-]*")
_YAML_WORDS = frozenset({"true", "false", "null", "yes", "no", "on", "off", "~"})
_NUMBER_LIKE = re.compile(r"[-+]?\d+(\.\d+)?")

# Characters JSON leaves raw but YAML either forbids (DEL, C1) or treats as
# line breaks inside double-quoted scalars (NEL, LS, PS).
_YAML_UNSAFE = re.compile("[\x7f-\x9f  ￾￿]")
# The same, and lone surrogates, which UTF-8 cannot encode: a case directory
# whose name is not UTF-8 puts them into the run manifest. `json` and pure
# PyYAML read their escapes back; libyaml refuses them.
_JSON_UNSAFE = re.compile("[\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]")


# libyaml (PyYAML's C binding, when installed) is several times faster than
# pure PyYAML, but its emitter and scanner differ on some input: astral and
# control-character escapes, line folding, empty and long keys, tags, block
# scalar headers, trailing tabs. `load_yaml` reads only YAML this program wrote
# or ships. `safe_load` and `safe_dump` take libyaml only where a predicate
# says the result is the same; the differential tests in
# tests/test_yaml_loaders.py prove each predicate.
_CLoader = getattr(yaml, "CSafeLoader", None)
_CDumper = getattr(yaml, "CSafeDumper", None)
_STR_TAG = "tag:yaml.org,2002:str"
_INT_TAG = "tag:yaml.org,2002:int"
_BOOL_TAG = "tag:yaml.org,2002:bool"
_NULL_TAG = "tag:yaml.org,2002:null"
_SEQ_TAG = "tag:yaml.org,2002:seq"
_MAP_TAG = "tag:yaml.org,2002:map"
_RESOLVER = yaml.resolver.Resolver()


def load_yaml(text: str):
    """Load YAML the program itself wrote or packages: JSON through `json`, the rest through libyaml if present.

    A text that starts with `{` and is JSON is what `json_dump` wrote, and a
    flat mapping such as `meta.yaml` is read by `_flat_load`; any other text,
    such as a block-YAML manifest of an earlier version or one edited by
    hand, goes to libyaml.
    """
    if text.startswith("{"):
        try:
            return json.loads(text)
        except ValueError:
            pass  # a YAML flow mapping that is not JSON
    doc = _flat_load(text)
    if doc is not None:
        return doc
    return yaml.load(text, Loader=_CLoader or yaml.SafeLoader)


class NestingTooDeepError(yaml.YAMLError):
    """A document nested deeper than pure PyYAML's recursive composer can follow."""


class _PureLoader(yaml.SafeLoader):
    """`SafeLoader` whose bad dates and numbers raise `ConstructorError`.

    Pure PyYAML raises a bare `ValueError` for `2021-02-30` or `0b_`, which
    gets past every `except yaml.YAMLError` that decides a retry.
    """

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except ValueError as exc:
            raise yaml.constructor.ConstructorError(None, None, str(exc), node.start_mark) from exc


# Any character but LF and printable ASCII, and the indicators of a tag `!`,
# a directive `%`, a block scalar `|` `>`, a complex key `?` and the reserved
# `@` and backtick: one character class, which searches fastest.
_SLOW_TEXT = re.compile(r"[^\n \x22-\x24\x26-\x3d\x41-\x5f\x61-\x7b\x7d\x7e]")
_DEEP_LINE = re.compile(r"^[ -]{64}", re.MULTILINE)


def _reads_alike(text: str) -> bool:
    """True when libyaml either rejects `text` or reads it as pure PyYAML does.

    Each level of nesting needs a `[` or `{`, or a space or dash at the start
    of its line, so the last two tests keep it under 200 levels. Pure PyYAML
    raises RecursionError near 490 (`safe_load` makes it a YAML error);
    libyaml's composer goes on and crashes the process near 25,000.
    """
    return not _SLOW_TEXT.search(text) and text.count("[") + text.count("{") <= 64 and not _DEEP_LINE.search(text)


def safe_load(text: str):
    """`yaml.safe_load(text)`, by hand or through libyaml where that gives the same value.

    A flat mapping, such as most model replies the eval reads, is read by
    `_flat_load`. Any text libyaml rejects is parsed again by pure PyYAML,
    so every error and its message come from pure PyYAML. Every parse error
    is a `YAMLError`:
    a bad date or number raises `yaml.constructor.ConstructorError`, where
    `yaml.safe_load` raises a bare `ValueError`, and a document nested too
    deeply raises `NestingTooDeepError`, where it raises `RecursionError`.
    """
    doc = _flat_load(text)
    if doc is not None:
        return doc
    if _CLoader is not None and _reads_alike(text):
        try:
            return yaml.load(text, Loader=_CLoader)
        except (yaml.YAMLError, ValueError):
            pass  # pure PyYAML decides, and words the error
    try:
        return yaml.load(text, Loader=_PureLoader)
    except RecursionError as exc:
        raise NestingTooDeepError("document nested too deeply") from exc


def reply_mapping(text: str, reject: Callable[[str], Any]) -> dict | None:
    """A model reply read as a YAML mapping, or `reject(reason)`: a check for `gateway.validated_call`.

    The reason is one line: `invalid YAML: <problem> at line L, column C`
    (the error's text, its lines joined, when it has no position, as for a
    control character or `NestingTooDeepError`) or `expected mapping, got <type>`.
    """
    try:
        doc = safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}" if mark else str(exc)
        return reject("invalid YAML: " + " ".join(problem.split()))
    if isinstance(doc, dict):
        return doc
    return reject(f"expected mapping, got {type(doc).__name__}")


# Printable ASCII that starts with a letter or digit and ends in neither a
# space nor a colon: with no `: ` or ` #` inside, and read back as a string,
# both emitters write it as a plain scalar.
_PLAIN_STR = re.compile(r"[A-Za-z0-9](?:[ -~]*[!-9;-~])?")


def _plain(value) -> bool:
    return (
        type(value) is str
        and _PLAIN_STR.fullmatch(value) is not None
        and ": " not in value
        and " #" not in value
        and _plain_is_str(value)
    )


def _flat_dump(doc: dict, sort_keys: bool) -> str | None:
    """`yaml.safe_dump(doc)` for a flat mapping whose values are plain strings or lists of them; else None.

    Every key and string is `_plain`, and every line at most 80 characters, so
    PyYAML never folds one. No list appears twice: PyYAML would write an alias.
    This is the shape of a case's `meta.yaml`, which every corpus row renders
    to compare with the file on disk.
    """
    keys = list(doc)
    if not keys or not all(_plain(key) and len(key) <= 78 for key in keys):
        return None
    if sort_keys:
        keys.sort()
    lines = []
    lists = set()
    for key in keys:
        value = doc[key]
        if type(value) is list:
            if id(value) in lists:
                return None
            lists.add(id(value))
            if not value:
                lines.append(f"{key}: []")
                continue
            lines.append(f"{key}:")
            for item in value:
                if not (_plain(item) and len(item) <= 78):
                    return None
                lines.append(f"- {item}")
        elif _plain(value) and len(key) + len(value) <= 78:
            lines.append(f"{key}: {value}")
        else:
            return None
    return "\n".join(lines) + "\n"


# A scalar `_flat_load` cannot read: it leaves the text to the YAML parsers.
_NOT_FLAT = object()
# Decimal digits without `_`; at most 100, far below the length at which `int` refuses a string.
_DECIMAL = re.compile(r"0|[1-9][0-9]{0,99}")


def _flat_scalar(text: str):
    """The value of a plain scalar: a string, a decimal int, `true`/`false` or null; else `_NOT_FLAT`."""
    if _PLAIN_STR.fullmatch(text) is None or ": " in text or " #" in text:
        return _NOT_FLAT
    tag = _RESOLVER.resolve(yaml.ScalarNode, text, (True, False))
    if tag == _STR_TAG:
        return text
    if tag == _NULL_TAG:
        return None
    if tag == _BOOL_TAG and text in ("true", "false"):
        return text == "true"
    if tag == _INT_TAG and _DECIMAL.fullmatch(text):
        return int(text)
    return _NOT_FLAT


def _flat_load(text: str) -> dict | None:
    """`yaml.safe_load(text)` for a flat mapping, the inverse of `_flat_dump`; else None.

    Each line is `key: scalar`, `key: []`, `key:` or `- scalar`; a `- ` line
    is an item of the list of the `key:` above it, and a `key:` without items
    reads as null. Every key is `_plain` and at most 128 characters (PyYAML
    refuses a key of over 1024). Every scalar is plain and reads as a
    string, a decimal int, `true`/`false` or null. Anything else, an empty
    line, a comment, an indent, a tab or a CR among it, is None: the YAML
    parsers read it, and word its errors. Model replies of the eval and the
    judge, and a case's `meta.yaml`, have this shape.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    doc = {}
    key = items = None  # the last `key:`, and its list once a `- ` line follows
    for line in lines:
        if line.startswith("- "):
            item = _flat_scalar(line[2:])
            if key is None or item is _NOT_FLAT:
                return None
            if items is None:
                items = doc[key] = []
            items.append(item)
            continue
        name, colon, value = line.partition(": ")
        if not colon:
            if not line.endswith(":"):
                return None
            name = line[:-1]
        if len(name) > 128 or not _plain(name):
            return None
        key = items = None
        if not colon:
            key = name
            doc[name] = None
        elif value == "[]":
            doc[name] = []
        else:
            value = _flat_scalar(value)
            if value is _NOT_FLAT:
                return None
            doc[name] = value
    return doc or None


def _node_tree(doc: dict, sort_keys: bool) -> yaml.MappingNode | None:
    """The nodes `yaml.safe_dump` represents `doc` as, where libyaml's emitter writes them as pure PyYAML's; else None.

    Scalars are made by `SafeRepresenter`'s own methods, lists and dicts as
    its block-style nodes, with `sorted(items)` under sort_keys. The walk
    refuses what the two emitters write apart: every string must be
    printable ASCII (so no line break), every key a string of 1 to 64
    characters, and no list or dict may appear twice (PyYAML would write an
    alias), which also ends the walk on a cyclic document. PyYAML writes an
    empty key as `? ''` and a key of 123 to 128 characters as `? key`, where
    libyaml writes `'':` and `key:`; the two emitters fold double-quoted
    strings differently.
    """
    seen = set()

    def build(value):
        kind = type(value)
        if kind is str:
            return _REPRESENTER.represent_str(value) if value.isascii() and value.isprintable() else None
        if kind is dict or kind is list:
            if id(value) in seen:
                return None
            seen.add(id(value))
            if kind is list:
                items = [build(item) for item in value]
                return None if None in items else yaml.SequenceNode(_SEQ_TAG, items, flow_style=False)
            for key in value:
                if not (type(key) is str and 0 < len(key) <= 64 and key.isascii() and key.isprintable()):
                    return None
            pairs = []
            for key, item in sorted(value.items()) if sort_keys else value.items():
                node = build(item)
                if node is None:
                    return None
                pairs.append((_REPRESENTER.represent_str(key), node))
            return yaml.MappingNode(_MAP_TAG, pairs, flow_style=False)
        scalar = _SCALAR_NODES.get(kind)
        return None if scalar is None else scalar(value)

    return build(doc)


# The representer `yaml.safe_dump` uses. Its scalar methods make a node and
# record nothing while no alias key is set, so one instance serves every walk.
_REPRESENTER = yaml.representer.SafeRepresenter()
_SCALAR_NODES = {
    type(None): _REPRESENTER.represent_none,
    bool: _REPRESENTER.represent_bool,
    int: _REPRESENTER.represent_int,
    float: _REPRESENTER.represent_float,
}


def safe_dump(doc, *, sort_keys: bool = True, allow_unicode: bool = False) -> str:
    """`yaml.safe_dump(doc, ...)`, written by hand or through libyaml where that gives the same bytes.

    A flat mapping of plain strings is written by `_flat_dump`. libyaml
    writes only a mapping at the top level (PyYAML ends a top-level scalar
    with `...`), from the nodes `_node_tree` builds; anything else goes to
    pure PyYAML.
    """
    if type(doc) is dict:
        text = _flat_dump(doc, sort_keys)
        if text is not None:
            return text
        node = _node_tree(doc, sort_keys) if _CDumper is not None else None
        if node is not None:
            return yaml.serialize(node, Dumper=_CDumper, allow_unicode=allow_unicode)
    return yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=sort_keys, allow_unicode=allow_unicode)


def _json_reads_alike(doc) -> bool:
    """True when YAML reads `doc` written as JSON as `json.loads` does.

    Every key is a string of at most 128 characters: escaped, that stays
    under the 1024 characters a YAML flow key may span (PyYAML's emitter
    writes a longer key as `? key` for the same reason). Every scalar is a
    string, an int, a bool or None: YAML 1.1 reads a float without a dot,
    such as JSON's `1e-05`, as a string. No list or dict appears twice,
    which also ends the walk on a cyclic document.
    """
    stack = [doc]
    seen = set()
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is dict or kind is list:
            if id(value) in seen:
                return False
            seen.add(id(value))
            if kind is list:
                stack.extend(value)
                continue
            for key in value:
                if not (type(key) is str and len(key) <= 128):
                    return False
            stack.extend(value.values())
        elif not (kind is str or value is None or kind is int or kind is bool):
            return False
    return True


def json_dump(doc) -> str:
    """`doc` as canonical JSON, which every YAML reader loads as the same value.

    Keys sorted, 2-space indent, non-ASCII text as it is, a final newline.
    DEL, C1, NEL, LS and PS are escaped as in `_quote`, because YAML forbids
    the first two and reads the last three as line breaks; so are lone
    surrogates (`_JSON_UNSAFE`). A document that `_json_reads_alike` refuses
    is written by `safe_dump` as block YAML.
    """
    if not _json_reads_alike(doc):
        return safe_dump(doc, sort_keys=True)
    return _JSON_UNSAFE.sub(_escape, json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)) + "\n"


def _plain_is_str(value: str) -> bool:
    """True when a plain scalar reads back as this string, not a bool, number or date."""
    return _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == _STR_TAG


def _escape(match: re.Match) -> str:
    return "\\u%04x" % ord(match.group(0))


def _quote(value: str) -> str:
    return _YAML_UNSAFE.sub(_escape, json.dumps(value, ensure_ascii=False))


def _scalar(value) -> str:
    """Render one scalar deterministically; strings fall back to JSON quoting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if not isinstance(value, str):
        raise TypeError(f"unsupported scalar type {type(value).__name__}")
    if (
        value
        and _PLAIN_SCALAR.fullmatch(value)
        and value == value.strip()
        and value.lower() not in _YAML_WORDS
        and not _NUMBER_LIKE.fullmatch(value)
        and ": " not in value
        and " #" not in value
        and not value.endswith(":")
        and _plain_is_str(value)  # guard against octal/hex/date lookalikes
    ):
        return value
    return _quote(value)


def _flow_item(value: str) -> str:
    if (
        value
        and _PLAIN_FLOW.fullmatch(value)
        and value == value.strip()
        and value.lower() not in _YAML_WORDS
        and _plain_is_str(value)
    ):
        return value
    return _quote(value)


def _flow_list(values: list[str]) -> str:
    return "[" + ", ".join(_flow_item(v) for v in values) + "]"


# --- the field table -------------------------------------------------------

TOP_LEVEL_KEYS = (
    "demographics",
    "test_results",
    "family_history",
    *(section for _kind, section in NODE_KINDS),
    "visit_event",
    "relations",
    "durations",
)

_REQUIRED = object()  # the omit value of a key that is always present
_TYPE_NAMES = {str: "string", int: "integer", bool: "boolean"}


@dataclass(frozen=True)
class _Field:
    name: str
    kind: type  # str, int or bool for a scalar; list; dict for a block mapping
    schema: _Schema | None = None  # list items or mapping entries; None for list[str]
    omit: object = _REQUIRED  # not emitted when the value is this, and an absent key reads as it
    nullable: bool = False  # `X | None`: a null reads as None


class _Schema:
    """The fields of one mapping in key order, and the constructor of its value."""

    def __init__(self, fields_: tuple[_Field, ...], make: Callable) -> None:
        self.fields = fields_
        self.make = make
        self.required = tuple(f.name for f in fields_ if f.omit is _REQUIRED)
        self.optional = tuple(f.name for f in fields_ if f.omit is not _REQUIRED)


def _schema_of(cls) -> _Schema:
    hints = get_type_hints(cls)
    return _Schema(tuple(_field_of(f, hints[f.name]) for f in fields(cls)), cls)


def _field_of(f, hint) -> _Field:
    args = get_args(hint)
    nullable = type(None) in args
    if nullable:
        (hint,) = (a for a in args if a is not type(None))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return _Field(f.name, list, _schema_of(item) if is_dataclass(item) else None)
    if get_origin(hint) is dict:  # test results, keyed by the fixed test names
        return _Field(f.name, dict, _Schema(tuple(_Field(k, str) for k in TEST_RESULT_KEYS), dict))
    if is_dataclass(hint):  # always present: a graph without its visit event is invalid
        return _Field(f.name, dict, _schema_of(hint))
    omit = None if nullable and f.default is None else _REQUIRED
    return _Field(f.name, hint, omit=f.metadata.get("yaml_omit_if", omit), nullable=nullable)


_ATTRIBUTE_KEYS = tuple(f.name for f in fields(CaseAttributes))


def _graph(**sections) -> SemanticGraph:
    attributes = CaseAttributes(**{key: sections.pop(key) for key in _ATTRIBUTE_KEYS})
    return SemanticGraph(attributes=attributes, **sections)


# The top level flattens `attributes` beside the graph's own fields, in
# TOP_LEVEL_KEYS order, and requires every key.
_SECTIONS = {f.name: f for cls in (CaseAttributes, SemanticGraph) for f in _schema_of(cls).fields}
_GRAPH = _Schema(tuple(_SECTIONS[key] for key in TOP_LEVEL_KEYS), _graph)


# --- emitting ----------------------------------------------------------------


def _emit(values: dict, schema: _Schema, indent: int, lines: list[str]) -> None:
    """Append the block lines of one mapping; `values` maps field names to values."""
    pad = "  " * indent
    for f in schema.fields:
        value = values[f.name]
        if f.kind is list:
            if f.schema is None:
                lines.append(f"{pad}{f.name}: {_flow_list(value)}")
            elif not value:
                lines.append(f"{pad}{f.name}: []")
            else:
                lines.append(f"{pad}{f.name}:")
                for item in value:
                    first = len(lines)
                    _emit(vars(item), f.schema, indent + 2, lines)
                    # The item's first key moves up onto its "- " line.
                    lines[first] = f"{pad}  - {lines[first][len(pad) + 4:]}"
        elif f.kind is dict:
            lines.append(f"{pad}{f.name}:")
            _emit(value if type(value) is dict else vars(value), f.schema, indent + 1, lines)
        elif value is not f.omit:
            lines.append(f"{pad}{f.name}: {_scalar(value)}")


def serialize_yaml(g: SemanticGraph) -> str:
    """Serialize a valid graph to its canonical YAML form.

    Equal graphs yield byte-identical text. Invalid graphs are refused with
    the full validation report attached.
    """
    violations = validate_graph(g)
    if violations:
        raise GraphSerializationError(violations)
    lines: list[str] = []
    _emit({**vars(g), **vars(g.attributes)}, _GRAPH, 0, lines)
    return "\n".join(lines) + "\n"


# --- parsing -----------------------------------------------------------------


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise GraphParseError(path, f"expected mapping, got {type(obj).__name__}")
    return obj


def _require_list(obj, path: str) -> list:
    if obj is None:
        return []
    if not isinstance(obj, list):
        raise GraphParseError(path, f"expected list, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise GraphParseError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise GraphParseError(f"{path}.{key}", "missing required key")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _type_error(path: str, kind: type, value) -> GraphParseError:
    return GraphParseError(path, f"expected {_TYPE_NAMES[kind]}, got {type(value).__name__}")


def _parse(obj: dict, schema: _Schema, path: str):
    """Build the value of one mapping; `path` names it in errors ("" at the top)."""
    _check_keys(obj, path or "$", schema.required, schema.optional)
    values = {}
    for f in schema.fields:
        name = f.name
        if name not in obj:  # only an optional key gets past _check_keys absent
            values[name] = f.omit
            continue
        value = obj[name]
        kind = f.kind
        if kind is list:
            sub = _join(path, name)
            items = _require_list(value, sub)
            if f.schema is None:
                for i, item in enumerate(items):
                    if type(item) is not str:
                        raise _type_error(f"{sub}[{i}]", str, item)
                values[name] = list(items)
            else:
                parsed = []
                for i, item in enumerate(items):
                    item_path = f"{sub}[{i}]"
                    parsed.append(_parse(_require_mapping(item, item_path), f.schema, item_path))
                values[name] = parsed
        elif kind is dict:
            sub = _join(path, name)
            values[name] = _parse(_require_mapping(value, sub), f.schema, sub)
        elif type(value) is kind or (value is None and f.nullable):
            values[name] = value
        else:
            raise _type_error(_join(path, name), kind, value)
    return schema.make(**values)


def parse_yaml(text: str) -> SemanticGraph:
    """Parse canonical graph YAML back into a SemanticGraph.

    Inverse of serialize_yaml on its image; rejects unknown keys and type
    mismatches with the offending path.
    """
    try:
        doc = load_yaml(text)
    except yaml.YAMLError as exc:
        raise GraphParseError("$", f"not valid YAML: {exc}") from exc
    graph = _parse(_require_mapping(doc, "$"), _GRAPH, "")
    for i, duration in enumerate(graph.durations):
        if duration.span_days < 0:
            raise GraphParseError(f"durations[{i}].span_days", "span_days < 0")
    return graph

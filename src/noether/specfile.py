"""Line-oriented parsers for the declarative input documents.

Four document kinds share one surface style: a `#noether-spec v1` magic
first line, then one declaration per line.  Lines starting with `#` are
comments, blank lines are ignored.

  .alg  operator algebras         (parse_algebra)
  .mr   MR structural descriptors (parse_mr_descriptor)
  .sut  mini-language programs    (parse_sut_file)
  .cfg  mutator configuration     (parse_mutator_config)

Parsers are total: any input either parses or raises SpecSyntaxError /
SpecSemanticError with line/column diagnostics, never anything else.
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ._record import field, record
from .algebra import (
    _TAG_TO_KIND,
    ActsOn,
    BlockKind,
    Operator,
    OperatorAlgebra,
    Regime,
    block_from_tag,
    canonical_sorted,
)

# Each parser imports what it builds only when it runs (relational for .alg
# rewrite lines, minilang for .sut bodies, reachability for .mr documents), so
# reading an algebra or a descriptor loads neither evaluator.
if TYPE_CHECKING:
    from . import minilang
    from .reachability import MRDescriptor
    from .relational import RewriteRule

HEADER = "#noether-spec v1"

HOMOGENEITY_TAGS = ("degree-1", "positive-scale-invariant", "none")

# grammar-level category vocabulary; the mutation engine's enum is built from it
MUTATOR_CATEGORY_NAMES = (
    "CONDITIONALS_BOUNDARY",
    "INCREMENTS",
    "INVERT_NEGS",
    "MATH",
    "NEGATE_CONDITIONALS",
    "RETURN_VALS",
    "CALL_REMOVAL",
)


class SpecSyntaxError(Exception):
    """Malformed document surface; line and col are 1-based."""

    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        detail = f"line {line}, column {col}: expected {expected}"
        if found:
            detail += f", found {found!r}"
        super().__init__(detail)
        self.line = line
        self.col = col
        self.expected = expected


class SpecSemanticError(Exception):
    """Well-formed surface, inconsistent meaning."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"{name}: {reason}")
        self.name = name
        self.reason = reason


def _content_lines(text: str) -> List[Tuple[int, str]]:
    """(lineno, line) pairs after header/comment/blank filtering.

    Only trailing whitespace is stripped, so every column a parser computes
    from a line counts from the start of the raw line."""
    raw = text.splitlines()
    lines = []
    header_seen = False
    for i, line in enumerate(raw, start=1):
        line = line.rstrip()
        stripped = line.lstrip()
        if not stripped:
            continue
        if not header_seen:
            if stripped != HEADER:
                raise SpecSyntaxError(i, _first_column(line), f"header {HEADER!r}", stripped[:40])
            header_seen = True
            continue
        if stripped.startswith("#"):
            continue
        lines.append((i, line))
    if not header_seen:
        raise SpecSyntaxError(1, 1, f"header {HEADER!r}", "end of document")
    return lines


def _first_column(line: str) -> int:
    """1-based column of the line's first word."""
    return len(line) - len(line.lstrip()) + 1


def _split_keyword(line: str) -> Tuple[str, str]:
    parts = line.split(None, 1)
    return parts[0], parts[1] if len(parts) > 1 else ""


_WORD = re.compile(r"\S+")
# the items `_comma_list` returns, found with their offsets
_LIST_ITEM = re.compile(r"[^,\s](?:[^,]*[^,\s])?")


def _column(line: str, words: Sequence[str], index: int) -> int:
    """1-based column of words[index], where `words` is the `str.split` of a
    suffix of `line`.

    Counted from the end of the line: the suffix's last words are the line's,
    and its first word may be the tail of a longer one (`f(x)blocks=G`), but
    they end where the line's words end.  Only error paths call this."""
    ends = [m.end() for m in _WORD.finditer(line)]
    return ends[len(ends) - len(words) + index] - len(words[index]) + 1


# attribute key -> value type (int or float), or None for a value kept as text
_Keys = Mapping[str, Optional[type]]
_TYPE_NAMES = {int: "integer", float: "decimal"}


def _parse_attrs(lineno: int, line: str, words: Sequence[str], allowed: _Keys) -> Dict[str, object]:
    """key -> value for each `key=value` word; `words` split a suffix of `line`."""
    attrs: Dict[str, object] = {}
    for i, word in enumerate(words):
        key, eq, value = word.partition("=")
        if not eq:
            col = _column(line, words, i)
            raise SpecSyntaxError(lineno, col, "key=value attribute", word)
        if key not in allowed:
            col = _column(line, words, i)
            raise SpecSyntaxError(lineno, col, f"one of {', '.join(allowed)}", key)
        if key in attrs:
            raise SpecSemanticError(key, f"duplicate attribute on line {lineno}")
        kind = allowed[key]
        if kind is None:
            attrs[key] = value
            continue
        try:
            attrs[key] = kind(value)
        except ValueError:
            col = _column(line, words, i) + len(key) + 1
            raise SpecSyntaxError(lineno, col, f"{_TYPE_NAMES[kind]} for {key}", value)
    return attrs


def _block(subject: str, tag: str, lineno: int) -> BlockKind:
    """The block kind `tag` names; the error names `subject` and the tag,
    even an empty one."""
    try:
        return block_from_tag(tag)
    except KeyError:
        raise SpecSemanticError(subject, f"unknown block tag {tag!r} on line {lineno}")


# Every tag set parsed so far, keyed by itself, so that equal tag sets share
# one frozenset.  Its keys are non-empty sets of the eight block kinds, so it
# holds at most 2**8 - 1 = 255 entries however many documents are parsed.
_TAG_SETS: Dict[frozenset, frozenset] = {}


def _block_list(subject: str, lineno: int, value: str) -> frozenset:
    """The block kinds of a comma list, as the one shared frozenset of that
    set; `value` is one whitespace-free word."""
    # a loop, not a generator: the 10,000-operator `derive-wide` algebra at
    # seed 20260816 looks up 20,141 tags
    kinds = []
    for tag in value.split(","):
        kinds.append(_TAG_TO_KIND.get(tag) or _block(subject, tag, lineno))
    tags = frozenset(kinds)
    return _TAG_SETS.setdefault(tags, tags)


def _name_word(lineno: int, line: str, rest: str, what: str) -> str:
    """The one word after a name line's keyword; a second word is an error."""
    words = rest.split()
    if not words:
        raise SpecSyntaxError(lineno, len(line) + 1, f"an {what} name")
    if len(words) > 1:
        raise SpecSyntaxError(lineno, _column(line, words, 1), f"end of line after the {what} name", words[1])
    return words[0]


def _comma_list(value: str) -> Tuple[str, ...]:
    return tuple(filter(None, map(str.strip, value.split(","))))


# ---------------------------------------------------------------------------
# Algebra documents


def parse_algebra(text: str) -> OperatorAlgebra:
    lines = _content_lines(text)
    name: Optional[str] = None
    operators: List[Operator] = []
    generators: Optional[Tuple[str, ...]] = None
    rewrites: List[RewriteRule] = []
    labels: Dict[BlockKind, str] = {}

    for lineno, line in lines:
        keyword, rest = _split_keyword(line)
        if keyword == "algebra":
            if name is not None:
                raise SpecSemanticError(rest or "algebra", f"second algebra line at {lineno}")
            name = _name_word(lineno, line, rest, "algebra")
        elif keyword == "operator":
            operators.append(_parse_operator(lineno, line, rest))
        elif keyword == "generators":
            if generators is not None:
                raise SpecSemanticError("generators", f"second generators line at {lineno}")
            generators = _comma_list(rest)
        elif keyword == "rewrite":
            rewrites.append(_parse_rewrite(lineno, line, rest))
        elif keyword == "label":
            block, text_label = _parse_label(lineno, line, rest)
            if block in labels:
                raise SpecSemanticError(block.tag, f"duplicate label override at line {lineno}")
            labels[block] = text_label
        else:
            raise SpecSyntaxError(
                lineno, _first_column(line), "algebra, operator, generators, rewrite or label", keyword
            )

    if name is None:
        raise SpecSyntaxError(len(text.splitlines()) + 1, 1, "an algebra declaration", "end of document")
    try:
        return OperatorAlgebra(
            name=name,
            operators=tuple(operators),
            generators=generators or (),
            semiring_rules=tuple(rewrites),
            label_overrides=labels,
        )
    except ValueError as exc:
        raise SpecSemanticError(name, str(exc))


_OPERATOR_KEYS: _Keys = {"acts": None, "blocks": None, "regime": None, "size": int, "cost": int}
_ACTS = {a.value: a for a in ActsOn}
# the regimes a file may name; Regime.NONE is what an omitted regime means
_REGIMES = {r.value: r for r in Regime if r is not Regime.NONE}


def _parse_operator(lineno: int, line: str, rest: str) -> Operator:
    tokens = rest.split()
    if not tokens:
        raise SpecSyntaxError(lineno, len(line) + 1, "an operator name")
    op_name = tokens[0]
    attrs = _parse_attrs(lineno, line, tokens[1:], _OPERATOR_KEYS)
    if "acts" not in attrs:
        raise SpecSyntaxError(lineno, len(line) + 1, "acts=<input|output|both|param>")
    if "blocks" not in attrs:
        raise SpecSyntaxError(lineno, len(line) + 1, "blocks=<comma-list>")
    acts = _ACTS.get(attrs["acts"])
    if acts is None:
        raise SpecSemanticError(op_name, f"unknown acts value {attrs['acts']!r} on line {lineno}")
    blocks = _block_list(op_name, lineno, attrs["blocks"])
    regime = Regime.NONE
    if "regime" in attrs:
        regime = _REGIMES.get(attrs["regime"])
        if regime is None:
            raise SpecSemanticError(op_name, f"unknown regime {attrs['regime']!r} on line {lineno}")
        if "size" not in attrs:
            raise SpecSyntaxError(lineno, len(line) + 1, "size=<int> alongside regime")
    try:
        return Operator(op_name, acts, blocks, regime, attrs.get("size"), attrs.get("cost", 1))
    except ValueError as exc:
        raise SpecSemanticError(op_name, str(exc))


def _parse_rewrite(lineno: int, line: str, rest: str) -> RewriteRule:
    from .relational import RewriteRule, parse_guard, parse_pattern

    tokens = rest.split(None, 1)
    if not tokens:
        raise SpecSyntaxError(lineno, len(line) + 1, "a rewrite rule name")
    rule_name = tokens[0]
    tail = tokens[1] if len(tokens) > 1 else ""
    # lhs and rhs are single tokens; guard swallows the rest of the line
    m = re.match(r"lhs=(\S+)\s+rhs=(\S+)\s+guard=(.*)$", tail)
    if m is None:
        raise SpecSyntaxError(lineno, len(line) + 1, "lhs=<expr> rhs=<expr> guard=<text>")
    parsed = []
    for group, what, parse in (
        (1, "pattern", parse_pattern),
        (2, "pattern", parse_pattern),
        (3, "guard", parse_guard),
    ):
        try:
            parsed.append(parse(m.group(group)))
        except ValueError:
            col = len(line) - len(tail) + m.start(group) + 1
            raise SpecSyntaxError(lineno, col, f"a rewrite {what}", m.group(group)[:40])
    try:
        return RewriteRule(rule_name, *parsed)
    except ValueError as exc:  # a variable that lhs does not bind
        raise SpecSemanticError(rule_name, str(exc))


def _parse_label(lineno: int, line: str, rest: str) -> Tuple[BlockKind, str]:
    if "=" not in rest:
        raise SpecSyntaxError(lineno, len(line) + 1, "<block-tag>=<label>")
    tag, label = rest.split("=", 1)
    block = _block("label", tag.strip(), lineno)
    label = label.strip()
    if not label:
        raise SpecSyntaxError(lineno, len(line) + 1, "a nonempty label")
    return block, label


def algebra_to_text(algebra: OperatorAlgebra) -> str:
    out = [HEADER, f"algebra {algebra.name}"]
    for op in algebra.operators:
        parts = [f"operator {op.name}", f"acts={op.acts_on.value}"]
        tags = ",".join(k.tag for k in canonical_sorted(op.block_tags))
        parts.append(f"blocks={tags}")
        if op.regime is not Regime.NONE:
            parts.append(f"regime={op.regime.value}")
            parts.append(f"size={op.group_order_or_dim}")
        if op.cost_hint != 1:
            parts.append(f"cost={op.cost_hint}")
        out.append(" ".join(parts))
    if algebra.generators:
        out.append("generators " + ",".join(algebra.generators))
    if algebra.semiring_rules:
        from .relational import rule_to_text

        out.extend(f"rewrite {rule_to_text(rule)}" for rule in algebra.semiring_rules)
    for block in canonical_sorted(algebra.label_overrides):
        out.append(f"label {block.tag}={algebra.label_overrides[block]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# MR descriptor documents

# .mr key -> MRDescriptor field; a key the file omits keeps the field's default
_MR_FIELDS = {
    "output": "output_domain",
    "form": "relation_form",
    "diff_order": "difference_order",
    "directions": "parameter_directions",
    "adjoint": "adjoint_indexing",
    "tolerance": "tolerance",
    "unit": "unit",
}
_MR_KEYS: _Keys = {**dict.fromkeys(_MR_FIELDS), "diff_order": int, "directions": int, "tolerance": float}


def parse_mr_descriptor(text: str) -> MRDescriptor:
    from .reachability import MRDescriptor

    lines = _content_lines(text)
    name: Optional[str] = None
    fields: Dict[str, object] = {}
    for lineno, line in lines:
        keyword, rest = _split_keyword(line)
        if keyword == "mr":
            if name is not None:
                raise SpecSemanticError(rest or "mr", f"second mr line at {lineno}")
            name = _name_word(lineno, line, rest, "MR")
            continue
        if name is None:
            raise SpecSyntaxError(lineno, _first_column(line), "the mr declaration first", keyword)
        if "=" not in line:
            raise SpecSyntaxError(lineno, _first_column(line), "key=value", line.lstrip()[:40])
        for key, value in _parse_attrs(lineno, line, line.split(), _MR_KEYS).items():
            field_name = _MR_FIELDS[key]
            if field_name in fields:
                raise SpecSemanticError(name, f"duplicate field {key!r} on line {lineno}")
            fields[field_name] = value
    if name is None:
        raise SpecSyntaxError(len(text.splitlines()) + 1, 1, "an mr declaration", "end of document")
    try:
        return MRDescriptor(name=name, **fields)  # type: ignore[arg-type]
    except ValueError as exc:
        raise SpecSemanticError(name, str(exc))


def descriptor_to_text(mr: MRDescriptor) -> str:
    """Test oracle: the `.mr` round-trip tests parse what this prints."""
    return "\n".join(
        [
            HEADER,
            f"mr {mr.name}",
            f"output={mr.output_domain}",
            f"form={mr.relation_form}",
            f"diff_order={mr.difference_order}",
            f"directions={mr.parameter_directions}",
            f"adjoint={mr.adjoint_indexing}",
            f"tolerance={mr.tolerance!r} unit={mr.unit}",
        ]
    ) + "\n"


# ---------------------------------------------------------------------------
# SUT documents


@record
class SutDecl:
    """One parsed SUT: header metadata plus the type-checked program."""

    name: str
    params: Tuple[str, ...]
    blocks: frozenset
    homogeneity: str
    domain: str
    program: minilang.Program

    @functools.cached_property
    def fn(self) -> Callable[..., float]:
        """The program, compiled on first use; not a field, so `==` and repr ignore it."""
        from . import minilang

        return minilang.compile_program(self.program)


def parse_sut_file(text: str) -> Tuple[SutDecl, ...]:
    lines = _content_lines(text)
    decls: List[SutDecl] = []
    i = 0
    while i < len(lines):
        lineno, line = lines[i]
        keyword, rest = _split_keyword(line)
        if keyword != "sut":
            raise SpecSyntaxError(lineno, _first_column(line), "a sut declaration", keyword)
        header = _parse_sut_header(lineno, line, rest)
        i += 1
        body: List[Tuple[int, str]] = []
        while i < len(lines) and not _is_sut_header(lines[i][1]):
            body.append(lines[i])
            i += 1
        decls.append(_assemble_sut(lineno, header, body))
    if not decls:
        raise SpecSyntaxError(len(text.splitlines()) + 1, 1, "a sut declaration", "end of document")
    names = [d.name for d in decls]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SpecSemanticError(dupes[0], "duplicate sut name")
    return tuple(decls)


def _is_sut_header(line: str) -> bool:
    """A body ends at the next `sut` line; `sut = ...` assigns a variable."""
    keyword, rest = _split_keyword(line)
    return keyword == "sut" and not rest.startswith("=")


_SUT_KEYS: _Keys = dict.fromkeys(("blocks", "homogeneity", "domain"))


def _parse_sut_header(lineno: int, line: str, rest: str):
    open_paren = rest.find("(")
    close_paren = rest.find(")")
    if open_paren < 0 or close_paren < open_paren:
        raise SpecSyntaxError(lineno, len(line) + 1, "sut <name>(<params>)")
    sut_name = rest[:open_paren].strip()
    rest_start = len(line) - len(rest)
    # mutant ids and `.cfg` lines name a subject by this word
    if not sut_name.isidentifier():
        raise SpecSyntaxError(lineno, rest_start + 1, "a sut name identifier", sut_name)
    items = list(_LIST_ITEM.finditer(line, rest_start + open_paren + 1, rest_start + close_paren))
    for m in items:
        if not m.group().isidentifier():
            raise SpecSyntaxError(lineno, m.start() + 1, "a parameter identifier", m.group())
    params = tuple(m.group() for m in items)
    attrs = _parse_attrs(lineno, line, rest[close_paren + 1 :].split(), _SUT_KEYS)
    if "blocks" not in attrs:
        raise SpecSyntaxError(lineno, len(line) + 1, "blocks=<comma-list>")
    blocks = _block_list(sut_name, lineno, attrs["blocks"])
    homogeneity = attrs.get("homogeneity", "none")
    if homogeneity not in HOMOGENEITY_TAGS:
        raise SpecSemanticError(sut_name, f"unknown homogeneity tag {homogeneity!r} on line {lineno}")
    domain = attrs.get("domain", "real")
    if domain not in ("real", "int"):
        raise SpecSemanticError(sut_name, f"unknown domain tag {domain!r} on line {lineno}")
    return sut_name, params, blocks, homogeneity, domain


def _assemble_sut(header_lineno: int, header, body: List[Tuple[int, str]]) -> SutDecl:
    from . import minilang

    sut_name, params, blocks, homogeneity, domain = header
    statements = []
    for lineno, line in body:
        try:
            statements.append(minilang.parse_statement(line))
        except minilang.ExprSyntaxError as exc:
            raise SpecSyntaxError(lineno, exc.col, exc.expected)
        except minilang.ArityError as exc:
            raise SpecSemanticError(sut_name, f"line {lineno}: {exc}")
    try:
        program = minilang.assemble_program(sut_name, params, statements)
    except (minilang.TypeCheckError, minilang.ArityError) as exc:
        raise SpecSemanticError(sut_name, str(exc))
    return SutDecl(sut_name, params, blocks, homogeneity, domain, program)


def sut_file_to_text(decls: Sequence[SutDecl]) -> str:
    """Test oracle: the `.sut` round-trip tests parse what this prints, and
    `TestCensusRows` pins its digest over the bundled zoo."""
    from . import minilang

    out = [HEADER]
    for d in decls:
        parts = [f"sut {d.name}({', '.join(d.params)})"]
        parts.append("blocks=" + ",".join(k.tag for k in canonical_sorted(d.blocks)))
        parts.append(f"homogeneity={d.homogeneity}")
        if d.domain != "real":
            parts.append(f"domain={d.domain}")
        out.append(" ".join(parts))
        out.extend(minilang.program_body_lines(d.program))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Mutator configuration documents


@record
class MutatorConfig:
    categories: Tuple[str, ...] = MUTATOR_CATEGORY_NAMES
    seed: int = 0
    suts: Tuple[str, ...] = ()
    matrix_patches: Mapping = field(default_factory=dict)  # (category, BlockKind) -> effect
    overrides: Mapping = field(default_factory=dict)  # (sut, category, BlockKind) -> effect


def parse_mutator_config(text: str) -> MutatorConfig:
    lines = _content_lines(text)
    categories: Optional[Tuple[str, ...]] = None
    seed = 0
    seed_seen = False
    suts: Optional[Tuple[str, ...]] = None
    matrix_patches: Dict = {}
    overrides: Dict = {}
    for lineno, line in lines:
        keyword, rest = _split_keyword(line)
        if keyword == "mutators":
            if categories is not None:
                raise SpecSemanticError("mutators", f"second mutators line at {lineno}")
            cats = _comma_list(rest)
            if not cats:
                raise SpecSemanticError("mutators", f"no mutator category on line {lineno}")
            for c in cats:
                if c not in MUTATOR_CATEGORY_NAMES:
                    raise SpecSemanticError(c, f"unknown mutator category on line {lineno}")
            categories = cats
        elif keyword == "seed":
            if seed_seen:
                raise SpecSemanticError("seed", f"second seed line at {lineno}")
            try:
                seed = int(rest)
            except ValueError:
                raise SpecSyntaxError(lineno, len(line) - len(rest) + 1, "integer for seed", rest)
            if seed < 0:
                raise SpecSemanticError("seed", f"negative seed {seed} on line {lineno}")
            seed_seen = True
        elif keyword == "suts":
            if suts is not None:
                raise SpecSemanticError("suts", f"second suts line at {lineno}")
            suts = _comma_list(rest)
            if not suts:
                raise SpecSemanticError("suts", f"no subject on line {lineno}")
        elif keyword == "matrix":
            cat, block, effect = _parse_cell(lineno, line, rest, with_sut=False)[1:]
            key = (cat, block)
            if key in matrix_patches:
                raise SpecSemanticError(cat, f"duplicate matrix patch at line {lineno}")
            matrix_patches[key] = effect
        elif keyword == "override":
            sut, cat, block, effect = _parse_cell(lineno, line, rest, with_sut=True)
            key = (sut, cat, block)
            if key in overrides:
                raise SpecSemanticError(cat, f"duplicate override at line {lineno}")
            overrides[key] = effect
        else:
            raise SpecSyntaxError(lineno, _first_column(line), "mutators, seed, suts, matrix or override", keyword)
    return MutatorConfig(
        categories=categories if categories is not None else MUTATOR_CATEGORY_NAMES,
        seed=seed,
        suts=suts or (),
        matrix_patches=matrix_patches,
        overrides=overrides,
    )


def _parse_cell(lineno: int, line: str, rest: str, with_sut: bool):
    tokens = rest.split()
    want = 3 if with_sut else 2
    if len(tokens) != want:
        shape = "<sut> <CATEGORY> <BLOCK>=<effect>" if with_sut else "<CATEGORY> <BLOCK>=<effect>"
        raise SpecSyntaxError(lineno, len(line) + 1, shape)
    sut = tokens[0] if with_sut else ""
    cat = tokens[-2]
    if cat not in MUTATOR_CATEGORY_NAMES:
        raise SpecSemanticError(cat, f"unknown mutator category on line {lineno}")
    cell = tokens[-1]
    if "=" not in cell:
        col = _column(line, tokens, want - 1)
        raise SpecSyntaxError(lineno, col, "<BLOCK>=<preserves|breaks>", cell)
    tag, effect = cell.split("=", 1)
    block = _block(cat, tag, lineno)
    if effect not in ("preserves", "breaks"):
        raise SpecSemanticError(cat, f"effect must be preserves or breaks, got {effect!r}")
    return sut, cat, block, effect


def mutator_config_to_text(cfg: MutatorConfig) -> str:
    """Test oracle: the `.cfg` round-trip test parses what this prints."""
    out = [HEADER, "mutators " + ",".join(cfg.categories), f"seed {cfg.seed}"]
    if cfg.suts:
        out.append("suts " + ",".join(cfg.suts))
    for (cat, block), effect in sorted(cfg.matrix_patches.items(), key=lambda kv: (kv[0][0], kv[0][1].tag)):
        out.append(f"matrix {cat} {block.tag}={effect}")
    for (sut, cat, block), effect in sorted(cfg.overrides.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].tag)):
        out.append(f"override {sut} {cat} {block.tag}={effect}")
    return "\n".join(out) + "\n"

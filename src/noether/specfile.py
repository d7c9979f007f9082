"""Line-oriented parsers for the declarative input documents.

Four document kinds share one surface style: a `#noether-spec v1` magic
first line, then one declaration per line.  Lines starting with `#` are
comments, blank lines are ignored.

  .alg  operator algebras         (parse_algebra)
  .mr   MR structural descriptors (parse_mr_descriptor)
  .sut  mini-language programs    (parse_sut_file)
  .cfg  mutator configuration     (parse_mutator_config)

One reader, `_read`, applies the rules the four share: each line starts
with one of its document's keywords; `algebra`, `generators`, `mr`,
`mutators`, `seed` and `suts` come at most once; and a document without its
head line (`algebra`, `mr`, `sut`) is an error at its end.  `.mr` field
lines and `.sut` body lines follow their head line and have no keyword.
Each parser then only builds what its lines declare.  An attribute value
chosen from a fixed set (`acts`, `regime`, `homogeneity`, `domain`, a block
tag, a cell effect, a mutator category) is looked up in one table, and an
unknown one reads `<subject>: unknown <key> '<value>' on line N`.

Parsers are total: any input either parses or raises SpecSyntaxError /
SpecSemanticError with line/column diagnostics, never anything else.
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ._record import field, record
from .algebra import (
    _TAG_TO_KIND,
    ActsOn,
    BlockKind,
    Operator,
    OperatorAlgebra,
    Regime,
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
# the effects a compatibility-matrix cell may declare for a category on a block
PRESERVES = "preserves"
BREAKS = "breaks"


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


# keywords a document holds at most once
_ONCE = frozenset(("algebra", "generators", "mr", "mutators", "seed", "suts"))
# head keyword -> what an error expects in place of a missing head line
_HEADS = {"algebra": "an algebra declaration", "mr": "an mr declaration", "sut": "a sut declaration"}


def _read(
    text: str, keywords: Sequence[str], head: str = "", body: bool = False
) -> Iterator[Tuple[int, str, Optional[str], str]]:
    """(lineno, line, keyword, rest) for each line after the header that is
    neither blank nor a comment.

    Only trailing whitespace is stripped, so every column a parser computes
    from a line counts from the start of the raw line.  A line is a keyword
    line when its first word is one of `keywords`.  With `body` set, the
    `head` line comes first, and every other line after it is a body line,
    yielded with keyword None, as is a keyword line that goes on with `=`
    (it assigns a variable of that name).  A generator, so that no second
    list of a 10,000-operator algebra's lines is kept."""
    lines = text.splitlines()
    header_seen = False
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip()
        stripped = line.lstrip()
        if not header_seen and stripped:
            if stripped != HEADER:
                raise SpecSyntaxError(lineno, _first_column(line), f"header {HEADER!r}", stripped[:40])
            header_seen = True
            continue
        if not stripped or stripped[0] == "#":
            continue
        parts = stripped.split(None, 1)
        keyword, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if keyword in keywords and not (body and rest.startswith("=")):
            # one set test per line: the once-rule is asked only when a keyword repeats
            if keyword not in seen:
                seen.add(keyword)
            elif keyword in _ONCE:
                raise SpecSemanticError(keyword, f"second {keyword} line at {lineno}")
            yield lineno, line, keyword, rest
        elif body and head in seen:
            yield lineno, line, None, rest
        else:
            expected = _HEADS[head] if body else f"{', '.join(keywords[:-1])} or {keywords[-1]}"
            raise SpecSyntaxError(lineno, _first_column(line), expected, keyword)
    if not header_seen:
        raise SpecSyntaxError(1, 1, f"header {HEADER!r}", "end of document")
    if head and head not in seen:
        raise SpecSyntaxError(len(lines) + 1, 1, _HEADS[head], "end of document")


def _first_column(line: str) -> int:
    """1-based column of the line's first word."""
    return len(line) - len(line.lstrip()) + 1


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


# attribute key -> the value's type (int or float), None for a value kept as
# text, or a dict from each text a file may write to the value it means
_Keys = Mapping[str, object]
_TYPE_NAMES = {int: "integer", float: "decimal"}


def _parse_attrs(
    subject: str, lineno: int, line: str, words: Sequence[str], allowed: _Keys, attrs: Optional[Dict] = None
) -> Dict[str, object]:
    """key -> value for each `key=value` word, added to `attrs` (a new dict
    by default); `words` split a suffix of `line`, and a semantic error
    names `subject`."""
    if attrs is None:
        attrs = {}
    for i, word in enumerate(words):
        key, eq, value = word.partition("=")
        if not eq:
            col = _column(line, words, i)
            raise SpecSyntaxError(lineno, col, "key=value attribute", word)
        if key not in allowed:
            col = _column(line, words, i)
            raise SpecSyntaxError(lineno, col, f"one of {', '.join(allowed)}", key)
        if key in attrs:
            raise SpecSemanticError(subject, f"duplicate attribute {key!r} on line {lineno}")
        kind = allowed[key]
        if kind is None:
            attrs[key] = value
        elif type(kind) is dict:
            attrs[key] = kind.get(value) or _choose(subject, lineno, key, value, kind)
        else:
            try:
                attrs[key] = kind(value)
            except ValueError:
                col = _column(line, words, i) + len(key) + 1
                raise SpecSyntaxError(lineno, col, f"{_TYPE_NAMES[kind]} for {key}", value)
    return attrs


def _choose(subject: str, lineno: int, key: str, value: str, choices: Mapping[str, object]):
    """What the text `value` of `key` means; the error names `subject` and
    quotes the value, even an empty one."""
    try:
        return choices[value]
    except KeyError:
        raise SpecSemanticError(subject, f"unknown {key} {value!r} on line {lineno}")


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
        kinds.append(_TAG_TO_KIND.get(tag) or _choose(subject, lineno, "block tag", tag, _TAG_TO_KIND))
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
    name = ""
    operators: List[Operator] = []
    generators: Tuple[str, ...] = ()
    rewrites: List[RewriteRule] = []
    labels: Dict[BlockKind, str] = {}
    keywords = ("algebra", "operator", "generators", "rewrite", "label")
    for lineno, line, keyword, rest in _read(text, keywords, "algebra"):
        if keyword == "operator":
            operators.append(_parse_operator(lineno, line, rest))
        elif keyword == "algebra":
            name = _name_word(lineno, line, rest, "algebra")
        elif keyword == "generators":
            generators = _comma_list(rest)
        elif keyword == "rewrite":
            rewrites.append(_parse_rewrite(lineno, line, rest))
        else:
            block, text_label = _parse_label(lineno, line, rest)
            if block in labels:
                raise SpecSemanticError(block.tag, f"duplicate label override at line {lineno}")
            labels[block] = text_label
    try:
        return OperatorAlgebra(
            name=name,
            operators=tuple(operators),
            generators=generators,
            semiring_rules=tuple(rewrites),
            label_overrides=labels,
        )
    except ValueError as exc:
        raise SpecSemanticError(name, str(exc))


_OPERATOR_KEYS: _Keys = {
    "acts": {a.value: a for a in ActsOn},
    "blocks": None,
    # the regimes a file may name; Regime.NONE is what an omitted regime means
    "regime": {r.value: r for r in Regime if r is not Regime.NONE},
    "size": int,
    "cost": int,
}


def _parse_operator(lineno: int, line: str, rest: str) -> Operator:
    tokens = rest.split()
    if not tokens:
        raise SpecSyntaxError(lineno, len(line) + 1, "an operator name")
    op_name = tokens[0]
    attrs = _parse_attrs(op_name, lineno, line, tokens[1:], _OPERATOR_KEYS)
    if "acts" not in attrs:
        raise SpecSyntaxError(lineno, len(line) + 1, "acts=<input|output|both|param>")
    if "blocks" not in attrs:
        raise SpecSyntaxError(lineno, len(line) + 1, "blocks=<comma-list>")
    blocks = _block_list(op_name, lineno, attrs["blocks"])
    if "regime" in attrs and "size" not in attrs:
        raise SpecSyntaxError(lineno, len(line) + 1, "size=<int> alongside regime")
    try:
        return Operator(
            op_name, attrs["acts"], blocks, attrs.get("regime", Regime.NONE), attrs.get("size"), attrs.get("cost", 1)
        )
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
    block = _choose("label", lineno, "block tag", tag.strip(), _TAG_TO_KIND)
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

    name = ""
    attrs: Dict[str, object] = {}
    for lineno, line, keyword, rest in _read(text, ("mr",), "mr", body=True):
        if keyword is None:
            _parse_attrs(name, lineno, line, line.split(), _MR_KEYS, attrs)
        else:
            name = _name_word(lineno, line, rest, "MR")
    try:
        return MRDescriptor(name=name, **{_MR_FIELDS[key]: value for key, value in attrs.items()})
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
    # (lineno, line, rest, body) of each `sut` line; its body runs to the next
    suts = []
    for lineno, line, keyword, rest in _read(text, ("sut",), "sut", body=True):
        if keyword is None:
            body.append((lineno, line))
        else:
            body: List[Tuple[int, str]] = []
            suts.append((lineno, line, rest, body))
    decls: Dict[str, SutDecl] = {}
    for lineno, line, rest, body in suts:
        decl = _assemble_sut(lineno, line, rest, body)
        if decls.setdefault(decl.name, decl) is not decl:
            raise SpecSemanticError(decl.name, f"duplicate sut name on line {lineno}")
    return tuple(decls.values())


_SUT_KEYS: _Keys = {
    "blocks": None,
    "homogeneity": {tag: tag for tag in ("degree-1", "positive-scale-invariant", "none")},
    "domain": {"real": "real", "int": "int"},
}


def _assemble_sut(lineno: int, line: str, rest: str, body: List[Tuple[int, str]]) -> SutDecl:
    from . import minilang

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
    attrs = _parse_attrs(sut_name, lineno, line, rest[close_paren + 1 :].split(), _SUT_KEYS)
    if "blocks" not in attrs:
        raise SpecSyntaxError(lineno, len(line) + 1, "blocks=<comma-list>")
    blocks = _block_list(sut_name, lineno, attrs["blocks"])
    statements = []
    for body_lineno, body_line in body:
        try:
            statements.append(minilang.parse_statement(body_line))
        except minilang.ExprSyntaxError as exc:
            raise SpecSyntaxError(body_lineno, exc.col, exc.expected)
        except minilang.ArityError as exc:
            raise SpecSemanticError(sut_name, f"line {body_lineno}: {exc}")
    try:
        program = minilang.assemble_program(sut_name, params, statements)
    except (minilang.TypeCheckError, minilang.ArityError) as exc:
        raise SpecSemanticError(sut_name, str(exc))
    homogeneity = attrs.get("homogeneity", "none")
    return SutDecl(sut_name, params, blocks, homogeneity, attrs.get("domain", "real"), program)


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


_CATEGORIES = {name: name for name in MUTATOR_CATEGORY_NAMES}
_EFFECTS = {PRESERVES: PRESERVES, BREAKS: BREAKS}


def parse_mutator_config(text: str) -> MutatorConfig:
    categories = MUTATOR_CATEGORY_NAMES
    seed = 0
    suts: Tuple[str, ...] = ()
    cells: Dict[str, Dict] = {"matrix": {}, "override": {}}
    for lineno, line, keyword, rest in _read(text, ("mutators", "seed", "suts", "matrix", "override")):
        if keyword == "mutators":
            names = _comma_list(rest)
            categories = tuple(_choose(keyword, lineno, "mutator category", c, _CATEGORIES) for c in names)
            if not categories:
                raise SpecSemanticError("mutators", f"no mutator category on line {lineno}")
        elif keyword == "seed":
            try:
                seed = int(rest)
            except ValueError:
                raise SpecSyntaxError(lineno, len(line) - len(rest) + 1, "integer for seed", rest)
            if seed < 0:
                raise SpecSemanticError("seed", f"negative seed {seed} on line {lineno}")
        elif keyword == "suts":
            suts = _comma_list(rest)
            if not suts:
                raise SpecSemanticError("suts", f"no subject on line {lineno}")
        else:
            key, effect = _parse_cell(lineno, line, keyword, rest)
            if key in cells[keyword]:
                raise SpecSemanticError(key[-2], f"duplicate {keyword} cell at line {lineno}")
            cells[keyword][key] = effect
    return MutatorConfig(categories, seed, suts, cells["matrix"], cells["override"])


def _parse_cell(lineno: int, line: str, keyword: str, rest: str):
    """(key, effect) of a `matrix` or `override` line: the key is (category,
    block), after the subject on an `override` line."""
    tokens = rest.split()
    want = 3 if keyword == "override" else 2
    if len(tokens) != want:
        shape = "<sut> <CATEGORY> <BLOCK>=<effect>" if want == 3 else "<CATEGORY> <BLOCK>=<effect>"
        raise SpecSyntaxError(lineno, len(line) + 1, shape)
    cat = _choose(keyword, lineno, "mutator category", tokens[-2], _CATEGORIES)
    cell = tokens[-1]
    if "=" not in cell:
        col = _column(line, tokens, want - 1)
        raise SpecSyntaxError(lineno, col, "<BLOCK>=<preserves|breaks>", cell)
    tag, effect = cell.split("=", 1)
    block = _choose(cat, lineno, "block tag", tag, _TAG_TO_KIND)
    return (*tokens[:-2], cat, block), _choose(cat, lineno, "effect", effect, _EFFECTS)


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

"""The four workloads: their generated inputs, one unit of work, and checks.

Nothing here imports noether at module level, so the set-up probe can start
its clock before the package's first import.  Every input is generated from
the workload seed into a fixtures directory that the program reads through
``NOETHER_FIXTURES``; the seed reaches the experiments through the generated
configs, never through ``reproduce --seed``.

Reference values are hand-copied literals (the acceptance tables and the
goldens of A-02/A-03), checked on a reference unit at ``REFERENCE_SEED``
that every run makes before it starts timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from tracer import LAYERS

REFERENCE_SEED = 20260816
HERE = Path(__file__).resolve().parent
REFERENCE_REPORT = HERE / "reference" / "reproduce-20260816.jsonl"

CATEGORIES = (
    "CONDITIONALS_BOUNDARY,INCREMENTS,INVERT_NEGS,MATH,NEGATE_CONDITIONALS,RETURN_VALS,CALL_REMOVAL"
)
REPRODUCE_SUTS = "midpoint,clamp,signum,gcdSig,lcmSig,hypotSig"
SHALLOW_SUTS = ("caddSig", "clamp", "exactLog2", "hypotSig", "isSequence", "midpoint", "powerSig", "signum")
NO_SCALING_SUTS = ("caddSig", "exactLog2", "isSequence", "powerSig")

# A-05's frozen table: subject -> (scaling kills, mutants) at REFERENCE_SEED.
FROZEN_KILLS = {
    "clamp": (1, 4),
    "gcdSig": (22, 32),
    "hypotSig": (5, 5),
    "lcmSig": (27, 37),
    "midpoint": (1, 3),
    "signum": (3, 7),
}

REL_TRIALS = 1000
REL_MUTANTS = ("correct", "biased-join", "guardless-pushdown")
# Fails per MR at REFERENCE_SEED over 1,000 databases.
REL_REFERENCE_FAILS = {
    "correct": {"rho_join-comm": 0, "rho_select-push": 0, "rho_distinct-idem": 0, "rho_plan-equiv": 0},
    "biased-join": {"rho_join-comm": 1000, "rho_select-push": 220, "rho_distinct-idem": 0, "rho_plan-equiv": 352},
    "guardless-pushdown": {"rho_join-comm": 0, "rho_select-push": 332, "rho_distinct-idem": 0, "rho_plan-equiv": 0},
}

WIDE_SIZES = (10, 100, 1000, 10000)
WIDE_CLI_SIZE = 1000
BLOCK_TAGS = ("G", "O_le", "T_star", "T_rev", "L_star", "D_star", "E_star", "B_rel")
REWRITE_LINES = (
    "rewrite pushdown lhs=select(p,join(R,S)) rhs=join(select(p,R),S) guard=attrs(p) subset attrs(R)",
    "rewrite select_idem lhs=select(p,select(p,R)) rhs=select(p,R) guard=none",
    "rewrite select_true lhs=select(true,R) rhs=R guard=none",
    "rewrite join_empty lhs=join(R,empty) rhs=empty guard=none",
)
# A-02/A-03 goldens: descriptor fixture -> (obstruction tags, the one block
# whose relation form it needs; None when obstructed).
DESCRIPTOR_GOLDENS = {
    "only_o1": (("O1",), None),
    "only_o2": (("O2",), None),
    "only_o3": (("O3",), None),
    "only_o4": (("O4",), None),
    "only_o5": (("O5",), None),
    "rho_nonadd": (("O1", "O2", "O3"), None),
    "rho_mtc_bor": (("O1", "O4", "O5"), None),
    "rho_rot": ((), "G"),
    "rho_join_comm": ((), "G"),
    "rho_mono": ((), "O_le"),
    "rho_adj": ((), "T_star"),
    "rho_train_rev": ((), "T_rev"),
    "rho_train": ((), "L_star"),
}



def parse_report(text: str) -> Tuple[dict, List[dict]]:
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty report")
    return lines[0], lines[1:]


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """The CLI in process, with its report captured."""
    from noether import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _header_problems(header: dict, command: str, seed: int) -> List[str]:
    problems = []
    if header.get("command") != command:
        problems.append(f"report command {header.get('command')!r}, expected {command!r}")
    if header.get("seed") != seed:
        problems.append(f"report header seed {header.get('seed')!r}, expected {seed}")
    return problems


class Workload:
    name = ""
    why = ""
    required_layers: Tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.fixtures = root / ".perfbench" / "inputs" / f"{self.name}-{seed}"

    # inputs ------------------------------------------------------------

    def generate(self) -> None:
        """Write the seed's fixtures directory: bundled files plus generated ones."""
        if self.fixtures.is_dir():
            shutil.rmtree(self.fixtures)
        shutil.copytree(self.root / "src" / "noether" / "fixtures", self.fixtures)
        for name, text in self.generated_files().items():
            (self.fixtures / name).write_text(text, encoding="utf-8")

    def generated_files(self) -> Dict[str, str]:
        return {}

    def load(self):
        """What the first unit needs: set-up, as a user pays it once per run."""
        return None

    # work --------------------------------------------------------------

    def cli_argv(self) -> List[str]:
        raise NotImplementedError

    def steps(self, inputs) -> List[Callable[[], object]]:
        """One unit of work, as the calls that make it up.  The unit's
        output is the list of what they return."""
        raise NotImplementedError

    def check_unit(self, output) -> List[str]:
        raise NotImplementedError

    def check_cli(self, rc: int, stdout: str) -> List[str]:
        raise NotImplementedError

    def reports(self, output) -> List[str]:
        """The report texts a unit produced, compared traced vs untraced."""
        return [text for _, text in output]


def _blindness_cfg(seed: int, suts: str) -> str:
    return f"#noether-spec v1\nmutators {CATEGORIES}\nseed {seed}\nsuts {suts}\n"


class Reproduce(Workload):
    name = "reproduce"
    why = "the full 37-check suite; deep gcdSig/lcmSig bodies put the time in evaluation and the equivalence filter"
    required_layers = LAYERS

    def generated_files(self):
        return {"blindness.cfg": _blindness_cfg(self.seed, REPRODUCE_SUTS)}

    def load(self):
        from noether import zoo

        zoo.load_zoo()
        zoo.load_mutator_config()
        for name in zoo.BUNDLED_ALGEBRAS:
            zoo.load_algebra(name)
        for name in DESCRIPTOR_GOLDENS:
            zoo.load_descriptor(name)

    def cli_argv(self):
        return ["reproduce", "--format", "machine"]

    def steps(self, inputs):
        return [lambda: run_cli(self.cli_argv())]

    def check_unit(self, output):
        (rc, text), = output
        return self.check_cli(rc, text)

    def check_cli(self, rc, text):
        problems = [] if rc == 0 else [f"reproduce exit {rc}"]
        header, rows = parse_report(text)
        problems += _header_problems(header, "reproduce", self.seed)
        checks = [r for r in rows if r["section"] == "checks"]
        red = [r["check"] for r in checks if not r["ok"]]
        summary = [r for r in rows if r["section"] == "summary"]
        if len(checks) != 37 or red or summary != [
            {"section": "summary", "checks": 37, "failed": 0, "status": "green"}
        ]:
            problems.append(f"reproduce not 37/37 green: {len(checks)} checks, red {red}")
        if self.seed == REFERENCE_SEED:
            kills = {
                r["sut"]: (r["scaling_kills"], r["mutants"])
                for r in rows
                if r["section"] == "scaling kills per subject"
            }
            if kills != FROZEN_KILLS:
                problems.append(f"kills {kills} differ from the frozen table")
            if text != REFERENCE_REPORT.read_text(encoding="utf-8"):
                problems.append("machine report differs from the stored reference report")
        return problems


class KillShallow(Workload):
    name = "kill-shallow"
    why = "kill experiment on eight one-statement subjects; per-call and per-mutant fixed costs (sampling, compiles, cells) dominate"
    required_layers = ("minilang", "mutate", "zoo", "harness", "specfile", "cli")

    def generated_files(self):
        return {"shallow.cfg": _blindness_cfg(self.seed, ",".join(SHALLOW_SUTS))}

    def load(self):
        from noether import zoo

        zoo.load_zoo()
        zoo.load_mutator_config("shallow")

    def cli_argv(self):
        return ["kill", "--config", "shallow", "--seed", str(self.seed), "--format", "machine"]

    def steps(self, inputs):
        return [lambda: run_cli(self.cli_argv())]

    def check_unit(self, output):
        (rc, text), = output
        return self.check_cli(rc, text)

    def check_cli(self, rc, text):
        problems = [] if rc == 0 else [f"kill exit {rc}"]
        header, rows = parse_report(text)
        problems += _header_problems(header, "kill", self.seed)
        kills = {
            r["sut"]: (r["scaling_kills"], r["mutants"])
            for r in rows
            if r["section"] == "scaling kills per subject"
        }
        verdict = [r for r in rows if r["section"] == "verdict"]
        expected = {
            "section": "verdict",
            "falsification": "pass",
            "preserving_kills": 0,
            "concordance": True,
            "excluded_mrs": 0,
        }
        if verdict != [expected]:
            problems.append(f"science gates not held: {verdict}")
        if sorted(kills) != sorted(SHALLOW_SUTS):
            problems.append(f"subjects {sorted(kills)}")
        stray = {s: kills[s][0] for s in NO_SCALING_SUTS if kills.get(s, (0, 0))[0]}
        if stray:
            problems.append(f"scaling kills on subjects without a scaling MR: {stray}")
        if self.seed == REFERENCE_SEED:
            got = {s: kills.get(s) for s in FROZEN_KILLS if s in SHALLOW_SUTS}
            want = {s: FROZEN_KILLS[s] for s in got}
            if got != want:
                problems.append(f"frozen kills {got} differ from {want}")
        return problems


class RelTrials(Workload):
    name = "rel-trials"
    why = "1,000 seeded databases x 4 rewrite MRs x 3 evaluators; bypasses minilang, mutate and harness"
    required_layers = ("relational", "specfile", "cli")

    def load(self):
        from noether import relational

        relational.bundled_rules()

    def _argv(self, mutant: str) -> List[str]:
        return ["rel", "--trials", str(REL_TRIALS), "--seed", str(self.seed), "--format", "machine",
                "--mutant", mutant]

    def cli_argv(self):
        return self._argv("correct")

    def steps(self, inputs):
        return [lambda m=m: run_cli(self._argv(m)) for m in REL_MUTANTS]

    def check_unit(self, output):
        problems = []
        for mutant, (rc, text) in zip(REL_MUTANTS, output):
            problems += self._check(mutant, rc, text)
        return problems

    def check_cli(self, rc, text):
        return self._check("correct", rc, text)

    def _check(self, mutant, rc, text):
        header, rows = parse_report(text)
        problems = _header_problems(header, "rel", self.seed)
        fails = {r["mr"]: r["fails"] for r in rows}
        trials = {r["mr"]: r["passes"] + r["fails"] for r in rows}
        if set(trials.values()) != {REL_TRIALS}:
            problems.append(f"{mutant}: trials {trials}")
        if mutant == "correct" and (rc != 0 or any(fails.values())):
            problems.append(f"correct evaluator failed: exit {rc}, {fails}")
        if mutant == "biased-join" and (rc != 1 or not fails.get("rho_join-comm")):
            problems.append(f"rho_join-comm missed the left-semi join: exit {rc}, {fails}")
        if mutant == "guardless-pushdown" and (rc != 1 or not fails.get("rho_select-push")):
            problems.append(f"rho_select-push missed the guardless pushdown: exit {rc}, {fails}")
        if self.seed == REFERENCE_SEED and fails != REL_REFERENCE_FAILS[mutant]:
            problems.append(f"{mutant}: fails {fails} differ from the reference")
        return problems


def wide_algebra(n: int, rng: random.Random) -> Tuple[str, Dict[str, int]]:
    """An .alg text with n operators and its operator count per block tag."""
    census = dict.fromkeys(BLOCK_TAGS, 0)
    lines = ["#noether-spec v1", f"algebra wide{n}"]
    names = []
    for i in range(n):
        tags = rng.sample(BLOCK_TAGS, rng.randint(1, 3))
        name = f"op{i:05d}"
        parts = [f"operator {name}", "acts=" + rng.choice(("input", "output", "both", "param")),
                 "blocks=" + ",".join(tags)]
        if "G" in tags:
            parts += ["regime=" + rng.choice(("finite", "lie", "trunc")), f"size={rng.randint(0, 20)}"]
        cost = rng.randint(1, 3)
        if cost != 1:
            parts.append(f"cost={cost}")
        lines.append(" ".join(parts))
        names.append(name)
        for tag in tags:
            census[tag] += 1
    lines.append("generators " + ",".join(names))
    if census["B_rel"]:
        lines.extend(REWRITE_LINES)
    label_block = rng.choice(BLOCK_TAGS)
    if census[label_block]:
        lines.append(f"label {label_block}=m_wide_{label_block.lower()}")
    return "\n".join(lines) + "\n", census


class DeriveWide(Workload):
    name = "derive-wide"
    why = "generated algebras of 10 to 10,000 operators; spec parsing, derivation and reachability carry all the time"
    required_layers = ("specfile", "algebra", "derive", "reachability", "harness")

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = random.Random(seed)
        self.algebras = {n: wide_algebra(n, rng) for n in WIDE_SIZES}

    def generated_files(self):
        return {f"wide{n}.alg": text for n, (text, _) in self.algebras.items()}

    def load(self):
        from noether import zoo

        texts = {n: (self.fixtures / f"wide{n}.alg").read_text(encoding="utf-8") for n in WIDE_SIZES}
        descriptors = {name: zoo.load_descriptor(name) for name in DESCRIPTOR_GOLDENS}
        return texts, descriptors

    def cli_argv(self):
        return ["derive", str(self.fixtures / f"wide{WIDE_CLI_SIZE}.alg"), "--format", "machine"]

    def steps(self, inputs):
        texts, descriptors = inputs
        return [lambda n=n: self._derive(n, texts[n], descriptors) for n in WIDE_SIZES]

    @staticmethod
    def _derive(n, text, descriptors):
        from noether import derive, harness, reachability, specfile

        algebra = specfile.parse_algebra(text)
        counter = derive.CostCounter()
        patterns = derive.construct_mp(algebra, counter)
        verdicts = {name: reachability.check_reachability(d, algebra) for name, d in descriptors.items()}
        blocks = [v.assigned_block for v in verdicts.values() if v.reachable]
        score = harness.coverage(blocks, algebra)
        return n, algebra, patterns, counter.total, verdicts, score

    def reports(self, output):
        return [
            json.dumps(
                {
                    "n": n,
                    "patterns": [(p.label, p.block.tag, len(p.members)) for p in patterns],
                    "cost": cost,
                    "verdicts": {
                        name: (v.reachable, v.obstruction_tags(),
                               v.assigned_block.tag if v.assigned_block else None)
                        for name, v in verdicts.items()
                    },
                    "coverage": str(score),
                },
                sort_keys=True,
            )
            for n, _, patterns, cost, verdicts, score in output
        ]

    def check_unit(self, output):
        from noether import specfile

        problems = []
        for n, algebra, patterns, _, verdicts, score in output:
            census = self.algebras[n][1]
            populated = {tag: count for tag, count in census.items() if count}
            got = {p.block.tag: len(p.members) for p in patterns}
            if got != populated:
                problems.append(f"wide{n}: census {got} != operator count {populated}")
            if specfile.parse_algebra(specfile.algebra_to_text(algebra)) != algebra:
                problems.append(f"wide{n}: parse(print(a)) != a")
            reached = set()
            for name, (tags, block) in DESCRIPTOR_GOLDENS.items():
                v = verdicts[name]
                assigned = v.assigned_block.tag if v.assigned_block else None
                expect_block = block if block and census[block] else None
                if v.obstruction_tags() != tags or assigned != expect_block:
                    problems.append(f"wide{n}/{name}: {v.obstruction_tags()} {assigned}")
                if expect_block:
                    reached.add(expect_block)
            if score != Fraction(len(reached), len(populated)):
                problems.append(f"wide{n}: coverage {score}")
        return problems

    def check_cli(self, rc, text):
        problems = [] if rc == 0 else [f"derive exit {rc}"]
        header, rows = parse_report(text)
        problems += _header_problems(header, "derive", None)
        census = {tag: c for tag, c in self.algebras[WIDE_CLI_SIZE][1].items() if c}
        got = {r["block"]: r["invariants"] for r in rows if "block" in r}
        if got != census:
            problems.append(f"derive census {got} != {census}")
        return problems


WORKLOADS = {w.name: w for w in (Reproduce, KillShallow, RelTrials, DeriveWide)}


def make(name: str, root: Path, seed: int) -> Workload:
    return WORKLOADS[name](root, seed)

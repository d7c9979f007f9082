"""End-to-end CLI tests: exit codes, output formats, the reproduce driver."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from noether import cli, zoo
from noether.specfile import HEADER

SEED = 20260816
ROOT = Path(__file__).resolve().parent.parent
REFERENCE_REPORT = ROOT / "perfbench" / "reference" / "reproduce-20260816.jsonl"


FIXTURES = Path(zoo.__file__).with_name("fixtures")
SRC = ROOT / "src"
# the bundled query-plan algebra with one rule whose rhs names a variable Q
# that its lhs does not bind
UNBOUND_RULE_ALGEBRA = (FIXTURES / "relational.alg").read_text().replace(
    "rhs=select(p,R) guard=none", "rhs=select(p,Q) guard=none"
)
# the bundled query-plan algebra with a pushdown guard that reads the
# attributes of a plan, where a predicate belongs
PLAN_GUARD_ALGEBRA = (FIXTURES / "relational.alg").read_text().replace(
    "guard=attrs(p) subset attrs(R)", "guard=attrs(R) subset attrs(S)"
)
# the bundled query-plan algebra with the pushdown rule's guard dropped
GUARDLESS_RULE_ALGEBRA = (FIXTURES / "relational.alg").read_text().replace(
    "guard=attrs(p) subset attrs(R)", "guard=none"
)
# the bundled zoo with midpoint's body behind two negations: its INVERT_NEGS
# mutants populate the case-dependent (INVERT_NEGS, G) and (INVERT_NEGS,
# L_star) cells, for which no override exists
NEGATED_MIDPOINT_ZOO = (FIXTURES / "zoo.sut").read_text().replace(
    "return (a + b) / 2\n", "return -(-(a + b) / 2)\n"
)

OPERATOR_F = "operator f acts=input blocks=O_le"
# sha256 of `derive --format machine` on the benchmark's generated algebras
WIDE_DIGESTS = {
    1000: "207851f62901d214034768416f68cbab3df74e55ce1dfbae77a4bb04239d98ba",
    10000: "417aa43a1733f1102f24e03adc2d0e6413b0b7d65c7749382b5ff06e9b96a4ee",
}

# not UTF-8: 0xff never starts a character
UNDECODABLE = HEADER.encode() + b"\n\xff\n"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestExitCodes:
    def test_derive_ok(self, capsys):
        code, out, _ = run(["derive", "boltzmann"], capsys)
        assert code == 0
        assert "m_inv" in out

    def test_unknown_fixture_is_usage_error(self, capsys):
        code, _, err = run(["derive", "nonesuch"], capsys)
        assert code == 2
        assert "missing fixture" in err

    def test_missing_alg_file(self, capsys):
        code, _, err = run(["derive", "/tmp/does-not-exist.alg"], capsys)
        assert code == 2

    def test_malformed_alg_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("#noether-spec v1\nalgebra x\noperator f acts=both blocks=Z9\n")
        code, _, err = run(["derive", str(bad)], capsys)
        assert code == 2
        assert "rejected" in err

    def test_duplicate_generators(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("#noether-spec v1\nalgebra x\noperator f acts=input blocks=O_le\ngenerators f,f\n")
        code, out, err = run(["derive", str(bad)], capsys)
        assert code == 2 and not out
        assert "x: duplicate generator names ['f']" in err

    def test_mutate_unknown_sut(self, capsys):
        code, _, err = run(["mutate", "nonesuch"], capsys)
        assert code == 2
        assert "unknown sut" in err

    @pytest.mark.parametrize("argv", (["mutate", "gcdSig"], ["rel", "--trials", "1"]), ids=("mutate", "rel"))
    def test_out_into_a_missing_directory_names_the_output(self, tmp_path, argv, capsys):
        dest = tmp_path / "nodir" / "x"
        code, out, err = run(argv + ["--out", str(dest)], capsys)
        assert code == 2 and not out
        assert err == f"noether: cannot write report to {dest}: No such file or directory\n"

    def test_stats_arity_guard(self, capsys):
        code, _, err = run(["stats", "wilson", "7"], capsys)
        assert code == 2
        assert "expected 2 integers" in err

    @pytest.mark.parametrize("categories,unknown", (("FOO", "FOO"), ("", ""), ("MATH,ZZZ,AAA", "ZZZ")))
    def test_unknown_category_is_named(self, categories, unknown, capsys):
        code, out, err = run(["mutate", "signum", "--categories", categories], capsys)
        assert (code, out) == (2, "")
        assert err == f"mutate: unknown mutator category {unknown!r}\n"

    def test_fixture_dir_override_empty(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NOETHER_FIXTURES", str(tmp_path))
        code, _, err = run(["derive", "boltzmann"], capsys)
        assert code == 2
        assert "missing fixture" in err

    @pytest.mark.parametrize(
        "argv,fixture",
        (
            (["stats", "wilson", "5", "3"], None),
            (["mutate", "signum", "--categories", "FOO"], None),
            (["mutate", "midpoint", "--categories", ""], None),
            (["kill", "--config", "empty"], ("empty.cfg", f"{HEADER}\nmutators\n")),
            (["rel", "--trials", "0"], None),
            (["kill", "--config", "unknown_sut"], ("unknown_sut.cfg", f"{HEADER}\nsuts nosuch\n")),
            (["kill", "--config", "no_sut"], ("no_sut.cfg", f"{HEADER}\nsuts ,\n")),
            (["mutate", "signum", "--seed", "-1"], None),
            (["kill", "--seed", "-1"], None),
            (["reproduce", "--seed", "-1"], None),
            (["derive", "nosuch"], None),
            (["check-mr", "nosuch", "--algebra", "boltzmann"], None),
            (["coverage", "--algebra", "equivariant", "--mr", "nosuch"], None),
            (["rel"], ("relational.alg", UNBOUND_RULE_ALGEBRA)),
            (["rel"], ("relational.alg", PLAN_GUARD_ALGEBRA)),
            (["mutate", "midpoint"], ("zoo.sut", NEGATED_MIDPOINT_ZOO)),
            (["kill"], ("zoo.sut", NEGATED_MIDPOINT_ZOO)),
            (["reproduce"], ("zoo.sut", NEGATED_MIDPOINT_ZOO)),
            (["kill", "--config", "neg"], ("neg.cfg", f"{HEADER}\nseed -5\n")),
            (["reproduce", "--config", "neg"], ("neg.cfg", f"{HEADER}\nseed -5\n")),
            (["derive", "boltzmann"], ("boltzmann.alg", UNDECODABLE)),
            (["mutate", "signum"], ("zoo.sut", UNDECODABLE)),
            (["derive", "named"], ("named.alg", f"{HEADER}\nalgebra a extra\n{OPERATOR_F}\ngenerators f\n")),
            (["check-mr", "named", "--algebra", "boltzmann"], ("named.mr", f"{HEADER}\nmr rho_x junk\n")),
            (["derive", "sized"], ("sized.alg", f"{HEADER}\nalgebra a\n{OPERATOR_F} size=5\ngenerators f\n")),
            (["kill", "--config", "ov"], ("ov.cfg", f"{HEADER}\nsuts clamp\noverride nosuch MATH O_le=breaks\n")),
            (["kill", "--config", "ov"], ("ov.cfg", f"{HEADER}\nsuts clamp\noverride clamp MATH G=preserves\n")),
            (["kill", "--config", "ov"], ("ov.cfg", f"{HEADER}\nsuts clamp\noverride midpoint MATH O_le=breaks\n")),
        ),
        ids=(
            "wilson-successes-above-n",
            "unknown-category",
            "mutate-empty-categories",
            "kill-empty-categories",
            "zero-trials",
            "unknown-sut",
            "kill-empty-suts",
            "mutate-negative-seed",
            "kill-negative-seed",
            "reproduce-negative-seed",
            "derive-unknown-algebra",
            "check-mr-unknown-descriptor",
            "coverage-unknown-descriptor",
            "rel-unbound-rule-variable",
            "rel-guard-on-a-plan",
            "mutate-missing-override",
            "kill-missing-override",
            "reproduce-missing-override",
            "kill-negative-config-seed",
            "reproduce-negative-config-seed",
            "derive-undecodable-fixture",
            "mutate-undecodable-fixture",
            "derive-words-after-algebra-name",
            "check-mr-words-after-mr-name",
            "derive-size-without-regime",
            "kill-override-of-no-subject",
            "kill-override-of-a-fixed-cell",
            "kill-override-of-a-subject-left-out",
        ),
    )
    def test_bad_input_is_one_line_exit_2(self, argv, fixture, tmp_path, monkeypatch, capsys):
        # every bundled fixture plus at most one written by the row, so each
        # row fails only for its own bad input
        shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
        if fixture:
            name, text = fixture
            (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        monkeypatch.setenv("NOETHER_FIXTURES", str(tmp_path))
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize(
        "argv",
        (
            ["derive", "bad.alg"],
            ["check-mr", "bad.mr", "--algebra", "boltzmann"],
            ["kill", "--config", "bad.cfg"],
            ["reproduce", "--config", "bad.cfg"],
            ["stats", "fleiss", "--matrix", "bad.tsv"],
            ["check-mr", "good.mr", "--algebra", "bad.alg"],
        ),
        ids=("derive", "check-mr", "kill", "reproduce", "stats-fleiss", "check-mr-second-file"),
    )
    def test_undecodable_file_is_one_line_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        bad = next(a for a in argv if a.startswith("bad."))
        (tmp_path / bad).write_bytes(UNDECODABLE)
        shutil.copy(FIXTURES / "rho_rot.mr", tmp_path / "good.mr")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"noether: undecodable input: {bad}: "), err


class TestMachineFormat:
    def test_header_and_sorted_keys(self, capsys):
        code, out, _ = run(["derive", "sort", "--format", "machine"], capsys)
        assert code == 0
        rows = machine_lines(out)
        assert rows[0] == {"command": "derive", "report_version": 1, "seed": None}
        for line in out.splitlines():
            obj = json.loads(line)
            assert list(obj) == sorted(obj)

    def test_bit_identical_reruns(self, capsys):
        a = run(["rel", "--trials", "10", "--seed", str(SEED), "--format", "machine"], capsys)
        b = run(["rel", "--trials", "10", "--seed", str(SEED), "--format", "machine"], capsys)
        assert a == b
        c = run(["derive", "boltzmann", "--format", "machine"], capsys)
        d = run(["derive", "boltzmann", "--format", "machine"], capsys)
        assert c == d

    def test_wide_algebras_derive_the_pinned_bytes(self, tmp_path, capsys):
        """`derive-wide`'s 1,000- and 10,000-operator algebras at seed SEED,
        generated by the benchmark's own code in a separate interpreter."""
        script = (
            "import pathlib, random, workloads\n"
            f"out = pathlib.Path({str(tmp_path)!r})\n"
            f"rng = random.Random({SEED})\n"
            "for n in workloads.WIDE_SIZES:\n"
            "    text, _ = workloads.wide_algebra(n, rng)\n"
            "    (out / f'wide{n}.alg').write_text(text)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        for n, digest in WIDE_DIGESTS.items():
            code, out, _ = run(["derive", str(tmp_path / f"wide{n}.alg"), "--format", "machine"], capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, n

    def test_out_writes_file(self, tmp_path, capsys):
        dest = tmp_path / "report.jsonl"
        code, out, _ = run(
            ["derive", "equivariant", "--format", "machine", "--out", str(dest)], capsys
        )
        assert code == 0
        assert out == ""
        rows = machine_lines(dest.read_text())
        labels = [r["label"] for r in rows if r.get("section", "").startswith("MetaPatterns")]
        assert labels == ["m_inv", "m_mono", "m_adj", "m_rev", "m_conv"]

    def test_reports_do_not_depend_on_the_hash_seed(self):
        """Interpreters with different string-hash seeds print the same bytes,
        so no report follows the iteration order of a set or a hash."""
        argvs = [["derive", name, "--format", "machine"] for name in zoo.BUNDLED_ALGEBRAS]
        argvs.append(["mutate", "gcdSig", "--seed", str(SEED), "--format", "machine"])
        code = f"from noether import cli\nfor argv in {argvs!r}:\n    assert cli.main(argv) == 0\n"
        env = {k: v for k, v in os.environ.items() if k != "NOETHER_FIXTURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(env, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                check=True,
            ).stdout
            for hash_seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b'"report_version"') == len(argvs)

    @pytest.mark.parametrize(
        "argv",
        (
            ["derive", "sort"],
            ["check-mr", "rho_rot", "--algebra", "equivariant"],
            ["coverage", "--algebra", "equivariant", "--mr", "rho_rot"],
            ["stats", "wilson", "7", "20"],
        ),
        ids=("derive", "check-mr", "coverage", "stats"),
    )
    def test_subcommands_that_draw_nothing_take_no_seed(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "5"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(argv + ["--format", "machine"], capsys)
        assert code == 0
        assert machine_lines(out)[0] == {"command": argv[0], "report_version": 1, "seed": None}

    def test_derive_rows_and_cost_of_the_bundled_algebras(self, capsys):
        got = {}
        for name in DERIVE_TABLE:
            code, out, _ = run(["derive", name, "--format", "machine"], capsys)
            assert code == 0
            rows = machine_lines(out)[1:]
            got[name] = (
                [(r["label"], r["block"], r["invariants"]) for r in rows[:-1]],
                rows[-1]["total_units"],
            )
        assert got == DERIVE_TABLE


# `derive NAME --format machine`: (label, block, invariants) rows and the
# cost section's total_units, per bundled algebra
DERIVE_TABLE = {
    "boltzmann": (
        [
            ("m_inv", "G", 2),
            ("m_mono", "O_le", 2),
            ("m_adj", "T_star", 1),
            ("m_rev", "T_rev", 1),
            ("m_conv", "L_star", 1),
            ("m_dyn", "D_star", 1),
            ("m_cmp", "E_star", 1),
        ],
        36,
    ),
    "equivariant": (
        [
            ("m_inv", "G", 2),
            ("m_mono", "O_le", 1),
            ("m_adj", "T_star", 1),
            ("m_rev", "T_rev", 1),
            ("m_conv", "L_star", 1),
        ],
        24,
    ),
    "sort": ([("m_inv", "G", 1), ("m_mono", "O_le", 1)], 8),
    "relational": (
        [
            ("m_rel_inv", "G", 1),
            ("m_rel_mono", "O_le", 1),
            ("m_rel_cmp", "E_star", 1),
            ("m_rel", "B_rel", 1),
        ],
        16,
    ),
    "ffn": ([("m_stab", "L_star", 1)], 4),
    "pwr": (
        [
            ("m_inv", "G", 1),
            ("m_mono", "O_le", 2),
            ("m_adj", "T_star", 1),
            ("m_conv", "L_star", 1),
            ("m_dyn", "D_star", 1),
            ("m_cmp", "E_star", 1),
        ],
        28,
    ),
}


class TestSubcommands:
    def test_check_mr_blocked(self, capsys):
        code, out, _ = run(
            ["check-mr", "rho_nonadd", "--algebra", "boltzmann", "--format", "machine"], capsys
        )
        assert code == 0
        (row,) = [r for r in machine_lines(out) if r.get("section") == "reachability"]
        assert row["reachable"] is False
        assert row["obstructions"] == "O1,O2,O3"
        assert row["assigned_block"] == "-"

    def test_check_mr_assigned(self, capsys):
        code, out, _ = run(
            ["check-mr", "rho_rot", "--algebra", "equivariant", "--format", "machine"], capsys
        )
        assert code == 0
        (row,) = [r for r in machine_lines(out) if r.get("section") == "reachability"]
        assert row["reachable"] is True and row["assigned_block"] == "G"

    def test_coverage_partial_set(self, capsys):
        code, out, _ = run(
            [
                "coverage",
                "--algebra",
                "equivariant",
                "--mr",
                "rho_rot",
                "--mr",
                "rho_train",
                "--format",
                "machine",
            ],
            capsys,
        )
        assert code == 0
        (row,) = [r for r in machine_lines(out) if r.get("section") == "coverage"]
        assert row["fraction"] == "2/5"
        assert row["value"] == 0.4

    def test_coverage_rejects_underivable(self, capsys):
        code, _, err = run(
            ["coverage", "--algebra", "boltzmann", "--mr", "rho_nonadd"], capsys
        )
        assert code == 1
        assert "not derivable" in err

    def test_mutate_category_filter(self, capsys):
        code, out, _ = run(
            ["mutate", "signum", "--categories", "RETURN_VALS", "--format", "machine"], capsys
        )
        assert code == 0
        rows = [r for r in machine_lines(out) if "category" in r]
        assert len(rows) == 1
        assert rows[0]["category"] == "RETURN_VALS"
        assert rows[0]["id"] == "signum/RETURN_VALS@0:root"

    def test_mutate_header_records_the_seed_used(self, capsys):
        code, out, _ = run(["mutate", "midpoint", "--format", "machine"], capsys)
        assert code == 0
        default = machine_lines(out)
        assert default[0] == {"command": "mutate", "report_version": 1, "seed": 0}
        code, out, _ = run(["mutate", "midpoint", "--seed", "0", "--format", "machine"], capsys)
        assert machine_lines(out) == default

    def test_rel_clean_green(self, capsys):
        code, out, _ = run(
            ["rel", "--trials", "20", "--seed", str(SEED), "--format", "machine"], capsys
        )
        assert code == 0
        rows = [r for r in machine_lines(out) if "mr" in r]
        assert {r["mr"] for r in rows} == {
            "rho_join-comm",
            "rho_select-push",
            "rho_distinct-idem",
            "rho_plan-equiv",
        }
        assert all(r["fails"] == 0 for r in rows)

    def test_rel_biased_red(self, capsys):
        code, out, _ = run(
            [
                "rel",
                "--trials",
                "20",
                "--seed",
                str(SEED),
                "--mutant",
                "biased-join",
                "--format",
                "machine",
            ],
            capsys,
        )
        assert code == 1
        (row,) = [r for r in machine_lines(out) if r.get("mr") == "rho_join-comm"]
        assert row["fails"] == 20

    def test_rel_fires_the_algebras_own_rules(self, tmp_path, monkeypatch, capsys):
        # with its guard dropped from relational.alg, the pushdown moves a
        # predicate on S's column into R even under the correct evaluator
        shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
        (tmp_path / "relational.alg").write_text(GUARDLESS_RULE_ALGEBRA)
        monkeypatch.setenv("NOETHER_FIXTURES", str(tmp_path))
        code, out, _ = run(
            ["rel", "--trials", "200", "--seed", str(SEED), "--mutant", "correct", "--format", "machine"],
            capsys,
        )
        assert code == 1
        fails = {r["mr"]: r["fails"] for r in machine_lines(out) if "mr" in r}
        assert fails["rho_select-push"] > 0
        assert [mr for mr, f in fails.items() if f] == ["rho_select-push"]

    def test_spec_error_names_its_subject_once(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bogus.mr").write_text(f"{HEADER}\nmr rho_x\noutput=bogus\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["check-mr", "bogus.mr", "--algebra", "boltzmann"], capsys)
        assert code == 2 and out == ""
        assert err == "noether: spec file rejected: rho_x: bad output domain 'bogus'\n"

    def test_stats_wilson(self, capsys):
        code, out, _ = run(["stats", "wilson", "7", "20", "--format", "machine"], capsys)
        assert code == 0
        (row,) = [r for r in machine_lines(out) if r.get("section") == "wilson"]
        assert row["lo"] == pytest.approx(0.181192, abs=5e-6)
        assert row["hi"] == pytest.approx(0.567146, abs=5e-6)

    def test_stats_fleiss_bundled_matrix(self, capsys):
        code, out, _ = run(["stats", "fleiss", "--format", "machine"], capsys)
        assert code == 0
        (row,) = [r for r in machine_lines(out) if r.get("section") == "fleiss"]
        assert row["kappa"] == pytest.approx(0.856954, abs=1e-6)

    def test_stats_fleiss_matrix_names_a_file_or_a_fixture(self, tmp_path, monkeypatch, capsys):
        # a unanimous two-category matrix scores exactly 1, the bundled one 0.857;
        # a bare name is the fixture whatever the working directory holds
        for name in ("fleiss_audit.tsv", "fleiss_audit"):
            (tmp_path / name).write_text("a\ta\nb\tb\n")
        monkeypatch.chdir(tmp_path)
        kappas = []
        for ref in ("fleiss_audit.tsv", str(tmp_path / "fleiss_audit"), "fleiss_audit"):
            code, out, err = run(["stats", "fleiss", "--matrix", ref, "--format", "machine"], capsys)
            assert code == 0, err
            kappas.append(machine_lines(out)[1]["kappa"])
        assert kappas[:2] == [1.0, 1.0]
        assert kappas[2] == pytest.approx(0.856954, abs=1e-6)

    def test_label_matrix_rows_end_only_at_line_breaks(self):
        assert cli._tsv_rows("a\tb\x0b c\r\nd\x85\te\rf\tg\n\n") == [["a", "b\x0b c"], ["d\x85", "e"], ["f", "g"]]


@pytest.fixture(scope="module")
def kill_run(tmp_path_factory):
    dest = tmp_path_factory.mktemp("cli") / "kill.jsonl"
    code = cli.main(["kill", "--format", "machine", "--out", str(dest)])
    return code, machine_lines(dest.read_text())


@pytest.fixture(scope="module")
def reproduce_bytes(tmp_path_factory):
    dest = tmp_path_factory.mktemp("cli") / "reproduce.jsonl"
    code = cli.main(["reproduce", "--format", "machine", "--out", str(dest)])
    return code, dest.read_bytes()


@pytest.fixture(scope="module")
def reproduce_run(reproduce_bytes):
    code, raw = reproduce_bytes
    return code, machine_lines(raw.decode("utf-8"))


def kill_rows(rows):
    return [r for r in rows if r.get("section") == "scaling kills per subject"]


class TestKill:
    def test_green(self, kill_run):
        code, rows = kill_run
        assert code == 0
        (verdict,) = [r for r in rows if r.get("section") == "verdict"]
        assert verdict["falsification"] == "pass"
        assert verdict["preserving_kills"] == 0
        assert verdict["concordance"] is True
        assert verdict["excluded_mrs"] == 0

    def test_config_path_is_read_from_disk(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{HEADER}\nseed {SEED}\nsuts midpoint\n")
        code, out, err = run(["kill", "--config", str(cfg), "--format", "machine"], capsys)
        assert code == 0, err
        rows = kill_rows(machine_lines(out))
        assert [(r["sut"], r["scaling_kills"], r["mutants"]) for r in rows] == [("midpoint", 1, 3)]

    def test_header_records_the_config_seed(self, kill_run):
        _, rows = kill_run
        assert rows[0] == {"command": "kill", "report_version": 1, "seed": SEED}

    def test_per_subject_rows(self, kill_run):
        _, rows = kill_run
        kills = {r["sut"]: (r["scaling_kills"], r["mutants"]) for r in kill_rows(rows)}
        assert kills == {
            "clamp": (1, 4),
            "gcdSig": (22, 32),
            "hypotSig": (5, 5),
            "lcmSig": (27, 37),
            "midpoint": (1, 3),
            "signum": (3, 7),
        }


class TestReproduce:
    def test_green_and_complete(self, reproduce_run):
        code, rows = reproduce_run
        assert code == 0
        checks = [r for r in rows if r.get("section") == "checks"]
        assert len(checks) == 37
        assert all(c["ok"] is True for c in checks)
        (summary,) = [r for r in rows if r.get("section") == "summary"]
        assert summary == {
            "section": "summary",
            "checks": 37,
            "failed": 0,
            "status": "green",
        }

    def test_check_roster(self, reproduce_run):
        _, rows = reproduce_run
        names = [r["check"] for r in rows if r.get("section") == "checks"]
        assert names.count("cost:bound") == 1
        assert names.count("sgd:order") == 1
        assert sum(1 for n in names if n.startswith("derive:")) == 5
        assert sum(1 for n in names if n.startswith("reachability:")) == 6
        assert sum(1 for n in names if n.startswith("obstruction:")) == 5
        assert sum(1 for n in names if n.startswith("blindness:")) == 4
        assert sum(1 for n in names if n.startswith("relational:")) == 3
        assert sum(1 for n in names if n.startswith("stats:")) == 9
        assert sum(1 for n in names if n.startswith("coverage:")) == 3

    def test_machine_report_matches_the_reference(self, reproduce_bytes):
        _, raw = reproduce_bytes
        assert raw == REFERENCE_REPORT.read_bytes()

    def test_seed_reaches_the_blindness_stage(self, capsys):
        code, out, _ = run(["reproduce", "--seed", "11", "--format", "machine"], capsys)
        assert code == 0
        reproduced = machine_lines(out)
        code, out, _ = run(["kill", "--seed", "11", "--format", "machine"], capsys)
        assert code == 0
        killed = machine_lines(out)
        assert reproduced[0]["seed"] == killed[0]["seed"] == 11
        assert kill_rows(reproduced) == kill_rows(killed)
        kills = {r["sut"]: (r["scaling_kills"], r["mutants"]) for r in kill_rows(killed)}
        assert kills["gcdSig"] == (23, 32)
        assert kills["lcmSig"] == (28, 37)

    def test_tamper_goes_red(self, tmp_path, capsys):
        dest = tmp_path / "tampered.jsonl"
        code = cli.main(["reproduce", "--tamper", "--format", "machine", "--out", str(dest)])
        capsys.readouterr()
        assert code == 1
        rows = machine_lines(dest.read_text())
        (summary,) = [r for r in rows if r.get("section") == "summary"]
        assert summary["status"] == "red"
        assert summary["failed"] > 0
        bad = [r["check"] for r in rows if r.get("section") == "checks" and not r["ok"]]
        assert "blindness:concordance" in bad


class TestHumanFormat:
    def test_tables_render(self, capsys):
        code, out, _ = run(["derive", "relational"], capsys)
        assert code == 0
        assert "== MetaPatterns for relational ==" in out
        assert "m_rel_inv" in out and "B_rel" in out

    def test_booleans_render_as_words(self, capsys):
        code, out, _ = run(["check-mr", "rho_adj", "--algebra", "equivariant"], capsys)
        assert code == 0
        assert "yes" in out

    def test_two_sections_render_exactly(self, capsys):
        code, out, _ = run(
            ["coverage", "--algebra", "equivariant", "--mr", "rho_rot", "--mr", "rho_train"], capsys
        )
        assert code == 0
        assert out == (
            "== members ==\n"
            "  descriptor  block \n"
            "  rho_rot     G     \n"
            "  rho_train   L_star\n"
            "\n"
            "== coverage ==\n"
            "  fraction  value\n"
            "  2/5       0.4  \n"
        )

    def test_boolean_cell_renders_exactly(self, capsys):
        code, out, _ = run(["check-mr", "rho_adj", "--algebra", "equivariant"], capsys)
        assert code == 0
        assert out == (
            "== reachability ==\n"
            "  descriptor  reachable  obstructions  assigned_block\n"
            "  rho_adj     yes        -             T_star        \n"
        )


LAZY_MODULES = (
    "_rng", "minilang", "mutate", "harness", "plans", "reachability", "relational", "stats", "reproduce",
)
# `derive` and `check-mr` read spec files and derive; `check-mr` also runs
# `reachability`, and an algebra's rewrite lines run `plans`
UNRUN_BY_DERIVE = {"_rng", "minilang", "mutate", "harness", "relational", "stats", "reproduce"}
# `fractions` imports `decimal`; only `coverage`, `stats` and `reproduce` need it
NUMBER_MODULES = ("fractions", "decimal")


def fresh_python(code, *flags, path=(SRC,)):
    """The stdout of `code` run in a fresh interpreter that imports from `path`."""
    env = {k: v for k, v in os.environ.items() if k != "NOETHER_FIXTURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, path), env.get("PYTHONPATH")]))
    argv = [sys.executable, *flags, "-c", code]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout


class TestCommandsLoadWhatTheyRun:
    """`import noether.cli` registers every module; a command runs only the
    ones it uses."""

    @pytest.mark.parametrize(
        "argv, unrun",
        (
            (["derive", "boltzmann"], UNRUN_BY_DERIVE | {"plans"}),
            (["derive", str(FIXTURES / "relational.alg")], UNRUN_BY_DERIVE),
            (["check-mr", "rho_rot", "--algebra", "equivariant"], UNRUN_BY_DERIVE | {"plans"}),
            (["rel", "--trials", "3"], set(LAZY_MODULES) - {"_rng", "plans", "relational"}),
            (["kill"], {"plans", "relational", "reproduce", "reachability", "stats"}),
        ),
        ids=("derive", "derive-rewrite-lines", "check-mr", "rel", "kill"),
    )
    def test_command_runs_none_of_the_modules_it_does_not_use(self, argv, unrun):
        # type() reads no attribute, so the check itself loads no module; -S:
        # no site `.pth` file preloads a number module
        code = (
            "import contextlib, io, json, sys\n"
            "from noether import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main({argv!r})\n"
            f"ran = [n for n in {LAZY_MODULES!r} if type(sys.modules['noether.' + n]) is type(sys)]\n"
            f"numbers = [n for n in {NUMBER_MODULES!r} if n in sys.modules]\n"
            "print(json.dumps([rc, ran, numbers]))\n"
        )
        rc, ran, numbers = json.loads(fresh_python(code, "-S"))
        assert rc == 0
        assert not set(ran) & unrun
        assert numbers == []

    def test_package_attributes_are_the_registered_modules(self):
        code = (
            "import sys, noether, noether.cli\n"
            "names = [n for n in sys.modules if n.startswith('noether.')]\n"
            "print(len(names), all(getattr(noether, n[8:]) is sys.modules[n] for n in names))\n"
            "import noether.minilang\n"
            "print(noether.minilang.MAX_DEPTH > 0)\n"
        )
        assert fresh_python(code).split() == ["15", "True", "True"]

    def test_tracer_installs_after_a_bare_cli_import(self):
        code = (
            "import noether.cli\n"
            "from tracer import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "tracer.uninstall()\n"
            "print('installed')\n"
        )
        assert fresh_python(code, path=(SRC, ROOT / "perfbench")).strip() == "installed"

    def test_import_loads_no_archive_resource_or_number_machinery(self):
        # -S: no site `.pth` file preloads any of these
        unwanted = (
            "importlib.resources", "tempfile", "shutil", "pathlib", "lzma", "bz2",
            "urllib.parse", "ipaddress", "statistics", "fractions", "decimal",
        )
        code = f"import sys, noether.cli\nprint(sorted(m for m in {unwanted!r} if m in sys.modules))\n"
        assert fresh_python(code, "-S").strip() == "[]"

"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.litmus.from_execution import to_litmus
from repro.litmus.parse import dumps
from repro.catalog import CATALOG


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_catalog(self, capsys):
        code, out = run(capsys, "catalog")
        assert code == 0
        assert "fig2" in out and "armv8_lock_elision" in out

    def test_check(self, capsys):
        code, out = run(capsys, "check", "fig2")
        assert code == 0
        assert "INCONSISTENT" in out
        assert "StrongIsol" in out

    def test_check_single_model(self, capsys):
        code, out = run(capsys, "check", "fig2", "--model", "sc")
        assert ": consistent" in out

    def test_litmus(self, capsys):
        code, out = run(capsys, "litmus", "fig2", "--arch", "x86")
        assert "XBEGIN" in out

    def test_run_model(self, capsys, tmp_path):
        test = to_litmus(CATALOG["sb"].execution, "sb", "x86")
        path = tmp_path / "sb.litmus"
        path.write_text(dumps(test))
        code, out = run(capsys, "run", str(path))
        assert code == 0
        assert "observable" in out

    def test_run_hw(self, capsys, tmp_path):
        test = to_litmus(CATALOG["sb_mfence"].execution, "sbf", "x86")
        path = tmp_path / "sbf.litmus"
        path.write_text(dumps(test))
        code, out = run(capsys, "run", str(path), "--hw")
        assert "not seen" in out

    def test_synth(self, capsys):
        code, out = run(capsys, "synth", "--arch", "x86", "--events", "2",
                        "--show", "1")
        assert code == 0
        assert "forbid" in out

    def test_table3(self, capsys):
        code, out = run(capsys, "table3")
        assert "TxnReadsLockFree" in out

    def test_ablation(self, capsys):
        code, out = run(capsys, "ablation", "--events", "2")
        assert "atomicity-only" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestNewCommands:
    def test_cat_list(self, capsys):
        code, out = run(capsys, "cat", "--list")
        assert code == 0
        assert "x86tm.cat" in out and "stdlib.cat" in out

    def test_cat_source(self, capsys):
        code, out = run(capsys, "cat", "--source", "sc.cat")
        assert code == 0
        assert "acyclic hb as Order" in out

    def test_cat_evaluate_inconsistent(self, capsys):
        code, out = run(capsys, "cat", "x86", "fig2")
        assert code == 1
        assert "StrongIsol: VIOLATED" in out

    def test_cat_evaluate_consistent(self, capsys):
        code, out = run(capsys, "cat", "cpp", "fig2")
        assert code == 0
        assert "consistent" in out

    def test_diy(self, capsys):
        code, out = run(capsys, "diy", "--model", "x86", "--length", "3")
        assert code == 0
        assert "FORBID" in out and "allow" in out

    def test_diy_forbidden_only(self, capsys):
        code, out = run(
            capsys, "diy", "--model", "sc", "--length", "2",
            "--forbidden-only",
        )
        assert code == 0
        assert "allow" not in out.splitlines()[0]

    def test_lemmas(self, capsys):
        code, out = run(capsys, "lemmas", "--events", "2", "--limit", "300")
        assert code == 0
        assert "Lemma C.1" in out and "holds" in out

    def test_elision_unsound_exit_code(self, capsys):
        code, out = run(capsys, "elision", "--arch", "riscv", "--show")
        assert code == 1
        assert "UNSOUND" in out
        assert "abstract" in out  # --show printed the pair

    def test_elision_fixed_sound(self, capsys):
        code, out = run(
            capsys, "elision", "--arch", "riscv", "--fixed",
            "--budget", "120",
        )
        assert code == 0
        assert "no counterexample" in out

    def test_elision_write_lock(self, capsys):
        code, out = run(
            capsys, "elision", "--arch", "armv8", "--write-lock",
            "--budget", "180",
        )
        assert code == 0

    def test_synth_riscv(self, capsys):
        code, out = run(
            capsys, "synth", "--arch", "riscv", "--events", "2",
        )
        assert code == 0
        assert "forbid" in out.lower()


class TestExitCodes:
    """campaign/fuzz must exit nonzero on disagreements (1) and on
    checker errors (2) — CI gates on these."""

    def test_campaign_clean_exits_zero(self, capsys):
        code, out = run(
            capsys, "campaign", "--arch", "x86", "--models", "x86,sc",
            "--length", "2", "--no-cache",
        )
        assert code == 0

    def test_campaign_disagreement_exits_one(self, capsys):
        # A weakened armv8 flips catalog verdicts against the stock
        # expectations, which the diff report must surface as exit 1.
        code, out = run(
            capsys, "campaign", "--suite", "catalog",
            "--models", "mut:armv8:TxnOrder", "--no-cache",
        )
        assert code == 1
        assert "disagreements with expected verdicts" in out

    def test_campaign_checker_error_exits_two(self, capsys):
        # Oracles judge litmus tests, not bare catalog executions: every
        # cell errors, and the run must say so and exit 2.
        code, out = run(
            capsys, "campaign", "--suite", "catalog",
            "--models", "hw:x86", "--no-cache",
        )
        assert code == 2
        assert "checker errors" in out

    def test_campaign_unknown_model_exits_two(self, capsys):
        code, _ = run(
            capsys, "campaign", "--arch", "x86",
            "--models", "nosuchmodel", "--no-cache",
        )
        assert code == 2

    def test_fuzz_clean_exits_zero(self, capsys):
        code, out = run(
            capsys, "fuzz", "--arch", "x86", "--seed", "0",
            "--budget", "smoke", "--no-cache",
        )
        assert code == 0
        assert "CLEAN" in out

    def test_fuzz_undetected_mutant_exits_one(self, capsys):
        # Dropping x86's Order axiom is extensionally masked by TxnOrder
        # (stronglift(hb) ⊇ hb), so the mutant can never be detected:
        # the run must report the failure and exit 1.
        code, out = run(
            capsys, "fuzz", "--arch", "x86", "--seed", "0",
            "--budget", "smoke", "--mutants", "Order", "--no-cache",
        )
        assert code == 1
        assert "NOT DETECTED" in out

    def test_fuzz_checker_error_exits_two(self, capsys, monkeypatch):
        from repro.sim import oracle

        def boom(self, test):
            raise RuntimeError("injected machine fault")

        monkeypatch.setattr(oracle.MachineHardware, "observable", boom)
        code, out = run(
            capsys, "fuzz", "--arch", "armv8", "--seed", "0",
            "--budget", "smoke", "--no-brute", "--no-cache",
        )
        assert code == 2
        assert "injected machine fault" in out

    def test_fuzz_unknown_mutant_axiom_exits_two(self, capsys):
        code, _ = run(
            capsys, "fuzz", "--arch", "x86", "--seed", "0",
            "--budget", "smoke", "--mutants", "NoSuchAxiom", "--no-cache",
        )
        assert code == 2

    def test_fuzz_writes_reports(self, capsys, tmp_path):
        jsonl = tmp_path / "fuzz.jsonl"
        md = tmp_path / "fuzz.md"
        code, out = run(
            capsys, "fuzz", "--arch", "cpp", "--seed", "0",
            "--budget", "smoke", "--no-cache",
            "--jsonl", str(jsonl), "--report", str(md),
        )
        assert code == 0
        assert jsonl.is_file() and md.is_file()
        import json

        header = json.loads(jsonl.read_text().splitlines()[0])
        assert header["record"] == "header" and header["ok"] is True


class TestExplain:
    def test_explain_catalog_entry(self, capsys):
        code, out = run(capsys, "explain", "--test", "fig2",
                        "--model", "x86,x86tm")
        assert code == 0
        assert "compiled IR DAG" in out
        assert "cross-model" in out
        assert "StrongIsol" in out and "VIOLATED" in out
        # Native x86 and x86tm.cat share the whole DAG: 2.00x.
        assert "sharing=2.00x" in out

    def test_explain_litmus_file(self, capsys, tmp_path):
        test = to_litmus(CATALOG["sb"].execution, "sb", "x86")
        path = tmp_path / "sb.litmus"
        path.write_text(dumps(test))
        code, out = run(capsys, "explain", "--test", str(path),
                        "--model", "x86,sc")
        assert code == 0
        assert "candidate executions" in out
        assert "consistent=" in out

    def test_explain_candidate_dump(self, capsys, tmp_path):
        test = to_litmus(CATALOG["sb"].execution, "sb", "x86")
        path = tmp_path / "sb.litmus"
        path.write_text(dumps(test))
        code, out = run(capsys, "explain", "--test", str(path),
                        "--model", "x86", "--candidate", "0")
        assert code == 0
        assert "Coherence" in out and "cost=" in out

    def test_explain_negated_cat_check(self, capsys, tmp_path):
        """A ``.cat`` model with a negated check is IR like any other:
        DAG stats, and a per-axiom line that honours the negation."""
        path = tmp_path / "hasrf.cat"
        path.write_text(
            "acyclic po | rf | co | fr as Order\n~empty rf as HasRf\n"
        )
        code, out = run(capsys, "explain", "--test", "fig2",
                        "--model", str(path))
        assert code == 0
        assert "axioms=2" in out and "dag_nodes=" in out
        (line,) = [line for line in out.splitlines() if "HasRf" in line]
        assert "~empty" in line and "ok" in line

    def test_explain_bad_model_exits_two(self, capsys):
        code, _ = run(capsys, "explain", "--test", "fig2",
                      "--model", "nosuchmodel")
        assert code == 2

    def test_explain_oracle_exits_two(self, capsys):
        code, _ = run(capsys, "explain", "--test", "fig2",
                      "--model", "hw:x86")
        assert code == 2


class TestRunFrontend:
    """`repro run` over the herd frontend: auto-detection, quantifier
    output, and source-located exit-2 diagnostics."""

    HERD_SB = (
        "X86 SB\n"
        "{ x=0; y=0; }\n"
        " P0          | P1          ;\n"
        " MOV [x],$1  | MOV [y],$1  ;\n"
        " MOV EAX,[y] | MOV EBX,[x] ;\n"
        "exists (0:EAX=0 /\\ 1:EBX=0)\n"
    )

    def _write(self, tmp_path, text, name="t.litmus"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_herd_file(self, capsys, tmp_path):
        path = self._write(tmp_path, self.HERD_SB)
        code, out = run(capsys, "run", path)
        assert code == 0
        assert "observable" in out

    def test_run_tilde_exists_violation_exits_one(self, capsys, tmp_path):
        # Unfenced SB is observable on x86, so claiming ~exists is a
        # conformance failure: exit 1, mirroring `repro campaign`.
        text = self.HERD_SB.replace("exists", "~exists").replace(
            "SB", "SB-claimed-forbidden"
        )
        path = self._write(tmp_path, text)
        code, out = run(capsys, "run", path)
        assert code == 1
        assert "VIOLATES ~exists" in out

    def test_run_tilde_exists_honoured_exits_zero(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).resolve().parent / "corpus"
        code, out = run(capsys, "run", str(corpus / "x86" / "sb+mfences.litmus"))
        assert code == 0
        assert "as expected" in out

    def test_run_forall(self, capsys, tmp_path):
        text = self.HERD_SB.replace("exists (0:EAX=0 /\\ 1:EBX=0)",
                                    "forall (x=1 /\\ y=1)")
        path = self._write(tmp_path, text)
        code, out = run(capsys, "run", path)
        assert code == 0
        assert "forall holds" in out

    def test_run_forall_hw(self, capsys, tmp_path):
        text = self.HERD_SB.replace("exists (0:EAX=0 /\\ 1:EBX=0)",
                                    "forall (x=1 /\\ y=1)")
        path = self._write(tmp_path, text)
        code, out = run(capsys, "run", path, "--hw")
        assert code == 0
        assert "forall holds" in out

    def test_run_malformed_exits_two_with_location(self, capsys, tmp_path):
        bad = self.HERD_SB.replace("MOV EAX,[y]", "FNORD EAX")
        path = self._write(tmp_path, bad, "bad.litmus")
        code = main(["run", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "bad.litmus:5" in err
        assert "FNORD" in err

    def test_run_malformed_neutral_exits_two(self, capsys, tmp_path):
        path = self._write(
            tmp_path, 'litmus "t" x86\nthread\n  frobnicate x\n', "n.litmus"
        )
        code = main(["run", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err and "n.litmus" in err

    def test_run_missing_file_exits_two(self, capsys, tmp_path):
        code = main(["run", str(tmp_path / "nope.litmus")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_campaign_over_corpus_files(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).resolve().parent / "corpus" / "x86"
        files = sorted(str(p) for p in corpus.glob("sb*.litmus"))
        code, out = run(capsys, "campaign", *files,
                        "--models", "x86,sc", "--no-cache")
        assert code == 0
        assert "sb+mfences" in out

    def test_campaign_malformed_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text(self.HERD_SB.replace("MOV EAX,[y]", "FNORD"))
        code = main(["campaign", str(bad), "--models", "x86", "--no-cache"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.litmus:5" in err

    def test_campaign_missing_file_exits_two(self, capsys, tmp_path):
        code = main(["campaign", str(tmp_path / "nope.litmus"),
                     "--models", "x86", "--no-cache"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_run_neutral_with_leading_comment(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            '# a header comment\nlitmus "t" x86\nthread\n  store x 1\n'
            "exists x=1\n",
        )
        code, out = run(capsys, "run", path)
        assert code == 0
        assert "observable" in out


class TestBadCatFiles:
    """A malformed ``cat:`` file is reported by name and position, with
    exit 2 and no traceback, both by ``repro cat`` and by a campaign."""

    #: error kind -> (file text, or None for no file; expected location)
    SOURCES = {
        # The `|` has no right operand.
        "syntax": ("let hb = po |\nacyclic hb as Order\n", "line 2:1"),
        # A relation joined with an event set.
        "type": ("let hb = po | W\nacyclic hb as Order\n", "line 1:13"),
        # A `let rec` whose bound name occurs on the right of `\`.
        "nonmono": ("let rec r = po \\ r\nacyclic r as T\n", "line 1:16"),
        "missing": (None, "no such .cat file"),
    }

    @pytest.mark.parametrize("command", ["campaign", "cat"])
    @pytest.mark.parametrize("error", sorted(SOURCES))
    def test_bad_cat_file_exits_two(self, capsys, tmp_path, command, error):
        source, where = self.SOURCES[error]
        path = tmp_path / f"{error}.cat"
        if source is not None:
            path.write_text(source)
        if command == "cat":
            argv = ["cat", str(path), "fig2"]
        else:
            argv = ["campaign", "--suite", "catalog",
                    "--models", f"cat:{path}", "--no-cache"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {path}: " in err
        assert where in err
        assert "Traceback" not in err


class TestUnknownDiyEdge:
    """An unknown diy edge name is a usage error: exit 2 with the known
    names and no traceback, from ``repro diy`` and a diy campaign alike
    (exit 1 would read as a violated expectation)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["diy", "--vocab", "PodXY,Rfe", "--length", "3"],
            ["campaign", "--suite", "diy", "--vocab", "PodXY,Rfe",
             "--length", "3", "--models", "x86", "--no-cache"],
        ],
        ids=["diy", "campaign"],
    )
    def test_exits_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "error: unknown edge 'PodXY'; known: " in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["diy", "--length", "3"],
            ["campaign", "--suite", "diy", "--length", "3",
             "--models", "x86", "--no-cache"],
        ],
        ids=["diy", "campaign"],
    )
    def test_empty_vocab_exits_two(self, capsys, argv):
        # A given but empty --vocab names one empty edge, not the
        # default vocabulary.
        code = main([*argv, "--vocab", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: unknown edge ''" in captured.err

    def test_campaign_length_below_two_exits_two(self, capsys):
        # A cycle needs two edges: a shorter length is a usage error,
        # not an empty suite (exit 1 would read as a violated
        # expectation).
        code = main(
            ["campaign", "--suite", "diy", "--length", "1", "--models",
             "x86", "--no-cache"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error: diy length must be >= 2, got 1" in captured.err
        assert "empty suite" not in captured.out

    def test_submit_sends_a_given_vocab(self):
        from repro.cli import _submit_suite, build_parser
        from repro.serve import JobSpec, SpecError

        args = build_parser().parse_args(["submit", "--vocab", ""])
        suite = _submit_suite(args)
        assert suite["vocab"] == [""]
        with pytest.raises(SpecError, match="unknown edge ''"):
            JobSpec.from_dict({"suite": suite, "models": ["x86"]})
        args = build_parser().parse_args(["submit"])
        assert _submit_suite(args)["vocab"] is None

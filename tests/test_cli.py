"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import argparse
import os
import re
import shlex

import pytest

from repro.cli import build_parser, main
from repro.traces.writer import write_trace
from repro.workloads.normal_io import NormalIOGenerator
from repro.workloads.random_posix import RandomPosixGenerator


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("generate", "convert", "compare", "matrix", "experiment", "sweep"):
            assert parser.parse_args([command] + _minimal_args(command)).command == command

    def test_kernel_choices_derive_from_registry(self):
        from repro.api import kernel_choices

        parser = build_parser()
        args = parser.parse_args(["matrix", "corpus", "--kernel", kernel_choices()[-1]])
        assert args.kernel == kernel_choices()[-1]

    def test_spec_flag_accepted_by_compare_and_sweep(self):
        parser = build_parser()
        assert parser.parse_args(["compare", "a", "b", "--spec", "spec.json"]).spec == "spec.json"
        assert parser.parse_args(["sweep", "--spec", "spec.json"]).spec == "spec.json"
        assert parser.parse_args(["matrix", "corpus", "--spec", "spec.json"]).spec == "spec.json"


    def test_readme_flags_are_accepted(self):
        lines = _readme_command_lines()
        assert len(lines) > 20
        root = build_parser()
        stale = []
        for line in lines:
            tokens = shlex.split(line, comments=True)
            words = tokens[tokens.index("repro") + 1:]
            parser = _subparsers(root).get(words[0], root)
            accepted = set(parser._option_string_actions)
            actions = _subparsers(parser)
            action = next((actions[word] for word in words[1:] if word in actions), None)
            if action is not None:
                accepted |= set(action._option_string_actions)
            for word in words:
                flag = word.strip("[]").split("=")[0]
                if flag.startswith("--") and flag not in accepted:
                    stale.append((flag, line))
        assert stale == []


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_command_lines():
    """Every ``python -m repro ...`` line of the README's code blocks, continuations joined."""
    with open(README, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if "python -m repro " in line:
                lines.append(line[line.index("python -m repro "):])
    return lines


def _subparsers(parser):
    """*parser*'s subcommand parsers by name (none for a leaf parser)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _minimal_args(command: str):
    return {
        "generate": ["out"],
        "convert": ["x.trace"],
        "compare": ["a.trace", "b.trace"],
        "matrix": ["corpus"],
        "experiment": ["worked-example"],
        "sweep": [],
    }[command]


class TestCommands:
    def test_generate_small_corpus(self, tmp_path, capsys):
        output = tmp_path / "corpus"
        assert main(["generate", str(output), "--small", "--seed", "5"]) == 0
        files = list(output.glob("*.trace"))
        assert len(files) == 16
        assert "wrote 16 traces" in capsys.readouterr().out

    def test_convert_prints_weighted_string(self, tmp_path, capsys):
        path = tmp_path / "c.trace"
        write_trace(NormalIOGenerator().generate(seed=1), path)
        assert main(["convert", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[ROOT]" in out
        # The sequential write run fuses with the trailing fsync (rule 4).
        assert "write+fsync[4096]" in out

    def test_convert_without_bytes(self, tmp_path, capsys):
        path = tmp_path / "c.trace"
        write_trace(NormalIOGenerator().generate(seed=1), path)
        assert main(["convert", str(path), "--no-bytes"]) == 0
        assert "[4096]" not in capsys.readouterr().out

    def test_compare_same_category(self, tmp_path, capsys):
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        write_trace(NormalIOGenerator().generate(seed=1), first)
        write_trace(NormalIOGenerator().generate(seed=2), second)
        assert main(["compare", str(first), str(second), "--cut-weight", "2"]) == 0
        out = capsys.readouterr().out
        assert "normalised kernel value" in out

    def test_compare_cross_category_lower_than_same(self, tmp_path, capsys):
        def similarity(path_a, path_b):
            main(["compare", str(path_a), str(path_b)])
            out = capsys.readouterr().out
            return float(out.strip().splitlines()[-1].split(":")[-1])

        a1, a2, b1 = tmp_path / "a1", tmp_path / "a2", tmp_path / "b1"
        write_trace(NormalIOGenerator().generate(seed=1), a1)
        write_trace(NormalIOGenerator().generate(seed=2), a2)
        write_trace(RandomPosixGenerator().generate(seed=1), b1)
        assert similarity(a1, a2) > similarity(a1, b1)

    def test_worked_example_command(self, capsys):
        assert main(["experiment", "worked-example"]) == 0
        out = capsys.readouterr().out
        assert "kernel_value: 1018.0" in out

    def test_console_script_entry_point_registered(self):
        # The pyproject declares repro-iokast = repro.cli:main.
        from repro import cli

        assert callable(cli.main)


class TestMatrixCommand:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        output = tmp_path / "corpus"
        assert main(["generate", str(output), "--small", "--seed", "5"]) == 0
        return output

    def test_matrix_prints_json_payload(self, corpus_dir, capsys):
        import json

        assert main(["matrix", str(corpus_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["names"]) == 16
        assert len(payload["values"]) == 16
        assert payload["kernel_spec"]["kind"] == "kast"
        assert payload["kernel_signature"]
        assert len(payload["fingerprints"]) == 16

    def test_matrix_with_spec_file(self, corpus_dir, tmp_path, capsys):
        import json

        from repro.api import make_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(make_spec("spectrum", k=2).to_json())
        assert main(["matrix", str(corpus_dir), "--spec", str(spec_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel_spec"]["kind"] == "spectrum"
        assert payload["kernel_spec"]["params"]["k"] == 2

    def test_matrix_output_file(self, corpus_dir, tmp_path, capsys):
        import json

        target = tmp_path / "out" / "gram.json"
        assert main(["matrix", str(corpus_dir), "--output", str(target)]) == 0
        assert "wrote 16x16 kast matrix" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert len(payload["names"]) == 16

    def test_matrix_matches_library_computation(self, corpus_dir, capsys):
        import json

        import numpy as np

        from repro.api import AnalysisSession, make_spec

        assert main(["matrix", str(corpus_dir), "--cut-weight", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        session = AnalysisSession()
        strings = session.corpus_from_directory(str(corpus_dir))
        reference = session.matrix(make_spec("kast", cut_weight=4), strings)
        np.testing.assert_allclose(np.asarray(payload["values"]), reference.values)


class TestCompareSpec:
    def test_compare_with_spec_file(self, tmp_path, capsys):
        from repro.api import make_spec

        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        write_trace(NormalIOGenerator().generate(seed=1), first)
        write_trace(NormalIOGenerator().generate(seed=2), second)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(make_spec("bag-of-words").to_json())
        assert main(["compare", str(first), str(second), "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "bag-of-words" in out
        assert "normalised kernel value" in out

    def test_compare_spec_matches_flag_path(self, tmp_path, capsys):
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        write_trace(NormalIOGenerator().generate(seed=1), first)
        write_trace(NormalIOGenerator().generate(seed=2), second)

        def last_value(arguments):
            assert main(arguments) == 0
            out = capsys.readouterr().out
            return float(out.strip().splitlines()[-1].split(":")[-1])

        from repro.api import make_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(make_spec("kast", cut_weight=2).to_json())
        via_flags = last_value(["compare", str(first), str(second), "--cut-weight", "2"])
        via_spec = last_value(["compare", str(first), str(second), "--spec", str(spec_path)])
        assert via_flags == via_spec


class TestWorkerAndGcCommands:
    def test_worker_and_gc_subcommands_parse(self):
        parser = build_parser()
        worker = parser.parse_args(
            ["worker", "--state-dir", "/tmp/x", "--lease-seconds", "5", "--idle-exit", "1"]
        )
        assert worker.command == "worker"
        assert worker.lease_seconds == 5.0 and worker.idle_exit == 1.0
        gc = parser.parse_args(["gc", "--state-dir", "/tmp/x", "--ttl", "0", "--dry-run"])
        assert gc.command == "gc" and gc.ttl == 0.0 and gc.dry_run

    def test_remote_matrix_accepts_distributed_flag(self):
        parser = build_parser()
        args = parser.parse_args(
            ["remote", "--url", "http://x", "matrix", "corpus", "--shards", "2", "--distributed"]
        )
        assert args.distributed is True

    def test_gc_sweeps_expired_terminal_jobs(self, tmp_path, capsys):
        import time as _time

        from repro.service import JobStore

        state_dir = str(tmp_path / "state")
        store = JobStore(state_dir)
        done = store.create("matrix")
        store.store_result(done.job_id, {"x": 1})
        store.update(done.job_id, updated_at=_time.time() - 100)
        queued = store.create("matrix")
        assert main(["gc", "--state-dir", state_dir, "--ttl", "50", "--dry-run"]) == 0
        assert done.job_id in capsys.readouterr().out
        assert store.get(done.job_id).status == "done"  # dry run removed nothing
        assert main(["gc", "--state-dir", state_dir, "--ttl", "50"]) == 0
        assert done.job_id in capsys.readouterr().out
        with pytest.raises(KeyError):
            store.get(done.job_id)
        assert store.get(queued.job_id).status == "queued"

    def test_worker_command_drains_queue_and_exits(self, tmp_path, capsys):
        # End-to-end through the CLI handler: one block task, one worker
        # run with --max-tasks 1 (no server involved).
        from repro.api import AnalysisSession, make_spec
        from repro.service import JobStore
        from repro.service.protocol import encode_corpus

        spec = make_spec("kast", cut_weight=2)
        with AnalysisSession() as session:
            strings = session.corpus(small=True, seed=7)[:4]
        state_dir = str(tmp_path / "state")
        store = JobStore(state_dir)
        parent = store.create(
            "matrix",
            input={"spec": spec.to_dict(), "strings": list(encode_corpus(strings))},
        )
        store.create(
            "block",
            options={"parent": parent.job_id, "first": [0, 2], "second": [2, 4]},
        )
        assert main(["worker", "--state-dir", state_dir, "--max-tasks", "1"]) == 0
        block = store.records(kind="block")[0]
        assert block.status == "done"
        assert len(store.load_result(block.job_id)["pairs"]) == 4


class TestRemoteMatrixCommand:
    @pytest.fixture
    def url(self, tmp_path):
        from repro.service import AnalysisServer

        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            host, port = server.start_http()
            yield f"http://{host}:{port}"

    @pytest.fixture
    def corpus_dir(self, tmp_path):
        from repro.workloads.corpus import CorpusConfig, build_corpus

        output = tmp_path / "corpus"
        output.mkdir()
        for trace in build_corpus(CorpusConfig.small(seed=5))[:4]:
            write_trace(trace, str(output / f"{trace.name}.trace"))
        return str(output)

    def test_the_summary_names_shards_only_for_a_distributed_job(self, url, corpus_dir, tmp_path, capsys):
        output = str(tmp_path / "gram.json")
        matrix = ["remote", "--url", url, "matrix", corpus_dir, "--shards", "3", "--output", output]
        assert main(matrix) == 0
        assert capsys.readouterr().out == f"wrote 4x4 kast matrix (cache miss) to {output}\n"
        assert main(matrix + ["--distributed", "--no-cache"]) == 0
        assert capsys.readouterr().out == (
            f"wrote 4x4 kast matrix (3 shard(s), distributed, cache bypass) to {output}\n"
        )

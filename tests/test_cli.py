import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridpaths
from gridpaths.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    _json_text,
    main,
)
from gridpaths import cli, edp, gridtiling, mappers, reduction
from gridpaths.digraph import LB, EmbeddedDigraph, GridVertex, HConnector, Terminal
from gridpaths.errors import EmbeddingError, brief
from gridpaths.gridtiling import GridTilingInstance, GTAssignment, solve_gt_brute_force
from gridpaths.reduction import GraphCounts, TerminalSet

from . import exhaustive_k2n2
from ._oracles import is_dotted_edge
from .test_reduction import _leaves, _vertex_index, empty_instance, full_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(capsys, tmp_path, *extra):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "2", "3", "--seed", "1", "--out", str(path), *extra)
    assert code == EXIT_OK
    return path


def gen_files(capsys, tmp_path):
    """Two planted yes-instances and a random no-instance of one shape, (2, 3)."""
    files = [tmp_path / name for name in ("yes7.json", "yes8.json", "no.json")]
    for path, args in zip(files, (("--noise", "1", "--seed", "7"), ("--noise", "1", "--seed", "8"),
                                  ("--mode", "random", "--density", "0.15", "--seed", "0"))):
        assert run(capsys, "gen", "2", "3", *args, "--out", str(path))[0] == EXIT_OK
    return files


def untimed(text):
    """A roundtrip payload without its timings, the one part that differs from run to run."""
    payload = json.loads(text)
    for entry in payload["runs"]:
        del entry["report"]["timings"]
    return payload


def reference(obj):
    """The standard library's indent-2 sorted form, which ``_json_text`` must write byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    """``_json_text``, the CLI's one JSON writer, writes exactly the standard library's bytes.

    The golden digests call json.dumps themselves, so this is what pins the writer.
    """

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_instances(self, k):
        for n, seed in itertools.product((2, 3, 5), range(3)):
            for inst in (
                gridtiling.generate_planted(k, n, noise=2, seed=seed),
                gridtiling.generate_random(k, n, 0.5, seed=seed),
            ):
                doc = inst.to_json_dict()
                assert _json_text(doc) == reference(doc)

    def test_reduction_documents_and_their_graphs(self):
        # TestGoldenOutput's instance list, both forms
        for k, n in itertools.product((1, 2, 3), (2, 3, 6)):
            seed = k * 10 + n
            for inst in (
                gridtiling.generate_planted(k, n, noise=2, seed=seed),
                gridtiling.generate_random(k, n, 0.5, seed=seed),
                empty_instance(k, n),
                full_instance(k, n),
            ):
                out = reduction.reduce(inst)
                for x in (out, reduction.reduce_degree(out)):
                    for doc in (x.to_json_dict(), x.graph.to_json_dict()):
                        assert _json_text(doc) == reference(doc)

    def test_reduce_report_and_document(self, capsys, tmp_path):
        inst, red = gen_instance(capsys, tmp_path, "--noise", "2"), tmp_path / "red.json"
        code, out, _ = run(capsys, "reduce", str(inst), "--degree2", "--out", str(red))
        assert code == EXIT_OK
        report = json.loads(out)
        assert type(report["timings"]["reduce_s"]) is float
        assert out == reference(report)
        assert red.read_text() == reference(json.loads(red.read_text()))

    def test_roundtrip_payloads(self, capsys, tmp_path):
        yes, _, no = gen_files(capsys, tmp_path)
        odd = tmp_path / 'quote"back\\tab\tÉmile-Ωμέγα.json'
        odd.write_bytes(yes.read_bytes())
        for files in ((yes,), (no,), (odd, no)):
            code, out, _ = run(capsys, "roundtrip", *map(str, files))
            assert code == EXIT_OK
            payload = json.loads(out)
            assert [entry["file"] for entry in payload["runs"]] == list(map(str, files))
            assert out == reference(payload)
        assert r'quote\"back\\tab\t\u00c9mile-\u03a9\u03bc\u03ad\u03b3\u03b1.json"' in out

    @pytest.mark.parametrize(
        "value",
        [
            {"b": [[], {}, [[], [{}]]], "a": {"z": {"y": []}}, "": {}},
            [-1, 0, -(2**70), 1e-05, 0.1, 123456789.125, -0.0, 1e300, 2.5e-310],
            {"s": "tab\tquote\"back\\é中\U0001f600\x00\x7f", "t": True, "f": False, "n": None},
            [[[[[]]]]],
            "bare",
            -7,
            0.5,
            None,
            {},
            [],
        ],
    )
    def test_hand_made_values(self, value):
        assert _json_text(value) == reference(value)

    @pytest.mark.parametrize(
        "value, error",
        [
            ({1, 2}, TypeError),
            ({1: "one"}, TypeError),
            ({"a": 1, 2: "b"}, TypeError),
            (float("nan"), ValueError),
            ([float("inf")], ValueError),
            ({"x": float("-inf")}, ValueError),
            ((1, 2), TypeError),
            (type("Count", (int,), {})(3), TypeError),
        ],
        ids=["set", "int-key", "mixed-keys", "nan", "inf", "minus-inf", "tuple", "int-subclass"],
    )
    def test_values_it_would_write_otherwise_raise(self, value, error):
        # json.dumps raises for the set too, and writes the rest in forms no CLI document holds:
        # an int key as a string, NaN and Infinity, a tuple as a list, an int subclass as an int
        with pytest.raises(error):
            _json_text(value)


class TestGen:
    def test_planted_file_is_feasible(self, capsys, tmp_path):
        path = gen_instance(capsys, tmp_path, "--mode", "planted")
        inst = GridTilingInstance.from_json_dict(json.loads(path.read_text()))
        assert solve_gt_brute_force(inst) is not None

    def test_density_zero_file_is_infeasible(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        code, _, _ = run(
            capsys, "gen", "2", "2", "--mode", "random", "--density", "0", "--out", str(path)
        )
        assert code == EXIT_OK
        inst = GridTilingInstance.from_json_dict(json.loads(path.read_text()))
        assert solve_gt_brute_force(inst) is None

    def test_invalid_universe_size_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "2", "1", "--out", str(tmp_path / "x.json"))
        assert code == EXIT_USAGE
        assert "error" in err

    def test_invalid_density_exits_2(self, capsys):
        code, _, _ = run(capsys, "gen", "2", "2", "--mode", "random", "--density", "1.5")
        assert code == EXIT_USAGE

    def test_stdout_when_no_out_file(self, capsys):
        code, out, _ = run(capsys, "gen", "1", "2")
        assert code == EXIT_OK
        assert json.loads(out)["k"] == 1

    def test_deterministic_given_seed(self, capsys, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        run(capsys, "gen", "2", "3", "--mode", "random", "--density", "0.5", "--seed", "9", "--out", str(p1))
        run(capsys, "gen", "2", "3", "--mode", "random", "--density", "0.5", "--seed", "9", "--out", str(p2))
        assert p1.read_text() == p2.read_text()


class TestReduce:
    def test_writes_reduction_and_report(self, capsys, tmp_path):
        inst = gen_instance(capsys, tmp_path)
        red = tmp_path / "red.json"
        code, out, _ = run(capsys, "reduce", str(inst), "--out", str(red))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["counts"]["match"] is True
        assert report["checks"]["dag"] is True
        assert report["checks"]["genus"] == 0
        assert report["checks"]["terminal_pairs"] == 4
        data = json.loads(red.read_text())
        assert data["degree_reduced"] is False
        assert len(data["terminals"]) == 4

    def test_empty_out_path_exits_2_and_writes_nothing(self, capsys, tmp_path):
        # "" names no file: open refuses it, so neither the document nor the report reaches stdout
        inst = gen_instance(capsys, tmp_path)
        code, out, err = run(capsys, "reduce", str(inst), "--out", "")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ")

    def test_degree2_flag_caps_degrees(self, capsys, tmp_path):
        inst = gen_instance(capsys, tmp_path)
        red = tmp_path / "red2.json"
        code, out, _ = run(capsys, "reduce", str(inst), "--degree2", "--out", str(red))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["checks"]["max_in_degree"] <= 2
        assert report["checks"]["max_out_degree"] <= 2
        assert report["checks"]["degree_reduced"] is True

    def test_degree2_builds_once_and_writes_reduce_degree_bytes(self, capsys, tmp_path, monkeypatch):
        inst = gen_instance(capsys, tmp_path)
        red = tmp_path / "red2.json"
        builds = []
        build = reduction._build
        monkeypatch.setattr(reduction, "_build", lambda *a, **kw: builds.append(a) or build(*a, **kw))
        code, _, _ = run(capsys, "reduce", str(inst), "--degree2", "--out", str(red))
        assert code == EXIT_OK
        assert len(builds) == 1
        loaded = GridTilingInstance.from_json_dict(json.loads(inst.read_text()))
        expected = reduction.reduce_degree(reduction.reduce(loaded))
        assert red.read_text() == _json_text(expected.to_json_dict())

    def test_full_density_reports_zero_dotted_edges(self, capsys, tmp_path):
        inst = tmp_path / "full.json"
        run(capsys, "gen", "2", "2", "--mode", "random", "--density", "1", "--out", str(inst))
        code, out, _ = run(capsys, "reduce", str(inst), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_OK
        assert json.loads(out)["checks"]["dotted_edges"] == 0

    def test_dotted_edges_counts_every_split_vertex_edge(self):
        # the report counts from the id arrays; the predicate on label pairs is the reference
        for inst, degree2 in itertools.product(
            (gridtiling.generate_planted(2, 3, noise=1, seed=4), gridtiling.generate_random(2, 3, density=0.5, seed=2)),
            (False, True),
        ):
            out = reduction.reduce(inst)
            if degree2:
                out = reduction.reduce_degree(out)
            want = sum(1 for u, v in out.graph.edges if is_dotted_edge(u, v))
            assert want > 0
            assert cli._structure_report(out, {})["checks"]["dotted_edges"] == want

    def test_source_with_an_in_edge_fails_the_terminal_check(self):
        # a hand-made reduction, sound but for the in-edge u -> a of source terminal a
        a, b, c, d = (Terminal(family, 1) for family in "abcd")
        u = HConnector(7, 7, 1)
        g = EmbeddedDigraph(
            [a, b, c, d, u],
            [(u, a), (u, c), (a, b), (c, d)],
            {a: (0, 0), b: (2, 0), c: (0, 2), d: (2, 2), u: (1, 1)},
        )
        out = reduction.ReductionOutput(
            graph=g,
            terminals=TerminalSet(((a, b), (c, d))),
            provenance=GridTilingInstance(k=1, N=2, sets={(1, 1): {(1, 1)}}),
            counts=GraphCounts(vertices=5, edges=4),
        )
        report = cli._structure_report(out, {})
        assert report["counts"]["match"] and report["checks"]["dag"] and report["checks"]["genus"] == 0
        assert report["checks"]["terminal_pairs_ok"] is False
        assert report["ok"] is False

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "reduce", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE

    def test_n13_instance_reduces_with_genus_0(self, capsys, tmp_path):
        # from N = 13 on, terminals one unit outside the grids made two fan edges collinear
        inst = tmp_path / "n13.json"
        run(capsys, "gen", "1", "13", "--out", str(inst))
        code, out, _ = run(capsys, "reduce", str(inst), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["ok"] is True and report["checks"]["genus"] == 0

    def test_embedding_error_exits_4(self, capsys, tmp_path, monkeypatch):
        # a gadget drawing with no rotation system is a layout defect, not bad input
        def collinear(self):
            raise EmbeddingError("collinear neighbor directions at x: y and z on one ray")

        monkeypatch.setattr(EmbeddedDigraph, "check_planar_embedding", collinear)
        code, _, err = run(capsys, "reduce", str(gen_instance(capsys, tmp_path)), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_INTERNAL
        assert err == "internal error: collinear neighbor directions at x: y and z on one ray\n"


class TestRoundtrip:
    def test_planted_yes_instance_passes(self, capsys, tmp_path):
        inst = gen_instance(capsys, tmp_path)
        code, out, _ = run(capsys, "roundtrip", str(inst))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] is True
        report = payload["runs"][0]["report"]
        assert report["solver"]["grid_tiling"] == "feasible"
        assert report["solver"]["edge_disjoint_paths"] == "feasible"
        assert report["roundtrip"]["identity"] is True

    def test_infeasible_instance_still_passes(self, capsys, tmp_path):
        # an instance with no sets, and one whose refutation takes a search
        for shape, density, seed in (("2", "0", "0"), ("3", "0.15", "0")):
            inst = tmp_path / "none.json"
            run(capsys, "gen", "2", shape, "--mode", "random", "--density", density, "--seed", seed, "--out", str(inst))
            code, out, _ = run(capsys, "roundtrip", str(inst))
            assert code == EXIT_OK
            report = json.loads(out)["runs"][0]["report"]
            assert report["solver"] == {"grid_tiling": "infeasible", "edge_disjoint_paths": "infeasible", "agree": True}
            assert report["roundtrip"] is None

    def test_sample_of_every_k2_n2_instance_in_both_forms(self):
        # CI runs all 16**4 instances through the same function
        count = exhaustive_k2n2.COUNT
        feasible, refuted, found = exhaustive_k2n2.mismatches([*range(0, count, 197), count - 1])
        assert found == [] and feasible == 217  # of 334, by the exhaustive oracle
        assert refuted == 2 * (334 - 217)  # propagation refutes each no-instance in both forms

    def test_multiple_files(self, capsys, tmp_path):
        a = gen_instance(capsys, tmp_path)
        b = tmp_path / "second.json"
        run(capsys, "gen", "1", "2", "--out", str(b))
        code, out, _ = run(capsys, "roundtrip", str(a), str(b))
        assert code == EXIT_OK
        assert len(json.loads(out)["runs"]) == 2

    def test_batch_reports_what_one_run_per_file_reports(self, capsys, tmp_path):
        # later files of one shape reuse the cached base graph; a fresh process per file has none
        files = gen_files(capsys, tmp_path)
        code, out, _ = run(capsys, "roundtrip", *map(str, files))
        assert code == EXIT_OK
        batch = untimed(out)["runs"]
        alone = []
        for path in files:
            reduction._base.cache_clear()
            code, out, _ = run(capsys, "roundtrip", str(path))
            assert code == EXIT_OK
            alone += untimed(out)["runs"]
        assert batch == alone

    def test_planted_instances_pass_every_roundtrip_check(self, capsys, tmp_path):
        planted = []
        for (k, n), seed in itertools.product(((2, 3), (2, 4), (3, 3)), range(4)):
            path = tmp_path / f"planted_{k}_{n}_{seed}.json"
            args = ("gen", str(k), str(n), "--noise", "2", "--seed", str(seed), "--out", str(path))
            assert run(capsys, *args)[0] == EXIT_OK
            planted.append(str(path))
        code, out, _ = run(capsys, "roundtrip", *planted)
        assert code == EXIT_OK
        runs = json.loads(out)["runs"]
        assert len(runs) == 12
        for entry in runs:
            assert set(entry["report"]["roundtrip"].values()) == {True}, entry["file"]

    def test_corrupted_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "roundtrip", str(bad))
        assert code == EXIT_USAGE

    def test_non_integer_instance_field_exits_2(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"k": 1.9, "N": 2, "sets": {"1,1": [[1, 2]]}}))
        code, _, err = run(capsys, "roundtrip", str(path))
        assert code == EXIT_USAGE
        assert "malformed grid tiling instance" in err

    def test_non_canonical_cell_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "key.json"
        path.write_text(json.dumps({"k": 1, "N": 2, "sets": {" +1,1 ": [[1, 2]]}}))
        code, _, err = run(capsys, "roundtrip", str(path))
        assert code == EXIT_USAGE
        assert "malformed grid tiling instance" in err

    def test_invalid_instance_exits_2_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "outside.json"
        path.write_text(json.dumps({"k": 1, "N": 2, "sets": {"1,1": [[3, 1]]}}))
        code, _, err = run(capsys, "roundtrip", str(path))
        assert code == EXIT_USAGE
        assert err == f"error: {path}: cell (1, 1): pair (3,1) outside [1,2]^2\n"

    def test_deep_grid_needs_no_recursion(self, capsys, tmp_path):
        # k = 32: the grid tiling oracle searches 1024 cells deep
        path = tmp_path / "deep.json"
        assert run(capsys, "gen", "32", "2", "--out", str(path))[0] == EXIT_OK
        code, out, _ = run(capsys, "roundtrip", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_budget_env_var_exits_3(self, capsys, tmp_path, monkeypatch):
        inst = gen_instance(capsys, tmp_path)
        monkeypatch.setenv("DPATH_BUDGET", "3")
        code, _, err = run(capsys, "roundtrip", str(inst))
        assert code == EXIT_BUDGET
        assert err == "error: expansion budget of 3 exhausted\n"

    def test_instance_decided_by_the_mirror_search_passes(self, capsys, tmp_path, monkeypatch):
        # the first search runs out of 10^4 expansions on this planted instance; the mirror search finds the paths
        path = tmp_path / "mirror.json"
        assert run(capsys, "gen", "2", "4", "--noise", "2", "--seed", "10", "--out", str(path))[0] == EXIT_OK
        monkeypatch.setenv("DPATH_BUDGET", "10000")
        code, out, err = run(capsys, "roundtrip", str(path))
        assert code == EXIT_OK, err
        report = json.loads(out)["runs"][0]["report"]
        assert report["solver"] == {"grid_tiling": "feasible", "edge_disjoint_paths": "feasible", "agree": True}
        assert set(report["roundtrip"].values()) == {True}

    def test_bad_budget_env_var_exits_2(self, capsys, tmp_path, monkeypatch):
        inst = gen_instance(capsys, tmp_path)
        for raw, reason in (("lots", "must be an integer"), ("0", "must be positive"), ("-3", "must be positive")):
            monkeypatch.setenv("DPATH_BUDGET", raw)
            code, _, err = run(capsys, "roundtrip", str(inst))
            assert code == EXIT_USAGE
            assert reason in err
        # int() takes the first four, but a budget is written in ASCII digits alone; a long value is
        # echoed in brief, and 5,000 digits are more than int() converts
        for raw in ("1_000", " 7 ", "+9", "٥", "", "x" * 5000, "12" * 2500):
            monkeypatch.setenv("DPATH_BUDGET", raw)
            code, out, err = run(capsys, "roundtrip", str(inst))
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"error: DPATH_BUDGET must be an integer, got {brief(raw)}\n" and len(err) < 300

    def test_rejected_forward_map_exits_1_with_its_report(self, capsys, tmp_path, monkeypatch):
        # a forward path set that the checker rejects is a failed check, not a crash of the identity check
        forward = mappers.gt_solution_to_paths

        def broken(out, asg):
            ps = forward(out, asg)
            del ps.paths[0][1]
            return ps

        inst = gen_instance(capsys, tmp_path)
        monkeypatch.setattr(mappers, "gt_solution_to_paths", broken)
        code, out, _ = run(capsys, "roundtrip", str(inst))
        assert code == EXIT_CHECK_FAILED
        roundtrip = json.loads(out)["runs"][0]["report"]["roundtrip"]
        assert roundtrip["forward_valid"] is False
        assert roundtrip["identity"] is False

    def test_call_sequence_that_the_benchmark_unpacks(self, capsys, tmp_path, monkeypatch):
        # perfbench/run.py reads each roundtrip's answers from these calls, by name and in this order
        calls = []

        def record(module, name):
            real = getattr(module, name)

            def shim(*args, **kwargs):
                call = [f"{module.__name__.split('.')[-1]}.{name}", args, None]
                calls.append(call)  # in the order the calls start
                call[2] = real(*args, **kwargs)
                return call[2]

            monkeypatch.setattr(module, name, shim)

        record(reduction, "reduce")
        record(gridtiling, "solve_gt_brute_force")
        record(edp, "solve_edp_dag")
        record(edp, "check_edp_solution")
        for name in ("gt_solution_to_paths", "paths_to_gt_solution", "check_edp_solution"):
            record(mappers, name)
        yes = gen_instance(capsys, tmp_path)
        no = tmp_path / "no.json"
        code, _, _ = run(capsys, "gen", "2", "3", "--mode", "random", "--density", "0.15", "--out", str(no))
        assert code == EXIT_OK
        calls.clear()

        code, _, _ = run(capsys, "roundtrip", str(yes))
        assert code == EXIT_OK
        # the EDP answer is extracted first, the forward map second; each is checked once
        assert [name for name, _, _ in calls] == [
            "reduction.reduce",
            "gridtiling.solve_gt_brute_force",
            "edp.solve_edp_dag",
            "mappers.gt_solution_to_paths",
            "mappers.paths_to_gt_solution",
            "mappers.check_edp_solution",
            "mappers.paths_to_gt_solution",
            "mappers.check_edp_solution",
        ]
        answer, forward = calls[2][2], calls[3][2]
        assert calls[4][1][1] is calls[5][1][2] is answer
        assert calls[6][1][1] is calls[7][1][2] is forward

        calls.clear()
        code, out, _ = run(capsys, "roundtrip", str(no))
        assert code == EXIT_OK
        assert json.loads(out)["runs"][0]["report"]["solver"]["agree"] is True
        assert [name for name, _, _ in calls] == [
            "reduction.reduce",
            "gridtiling.solve_gt_brute_force",
            "edp.solve_edp_dag",
        ]
        assert calls[1][2] is calls[2][2] is None

    def test_level_confinement_is_checked_on_the_solver_answer(self, capsys, tmp_path, monkeypatch):
        # the paper's backward direction rests on every edge-disjoint solution staying in its level
        solve, confine = edp.solve_edp_dag, mappers.check_level_confinement
        answers, checked = [], []
        monkeypatch.setattr(edp, "solve_edp_dag", lambda *a, **kw: answers.append(solve(*a, **kw)) or answers[-1])
        monkeypatch.setattr(
            mappers, "check_level_confinement", lambda out, ps: checked.append(ps) or confine(out, ps)
        )
        code, out, _ = run(capsys, "roundtrip", str(gen_instance(capsys, tmp_path)))
        assert code == EXIT_OK
        assert json.loads(out)["runs"][0]["report"]["roundtrip"]["level_confined"] is True
        assert len(checked) == 1 and checked[0] is answers[0]


class TestEntryPoint:
    """``python -m gridpaths.cli`` in a fresh process: exit codes and output under two hash seeds."""

    @staticmethod
    def cli(tmp_path, *argv, seed="0", budget=None):
        src = str(Path(gridpaths.__file__).resolve().parents[1])  # the package under test
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        env.pop("DPATH_BUDGET", None)
        if budget is not None:
            env["DPATH_BUDGET"] = budget
        return subprocess.run(
            [sys.executable, "-m", "gridpaths.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_output_does_not_depend_on_the_hash_seed(self, capsys, tmp_path):
        # every label's hash includes a string's, so set and dict order of labels changes with the seed
        files = [str(path) for path in gen_files(capsys, tmp_path)]
        written, reports = [], []
        for seed in ("0", "1"):
            red, dot = tmp_path / f"red_{seed}.json", tmp_path / f"red_{seed}.dot"
            for argv in (
                ("reduce", files[0], "--degree2", "--out", str(red)),
                ("export", str(red), "--format", "dot", "--out", str(dot)),
                ("roundtrip", *files),
            ):
                done = self.cli(tmp_path, *argv, seed=seed)
                assert done.returncode == EXIT_OK, done.stderr
            written.append((red.read_bytes(), dot.read_bytes()))
            reports.append(untimed(done.stdout))
        assert written[0] == written[1]
        assert reports[0] == reports[1]
        inst = GridTilingInstance.from_json_dict(json.loads(Path(files[0]).read_text()))
        assert written[0][0] == _json_text(reduction.reduce_degree(reduction.reduce(inst)).to_json_dict()).encode()

    def test_budget_hit_exits_3_and_bad_budget_exits_2(self, capsys, tmp_path):
        no = str(gen_files(capsys, tmp_path)[2])
        # refuting the no-instance within 5 expansions is impossible
        done = self.cli(tmp_path, "roundtrip", no, budget="5")
        assert (done.returncode, done.stderr) == (EXIT_BUDGET, "error: expansion budget of 5 exhausted\n")
        done = self.cli(tmp_path, "roundtrip", no, budget="0")
        assert (done.returncode, done.stderr) == (EXIT_USAGE, "error: DPATH_BUDGET must be positive, got 0\n")


class TestInternalFaults:
    """A fault of the program's own making exits 4, never 1 or 2."""

    def test_extraction_failure_exits_4(self, capsys, tmp_path, monkeypatch):
        def broken(out, ps):
            raise mappers.ExtractionFailedError("paths share no whole vertex in cell (1,1)")

        inst = gen_instance(capsys, tmp_path)
        monkeypatch.setattr(mappers, "paths_to_gt_solution", broken)
        code, _, err = run(capsys, "roundtrip", str(inst))
        assert code == EXIT_INTERNAL
        assert "internal error:" in err

    def test_oracle_answer_rejected_by_mapper_exits_4(self, capsys, tmp_path, monkeypatch):
        # the oracle answers with a pair outside cell (1,1)'s set; the instance is valid
        solve = gridtiling.solve_gt_brute_force

        def broken(inst, budget):
            choice = dict(solve(inst, budget=budget).choice)
            cell = inst.sets[(1, 1)]
            choice[(1, 1)] = next(p for p in itertools.product(range(1, inst.N + 1), repeat=2) if p not in cell)
            return GTAssignment(choice)

        inst = gen_instance(capsys, tmp_path)
        monkeypatch.setattr(gridtiling, "solve_gt_brute_force", broken)
        code, _, err = run(capsys, "roundtrip", str(inst))
        assert code == EXIT_INTERNAL
        assert "internal error: assignment does not solve the instance" in err

    def test_unmapped_exception_exits_4(self, capsys, monkeypatch):
        # no crash may fall through to Python's default handler, whose exit 1 reads as "check failed"
        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(gridtiling, "generate_planted", broken)
        code, _, err = run(capsys, "gen", "2", "3")
        assert code == EXIT_INTERNAL
        assert err == "internal error: TypeError: unexpected argument\n"

    def test_impossible_euler_characteristic_exits_4(self, capsys, tmp_path, monkeypatch):
        def broken(self):
            raise RuntimeError("face tracing produced impossible Euler characteristic 3")

        inst = gen_instance(capsys, tmp_path)
        monkeypatch.setattr(EmbeddedDigraph, "check_planar_embedding", broken)
        code, _, err = run(capsys, "reduce", str(inst), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_INTERNAL
        assert "internal error: face tracing" in err


class TestExport:
    def test_dot_export_contains_positions_and_dotted_style(self, capsys, tmp_path):
        inst = gen_instance(capsys, tmp_path)
        red = tmp_path / "red.json"
        run(capsys, "reduce", str(inst), "--out", str(red))
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "export", str(red), "--format", "dot", "--out", str(dot))
        assert code == EXIT_OK
        text = dot.read_text()
        assert text.startswith("digraph")
        assert 'pos="' in text
        assert "style=dotted" in text

    def test_reexport_is_byte_identical(self, capsys, tmp_path):
        inst = gen_instance(capsys, tmp_path)
        red = tmp_path / "red.json"
        run(capsys, "reduce", str(inst), "--out", str(red))
        d1 = tmp_path / "a.dot"
        d2 = tmp_path / "b.dot"
        run(capsys, "export", str(red), "--format", "dot", "--out", str(d1))
        run(capsys, "export", str(red), "--format", "dot", "--out", str(d2))
        assert d1.read_bytes() == d2.read_bytes()

    def test_reference_scale_export_matches_structure(self, capsys, tmp_path):
        inst = tmp_path / "ref.json"
        run(capsys, "gen", "3", "5", "--mode", "random", "--density", "1", "--out", str(inst))
        red = tmp_path / "ref_red.json"
        run(capsys, "reduce", str(inst), "--out", str(red))
        dot = tmp_path / "ref.dot"
        code, _, _ = run(capsys, "export", str(red), "--format", "dot", "--out", str(dot))
        assert code == EXIT_OK
        lines = dot.read_text().splitlines()
        node_lines = [ln for ln in lines if "pos=" in ln]
        edge_lines = [ln for ln in lines if "->" in ln]
        assert len(node_lines) == 297  # full sets split nothing
        assert len(edge_lines) == 588
        assert not any("style=dotted" in ln for ln in edge_lines)

    def test_json_export_round_trips(self, capsys, tmp_path):
        # export --format json writes a bare graph document, which Python reads back with
        # EmbeddedDigraph.from_json_dict: to the reduction's graph, its own bytes and the same drawing
        inst = gen_instance(capsys, tmp_path)
        for form in ((), ("--degree2",)):
            red, gjson, dot = tmp_path / "red.json", tmp_path / "g.json", tmp_path / "r.dot"
            run(capsys, "reduce", str(inst), *form, "--out", str(red))
            assert run(capsys, "export", str(red), "--format", "json", "--out", str(gjson))[0] == EXIT_OK
            assert run(capsys, "export", str(red), "--format", "dot", "--out", str(dot))[0] == EXIT_OK
            g = EmbeddedDigraph.from_json_dict(json.loads(gjson.read_text()))
            assert g == reduction.ReductionOutput.from_json_dict(json.loads(red.read_text())).graph
            assert _json_text(g.to_json_dict()) == gjson.read_text()
            assert g.to_dot() == dot.read_text()

    @pytest.mark.parametrize("bare", [True, False], ids=["bare-graph-document", "reduction-without-instance"])
    def test_document_without_an_instance_exits_2_naming_the_reduction_keys(self, capsys, tmp_path, bare):
        # export reads reduction documents only: the bare graph document it writes, and a reduction
        # document that has lost its instance, are both named by the reduction document's keys
        inst, red, path = gen_instance(capsys, tmp_path), tmp_path / "red.json", tmp_path / "doc.json"
        assert run(capsys, "reduce", str(inst), "--out", str(red))[0] == EXIT_OK
        if bare:
            assert run(capsys, "export", str(red), "--format", "json", "--out", str(path))[0] == EXIT_OK
        else:
            doc = json.loads(red.read_text())
            del doc["instance"]
            path.write_text(json.dumps(doc))
        keys = sorted(json.loads(path.read_text()))
        message = (
            f"error: malformed reduction document: keys {keys}, "
            "expected ['instance', 'graph', 'terminals', 'counts', 'degree_reduced']\n"
        )
        for fmt in ("dot", "json"):
            assert run(capsys, "export", str(path), "--format", fmt) == (EXIT_USAGE, "", message)

    def test_zero_denominator_in_graph_document_exits_2(self, capsys, tmp_path):
        inst = gen_instance(capsys, tmp_path)
        red = tmp_path / "red.json"
        run(capsys, "reduce", str(inst), "--out", str(red))
        good = json.loads(red.read_text())
        # a zero denominator; a coordinate pair written as one string, which unpacks like a list
        # of two; a label with a field written as a float, which must not be read as another label
        for keys, value in ((("coord", 0), "1/0"), (("coord",), "11"), (("label",), "w_1.0_1_1_1")):
            doc = json.loads(json.dumps(good))
            parent = doc["graph"]["vertices"][0]
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = value
            red.write_text(json.dumps(doc))
            for fmt in ("dot", "json"):
                code, _, err = run(capsys, "export", str(red), "--format", fmt, "--out", str(tmp_path / "g.out"))
                assert code == EXIT_USAGE
                assert "malformed graph document" in err

    def test_reduction_document_of_a_bad_graph_exits_2(self, capsys, tmp_path):
        inst = gen_instance(capsys, tmp_path)
        red = tmp_path / "red.json"
        run(capsys, "reduce", str(inst), "--out", str(red))
        doc = json.loads(red.read_text())
        doc["graph"]["edges"].append(doc["graph"]["edges"][0])  # a parallel edge
        red.write_text(json.dumps(doc))
        code, out, err = run(capsys, "export", str(red), "--format", "json")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: parallel edge (")

    def test_tampered_reduction_document_exits_2(self, capsys, tmp_path):
        # planted (2,4) noise=2 seed=1 splits (1,1,2,2) but not (1,1,2,1)
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "2", "4", "--noise", "2", "--seed", "1", "--out", str(inst))
        red = tmp_path / "red.json"
        run(capsys, "reduce", str(inst), "--out", str(red))
        good = red.read_text()
        doc = json.loads(good)
        graph = doc["graph"]
        graph["edges"].remove(
            [_vertex_index(graph, GridVertex(1, 1, 2, 1)), _vertex_index(graph, GridVertex(1, 1, 2, 2, LB))]
        )
        red.write_text(json.dumps(doc))
        code, _, err = run(capsys, "export", str(red), "--format", "dot", "--out", str(tmp_path / "g.dot"))
        assert code == EXIT_USAGE
        assert "graph differs" in err
        # counts that disagree with the instance
        doc = json.loads(good)
        doc["counts"]["edges"] += 1
        red.write_text(json.dumps(doc))
        code, _, err = run(capsys, "export", str(red), "--format", "dot", "--out", str(tmp_path / "g.dot"))
        assert code == EXIT_USAGE
        assert err == "error: reduction document's counts differs from its instance's construction\n"

    def test_inexact_value_in_reduction_document_exits_2(self, capsys, tmp_path):
        # 1.0 == 1, so only its JSON type tells the edge end from the construction's
        inst = gen_instance(capsys, tmp_path)
        red = tmp_path / "red.json"
        run(capsys, "reduce", str(inst), "--out", str(red))
        doc = json.loads(red.read_text())
        edge = next(edge for edge in doc["graph"]["edges"] if 1 in edge)
        edge[edge.index(1)] = 1.0
        red.write_text(json.dumps(doc))
        code, _, err = run(capsys, "export", str(red), "--format", "dot", "--out", str(tmp_path / "g.dot"))
        assert code == EXIT_USAGE
        assert err == "error: malformed reduction document: its graph holds a value of type float\n"


_RED_DOC = reduction.reduce(gridtiling.generate_planted(2, 2, noise=0, seed=0)).to_json_dict()
_GRAPH_LEAVES = [("graph", *path) for path, _ in _leaves(_RED_DOC["graph"])]
_HUGE_DECIMALS = ["1" + "0" * 400, "-1" + "0" * 400, "1/" + "3" * 400]
_LEAF_VALUES = st.one_of(
    st.integers(min_value=2**63) | st.integers(max_value=-(2**63)),
    st.floats(),
    st.text(max_size=6) | st.sampled_from(_HUGE_DECIMALS),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


class TestMalformedInput:
    """Every malformed input file exits 2, however it is malformed."""

    def test_deeply_nested_file_exits_2(self, capsys, tmp_path):
        # json.load raises RecursionError, a RuntimeError, which is not a fault of the program
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        for argv in (["export", str(path)], ["roundtrip", str(path)]):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            assert err == f"error: {path}: JSON nested too deeply to decode\n"

    @pytest.mark.parametrize(
        "place, message",
        [
            ("reduction", "malformed reduction document: keys ['counts', 'degree_reduced', 'graph', 'instance', "
                          "'note', 'terminals'], expected ['instance', 'graph', 'terminals', 'counts', 'degree_reduced']"),
            ("graph", "malformed graph document: keys ['edges', 'note', 'vertices'], expected ['vertices', 'edges']"),
            ("vertex", "malformed graph document: keys ['coord', 'label', 'note'], expected ['label', 'coord']"),
            ("instance", "malformed grid tiling instance: keys ['N', 'k', 'note', 'sets'], expected ['k', 'N', 'sets']"),
        ],
    )
    def test_unknown_key_exits_2(self, capsys, tmp_path, place, message):
        # each reader takes exactly the keys its writer writes: one more is named, not dropped unread
        inst, red = gen_instance(capsys, tmp_path), tmp_path / "red.json"
        assert run(capsys, "reduce", str(inst), "--out", str(red))[0] == EXIT_OK
        path = inst if place == "instance" else red
        doc = json.loads(path.read_text())
        part = doc if place in ("reduction", "instance") else doc["graph"]
        (part["vertices"][0] if place == "vertex" else part)["note"] = 1
        path.write_text(json.dumps(doc))
        if place == "instance":
            commands = [("reduce", str(path), "--out", str(tmp_path / "r.json")), ("roundtrip", str(path))]
        else:
            commands = [("export", str(path), "--format", fmt) for fmt in ("json", "dot")]
        for argv in commands:
            assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", "3", '"x"', "null", "true"])
    def test_document_that_is_not_an_object_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        kind = type(json.loads(text)).__name__
        for argv, reader, keys in (
            (("export", str(path)), "reduction document", "['instance', 'graph', 'terminals', 'counts', 'degree_reduced']"),
            (("reduce", str(path), "--out", str(tmp_path / "r.json")), "grid tiling instance", "['k', 'N', 'sets']"),
            (("roundtrip", str(path)), "grid tiling instance", "['k', 'N', 'sets']"),
        ):
            message = f"error: malformed {reader}: expected a JSON object with keys {keys}, got a value of type {kind}\n"
            assert run(capsys, *argv) == (EXIT_USAGE, "", message)

    def test_edge_that_is_no_vertex_index_pair_exits_2(self, capsys, tmp_path):
        # edges are [tail, head] indices into the vertex list: each bad edge is named, never an IndexError
        n = len(_RED_DOC["graph"]["vertices"])
        label = _RED_DOC["graph"]["vertices"][0]["label"]
        path = tmp_path / "red.json"
        for edge in ([-1, 1], [0, n], [0, 2**63 + 1], [True, 1], [0, 1.0], [0, 1, 2], [label, 1]):
            doc = json.loads(json.dumps(_RED_DOC))
            doc["graph"]["edges"][5] = edge
            path.write_text(json.dumps(doc))
            message = f"error: malformed graph document: edge 5 is not a [tail, head] pair of vertex indices in [0, {n}): "
            message += f"{edge!r}\n"
            for fmt in ("dot", "json"):
                assert run(capsys, "export", str(path), "--format", fmt) == (EXIT_USAGE, "", message)

    def test_label_ended_documents_exit_2(self, capsys, tmp_path):
        # the form written before edges became vertex indices
        inst, red = gen_instance(capsys, tmp_path), tmp_path / "red.json"
        assert run(capsys, "reduce", str(inst), "--out", str(red))[0] == EXIT_OK
        doc = json.loads(red.read_text())
        labels = [entry["label"] for entry in doc["graph"]["vertices"]]
        doc["graph"]["edges"] = [[labels[a], labels[b]] for a, b in doc["graph"]["edges"]]
        red.write_text(json.dumps(doc))
        for fmt in ("dot", "json"):
            code, out, err = run(capsys, "export", str(red), "--format", fmt)
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: malformed graph document: edge 0 is not a [tail, head] pair of vertex indices")

    @pytest.mark.parametrize(
        "label",
        [
            "w_01_1_1_1", "a_0", "w_1_1_1_1_whole", "e_1", "ta_1", "ta_1_2", "w_1_1_1_1 ", "x" * 5000, 7,
            {"kind": "grid", "i": 1, "j": 1, "q": 1, "ell": 1, "part": "whole"},
        ],
        ids=["leading-zero", "zero-index", "whole-part-written", "family-e", "tree-node-without-path",
             "tree-path-not-binary", "trailing-space", "long", "number", "label-object"],
    )
    def test_label_that_is_no_label_name_exits_2(self, capsys, tmp_path, label):
        # a document writes each label as its label_name; any other value is named, through brief
        inst, red = gen_instance(capsys, tmp_path), tmp_path / "red.json"
        assert run(capsys, "reduce", str(inst), "--out", str(red))[0] == EXIT_OK
        doc = json.loads(red.read_text())
        assert doc["graph"]["vertices"][0]["label"] == "w_1_1_1_1"
        doc["graph"]["vertices"][0]["label"] = label
        red.write_text(json.dumps(doc))
        if type(label) is str:
            message = f"error: malformed graph document: {brief(label)} is not the name of a vertex label\n"
        else:
            message = f"error: malformed graph document: expected a JSON str, got {brief(label)}\n"
        for fmt in ("dot", "json"):
            assert run(capsys, "export", str(red), "--format", fmt) == (EXIT_USAGE, "", message)
        assert len(message) < 300

    @pytest.mark.parametrize(
        "place, value, message",
        [
            ("vertices", 5, "expected a JSON list, got 5"),
            ("vertices", {"w_1_1_1_1": ["1", "1"]}, "expected a JSON list, got {'w_1_1_1_1': ['1', '1']}"),
            ("coord", ["1"], "coord of vertex w_1_1_1_1 is not an [x, y] pair: ['1']"),
            ("coord", ["1", "1", "0"], "coord of vertex w_1_1_1_1 is not an [x, y] pair: ['1', '1', '0']"),
            ("coord", ["1"] * 5000, f"coord of vertex w_1_1_1_1 is not an [x, y] pair: {brief(['1'] * 5000)}"),
        ],
        ids=["vertices-number", "vertices-object", "coord-of-one", "coord-of-three", "coord-long"],
    )
    def test_graph_document_of_the_wrong_shape_exits_2(self, capsys, tmp_path, place, value, message):
        # a vertex list or a coord of the wrong shape in a reduction's graph is named
        inst, red = gen_instance(capsys, tmp_path), tmp_path / "red.json"
        assert run(capsys, "reduce", str(inst), "--out", str(red))[0] == EXIT_OK
        doc = json.loads(red.read_text())
        assert doc["graph"]["vertices"][0]["label"] == "w_1_1_1_1"
        (doc["graph"] if place == "vertices" else doc["graph"]["vertices"][0])[place] = value
        red.write_text(json.dumps(doc))
        for fmt in ("dot", "json"):
            assert run(capsys, "export", str(red), "--format", fmt) == (
                EXIT_USAGE, "", f"error: malformed graph document: {message}\n"
            )

    @pytest.mark.parametrize(
        "pair, shown",
        [([1, 2, 3], "[1, 2, 3]"), ([1], "[1]"), ([], "[]"), ([1] * 5000, brief([1] * 5000))],
        ids=["three-items", "one-item", "empty", "long"],
    )
    def test_pair_of_the_wrong_length_exits_2(self, capsys, tmp_path, pair, shown):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"k": 1, "N": 2, "sets": {"1,1": [[1, 1], pair]}}))
        message = f"error: malformed grid tiling instance: cell (1, 1) holds {shown}, which is not a pair [a, b]\n"
        assert run(capsys, "roundtrip", str(path)) == (EXIT_USAGE, "", message)

    def test_large_mistyped_value_is_echoed_in_brief(self, capsys, tmp_path):
        # sets must be an object; a 5,000-pair list is named by its type and the start of its repr only
        path = tmp_path / "listed.json"
        path.write_text(json.dumps({"k": 1, "N": 2, "sets": [[n, n] for n in range(5000)]}))
        code, out, err = run(capsys, "roundtrip", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: malformed grid tiling instance: expected a JSON dict, got [[0, 0], [1, 1], ")
        assert err.endswith("...\n") and len(err) < 300

    def test_huge_k_reports_missing_cells_without_making_them(self, capsys, tmp_path, monkeypatch):
        cells = gridtiling._cells

        def capped(k):
            # the reader may list cells, but never k^2 of them
            for n, cell in enumerate(cells(k)):
                assert n < 10_000, "validation enumerates every cell"
                yield cell

        monkeypatch.setattr(gridtiling, "_cells", capped)
        path = tmp_path / "huge_k.json"
        path.write_text(json.dumps({"k": 100_000, "N": 2, "sets": {"1,1": [[1, 1]]}}))
        code, _, err = run(capsys, "reduce", str(path), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE
        named = "; ".join(f"missing set for cell (1, {y})" for y in range(2, 12))
        assert err == f"error: {path}: {named}; missing sets for 9999999989 more cells\n"

    def test_few_missing_cells_are_all_named_in_sorted_order(self, capsys, tmp_path):
        path = tmp_path / "few.json"
        path.write_text(json.dumps({"k": 2, "N": 2, "sets": {"2,2": [[1, 1]], "3,1": [[1, 1]]}}))
        code, _, err = run(capsys, "roundtrip", str(path))
        assert code == EXIT_USAGE
        assert err == (
            f"error: {path}: missing set for cell (1, 1); missing set for cell (1, 2); "
            "missing set for cell (2, 1); unexpected cell (3, 1) outside [1,2]^2\n"
        )

    @settings(max_examples=60, deadline=None)
    @given(leaf=st.sampled_from(_GRAPH_LEAVES), value=_LEAF_VALUES)
    def test_one_replaced_leaf_exits_0_or_2(self, tmp_path_factory, leaf, value):
        # one leaf of a reduction document's graph part replaced
        doc = json.loads(json.dumps(_RED_DOC))
        parent = doc
        for key in leaf[:-1]:
            parent = parent[key]
        parent[leaf[-1]] = value
        path = tmp_path_factory.mktemp("leaf") / "red.json"
        path.write_text(json.dumps(doc))
        for fmt in ("dot", "json"):
            assert main(["export", str(path), "--format", fmt, "--out", str(path.with_suffix("." + fmt))]) in (
                EXIT_OK,
                EXIT_USAGE,
            )


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_repeated_calls_match_fresh_ones(self, capsys):
        # main reuses one parser per process: each call must still answer
        # as the first call of a fresh process does
        argvs = [["frobnicate"], ["gen", "1", "2", "--seed", "3"], [], ["gen", "2", "3", "--noise", "1"]]
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli._parser.cache_clear()
        assert [run(capsys, *argv) for argv in argvs] == fresh
        assert [code for code, _, _ in fresh] == [EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_OK]

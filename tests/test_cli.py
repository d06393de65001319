"""Tests for the command-line front end: artifacts, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import vizing
from vizing import Colouring, FractionBound, Multigraph, audit_report
from vizing.cli import _audit_offenders, main
from vizing.multigraph import MAX_EDGES, MAX_VERTICES

from gadgets import long_path_instance

P3_MG = "mg 3 2 2 1\n0 1 1\n1 2 1\n"
P3_PARTIAL = P3_MG + "0 0\n1 1\n"
P3_COLOURED = P3_MG + "0 2\n1 1\n"
C4_DUMP = "mg 4 4 2 1\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n0 1\n1 2\n2 1\n3 2\n"
DBL_DUMP = "mg 2 2 2 2\n0 1 1\n0 1 2\n0 1\n1 2\n"


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(args, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


class TestGen:
    def test_empty_graph_header(self, cli):
        assert cli(["gen", "--n", "0"]) == (0, "mg 0 0 0 0\n", "")

    def test_header_reports_tight_bounds(self, cli):
        code, out, err = cli(["gen", "--n", "12", "--delta", "3", "--pi", "1", "--seed", "7"])
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "mg 12 16 3 1"

    def test_deterministic(self, cli):
        runs = {cli(["gen", "--n", "30", "--seed", "4"]) for _ in range(3)}
        assert len(runs) == 1

    def test_seed_changes_output(self, cli):
        a = cli(["gen", "--n", "30", "--seed", "4"])
        b = cli(["gen", "--n", "30", "--seed", "5"])
        assert a != b

    def test_output_file(self, cli, tmp_path):
        target = tmp_path / "g.mg"
        code, out, _ = cli(["gen", "--n", "12", "--seed", "7", "--output", str(target)])
        assert code == 0 and out == ""
        text = target.read_text()
        assert cli(["gen", "--n", "12", "--seed", "7"])[1] == text
        g = Multigraph.from_text(text)
        assert (g.n, g.delta, g.pi) == (12, 3, 1)

    def test_negative_n_rejected(self, cli):
        code, _, err = cli(["gen", "--n", "-1"])
        assert code == 1
        assert "non-negative" in err

    def test_saturated_graph_stops_drawing(self, cli):
        """Four vertices cap a simple graph at K4's six edges, however large
        --delta is: the generator stops drawing once no edge fits, instead
        of spending 3 * n * delta = 36M draws."""
        start = time.perf_counter()
        code, out, err = cli(["gen", "--n", "4", "--delta", "3000000"])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        g = Multigraph.from_text(out)
        assert (g.n, g.m, g.delta, g.pi) == (4, 6, 3, 1)
        assert sorted(g.edges) == [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]


# ---------------------------------------------------------------------------
# colour
# ---------------------------------------------------------------------------


class TestColour:
    def test_p3_frozen(self, cli):
        assert cli(["colour"], stdin=P3_MG) == (0, P3_COLOURED, "")

    def test_file_roundtrip(self, cli, tmp_path):
        src = tmp_path / "g.mg"
        dst = tmp_path / "g.dump"
        cli(["gen", "--n", "40", "--seed", "2", "--output", str(src)])
        code, out, err = cli(["colour", "--input", str(src), "--output", str(dst)])
        assert (code, out, err) == (0, "", "")
        text = dst.read_text()
        assert text.startswith(src.read_text())
        g = Multigraph.from_text(src.read_text())
        c = Colouring.from_dump(g, "".join(text.splitlines(True)[g.m + 1 :]))
        assert c.uncoloured_count == 0

    def test_output_passes_audit(self, cli):
        _, dump, _ = cli(["colour"], stdin=P3_MG)
        code, out, err = cli(["audit", "--L", "5"], stdin=dump)
        assert code == 0 and err == ""
        assert json.loads(out)["uncoloured_fraction"] == "0/1"

    def test_malformed_input(self, cli):
        code, _, err = cli(["colour"], stdin="hello\n")
        assert code == 1
        assert "line 1" in err


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


class TestSchedule:
    def test_converges_with_round_log(self, cli):
        code, out, err = cli(["schedule", "--L", "5"], stdin=P3_MG)
        assert code == 0
        assert out.startswith(P3_MG)
        colours = [int(line.split()[1]) for line in out.splitlines()[3:]]
        assert len(colours) == 2 and 0 not in colours
        records = [json.loads(line) for line in err.splitlines()]
        assert records == [
            {"augmented": 1, "recoloured": 1, "round": 1, "uncoloured_remaining": 1},
            {"augmented": 1, "recoloured": 2, "round": 2, "uncoloured_remaining": 0},
        ]
        assert err.splitlines()[0] == (
            '{"augmented": 1, "recoloured": 1, "round": 1, "uncoloured_remaining": 1}'
        )

    def test_small_L_cites_3L(self, cli):
        code, out, err = cli(["schedule", "--L", "4"], stdin=P3_MG)
        assert code == 1 and out == ""
        assert "3L" in err and "2*delta" in err

    def test_max_rounds_dumps_partial_state(self, cli):
        code, out, err = cli(["schedule", "--L", "5", "--max-rounds", "1"], stdin=P3_MG)
        assert code == 2
        assert "bound failure" in err and "1 rounds" in err
        colours = [int(line.split()[1]) for line in out.splitlines()[3:]]
        assert colours.count(0) == 1

    def test_deterministic(self, cli):
        _, g_text, _ = cli(["gen", "--n", "40", "--seed", "9"])
        runs = {cli(["schedule", "--L", "8", "--seed", "1"], stdin=g_text) for _ in range(3)}
        assert len(runs) == 1


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


class TestAudit:
    def test_partial_report_frozen(self, cli):
        code, out, err = cli(["audit", "--L", "5"], stdin=P3_PARTIAL)
        assert code == 0 and err == ""
        assert json.loads(out) == {
            "max_deg_iterated": 0,
            "max_deg_simple": 1,
            "min_uncoloured_deg": 1,
            "superb_count_checks": [],
            "uncoloured_fraction": "1/2",
            "weighted_min_mass": "0/1",
        }

    def test_json_keys_sorted(self, cli):
        _, out, _ = cli(["audit", "--L", "5"], stdin=P3_PARTIAL)
        keys = list(json.loads(out))
        assert keys == sorted(keys)

    def test_tsv_frozen(self, cli):
        code, out, _ = cli(["audit", "--L", "5", "--format", "tsv"], stdin=P3_PARTIAL)
        assert code == 0
        assert out == (
            "max_deg_simple\t1\n"
            "max_deg_iterated\t0\n"
            "min_uncoloured_deg\t1\n"
            "uncoloured_fraction\t1/2\n"
            "weighted_min_mass\t0/1\n"
        )

    def test_tsv_full_colouring_leaves_the_mass_cell_empty(self, cli):
        # JSON writes the missing mass as null; the TSV cell is empty
        _, out, _ = cli(["audit", "--L", "5"], stdin=P3_COLOURED)
        assert json.loads(out)["weighted_min_mass"] is None
        code, out, _ = cli(["audit", "--L", "5", "--format", "tsv"], stdin=P3_COLOURED)
        assert code == 0
        assert out == (
            "max_deg_simple\t0\n"
            "max_deg_iterated\t0\n"
            "min_uncoloured_deg\t0\n"
            "uncoloured_fraction\t0/1\n"
            "weighted_min_mass\t\n"
        )

    def test_tsv_probe_row(self):
        # the command line requests no probes; the library report's rows
        # format their bound as the JSON does
        inst = long_path_instance(12)
        rep = audit_report(inst.c, 12, superb_probes=((inst.e, inst.x),))
        row = rep.to_tsv().splitlines()[-1]
        assert row == f"superb_count_check\t{inst.e}\t{inst.x}\t1\t2\t4\t-1415/24\tvacuous-pass"

    @pytest.mark.parametrize("failing", ["simple", "iterated"])
    def test_offenders_read_the_report(self, failing):
        # verdicts no real colouring reaches, planted in a report: each mode
        # asserts its own fraction bound, and the degree floor applies
        # whenever the simple bound does
        rep = audit_report(Colouring.from_assignment(Multigraph.from_text(P3_MG), {1: 1}), 5)
        fail = FractionBound(Fraction(1, 2), Fraction(1, 4), "fail")
        setattr(rep, f"{failing}_bound", fail)
        floor = "uncoloured edge 0 has chain degree 1 < L=5 although no chain shorter than L exists"
        bound = f"uncoloured fraction 1/2 exceeds the {failing} bound 1/4 at L=5"
        want = {"simple": [floor, bound], "iterated": [bound]}[failing]
        assert _audit_offenders(rep, 5, failing) == want
        other = "iterated" if failing == "simple" else "simple"
        assert _audit_offenders(rep, 5, other) == want[:-1]

    @pytest.mark.parametrize(
        "blank, line, found", [("\n", 10, 5), ("\n\n", 11, 6)], ids=["one", "two"]
    )
    def test_trailing_blank_lines_rejected(self, cli, blank, line, found):
        # a blank line after the colour block is one line too many, as in
        # Colouring.from_dump
        code, out, err = cli(["audit", "--L", "5"], stdin=C4_DUMP + blank)
        assert code == 1 and out == ""
        assert f"line {line}: expected one line per edge (4), found {found}" in err

    def test_full_colouring_report(self, cli):
        code, out, _ = cli(["audit", "--L", "5"], stdin=P3_COLOURED)
        assert code == 0
        report = json.loads(out)
        assert report["max_deg_simple"] == 0
        assert report["uncoloured_fraction"] == "0/1"
        assert report["weighted_min_mass"] is None

    def test_colour_line_error_renumbered(self, cli):
        code, _, err = cli(["audit", "--L", "5"], stdin="mg 2 1 1 1\n0 1 1\n0 9\n")
        assert code == 1
        assert "line 3" in err

    def test_improper_dump_rejected(self, cli):
        bad = P3_MG + "0 1\n1 1\n"
        code, _, err = cli(["audit", "--L", "5"], stdin=bad)
        assert code == 1
        assert "already used" in err

    def test_mode_flag(self, cli):
        for mode in ("simple", "iterated"):
            code, out, _ = cli(["audit", "--L", "5", "--mode", mode], stdin=P3_PARTIAL)
            assert code == 0
            assert json.loads(out)["uncoloured_fraction"] == "1/2"


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


class TestStats:
    def test_tsv_frozen(self, cli):
        code, out, err = cli(
            ["stats", "--L", "5,10", "--format", "tsv"], stdin=P3_MG
        )
        assert code == 0
        assert out == (
            "L\tuncoloured_fraction\tsimple_bound\titerated_bound\n"
            "5\t0/1\t81/5\t14348907/25\n"
            "10\t0/1\t81/10\t14348907/100\n"
        )

    def test_json_rows(self, cli):
        code, out, _ = cli(["stats", "--L", "5"], stdin=P3_MG)
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {
                "L": 5,
                "uncoloured_fraction": "0/1",
                "simple_bound": "81/5",
                "iterated_bound": "14348907/25",
            }
        ]

    def test_max_rounds_is_a_bound_failure(self, cli):
        # the scheduler's MaxRoundsExceeded ends the sweep with no rows
        code, out, err = cli(["stats", "--L", "5", "--max-rounds", "1"], stdin=P3_MG)
        assert (code, out) == (2, "")
        assert err == (
            "bound failure: scheduler stopped after 1 rounds with 1 edges still uncoloured\n"
        )

    def test_bad_L_list(self, cli):
        code, _, err = cli(["stats", "--L", "a,b"], stdin=P3_MG)
        assert code == 1
        assert "comma-separated" in err


# ---------------------------------------------------------------------------
# orient
# ---------------------------------------------------------------------------


class TestOrient:
    def test_c4_cycle_frozen(self, cli):
        assert cli(["orient"], stdin=C4_DUMP) == (0, "0 0 1\n1 1 2\n2 2 3\n3 3 0\n", "")

    def test_partial_rejected(self, cli):
        code, out, err = cli(["orient"], stdin=P3_PARTIAL)
        assert code == 1 and out == ""
        assert "uncoloured" in err

    def test_parallel_edges_rejected(self, cli):
        code, _, err = cli(["orient"], stdin=DBL_DUMP)
        assert code == 1
        assert "multiplicity 1" in err


# ---------------------------------------------------------------------------
# usage and exit codes
# ---------------------------------------------------------------------------


class TestUsage:
    def test_unknown_command(self, cli):
        code, _, err = cli(["frobnicate"])
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_flag(self, cli):
        assert cli(["schedule"], stdin=P3_MG)[0] == 1
        assert cli(["gen"])[0] == 1

    def test_zero_L_rejected(self, cli):
        code, _, err = cli(["schedule", "--L", "0"], stdin=P3_MG)
        assert code == 1
        assert "positive" in err

    def test_help_exits_zero(self, cli):
        code, out, _ = cli(["--help"])
        assert code == 0
        assert "gen" in out and "orient" in out

    @pytest.mark.parametrize(
        "argv,stderr",
        [
            (["--n", str(MAX_VERTICES + 1)],
             f"error: --n {MAX_VERTICES + 1} exceeds the vertex limit {MAX_VERTICES}\n"),
            # a target of 1.5e9 edges on three vertices, which would exhaust memory
            (["--n", "3", "--delta", "1000000000", "--pi", "1000000000"],
             "error: --n 3 --delta 1000000000 --pi 1000000000 aims for 1500000000 "
             f"edges, which exceeds the edge limit {MAX_EDGES}\n"),
        ],
        ids=["vertices", "edges"],
    )
    def test_gen_above_vertex_limit_rejected(self, cli, argv, stderr):
        code, out, err = cli(["gen", *argv])
        assert (code, out, err) == (1, "", stderr)

    @pytest.mark.parametrize(
        "n,m,code,stderr",
        [
            (10**9, 0, 1, f"error: line 1: n = 1000000000 exceeds the vertex limit {MAX_VERTICES}\n"),
            (MAX_VERTICES, 0, 0, ""),
            (2, 10**9, 1, f"error: line 1: m = 1000000000 exceeds the edge limit {MAX_EDGES}\n"),
        ],
        ids=["over", "at", "edges-over"],
    )
    def test_oversized_header_fails_fast(self, tmp_path, n, m, code, stderr):
        """A header alone may not make the parser allocate n adjacency lists
        for a huge n, nor read on for a huge m.  The child runs under a
        400 MB address-space limit, so a regression shows as a MemoryError
        traceback on stderr instead of exhausting the machine's memory; a
        header at the vertex limit still fits."""
        graph = tmp_path / "g.mg"
        graph.write_text(f"mg {n} {m} 0 0\n")
        limit = 400 * 2**20

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(vizing.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "vizing.cli", "colour", "--input", str(graph)],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=cap_memory,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (code, stderr)
        if code == 0:
            assert proc.stdout == f"mg {n} {m} 0 0\n"

    @pytest.mark.parametrize("command", [["colour"], ["audit", "--L", "5"], ["orient"]])
    def test_negative_edge_count_in_header(self, cli, command):
        # the dump readers (audit, orient) report it as the graph reader does
        code, out, err = cli(command, stdin="mg 2 -1 1 1\n")
        assert (code, out, err) == (1, "", "error: line 1: n and m must be non-negative\n")

    def test_missing_input_file(self, cli, tmp_path):
        code, _, err = cli(["colour", "--input", str(tmp_path / "absent.mg")])
        assert code == 1
        assert "error" in err


# ---------------------------------------------------------------------------
# integer fields
# ---------------------------------------------------------------------------


class TestIntegerFields:
    """A field is an optional '-' then ASCII digits, read alike from stdin
    and from --input: what int() accepts beyond that ('+', '_', non-ASCII
    digits), and the ASCII control characters that str.split() or
    str.splitlines() would read as a separator or a line break, fail with
    their line number."""

    CASES = [
        (["colour"], "mg 3 2 2 1\n0 +2 1\n1 2 1\n", "line 2: fields must be integers"),
        (["colour"], "mg 3 2 2 1\n0 \u0662 1\n1 2 1\n", "line 2: non-ASCII character"),
        (["colour"], "mg 3 2 +2 1\n0 1 1\n1 2 1\n", "line 1: header fields must be integers"),
        (["audit", "--L", "5"], P3_MG + "0 0\n1 0_1\n", "line 5: fields must be integers"),
        (["orient"], C4_DUMP.replace("1 2\n2 1", "1 \u0662\n2 1"), "line 7: non-ASCII character"),
        (["colour"], "mg 3 2 2 1\n0\x1f1 1\n1 2 1\n", "line 2: control character"),
        (["colour"], "mg 3 2 2 1\n0 1 1\x0c1 2 1\n", "line 2: control character"),
        (["audit", "--L", "5"], P3_MG + "0 0\x0c1 1\n", "line 4: control character"),
    ]
    IDS = ["plus", "arabic-digit", "header-plus", "dump-underscore", "dump-arabic-digit",
           "unit-separator", "form-feed", "dump-form-feed"]

    @pytest.mark.parametrize("args,text,message", CASES, ids=IDS)
    def test_stdin(self, cli, args, text, message):
        assert cli(args, stdin=text) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("args,text,message", CASES, ids=IDS)
    def test_input_file(self, cli, tmp_path, args, text, message):
        path = tmp_path / "input"
        path.write_bytes(text.encode("utf-8"))
        assert cli([*args, "--input", str(path)]) == (1, "", f"error: {message}\n")

    def test_same_bytes_on_both_routes(self, tmp_path):
        """Bytes that are not UTF-8 fail alike on the process's real stdin
        and from a file."""
        data = b"mg 3 2 2 1\n0 \xff 1\n1 2 1\n"
        path = tmp_path / "g.mg"
        path.write_bytes(data)
        src = str(Path(vizing.__file__).resolve().parent.parent)
        results = [
            subprocess.run(
                [sys.executable, "-m", "vizing.cli", "colour", *extra],
                env=dict(os.environ, PYTHONPATH=src), input=data, capture_output=True,
            )
            for extra in ([], ["--input", str(path)])
        ]
        for proc in results:
            assert (proc.returncode, proc.stdout) == (1, b"")
            assert proc.stderr == b"error: line 2: non-ASCII character\n"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    CASES = [
        (["gen", "--n", "25", "--seed", "6"], ""),
        (["colour"], P3_MG),
        (["schedule", "--L", "5", "--seed", "2"], P3_MG),
        (["audit", "--L", "5"], P3_PARTIAL),
        (["stats", "--L", "5,10"], P3_MG),
        (["orient"], C4_DUMP),
    ]

    @pytest.mark.parametrize("args,stdin", CASES, ids=[c[0][0] for c in CASES])
    def test_five_runs_identical(self, cli, args, stdin):
        runs = {cli(args, stdin=stdin) for _ in range(5)}
        assert len(runs) == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vizing.cli", "gen", "--n", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "mg 0 0 0 0\n"

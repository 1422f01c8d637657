import bz2
import gzip
import io
import lzma
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import dpllsat.cli
import dpllsat.search
from dpllsat import brute_force, check_model, parse_dimacs, solve, to_dimacs
from dpllsat.cli import (EXIT_ERROR, EXIT_INTERRUPTED, EXIT_SAT,
                         EXIT_UNKNOWN, EXIT_UNSAT, _write_model, entry,
                         generate_pigeonhole, generate_queens, main)
from helpers import EXAMPLE1_DIMACS, example1


def write_cnf(tmp_path, text, name="instance.cnf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def feed(tmp_path, monkeypatch, source, data):
    """The CLI's input argument for `data`, read from a file or from a
    standard input that holds it."""
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        return "-"
    path = tmp_path / "input.cnf"
    path.write_bytes(data)
    return str(path)


def parse_model_line(out):
    tokens = []
    for line in out.splitlines():
        if line.startswith("v "):
            tokens.extend(int(t) for t in line[2:].split())
    assert tokens[-1] == 0
    literals = tokens[:-1]
    return [lit > 0 for lit in sorted(literals, key=abs)]


class TestRun:
    def test_example1_sat(self, tmp_path, capsys):
        code = main([write_cnf(tmp_path, EXAMPLE1_DIMACS)])
        out = capsys.readouterr().out
        assert code == EXIT_SAT
        assert "s SATISFIABLE" in out
        model = parse_model_line(out)
        assert check_model(parse_dimacs(EXAMPLE1_DIMACS), model)

    def test_hole6_unsat(self, tmp_path, capsys):
        path = write_cnf(tmp_path, to_dimacs(generate_pigeonhole(6)))
        code = main([path])
        assert code == EXIT_UNSAT
        assert capsys.readouterr().out.strip() == "s UNSATISFIABLE"

    def test_empty_clause_file(self, tmp_path, capsys):
        code = main([write_cnf(tmp_path, "p cnf 1 1\n0\n")])
        assert code == EXIT_UNSAT
        assert capsys.readouterr().out.strip() == "s UNSATISFIABLE"

    def test_zero_variable_files(self, tmp_path, capsys):
        assert main([write_cnf(tmp_path, "p cnf 0 0\n")]) == EXIT_SAT
        assert capsys.readouterr().out == "s SATISFIABLE\nv 0\n"
        assert main([write_cnf(tmp_path, "p cnf 0 1\n0\n")]) == EXIT_UNSAT
        assert capsys.readouterr().out == "s UNSATISFIABLE\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        code = main([write_cnf(tmp_path, "p cnf bogus\n")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/a.cnf"]) == 1

    def test_clause_count_mismatch_warns_on_stderr(self, tmp_path, capsys):
        code = main([write_cnf(tmp_path, "p cnf 2 9\n1 0\n")])
        captured = capsys.readouterr()
        assert code == EXIT_SAT
        assert "warning" in captured.err

    def test_satlib_percent_terminator(self, tmp_path, capsys):
        # the uf*/uuf* files of SATLIB end with "%" and a lone "0"
        text = "c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n"
        code = main([write_cnf(tmp_path, text)])
        captured = capsys.readouterr()
        assert code == EXIT_SAT
        assert captured.err == ""
        assert check_model(parse_dimacs(text), parse_model_line(captured.out))

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_ascii_comment_ignored(self, tmp_path, capsys, monkeypatch,
                                       source):
        data = b"c caf\xe9\n" + EXAMPLE1_DIMACS.encode()
        code = main([feed(tmp_path, monkeypatch, source, data)])
        captured = capsys.readouterr()
        assert code == EXIT_SAT
        assert captured.err == ""
        assert check_model(example1(), parse_model_line(captured.out))

    @pytest.mark.parametrize("data, line", [
        (b"p cnf 2 1\n1 2\xe9 0\n", 2),
        (b"p cnf 2\xe9 1\n1 2 0\n", 1),
        (bytes(range(128, 256)) + b"\n" + EXAMPLE1_DIMACS.encode(), 1),
    ], ids=["clause", "header", "binary"])
    def test_non_ascii_data_is_an_input_error(self, tmp_path, capsys, data,
                                              line):
        path = tmp_path / "bad.cnf"
        path.write_bytes(data)
        assert main([str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line %d: " % line)
        assert "Traceback" not in captured.err
        # the message quotes at most 40 characters of the line
        assert len(captured.err) < 100

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("compress", [gzip.compress, bz2.compress,
                                          lzma.compress],
                             ids=["gzip", "bzip2", "xz"])
    def test_compressed_input(self, tmp_path, capsys, monkeypatch, compress,
                              source):
        path = feed(tmp_path, monkeypatch, source,
                    compress(EXAMPLE1_DIMACS.encode()))
        code = main([path])
        captured = capsys.readouterr()
        assert code == EXIT_SAT
        assert captured.err == ""
        assert check_model(example1(), parse_model_line(captured.out))

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("compress, name", [
        (gzip.compress, "gzip"), (bz2.compress, "bzip2"),
        (lzma.compress, "xz")], ids=["gzip", "bzip2", "xz"])
    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_compressed_input_is_an_input_error(
            self, tmp_path, capsys, monkeypatch, compress, name, damage,
            source):
        data = compress(to_dimacs(generate_queens(8)).encode())
        if damage == "truncated":
            data = data[:len(data) // 2]
        else:
            data = data[:12] + bytes(64) + data[76:]
        assert main([feed(tmp_path, monkeypatch, source, data)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: corrupt %s input: " % name)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("count", [2 ** 62, 2 ** 63])
    def test_oversized_variable_count_is_an_input_error(self, tmp_path,
                                                         capsys, count):
        # counts this large fail the list size check before any allocation
        path = write_cnf(tmp_path, "p cnf %d 1\n1 0\n" % count)
        assert main([path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: variable count %d is too large\n"
                                % count)

    @pytest.mark.parametrize("data, line", [
        (b"p cnf 1_0 1\n1 0\n", 1),
        (b"p cnf 10 1\n1_0 0\n", 2),
        ("p cnf 2 1\n\u0662 0\n".encode(), 2),
    ], ids=["underscore_header", "underscore_clause", "unicode_clause"])
    def test_non_dimacs_digits_are_an_input_error(self, tmp_path, capsys,
                                                  data, line):
        path = tmp_path / "bad.cnf"
        path.write_bytes(data)
        assert main([str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line %d: " % line)

    def test_timeout_prints_unknown(self, tmp_path, capsys):
        # pigeonhole with 10 holes is far beyond this solver in 50 ms
        path = write_cnf(tmp_path, to_dimacs(generate_pigeonhole(10)))
        code = main(["--time-limit", "0.05", path])
        assert code == EXIT_UNKNOWN
        assert capsys.readouterr().out.strip() == "s UNKNOWN"

    def test_timed_out_trace_prints_events_then_unknown(self, tmp_path, capsys,
                                                         monkeypatch):
        # the deadline expires at the 40th search node, with layers open;
        # the c lines are all written by the time solve returns
        path = write_cnf(tmp_path, to_dimacs(generate_pigeonhole(6)))
        calls = []

        def clock():
            calls.append(None)
            return 0.0 if len(calls) <= 40 else 1e9

        written = []

        def solve_then_read(state, **options):
            result = solve(state, **options)
            written.append(capsys.readouterr().out)
            return result

        monkeypatch.setattr(dpllsat.search, "time",
                            SimpleNamespace(monotonic=clock))
        monkeypatch.setattr(dpllsat.cli, "solve", solve_then_read)
        code = main(["--trace", "--time-limit", "1", path])
        assert code == EXIT_UNKNOWN
        assert capsys.readouterr().out == "s UNKNOWN\n"
        lines = written[0].splitlines()
        assert "c decide x1=T" in lines
        assert all(line.startswith("c ") for line in lines)
        assert lines[-1] == "c backtrack to level 0"

    def test_trace_lines_are_printed_while_solving(self, tmp_path, capsys,
                                                    monkeypatch):
        path = write_cnf(tmp_path, EXAMPLE1_DIMACS)
        traced = []

        def solve_then_read(state, **options):
            result = solve(state, **options)
            traced.append(capsys.readouterr().out)
            return result

        monkeypatch.setattr(dpllsat.cli, "solve", solve_then_read)
        assert main(["--trace", path]) == EXIT_SAT
        rest = capsys.readouterr().out
        assert traced[0].startswith("c decide x1=T\nc propagate x2=F")
        assert rest.startswith("s SATISFIABLE\n")
        assert "c " not in rest

    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    def test_time_limit_not_positive_is_a_usage_error(self, tmp_path, capsys,
                                                      limit):
        path = write_cnf(tmp_path, to_dimacs(generate_pigeonhole(3)))
        with pytest.raises(SystemExit) as raised:
            main(["--time-limit", limit, path])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "--time-limit must be positive" in err
        assert "Traceback" not in err

    def test_checked_and_trace_flags(self, tmp_path, capsys):
        code = main(["--checked", "--trace",
                     write_cnf(tmp_path, EXAMPLE1_DIMACS)])
        out = capsys.readouterr().out
        assert code == EXIT_SAT
        assert "c decide x1=T" in out
        assert "c propagate x2=F" in out

    def test_exit_status_matches_verdict_line(self, tmp_path, capsys):
        for text, expected in [(EXAMPLE1_DIMACS, EXIT_SAT),
                               ("p cnf 1 2\n1 0\n-1 0\n", EXIT_UNSAT)]:
            code = main([write_cnf(tmp_path, text)])
            out = capsys.readouterr().out
            if code == EXIT_SAT:
                assert "s SATISFIABLE" in out
            else:
                assert "s UNSATISFIABLE" in out
            assert code == expected

    def test_determinism_byte_identical_output(self, tmp_path, capsys):
        path = write_cnf(tmp_path, EXAMPLE1_DIMACS)
        main([path])
        first = capsys.readouterr().out
        main([path])
        second = capsys.readouterr().out
        assert first == second


class TestGenerators:
    def test_hole6_dimensions(self):
        f = generate_pigeonhole(6)
        assert f.variables_count == 42
        assert len(f.clauses) == 133

    def test_hole1_exact_clauses(self):
        f = generate_pigeonhole(1)
        assert f.variables_count == 2
        assert f.clauses == ((1,), (2,), (-1, -2))

    def test_hole2_unsat_by_oracle(self):
        assert brute_force(generate_pigeonhole(2)) is None

    def test_queens16_size(self):
        assert generate_queens(16).variables_count == 256

    def test_queens2_unsat_by_oracle(self):
        assert brute_force(generate_queens(2)) is None

    def test_queens4_sat_with_checked_model(self):
        f = generate_queens(4)
        model = brute_force(f)
        assert model is not None
        assert check_model(f, model)

    @pytest.mark.parametrize("holes", [1, 2, 3])
    def test_php_verdicts_match_oracle(self, holes):
        assert brute_force(generate_pigeonhole(holes)) is None

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_pigeonhole(0)
        with pytest.raises(ValueError):
            generate_queens(0)


class TestGenSubcommand:
    def test_gen_php_emits_dimacs(self, capsys):
        assert main(["gen", "php", "6"]) == 0
        out = capsys.readouterr().out
        f = parse_dimacs(out)
        assert f == generate_pigeonhole(6)

    def test_gen_queens_emits_dimacs(self, capsys):
        assert main(["gen", "queens", "4"]) == 0
        f = parse_dimacs(capsys.readouterr().out)
        assert f == generate_queens(4)

    def test_gen_output_solvable_end_to_end(self, tmp_path, capsys):
        assert main(["gen", "queens", "5"]) == 0
        text = capsys.readouterr().out
        path = write_cnf(tmp_path, text)
        code = main([path])
        out = capsys.readouterr().out
        assert code == EXIT_SAT
        model = parse_model_line(out)
        assert check_model(parse_dimacs(text), model)


def test_closed_stdout_exits_without_traceback(tmp_path):
    # 200,000 variables print about 1.3 MB of `v` lines, far more than a
    # pipe holds, so the solver is still writing when the reader closes
    path = write_cnf(tmp_path, "p cnf 200000 0\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    process = subprocess.Popen(
        [sys.executable, "-m", "dpllsat.cli", path], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert process.stdout.readline() == b"s SATISFIABLE\n"
    process.stdout.close()
    try:
        err = process.stderr.read()
        code = process.wait(timeout=60)
    finally:
        process.kill()
        process.stderr.close()
    assert "Traceback" not in err.decode()
    assert code == EXIT_ERROR


def test_ctrl_c_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted():
        print("c decide x1=T")
        raise KeyboardInterrupt

    monkeypatch.setattr(dpllsat.cli, "main", interrupted)
    with pytest.raises(SystemExit) as raised:
        entry()
    assert raised.value.code == EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.out == "c decide x1=T\n"
    assert "Traceback" not in captured.err


ONE_TO_20 = " ".join(map(str, range(1, 21)))


@pytest.mark.parametrize("model, expected", [
    ((), "v 0\n"),
    ((True, False, True), "v 1 -2 3 0\n"),
    ((True,) * 19, "v %s 0\n" % ONE_TO_20[:-3]),
    ((True,) * 20, "v %s\nv 0\n" % ONE_TO_20),
    ((True,) * 21, "v %s\nv 21 0\n" % ONE_TO_20),
])
def test_model_lines(model, expected):
    # 20 literals to a line; a lone `v 0` when n is a multiple of 20
    out = io.StringIO()
    _write_model(model, out)
    assert out.getvalue() == expected


def test_model_lines_are_written_one_at_a_time():
    # a million variables: what printing holds at once is one line, not a
    # string for every literal
    class Discard:
        def write(self, text):
            pass

    model = (True, False) * 500000
    tracemalloc.start()
    try:
        _write_model(model, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16384


def test_import_loads_no_decompressor():
    # -S keeps site's own imports, which may load zlib, out of the check;
    # the modules are imported only when input starts with their magic
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, %r); import dpllsat.cli; "
            "print(' '.join(sorted({'gzip', 'bz2', 'lzma', 'zlib', '_bz2', "
            "'_lzma'} & set(sys.modules))))" % str(src))
    loaded = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                            capture_output=True, text=True).stdout
    assert loaded == "\n"

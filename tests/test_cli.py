import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cauchykit
from cauchykit.cauchy import CauchySpec, det_closed
from cauchykit import verify
from cauchykit.cli import (EXIT_IDENTITY, EXIT_INPUT, EXIT_OK, EXIT_PIPE, _build_parser, _exit_code_for,
                           main)
from cauchykit.ring import RationalRing
from cauchykit.verify import VerificationReport

EXAMPLE = '{"xs":["1","2"],"ys":["3","5"]}'
SINGULAR = '{"xs":["1","1"],"ys":["3","5"]}'
MIN_ZERO = '{"kind":"min","xs":["1","2"],"ys":["3","4"]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env():
    """The environment for a ``python -m cauchykit`` subprocess that imports this checkout."""
    src = str(Path(cauchykit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestCheckCommands:
    def test_invsum_example(self, capsys):
        code, out, _ = run(capsys, "invsum", EXAMPLE)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["identity"] == "inverse_entry_sum"
        assert report["lhs"] == "11"
        assert report["rhs"] == "11"
        assert report["pass"] is True
        assert report["spec_echo"]["xs"] == ["1", "2"]

    def test_min_det_zero_case(self, capsys):
        code, out, _ = run(capsys, "min-det", MIN_ZERO)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["lhs"] == "0"
        assert report["pass"] is True

    def test_adjsum_accepts_singular(self, capsys):
        code, out, _ = run(capsys, "adjsum", SINGULAR)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["lhs"] == report["rhs"] == "0"

    def test_invsum_rejects_singular(self, capsys):
        code, _, err = run(capsys, "invsum", SINGULAR)
        assert code == EXIT_INPUT
        assert "strongly distinct" in err

    def test_border(self, capsys):
        code, out, _ = run(capsys, "border", EXAMPLE)
        assert code == EXIT_OK
        assert json.loads(out)["lhs"] == "-11/420"

    def test_min_invsum(self, capsys):
        code, out, _ = run(capsys, "min-invsum", '{"kind":"min","xs":["1","3"],"ys":["2","4"]}')
        assert code == EXIT_OK
        assert json.loads(out)["lhs"] == "1"

    def test_min_colsums_normalizes(self, capsys):
        code, out, _ = run(capsys, "min-colsums", '{"kind":"min","xs":["4","2"],"ys":["3","1"]}')
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pass"] is True
        assert report["spec_echo"]["swapped"] is True
        assert report["lhs"] == '["1","0"]'

    def test_lemma_ab(self, capsys):
        code, out, _ = run(capsys, "lemma-ab", "--trials", "5", "--seed", "9")
        assert code == EXIT_OK
        reports = json.loads(out)
        assert len(reports) == 5
        assert all(r["pass"] for r in reports)

    def test_prime_ring_flag(self, capsys):
        code, out, _ = run(capsys, "invsum", '{"xs":["4","9"],"ys":["1","7"]}', "--ring", "prime:101")
        assert code == EXIT_OK
        assert json.loads(out)["lhs"] == "21"

    def test_minus_convention(self, capsys):
        flipped = '{"xs":["1","2"],"ys":["-3","-5"]}'
        code, out, _ = run(capsys, "invsum", flipped, "--minus-convention")
        assert code == EXIT_OK
        assert json.loads(out)["lhs"] == "11"


class TestComputeCommands:
    def test_build(self, capsys):
        code, out, _ = run(capsys, "build", EXAMPLE)
        assert code == EXIT_OK
        m = json.loads(out)
        assert m["entries"] == [["1/4", "1/6"], ["1/5", "1/7"]]

    def test_build_min(self, capsys):
        code, out, _ = run(capsys, "build", MIN_ZERO)
        assert code == EXIT_OK
        assert json.loads(out)["entries"] == [["1", "1"], ["2", "2"]]

    def test_det(self, capsys):
        code, out, _ = run(capsys, "det", EXAMPLE, "--format", "text")
        assert code == EXIT_OK
        assert out.strip() == "1/420"

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "inv", EXAMPLE)
        assert code == EXIT_OK
        assert json.loads(out)["entries"] == [["60", "-70"], ["-84", "105"]]

    def test_gen_is_seeded(self, capsys):
        _, first, _ = run(capsys, "gen", "--seed", "5", "--n", "4")
        _, second, _ = run(capsys, "gen", "--seed", "5", "--n", "4")
        assert first == second
        spec = json.loads(first)
        assert len(spec["xs"]) == 4

    def test_gen_allow_degenerate(self, capsys):
        code, out, _ = run(capsys, "gen", "--seed", "3", "--n", "3", "--allow-degenerate")
        assert code == EXIT_OK
        spec = json.loads(out)
        values = spec["xs"] + spec["ys"]
        assert len(set(spec["xs"])) < 3 or len(set(spec["ys"])) < 3 or len(values) == 6

    def test_gen_min_kind(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "min", "--seed", "2", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["kind"] == "min"


class TestInputErrors:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "det", '{"xs": [')
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_missing_field(self, capsys):
        code, _, _ = run(capsys, "det", '{"xs":["1"]}')
        assert code == EXIT_INPUT

    def test_min_over_prime_field(self, capsys):
        code, _, err = run(capsys, "min-det", '{"kind":"min","ring":{"prime":101},"xs":["1"],"ys":["2"]}')
        assert code == EXIT_INPUT
        assert "rational" in err

    def test_zero_pair_sum(self, capsys):
        code, _, err = run(capsys, "det", '{"xs":["1"],"ys":["-1"]}')
        assert code == EXIT_INPUT
        assert "pair sum" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "det", "/nonexistent/spec.json")
        assert code == EXIT_INPUT

    def test_bad_ring_flag(self, capsys):
        code, _, _ = run(capsys, "det", EXAMPLE, "--ring", "octonions")
        assert code == EXIT_INPUT

    def test_long_ring_flag_is_echoed_bounded(self, capsys):
        code, _, err = run(capsys, "det", EXAMPLE, "--ring", "x" * 10000)
        assert code == EXIT_INPUT
        assert len(err.splitlines()) == 1 and len(err.rstrip("\n")) <= 200

    def test_minus_convention_on_min_spec(self, capsys):
        code, _, _ = run(capsys, "min-det", MIN_ZERO, "--minus-convention")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "command, spec, kind",
        [(c, MIN_ZERO, "cauchy") for c in ("det", "inv", "invsum", "adjsum", "border")]
        + [(c, EXAMPLE, "min") for c in ("min-det", "min-invsum", "min-colsums")],
    )
    def test_spec_of_the_wrong_kind(self, capsys, command, spec, kind):
        code, out, err = run(capsys, command, spec)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: this subcommand needs a {kind} spec\n"

    @pytest.mark.parametrize(
        "spec",
        [
            '{"xs":["1/0"],"ys":["1"]}',
            '{"xs":["1"],"ys":["1","2"]}',
            '{"xs":[],"ys":[]}',
            '{"kind":"min","xs":["1/0"],"ys":["1"]}',
            '{"kind":"min","xs":["one"],"ys":["1"]}',
            '{"kind":"min","xs":["1"],"ys":["1","2"]}',
            '{"kind":"min","xs":[],"ys":[]}',
            '{"ring":{"prime":3317044064679887385961981},"xs":["1"],"ys":["2"]}',
            '{"ring":{"prime":[101]},"xs":["1"],"ys":["2"]}',
            '{"xs":"12","ys":"34"}',
            '{"xs":[true],"ys":["2"]}',
            '{"kind":"min","xs":"13","ys":"24"}',
            '{"ring":{"prime":101.9},"xs":["1"],"ys":["2"]}',
            '{"xs":["1e999999999"],"ys":["1"]}',
            '{"kind":"min","xs":["1E-4301"],"ys":["1"]}',
            '{"xs":["' + "1" * 4301 + '"],"ys":["1"]}',
            '{"xs":[' + "1" * 5000 + '],"ys":["1"]}',
            '{"xs":' + "[" * 100000 + "]" * 100000 + ',"ys":["1"]}',
            pytest.param('{"ring":[' + ",".join(["1"] * 10000) + '],"xs":["1"],"ys":["1"]}', id="ring-list-10000"),
            pytest.param('{"kind":"' + "k" * 10000 + '","xs":["1"],"ys":["1"]}', id="kind-str-10000"),
        ],
    )
    def test_unusable_spec_is_one_error_line(self, capsys, spec):
        command = "min-invsum" if '"min"' in spec else "det"
        code, out, err = run(capsys, command, spec)
        assert code == EXIT_INPUT
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert len(err.rstrip("\n")) <= 200

    @pytest.mark.parametrize("spec, line", (
        ('{"xs":["1/0","1/0","1/0"],"ys":["1"]}', "xs has 3 entries but ys has 1"),
        ('{"kind":"min","xs":["1"],"ys":["2","two"]}', "xs has 1 entries but ys has 2"),
        ('{"ring":{"prime":101},"xs":["1e999999999","2"],"ys":["1"]}', "xs has 2 entries but ys has 1"),
        ('{"xs":[],"ys":["1/0"]}', "need at least one parameter in each vector"),
    ))
    def test_lengths_are_compared_before_any_scalar(self, capsys, spec, line):
        # a spec with more than one fault names its vector lengths first
        command = "min-invsum" if '"min"' in spec else "det"
        assert run(capsys, command, spec) == (EXIT_INPUT, "", f"error: unusable spec: {line}\n")

    @pytest.mark.parametrize("spec", ["[1]", '"abc"', "42"])
    def test_non_object_spec_says_so(self, capsys, spec):
        code, out, err = run(capsys, "det", spec)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: spec must be a JSON object")

    def test_file_named_like_a_json_scalar_loads(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "42").write_text(EXAMPLE)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "det", "42", "--format", "text")
        assert (code, out.strip()) == (EXIT_OK, "1/420")

    def test_non_utf8_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "det", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_exact_result_past_the_int_str_limit(self, capsys):
        # the determinant has more than 4300 digits, Python's default limit
        # for int-to-str conversion, which main lifts only while it runs
        limit = sys.get_int_max_str_digits()
        spec = {"xs": [str(v) for v in range(1, 81)], "ys": [str(v) for v in range(81, 161)]}
        code, out, err = run(capsys, "det", json.dumps(spec), "--format", "text")
        assert (code, err) == (EXIT_OK, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            det = det_closed(CauchySpec(range(1, 81), range(81, 161), RationalRing()))
            assert out.strip() == RationalRing().render(det)
            assert len(str(det.denominator)) > 4300
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("source", ("file", "stdin"))
    def test_spec_read_is_bounded(self, capsys, tmp_path, monkeypatch, source):
        monkeypatch.setattr(verify, "_MAX_SPEC_TEXT", len(EXAMPLE))
        for text, expected in ((EXAMPLE, (EXIT_OK, "1/420\n", "")), (EXAMPLE + " ", (
                EXIT_INPUT, "", f"error: spec longer than {len(EXAMPLE)} characters\n"))):
            if source == "file":
                (tmp_path / "spec.json").write_text(text)
                arg = str(tmp_path / "spec.json")
            else:
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                arg = "-"
            assert run(capsys, "det", arg, "--format", "text") == expected

    @staticmethod
    def _wide(inner: int, depth: int = 1) -> str:
        """A spec whose xs holds ``inner`` lists nested ``depth`` deep: it
        nests depth + 2 deep and opens inner * depth + 3 arrays and objects."""
        return '{"xs":[' + ",".join(["[" * depth + "1" + "]" * depth] * inner) + '],"ys":["1"]}'

    @pytest.mark.parametrize("source", ("inline", "file", "stdin"))
    def test_spec_nesting_is_bounded(self, capsys, tmp_path, monkeypatch, source):
        # counted before json parses the text, so the line is the same on every Python; the
        # refusal comes before the ring is parsed, and brackets inside a string do not count.
        # The arrays and objects are counted on the same brackets after the depth, so a spec both
        # too deep and too wide reads as too deep. A wide spec within the bounds has 1021 xs and one
        # y, and the lengths are compared before any scalar is read
        assert (verify._MAX_SPEC_DEPTH, verify._MAX_SPEC_CONTAINERS) == (64, 1024)
        deep = (EXIT_INPUT, "", "error: spec nests deeper than 64 levels\n")
        wide = (EXIT_INPUT, "", "error: spec opens more than 1024 arrays and objects\n")
        unusable = (EXIT_INPUT, "", "error: unusable spec: cannot use list as an exact rational\n")
        mismatched = (EXIT_INPUT, "", "error: unusable spec: xs has 1021 entries but ys has 1\n")
        bogus = (EXIT_INPUT, "", "error: ring must be \"rational\" or \"prime:P\", got 'bogus'\n")
        nested = {d: '{"xs":' + "[" * (d - 1) + "]" * (d - 1) + ',"ys":["1"]}' for d in (64, 65, 3000)}  # d deep
        for text, expected, with_bogus_ring in (
                (nested[64], unusable, bogus), (nested[65], deep, deep), (nested[3000], deep, deep),
                (self._wide(1021), mismatched, bogus), (self._wide(1022), wide, wide),
                (self._wide(400_000), wide, wide), (self._wide(1022, depth=70), deep, deep)):
            for ring, want in (((), expected), (("--ring", "bogus"), with_bogus_ring)):
                if source == "file":
                    (tmp_path / "spec.json").write_text(text)
                    arg = str(tmp_path / "spec.json")
                elif source == "stdin":
                    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                    arg = "-"
                else:
                    arg = text
                assert run(capsys, "det", arg, *ring) == want, (text[:80], len(text), ring)
        text = '{"xs":["' + "[" * 3000 + '"],"ys":["1"]}'
        code, _, err = run(capsys, "det", text)
        assert code == EXIT_INPUT and err.startswith("error: unusable spec: Invalid literal for Fraction")

    # Starts argv[2:] with argv[1] as its stdin and prints [exit code, stderr, peak RSS in KiB].
    # Linux counts in a child's peak RSS the memory of the process that started it, so the CLI is
    # started from this small process, not from the test process.
    PEAK_RSS = ("import json, resource, subprocess, sys\n"
                "with open(sys.argv[1], 'rb') as fin:\n"
                "    proc = subprocess.run(sys.argv[2:], stdin=fin, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)\n"
                "print(json.dumps([proc.returncode, proc.stderr.decode(),\n"
                "                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="reads a child's peak RSS in KiB")
    @pytest.mark.parametrize("source", ("file", "stdin"))
    def test_wide_spec_is_refused_in_little_memory(self, tmp_path, source):
        # 400,000 inner lists, 1.6 M characters (too long for one argv string): json would build
        # every list before a check could refuse one. The CLI's peak RSS stays within 8 MiB of its
        # peak on a valid spec
        path = tmp_path / "spec.json"

        def peak(text):
            path.write_text(text)
            argv = [sys.executable, "-m", "cauchykit", "det", "-" if source == "stdin" else str(path)]
            proc = subprocess.run([sys.executable, "-c", self.PEAK_RSS, str(path), *argv], capture_output=True,
                                  env=cli_env(), check=True, timeout=60)
            return json.loads(proc.stdout)

        code, err, valid_kib = peak(EXAMPLE)
        assert (code, err) == (EXIT_OK, "")
        code, err, wide_kib = peak(self._wide(400_000))
        assert (code, err) == (EXIT_INPUT, "error: spec opens more than 1024 arrays and objects\n")
        assert wide_kib - valid_kib <= 8 * 1024, (valid_kib, wide_kib)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_spec_file_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "cauchykit", "det", "/dev/zero"],
                              capture_output=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT, b"")
        assert proc.stderr == f"error: spec longer than {verify._MAX_SPEC_TEXT} characters\n".encode()

    @pytest.mark.parametrize("argv, unbuffered, read", (
        (["verify", "--trials", "2", "--n", "3"], False, 0), (["canary"], False, 0),
        (["build", EXAMPLE], False, 0),
        # as `cauchykit verify --trials 100 --n 8 | head -c 10`, with output well past a pipe's buffer
        (["verify", "--trials", "100", "--n", "8"], True, 10),
    ))
    def test_closed_stdout_exits_quietly(self, argv, unbuffered, read):
        # the reader closes stdout after `read` bytes. Block-buffered, the one write is main's flush
        # after the handler returns; unbuffered, a print inside the handler meets the closed pipe
        env = {k: v for k, v in cli_env().items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "cauchykit", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        if read:
            assert os.read(proc.stdout.fileno(), read)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (EXIT_PIPE, b"")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_stdout_leaves_no_descriptor_open(self, monkeypatch):
        # in process, stdout on a pipe whose reader is closed: main points it at devnull and must
        # close the devnull descriptor it opened to do so
        grown = []
        for _ in range(3):
            r, w = os.pipe()
            os.close(r)
            with os.fdopen(w, "w") as out:
                monkeypatch.setattr(sys, "stdout", out)
                before = len(os.listdir("/proc/self/fd"))
                assert main(["gen", "--seed", "1"]) == EXIT_PIPE
                grown.append(len(os.listdir("/proc/self/fd")) - before)
        assert grown == [0, 0, 0]

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")
    @pytest.mark.parametrize("argv, redirect, expected", (
        (["det", "-"], "<&-", (EXIT_INPUT, b"", b"error: stdin is closed\n")),
        # the spec is made, but the output cannot be written
        (["gen", "--seed", "1", "--n", "2"], ">&-", (EXIT_PIPE, b"", b"")),
        (["det", '{"xs":[],"ys":[]}'], ">&-",
         (EXIT_INPUT, b"", b"error: unusable spec: need at least one parameter in each vector\n")),
        # the error line has nowhere to go, and must not go to stdout
        (["det", '{"xs":[],"ys":[]}'], "2>&-", (EXIT_INPUT, b"", b"")),
    ))
    def test_closed_standard_stream(self, argv, redirect, expected):
        # the interpreter starts with the descriptor closed, as `cauchykit det - <&-` in a shell
        proc = subprocess.run(["/bin/sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
                               "cauchykit", *argv], capture_output=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", (["gen", "--seed", "1", "--n", "2"], ["canary"],
                                      ["det", '{"xs":[1],"ys":[2]}', "--format", "text"]))
    def test_refused_output_exits_141(self, argv):
        # every write to /dev/full fails, as on a full disk: the input was fine, the output is lost
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "cauchykit", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b"error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("source, message", (
        ("missing.json", "[Errno 2] No such file or directory: 'missing.json'"),
        (".", "[Errno 21] Is a directory: '.'"),
        ("-", "not readable"),  # stdin open for writing only
    ))
    def test_unreadable_spec_exits_2(self, capsys, tmp_path, monkeypatch, source, message):
        monkeypatch.chdir(tmp_path)
        with open(tmp_path / "out", "w") as write_only:
            monkeypatch.setattr(sys, "stdin", write_only)
            assert run(capsys, "det", source) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_spec_file_path(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(EXAMPLE)
        code, out, _ = run(capsys, "det", str(path), "--format", "text")
        assert code == EXIT_OK
        assert out.strip() == "1/420"


class TestVerify:
    def test_seeded_run_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "verify", "--seed", "42", "--trials", "4", "--n", "4")
        _, second, _ = run(capsys, "verify", "--seed", "42", "--trials", "4", "--n", "4")
        assert first == second

    def test_seed_42_output_is_pinned(self, capsys):
        pins = [
            (["--seed", "42"], "1e20a0237e677280be4dc288734c33e0f8a5e220b77411dfd4c5cbf3f25dd797"),
            (
                ["--seed", "7", "--trials", "30", "--n", "8", "--format", "csv"],
                "4afb1df5ae12b9ea6f8507e0b43ac0298c12fd5ff395448b7f9043c314f6a849",
            ),
        ]
        for argv, pinned in pins:
            _, out, _ = run(capsys, "verify", *argv)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == pinned, (
                f"`cauchykit verify {' '.join(argv)}` stdout changed; diff it against the "
                "output of the parent commit to see which report moved"
            )

    @pytest.mark.parametrize(
        "argv, pinned",
        (
            (["verify", "--seed", "3", "--trials", "20", "--n", "8", "--format", "text"],
             "489761b4f3cc38800ab2b51c3f7439f8611b39af5b03064368dd5329f4bce393"),
            (["lemma-ab", "--seed", "5", "--n", "8", "--trials", "30", "--format", "csv"],
             "260484c42788552d3a299210505ce0a3938f20c9b470d41cd6a0d2b996222bd9"),
            (["canary", "--format", "text"],
             "2f3d5626e32f5ceb4c818d8ca8e59c0d624123b908b49af018887e01b0ae3b1d"),
            (["gen", "--seed", "9", "--n", "8"],
             "bfd1675daa2f8216b2fc3e48a2c047defa32dc1053e66eddaec9d56ad6aa016c"),
        ),
        ids=("verify-text", "lemma-ab-csv", "canary-text", "gen"),
    )
    def test_other_outputs_are_pinned(self, capsys, argv, pinned):
        _, out, _ = run(capsys, *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == pinned, (
            f"`cauchykit {' '.join(argv)}` stdout changed; diff it against the "
            "output of the parent commit"
        )

    def test_calls_in_one_process_share_no_state(self, capsys):
        # the parser is built once per process; each call parses afresh
        env = cli_env()
        for argv in (["--seed", "1", "--format", "text"], ["--seed", "2", "--format", "csv"]):
            _, out, _ = run(capsys, "verify", *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "cauchykit", "verify", *argv],
                capture_output=True, check=True, env=env,
            ).stdout
            assert out.encode() == fresh

    def test_python_dash_m(self):
        out = subprocess.run(
            [sys.executable, "-m", "cauchykit", "verify", "--seed", "42"],
            capture_output=True, check=True, env=cli_env(),
        ).stdout
        assert hashlib.sha256(out).hexdigest() == (
            "1e20a0237e677280be4dc288734c33e0f8a5e220b77411dfd4c5cbf3f25dd797"
        )

    def test_passes_and_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "1", "--trials", "3", "--n", "3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["failed"] == 0
        assert doc["passed"] == len(doc["reports"])
        identities = {r["identity"] for r in doc["reports"]}
        assert "cauchy_det" in identities
        assert "min_det" in identities
        assert "weighted_trace_ab" in identities

    def test_pass_flags_recomputable(self, capsys):
        _, out, _ = run(capsys, "verify", "--seed", "8", "--trials", "2", "--n", "3")
        for r in json.loads(out)["reports"]:
            assert r["pass"] == (r["lhs"] == r["rhs"])

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "2", "--trials", "2", "--n", "3", "--format", "csv")
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "identity,lhs,rhs,pass,seed"

    def test_text_format_summarizes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "2", "--trials", "2", "--n", "3", "--format", "text")
        assert code == EXIT_OK
        assert "passed" in out.splitlines()[-1]

    def test_trials_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--trials", "0"])

    def test_size_bound_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--n", "9"])


class TestCanaryCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "canary", "--n", "6", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,method,entry_sum_residual,identity_residual,elapsed"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("3", "closed_form"), ("3", "gauss_pp"), ("6", "closed_form"), ("6", "gauss_pp"),
        ]
        for r in rows:
            assert float(r[2]) >= 0.0
            assert float(r[3]) >= 0.0

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "canary", "--n", "3", "--format", "json")
        assert code == EXIT_OK
        reports = json.loads(out)
        assert {r["method"] for r in reports} == {"closed_form", "gauss_pp"}
        fields = {"n", "method", "entry_sum_residual", "identity_residual", "elapsed"}
        assert all(set(r) == fields for r in reports)


SPEC_COMMANDS = ("build", "det", "inv", "invsum", "adjsum", "border", "min-det", "min-invsum",
                 "min-colsums")
FLAG_ARGS = {
    "--ring": ["--ring", "rational"],
    "--seed": ["--seed", "1"],
    "--trials": ["--trials", "2"],
    "--n": ["--n", "3"],
    "--minus-convention": ["--minus-convention"],
    "--allow-degenerate": ["--allow-degenerate"],
    "--format": ["--format", "text"],
}
FLAGS_READ = {
    "gen": {"--ring", "--seed", "--n", "--allow-degenerate"},
    "lemma-ab": {"--ring", "--seed", "--trials", "--n", "--format"},
    "verify": {"--seed", "--trials", "--n", "--format"},
    "canary": {"--n", "--format"},
    "build": {"--ring", "--minus-convention"},
    "inv": {"--ring", "--minus-convention"},
    **{name: {"--ring", "--minus-convention", "--format"} for name in SPEC_COMMANDS
       if name not in ("build", "inv")},
}


def command_argv(name, flag):
    return [name] + ([EXAMPLE] if name in SPEC_COMMANDS else []) + FLAG_ARGS[flag]


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, read in FLAGS_READ.items() for flag in FLAG_ARGS if flag not in read
    ])
    def test_unread_flag_exits_2(self, capsys, name, flag):
        with pytest.raises(SystemExit) as exc:
            main(command_argv(name, flag))
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, read in FLAGS_READ.items() for flag in sorted(read)
    ])
    def test_read_flag_parses(self, name, flag):
        args = _build_parser().parse_args(command_argv(name, flag))
        assert args.command == name

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, read in FLAGS_READ.items() for flag in ("--seed", "--trials", "--n")
        if flag in read
    ])
    def test_non_integer_value_reads_invalid_int(self, capsys, name, flag):
        with pytest.raises(SystemExit) as exc:
            main([name, flag, "x"])
        assert exc.value.code == EXIT_INPUT
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {flag}: invalid int value: 'x'")

    def test_det_formats(self, capsys):
        # det reads --format json|text (text is a case of test_read_flag_parses)
        assert _build_parser().parse_args(["det", EXAMPLE, "--format", "json"]).format == "json"
        with pytest.raises(SystemExit) as exc:
            main(["det", EXAMPLE, "--format", "csv"])
        assert exc.value.code == EXIT_INPUT
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_gen_min_allow_degenerate_exits_2(self, capsys):
        code, out, err = run(capsys, "gen", "--kind", "min", "--allow-degenerate")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: --allow-degenerate applies to cauchy specs only\n"

    def test_readme_examples_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [line.removeprefix("$ ") for line in readme.read_text(encoding="utf-8").splitlines()
                 if line.startswith(("cauchykit ", "$ cauchykit "))]
        assert len(lines) >= 14
        for line in lines:
            line = re.sub(r"\[(--[^\]]*)\]", r"\1", line)  # [--kind min] -> --kind min
            argv = [EXAMPLE if a == "SPEC" else a for a in shlex.split(line, comments=True)[1:]]
            assert _build_parser().parse_args(argv).command == argv[0], line


class TestExitCodeMapping:
    def test_all_pass(self):
        ok = VerificationReport("x", "1", "1", True, {})
        assert _exit_code_for([ok, ok]) == EXIT_OK

    def test_any_failure(self):
        ok = VerificationReport("x", "1", "1", True, {})
        bad = VerificationReport("x", "1", "2", False, {})
        assert _exit_code_for([ok, bad]) == EXIT_IDENTITY


# Spec JSON objects for the exit-code fuzz test: usable specs with large
# and exponent-form scalars, specs with hostile scalars and rings, and
# arbitrary JSON in place of any part.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
digits = st.text("0123456789", min_size=1, max_size=6)
usable_scalars = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds("{}{}/{}".format, st.sampled_from(["", "-", "+"]), digits, digits),
    st.builds("{}e{}".format, st.sampled_from(["1", "-2.5", ".5", "0"]), st.integers(-5000, 5000)),
)
any_scalars = usable_scalars | st.floats() | st.booleans() | st.text(max_size=8) | st.builds(
    "{}E{}".format, digits, st.sampled_from(["999999999", "-999999999", "4300", "1_0", "+7"])
)
rings = st.one_of(
    st.sampled_from(["rational", {"prime": 101}, {"prime": 2**31 - 1}, {"prime": 2**61 - 1}]),
    st.builds(dict, prime=st.sampled_from([2, 100, 0, -7, 101.0, True, "101", 10**30 + 57])),
    json_values,
)


def usable_spec(n):
    vector = st.lists(usable_scalars, min_size=n, max_size=n)
    return st.fixed_dictionaries(
        {"xs": vector, "ys": vector}, optional={"kind": st.sampled_from(["cauchy", "min"]), "ring": rings}
    )


specs = st.one_of(
    st.integers(1, 4).flatmap(usable_spec),
    st.fixed_dictionaries(
        {"xs": st.lists(any_scalars, max_size=4), "ys": st.lists(any_scalars, max_size=4)},
        optional={"kind": st.sampled_from(["cauchy", "min", "other"]) | json_values, "ring": rings},
    ),
    st.dictionaries(st.sampled_from(["xs", "ys", "kind", "ring"]) | st.text(max_size=4), json_values),
)


@settings(max_examples=80, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs, command=st.sampled_from(["det", "inv", "build", "invsum", "adjsum", "border", "min-det"]))
def test_exit_code_contract_fuzz(spec, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, json.dumps(spec)])
    assert code in (EXIT_OK, EXIT_IDENTITY, EXIT_INPUT)
    if code == EXIT_INPUT:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")

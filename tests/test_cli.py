import subprocess
import sys

import pytest

from blakley import (
    AdmissibilityExhaustedError,
    BlakleyError,
    EnumerationTooLargeError,
    MalformedFieldError,
    PrimeModulus,
    SchemeParams,
    Share,
    SingularSharesError,
    encode_share,
)
from blakley import cli
from blakley.cli import main
from blakley.scheme import MAX_SHARES
from blakley.share_io import MAX_RECORD_LEN


@pytest.fixture
def share_files(tmp_path, reference_shares):
    paths = []
    for s in reference_shares:
        path = tmp_path / f"ref_{s.index}.blk"
        path.write_text(encode_share(s))
        paths.append(str(path))
    return paths


def write_share(tmp_path, name, share):
    path = tmp_path / name
    path.write_text(encode_share(share))
    return str(path)


class TestSplit:
    def test_writes_all_share_files(self, tmp_path, capsys):
        out = tmp_path / "shares"
        rc = main(["split", "--secret", "42", "--prime", "73",
                   "--threshold", "3", "--shares", "5",
                   "--out", str(out), "--seed", "9"])
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"share_{i}.blk" for i in range(1, 6)]
        captured = capsys.readouterr()
        assert captured.out == ""  # secrets go to files, not the terminal

    def test_deterministic_under_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["split", "--secret", "7", "--prime", "101",
                         "--threshold", "2", "--shares", "4",
                         "--out", str(out), "--seed", "5"]) == 0
        for i in range(1, 5):
            assert (a / f"share_{i}.blk").read_bytes() == \
                (b / f"share_{i}.blk").read_bytes()

    def test_secret_out_of_range(self, tmp_path, capsys):
        rc = main(["split", "--secret", "73", "--prime", "73",
                   "--threshold", "3", "--shares", "5",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_composite_prime(self, tmp_path, capsys):
        rc = main(["split", "--secret", "1", "--prime", "91",
                   "--threshold", "2", "--shares", "3",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_wide_prime(self, tmp_path, capsys):
        # 2**62 + 135 is the smallest 63-bit prime
        rc = main(["split", "--secret", "1", "--prime", str(2**62 + 135),
                   "--threshold", "2", "--shares", "3",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_exhaustion_exit_code(self, tmp_path, capsys):
        # no admissible 4-plane set exists mod 3 at threshold 3
        rc = main(["split", "--secret", "1", "--prime", "3",
                   "--threshold", "3", "--shares", "4",
                   "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error:" in err and "attempts" in err

    def test_walk_above_work_limit_exits_3(self, tmp_path, capsys):
        # C(65, 32) ~ 3.6e18 subset checks per attempt: refused up front
        out = tmp_path / "x"
        rc = main(["split", "--secret", "1", "--prime", str(2**61 - 1),
                   "--threshold", "32", "--shares", "64", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "WORK_LIMIT" in err and "attempts" in err
        assert not out.exists()

    def test_seed_help_says_a_seeded_split_is_only_as_secret_as_its_seed(self, capsys):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["split", "--help"])
        assert "only as secret as the seed" in " ".join(capsys.readouterr().out.split())


class TestCombine:
    def test_reference_secret(self, share_files, capsys):
        rc = main(["combine"] + share_files[:3])
        assert rc == 0
        assert capsys.readouterr().out == "42\n"

    def test_order_does_not_matter(self, share_files, capsys):
        rc = main(["combine"] + share_files[:3][::-1])
        assert rc == 0
        assert capsys.readouterr().out == "42\n"

    def test_wrong_count(self, share_files, capsys):
        assert main(["combine"] + share_files[:2]) == 2
        assert main(["combine"] + share_files[:4]) == 2

    def test_singular_pair(self, tmp_path, capsys):
        params = SchemeParams(PrimeModulus(7), 2, 3)
        a = write_share(tmp_path, "a.blk", Share(1, (3,), 1, params))
        b = write_share(tmp_path, "b.blk", Share(2, (3,), 5, params))
        rc = main(["combine", a, b])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_mixed_moduli(self, tmp_path, share_files, capsys):
        params = SchemeParams(PrimeModulus(71), 3, 5)
        alien = write_share(tmp_path, "alien.blk", Share(1, (4, 19), 68, params))
        rc = main(["combine", alien] + share_files[1:3])
        assert rc == 2

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["combine", str(tmp_path / "nope.blk")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_round_trip_with_split(self, tmp_path, capsys):
        out = tmp_path / "rt"
        assert main(["split", "--secret", "59", "--prime", "101",
                     "--threshold", "3", "--shares", "5",
                     "--out", str(out), "--seed", "11"]) == 0
        capsys.readouterr()
        files = [str(out / f"share_{i}.blk") for i in (2, 4, 5)]
        assert main(["combine"] + files) == 0
        assert capsys.readouterr().out == "59\n"


class TestAnalyze:
    def test_single_share_uniform(self, share_files, capsys):
        rc = main(["analyze", share_files[0]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p=73 t=3 shares=1" in out
        assert "candidates: 73 of 73" in out
        assert "pinned: no" in out

    def test_leaky_pair_pinned(self, share_files, capsys):
        rc = main(["analyze", share_files[0], share_files[4]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "candidates: 1 of 73" in out
        assert "pinned: yes (value 42)" in out
        assert "entropy: 0.000000000000 bits" in out

    def test_zero_shares_needs_params(self, capsys):
        assert main(["analyze"]) == 2
        assert "--prime and --threshold" in capsys.readouterr().err

    def test_zero_shares_with_params(self, capsys):
        rc = main(["analyze", "--prime", "5", "--threshold", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p=5 t=2 shares=0" in out
        assert "candidates: 5 of 5" in out

    def test_threshold_one(self, capsys):
        rc = main(["analyze", "--prime", "5", "--threshold", "1"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "p=5 t=1 shares=0\n"
            "candidates: 5 of 5\n"
            "entropy: 2.321928094887 bits (max 2.321928094887)\n"
            "pinned: no\n"
            "value count\n"
            + "".join(f"    {v}     1\n" for v in range(5))
        )

    def test_at_threshold_rejected(self, share_files, capsys):
        assert main(["analyze"] + share_files[:3]) == 2

    def test_scan_too_large(self, tmp_path, capsys):
        params = SchemeParams(PrimeModulus(1009), 3, 5)
        f = write_share(tmp_path, "big.blk", Share(1, (3, 4), 5, params))
        assert main(["analyze", f]) == 5

    def test_huge_threshold_is_refused_at_once(self):
        # p**t has about 6 * 10**9 bits here; the bound must not build it
        proc = subprocess.run(
            [sys.executable, "-m", "blakley", "analyze",
             "--prime", str(2**61 - 1), "--threshold", str(10**8)],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 5
        assert proc.stderr.startswith("error: ")

    def test_csv_output(self, tmp_path, share_files, capsys):
        csv = tmp_path / "tally.csv"
        rc = main(["analyze", share_files[0], "--csv", str(csv)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 73
        assert all(line == f"{i},73" for i, line in enumerate(lines))

    def test_inconsistent_pair_reports_zero(self, tmp_path, capsys):
        params = SchemeParams(PrimeModulus(7), 3, 5)
        a = write_share(tmp_path, "a.blk", Share(1, (2, 3), 1, params))
        b = write_share(tmp_path, "b.blk", Share(2, (2, 3), 5, params))
        rc = main(["analyze", a, b])
        assert rc == 0
        out = capsys.readouterr().out
        assert "candidates: 0 of 7" in out
        assert "pinned: no" in out


class TestInspect:
    def test_reference_share(self, share_files, capsys):
        rc = main(["inspect", share_files[0]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modulus: 73" in out
        assert "threshold: 3" in out
        assert "shares: 5" in out
        assert "index: 1" in out
        assert "coefficients: 4,19" in out
        assert "constant: 68" in out
        assert "z = 4x + 19y + 68 (mod 73)" in out

    def test_line_form_for_threshold_two(self, tmp_path, capsys):
        params = SchemeParams(PrimeModulus(7), 2, 3)
        f = write_share(tmp_path, "line.blk", Share(1, (3,), 1, params))
        assert main(["inspect", f]) == 0
        assert "y = 3x + 1 (mod 7)" in capsys.readouterr().out

    def test_generic_form_above_three(self, tmp_path, capsys):
        params = SchemeParams(PrimeModulus(11), 4, 5)
        f = write_share(tmp_path, "hyp.blk", Share(2, (2, 3, 5), 7, params))
        assert main(["inspect", f]) == 0
        assert "x4 = 2x1 + 3x2 + 5x3 + 7 (mod 11)" in capsys.readouterr().out

    def test_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.blk"
        bad.write_text("BLK1 p=73 t=3 n=5 i=1 a=4,19\n")
        assert main(["inspect", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_longest_valid_record_is_read(self, tmp_path, capsys):
        # t = n = i = 64 and every other number 19 digits wide, under the
        # largest 62-bit prime: the record is exactly MAX_RECORD_LEN long
        params = SchemeParams(PrimeModulus(2**62 - 57), 64, 64)
        share = Share(64, (10**18,) * 63, 10**18, params)
        assert len(encode_share(share)) == MAX_RECORD_LEN
        f = write_share(tmp_path, "widest.blk", share)
        assert main(["inspect", f]) == 0
        assert f"constant: {10**18}" in capsys.readouterr().out


class TestOversizedFile:
    @pytest.fixture
    def huge(self, tmp_path):
        path = tmp_path / "huge.blk"
        path.write_text("BLK1 " + "9" * (2 * MAX_RECORD_LEN - 5))
        return str(path)

    def test_raises_malformed_field_error(self, huge):
        with pytest.raises(MalformedFieldError):
            cli._read_share(huge)

    def test_endless_file_is_read_in_bounded_memory(self, monkeypatch):
        # like /dev/zero: reading to the end would never return
        sizes = []

        class Endless:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, size=-1):
                assert size is not None and size >= 0, "unbounded read"
                sizes.append(size)
                return (b"BLK1 " + b"9" * size)[:size]

        monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs: Endless(), raising=False)
        with pytest.raises(MalformedFieldError):
            cli._read_share("endless.blk")
        assert sum(sizes) <= MAX_RECORD_LEN + 1

    @pytest.mark.parametrize("command", ["inspect", "combine", "analyze"])
    def test_exits_2(self, huge, command, capsys):
        assert main([command, huge]) == 2
        assert f"longer than {MAX_RECORD_LEN} characters" in capsys.readouterr().err


class TestNonAsciiFile:
    @pytest.fixture(params=[b"\xff", "\u00e9".encode()], ids=["latin-1", "utf-8"])
    def non_ascii(self, request, tmp_path):
        path = tmp_path / "accent.blk"
        path.write_bytes(b"BLK1 p=73 t=3 n=5 i=1 a=4,19 c=68" + request.param + b"\n")
        return str(path)

    def test_raises_malformed_field_error(self, non_ascii):
        with pytest.raises(MalformedFieldError, match="not ASCII"):
            cli._read_share(non_ascii)

    @pytest.mark.parametrize("command", ["inspect", "combine", "analyze"])
    def test_exits_2(self, non_ascii, command, capsys):
        assert main([command, non_ascii]) == 2
        assert capsys.readouterr().err == "error: share file is not ASCII\n"


class TestCarriageReturn:
    # BLK1 ends in a single linefeed; a reader must not turn \r\n or \r
    # into one
    @pytest.fixture(params=[b"\r\n", b"\r", b"\n\r"], ids=["crlf", "cr", "lfcr"])
    def cr_file(self, request, tmp_path):
        path = tmp_path / "cr.blk"
        path.write_bytes(b"BLK1 p=73 t=3 n=5 i=1 a=4,19 c=68" + request.param)
        return str(path)

    def test_raises_malformed_field_error(self, cr_file):
        with pytest.raises(MalformedFieldError, match="BLK1 grammar"):
            cli._read_share(cr_file)

    @pytest.mark.parametrize("command", ["inspect", "combine", "analyze"])
    def test_exits_2(self, cr_file, command, capsys):
        assert main([command, cr_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: record does not match the BLK1 grammar\n"
        assert captured.out == ""


class TestBench:
    def test_csv_shape_and_skips(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        rc = main(["bench", "--primes", "3", "--shares", "5",
                   "--threshold", "3", "--trials", "2",
                   "--out", str(csv), "--seed", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        # primes 2, 3, 5 are not above n=5, so they are announced and skipped
        assert captured.err.count("bench: skipping") == 3
        lines = csv.read_text().splitlines()
        assert lines[0] == "prime_index,prime,split_seconds,reconstruct_seconds,trials"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "4" and first[1] == "7"  # 7 is the 4th prime
        assert [row.split(",")[1] for row in lines[1:]] == ["7", "11", "13"]
        for row in lines[1:]:
            idx, p, s, r, trials = row.split(",")
            assert float(s) >= 0 and float(r) >= 0
            assert trials == "2"

    def test_primes_must_be_positive(self, tmp_path, capsys):
        rc = main(["bench", "--primes", "0", "--shares", "5",
                   "--threshold", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_trials_must_be_positive(self, tmp_path, capsys):
        rc = main(["bench", "--primes", "1", "--shares", "5",
                   "--threshold", "3", "--trials", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("t, n", [(3, MAX_SHARES + 1), (3, 100), (6, 5), (0, 5)])
    def test_bad_threshold_or_shares_fail_before_any_prime(self, tmp_path, capsys, t, n):
        rc = main(["bench", "--primes", "1", "--shares", str(n),
                   "--threshold", str(t), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "bench: skipping" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_threshold_one_fails_before_any_prime(self, tmp_path, capsys):
        rc = main(["bench", "--primes", "1", "--shares", "5",
                   "--threshold", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: splitting needs threshold >= 2\n"
        assert not (tmp_path / "x.csv").exists()


def _family(cls):
    return [cls] + [d for sub in cls.__subclasses__() for d in _family(sub)]


# Each family exits with its own code; every other BlakleyError exits 2.
_FAMILY_CODES = {
    AdmissibilityExhaustedError: 3,
    SingularSharesError: 4,
    EnumerationTooLargeError: 5,
}


class TestErrorFamilies:
    @pytest.mark.parametrize("error", _family(BlakleyError), ids=lambda c: c.__name__)
    def test_every_blakley_error_gets_its_exit_code(self, monkeypatch, capsys, error):
        def failing(args):
            raise error("refused")

        monkeypatch.setattr(cli, "cmd_inspect", failing)
        expected = next((code for family, code in _FAMILY_CODES.items()
                         if issubclass(error, family)), 2)
        assert main(["inspect", "any.blk"]) == expected
        captured = capsys.readouterr()
        assert captured.err == "error: refused\n"
        assert captured.out == ""


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_module_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "blakley", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "split" in proc.stdout and "bench" in proc.stdout

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # dataclasses, with the inspect it imports, added about 10 ms to
        # every process's start-up. Only what blakley itself loads counts,
        # not what the interpreter had loaded before it.
        code = ("import sys; before = set(sys.modules); import blakley.cli; "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_cli_import_loads_only_the_standard_library(self):
        # The package is stdlib-only. -S keeps site's .pth files from
        # loading a third-party module before blakley could import it.
        code = ("import sys; before = set(sys.modules); import blakley.cli; "
                "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
                " - set(sys.stdlib_module_names) - {'blakley'}))")
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_library_import_loads_no_cli_or_argparse(self):
        # Otherwise every process that imports the library would load the
        # command line front end too, and compile it when no bytecode is cached.
        code = ("import sys; before = set(sys.modules); import blakley; "
                "print(sorted({'blakley.cli', 'argparse'} & (set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

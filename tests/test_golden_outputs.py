"""Byte-for-byte pins of the CLI's primary outputs.

Records with their sidecars, compute-pi stdout and its "terms used"
stderr line, the bench report files and the exit codes of bad flags are
held to values recorded from the CLI before its certified-pi budget rule
moved into one driver in machinpi.series; the solve-second output and
the stdout of the two scripts, to values recorded before machinpi
stopped changing CPython's int <-> str digit cap.  A change meant to leave the
numbers alone must leave every value here unchanged; a change that moves
an output on purpose updates its value here and says why.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import machinpi
from machinpi import cli

RECORDS = {
    "k3": ("3",),
    "k2den10": ("2", "--den", "10"),
    "k10floor": ("10", "--round", "floor"),
    "k13": ("13",),
    "k14": ("14",),
    "k15": ("15",),
}

# sha256 of every file `generate` writes for RECORDS, sidecars included.
RECORD_FILES = {
    "k10floor.json":
        "fc0892d7fd39a5fd4bb37586de6de5b57d742e393adf1af8d6ef70d3cfd6cfcd",
    # Depths 13 and 15 were recorded while u2 was still formed as a binary
    # int power and written by the int -> text codec.
    "k13.json":
        "b0ae8a5c1ae83065afe54cbfb23e21322232f45764cc33666b00597bba97e764",
    "k13.u2den.txt":
        "4e639fb3c608b78f006e7e8c1994f15eae68fe813f3c15e5a5bcf19443dbe0ea",
    "k13.u2num.txt":
        "79f07abab3595a858249fc38c2f59b02331bbbefa4d8189b1cc26b34156591a9",
    "k14.json":
        "17bbdc224101f5141c8dd29af2408098df6346e6afa39c742b596fd8ab4f91f2",
    "k14.u2den.txt":
        "75988d2b396e3c692b9406c2204dc735a416e5d92a44911c5a1816e1ce0362af",
    "k14.u2num.txt":
        "d29dfcaf8a3f7868ea569d4610f2892b648465b61986d09e743561b87cbae671",
    "k15.json":
        "2a792a00f2ce3524fe176c82587206e93f2559784deec163b777501ec0ecb293",
    "k15.u2den.txt":
        "3394bce35bd038570c6c28ee295ff80e5b886fb4805bba647e143fd4f830d7b0",
    "k15.u2num.txt":
        "4ec747b2ad25e9a3eb6ae78433078787fb4599e830fc4c8c935296209385edec",
    "k2den10.json":
        "3ee2f4e3bb8eb8ab34a08eb912ddef443b4568c8676493376b9c2224c0864cd0",
    "k3.json":
        "7852d0752e59d0d3bd2b5b0c785c8f2d9a47847e0f0421b320439a3157dc1c56",
}

# compute-pi request -> (sha256 of stdout, stderr).  A request names a
# record of RECORDS or a tower depth; stderr is the "terms used" line.
# A non-integer cotangent counts the terms summed over its chain of
# integer cotangents: the second argument of k10floor and k14, and the
# tower's c_k, whose rate is measured on its first one, ceil(c_k).  Both
# were recorded when the chain replaced the fixed-point stream, and again
# when every link after a chain's first moved to Gregory's series, each
# time with every stdout hash unchanged.
COMPUTE_PI = {
    "k3 --digits 3000": (
        "7fefd3a835c08f99cb466c15b07c8b61c72436c7f3d597cf7a0b4bce9d9d6b40",
        "terms used: 1499+562; measured digits/term: 2.007\n",
    ),
    "k10floor --digits 5000": (
        "b0cc366bb3851f482492947f5cc65997b161a07646510f484067061d53eacc8e",
        "terms used: 805+1482; measured digits/term: 6.234\n",
    ),
    "k14 --digits 1000": (
        "e898fea26734a6d3af5396b9f4c60ae5dcc88fc40944d835911a9ee8a672ea1b",
        "terms used: 118+215; measured digits/term: 8.659\n",
    ),
    "k3 --terms 10": (
        "4bc3fc3d9b904ef94dd99fda232777ce7dd4c039311dfb1a2f51907b7f4f3a38",
        "terms used: 10+5; measured digits/term: 2.202\n",
    ),
    "k3 --terms 30": (
        "cf6f4d5294b1341c3b6a38e488db81e0cc462cb5ad83f6757cb6e59520e36d16",
        "terms used: 30+13; measured digits/term: 2.067\n",
    ),
    "k14 --terms 5": (
        "a6f8685567a471088338bc5351326c54227878fc313aa7f271d01feeb10c4b45",
        "terms used: 5+13; measured digits/term: 8.877\n",
    ),
    "k10floor --terms 200": (
        "a2f37cd6d0b3ad84e6b46a478423a10f7b49c330f29eecae89f0f71731e08828",
        "terms used: 200+371; measured digits/term: 6.242\n",
    ),
    "k=2 --digits 1000": (
        "e898fea26734a6d3af5396b9f4c60ae5dcc88fc40944d835911a9ee8a672ea1b",
        "terms used: 1486; measured digits/term: 1.574\n",
    ),
    "k=2 --terms 30": (
        "a6f8685567a471088338bc5351326c54227878fc313aa7f271d01feeb10c4b45",
        "terms used: 71; measured digits/term: 1.638\n",
    ),
    "k=40 --terms 6": (
        "0ec610b5e30d4da6b2ee8b46a95dcb994c9748534a4e7f3d166c446202f4d4a9",
        "terms used: 16; measured digits/term: 24.500\n",
    ),
    # Towers whose roots are tens of thousands of bits wide, recorded
    # while every root was still one math.isqrt call.
    "k=40 --digits 10000": (
        "d44e2dba39a378de3f41dace85394c8a02130e8442a61e91f3a8dd8e406f61e6",
        "terms used: 836; measured digits/term: 24.299\n",
    ),
    "k=400 --digits 10000": (
        "d44e2dba39a378de3f41dace85394c8a02130e8442a61e91f3a8dd8e406f61e6",
        "terms used: 87; measured digits/term: 241.079\n",
    ),
}

# sha256 of the two report files of `bench --k 2,3,5,10 --max-terms 80`.
BENCH_FILES = {
    "bench_report.json":
        "509bf4629f05be4d525e465cc58ce577bf54fd780d3296046b15a205f5f17375",
    "bench_report.txt":
        "3e22c57836cf2a428348499f3ebac3a68aa2af8a69b25d3f96e2f46f581a9e41",
}

# sha256 of the stdout of `solve-second`: the depth-14 closing term
# (65,879 bytes), then odd exponents and first arguments with both parts
# odd, the last 74,855 bytes.  The odd cases were recorded while the
# solver still formed the power in binary int.
SOLVE_SECOND = {
    "--alpha1 8192 --beta1 10430":
        "f857ac9c121d8a07687a71705a87f83f903ffe3534ec7831c6809c08ccc210d2",
    "--alpha1 3 --beta1 7":
        "70b8e8174209d437883a72bb0f9723e097c206de0cb3f03ff0255e4f672c6729",
    "--alpha1 3 --beta1 13/5":
        "a44cfb2baef0f29c026a56b99b58035bcef07103f2160d62fd6866ff87cc4328",
    "--alpha1 5 --beta1 -7":
        "551e673dc6165a439650583f08991c9a6d4d5048a034090965dc28244fd112be",
    "--alpha1 8191 --beta1 52151/5":
        "8d14e8496b116391a5020c76161ca9357f31931fd3a30488f991003d5f6e35f0",
}

# sha256 of the stdout of each script under scripts/, run without flags.
SCRIPTS = {
    "method_comparison.py":
        "6596d11c68fba86ae5d6f81bcfc32e4093df6d5d3bcb4920802e99a6dbdc2775",
    "reproduce_rates.py":
        "398e4a7d72c09bbe40b453392c09bba151baf73dc3e581b730a609960f6b135b",
}

# An integer past a float's range, written in for HUGE in EXIT_CODES.
HUGE = str(10 ** 400)

# Bad flags and bad depths: argv -> exit code.  Flag checks run before
# the record is loaded, so a missing record with --digits 0 is exit 2.
EXIT_CODES = {
    "compute-pi --digits 10": 2,
    "compute-pi --formula RECORD --k 3 --digits 10": 2,
    "compute-pi --formula RECORD": 2,
    "compute-pi --k 3": 2,
    "compute-pi --formula RECORD --digits 10 --terms 5": 2,
    "compute-pi --formula RECORD --digits 0": 2,
    "compute-pi --formula RECORD --terms 0": 2,
    "compute-pi --k 3 --digits -1": 2,
    "compute-pi --k 3 --terms 0": 2,
    "compute-pi --k 3 --digits ten": 2,
    "compute-pi --formula missing.json --digits 0": 2,
    "compute-pi --formula missing.json --terms 0": 2,
    "compute-pi --formula missing.json --digits 10": 3,
    "verify missing.json": 3,
    "bench --k ,": 2,
    "bench --k 3 --max-terms 0": 2,
    "solve-second --alpha1 1 --beta1 0": 2,
    "solve-second --alpha1 0 --beta1 5": 2,
    "solve-second --alpha1 8 --beta1 2": 6,
    "generate 100000": 2,
    # working scales over machin.MAX_POWER_BITS, refused before allocation
    "compute-pi --k 3 --digits 1000000000000": 2,
    "compute-pi --k 3 --terms 1000000000000": 2,
    "compute-pi --k 1000000000000 --digits 5": 2,
    "compute-pi --formula RECORD --digits 1000000000000": 2,
    "bench --k 3 --max-terms 1000000000000": 2,
    "compute-pi --k 3 --digits 400000000": 2,
    # sizes past a float's range, refused before they meet a float
    "compute-pi --k 3 --digits HUGE": 2,
    "compute-pi --k 3 --terms HUGE": 2,
    "compute-pi --k HUGE --digits 5": 2,
    "compute-pi --formula RECORD --digits HUGE": 2,
    "compute-pi --formula RECORD --terms HUGE": 2,
    "bench --k 3 --max-terms HUGE": 2,
    "bench --k HUGE": 2,
    "generate HUGE": 2,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_records(directory: Path) -> Path:
    for name, argv in RECORDS.items():
        code, _, _ = run("generate", *argv, "--out", str(directory / f"{name}.json"))
        assert code == 0
    return directory


def record_files(directory: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()) for p in sorted(directory.iterdir())}


def request_argv(request: str, directory: Path) -> list[str]:
    source, *budget = request.split()
    if source in RECORDS:
        return ["compute-pi", "--formula", str(directory / f"{source}.json"), *budget]
    return ["compute-pi", "--k", source.removeprefix("k="), *budget]


def compute_pi(request: str, directory: Path) -> tuple[str, str]:
    code, out, err = run(*request_argv(request, directory))
    assert code == 0, err
    return sha256(out.encode()), err


def bench_files(directory: Path) -> dict[str, str]:
    code, _, err = run("bench", "--k", "2,3,5,10", "--max-terms", "80",
                       "--out", str(directory))
    assert code == 0, err
    return record_files(directory)


def script_stdout(name: str) -> bytes:
    src = Path(machinpi.__file__).resolve().parents[1]
    script = src.parent / "scripts" / name
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, str(script)], env=env, check=True,
                          capture_output=True).stdout


def exit_code(argv: str, directory: Path) -> int:
    argv = argv.replace("RECORD", str(directory / "k3.json")).replace("HUGE", HUGE)
    return run(*argv.split())[0]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return write_records(tmp_path_factory.mktemp("records"))


def test_record_files(records):
    assert record_files(records) == RECORD_FILES


@pytest.mark.parametrize("request_text", list(COMPUTE_PI))
def test_compute_pi_output(records, request_text):
    assert compute_pi(request_text, records) == COMPUTE_PI[request_text]


def test_bench_report_files(tmp_path):
    assert bench_files(tmp_path) == BENCH_FILES


@pytest.mark.parametrize("argv", list(SOLVE_SECOND))
def test_solve_second_output(argv):
    code, out, err = run("solve-second", *argv.split())
    assert code == 0, err
    assert sha256(out.encode()) == SOLVE_SECOND[argv]


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_script_output(name):
    assert sha256(script_stdout(name)) == SCRIPTS[name]


@pytest.mark.parametrize("argv", list(EXIT_CODES))
def test_exit_code(records, argv):
    assert exit_code(argv, records) == EXIT_CODES[argv]

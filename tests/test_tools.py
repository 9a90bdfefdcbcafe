import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
# tools/ is not a package: load digest.py by its path
_spec = importlib.util.spec_from_file_location("digest", TOOLS / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


@pytest.mark.parametrize("text, seeds", [
    ("3", [3]), ("1-3", [1, 2, 3]), ("1,4,7-9", [1, 4, 7, 8, 9]), ("5-5", [5]), ("2,1", [2, 1]),
])
def test_parse_seeds(text, seeds):
    assert digest.parse_seeds(text) == seeds


@pytest.mark.parametrize("text, part", [
    ("1,5-3", "5-3"),  # a reversed range, which read as no seeds
    ("1,,2", ""),
    ("-1", "-1"),
    ("1-", "1-"),
    ("1,x", "x"),
    ("", ""),
])
def test_parse_seeds_rejects_bad_part(text, part):
    with pytest.raises(argparse.ArgumentTypeError, match=f"part '{part}' is not N or LO-HI"):
        digest.parse_seeds(text)


def test_bad_seeds_message_reaches_the_command_line(capsys):
    with pytest.raises(SystemExit) as exit_info:
        digest.main(["--workload", "crowd", "--seeds", "1,10-1"])
    assert exit_info.value.code == 2
    assert "part '10-1' is not N or LO-HI with LO <= HI" in capsys.readouterr().err


def test_loc_exits_quietly_when_the_reader_closes_early():
    # the reader takes the first line and closes the pipe, as `head -1` does;
    # unbuffered, each later line is a write into the closed pipe
    proc = subprocess.Popen([sys.executable, str(TOOLS / "loc.py")], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONUNBUFFERED="1"))
    assert proc.stdout.readline().startswith("src/")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == ""

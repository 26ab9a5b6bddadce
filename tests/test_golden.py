"""Pinned output of fast CLI commands and of the demos: the default output is
byte-for-byte deterministic, so any change to it shows up here as a changed
digest."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinblocks.cli import build_parser, main

# (command, exit code, SHA-256 of stdout)
GOLDEN = [
    ("blocks --n 20 --p 3", 0, "a1099e26daf53eae11bbcbfbc2fdd74ab8875c78b7031753e2691f43555757f1"),
    ("blocks --n 20 --p 3 --group S", 0, "06ebd9543ea3f177df765f9bcd83e05113b171bb0ad0eb0923ca51fb44ac595e"),
    ("witness --n 20 --p 3", 0, "f31a000702f5bb5311f61ea568501d59c4b8941c7d9f905f07ae19ae9bbf4c23"),
    ("witness --core 1 --w 3 --p 3", 0, "991f3b6760585484efaf35984f7ed097b5fbcdc60b5e54175f174a744f32f056"),
    ("check --max-n 16 --primes 3,5", 0, "aa0f4a0bc577025336b0b3c1957657dc7184259adeb8dae19aa738eb2c423d2d"),
    ("check --max-n 30 --primes 3,5", 0, "4dcccc8263a59bee12c2550fbc99811094b91fe5bf17cfc0331673974b51e9a6"),
    ("witness --core 1 --w 14 --p 3", 0, "46d7c8dc609dedb7d7893fd7c415cef05fbfdac3b1a889f0f8ca3cfb1700f815"),
    ("verify thm35 --p 5 --max-core 10 --max-w 4", 0, "48d11c56fd601d0bdac933c3d236b9a59ccac23e0c95808e2d12420ec77bc01f"),
    ("verify ratios --p 3 --max-core 10 --max-w 4", 0, "5a038f2b9fe334b8f1952fc209dc990069145a045b19453e1c412d6197cb6cdb"),
    ("verify prop36 --p 3 --max-w 10", 0, "7324368c913facbab01962fcb357912d603953a95d35c047a3d9d5068e446604"),
    ("core 30,17,2 --p 5", 0, "5c61b8192dd68d3bf71e9c087205159c8229d7ba0f4f61da425db5951e328c74"),
    ("bars 30,17,2", 0, "409938f343d4bd7153f882d112fbee1708c3a98d5138622520c5c3c0e36cfeba"),
    ("core 8,1 --p 3 --format csv", 0, "78d0145074f46b96eac1e292f0195c1b01f97ebba7be2231a2468c37d2f6a4f8"),
    ("verify ratios --p 7 --max-core 12 --max-w 6", 0, "3bbdb39b2b16d566a6b55bc6e1e9490888c3a4cdc01d2ef9ae819c7e2fff83d0"),
    ("verify thm35 --p 7 --max-core 12 --max-w 6", 0, "d1321ba6a12becaafb3e4ac327d363b80a0a8ae1d9bfb8b52b46a9f53239a464"),
    ("verify prop36 --p 7 --max-w 20", 0, "db472a371638f58f257ddc28e1fed36af869156067e61906d672a7c06113a7d1"),
    ("verify ratios --p 5 --max-core 12 --max-w 6", 0, "240f6c28adeaa0488410674e7d7a3cea1d272f9170f6c01dff2419e159329e45"),
    ("witness --core 9,4,3 --w 6 --p 5", 0, "8022c0675a02b93339e29fb531e179628ed42b693414a8c3caf610b23787ceb2"),
    ("verify ratios --p 5 --max-core 25 --max-w 10", 0, "bda2b60848d4b374cff2dea3055275e41e28921162221d7d5b130e76e442e4d5"),
    ("verify thm35 --p 5 --max-core 25 --max-w 10", 0, "79b2890c69dbb37c6b109d5f08257f096b6b2d8d8fa2bcb5c61b479234afe1da"),
    ("verify ratios --p 7 --max-core 20 --max-w 10", 0, "066fba32d0f6fced79968b5fdd1fad18cc4141d90cb37716fdf2ba991f243285"),
    ("verify prop36 --p 5 --max-w 40", 0, "7cf0920ae80cbf56dfd29b001174805775f1e17cd79647d6b0afb2c41461f1ac"),
    ("verify thm35 --p 7 --max-core 20 --max-w 10", 0, "4b17844c6e6f35f8aee03f6c386f19bc7d19baefb11654a1fa8444b8275892ad"),
    ("verify prop36 --p 7 --max-w 42", 0, "89a9b7f6088a96f0f684d9351a5d3b86947afa1da828fbe5b699189ee4a7ebd6"),
    # CSV of payloads that hold lists
    ("verify prop36 --p 3 --max-w 3 --format csv", 0, "6980eca8a1f7caa7be8deb191667539a26951bd72978d643bb035d0849b0040b"),
    ("bars 3,1 --p 3 --format csv", 0, "05bb9c357829fbebe9ca51b00064db0809b68e1274c04798310d67d878cdc366"),
    ("verify ratios --p 3 --max-core 8 --max-w 3 --format csv", 0, "9dd1bba95a1a8944cdb84973442091bc1228d772114fbd6838ac8c0229196a7c"),
    ("verify thm35 --p 3 --max-core 8 --max-w 3 --format csv", 0, "381503690f594c7675dc8fce47e46d6514aa99d958eff34bd60f91f05b4255a3"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_output_digest(capsys, command, code, digest):
    rc = main(command.split())
    out = capsys.readouterr()
    assert rc == code
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


def test_parser_is_built_once(capsys):
    # main reuses one parser: a usage error, or options given to an earlier
    # command, must not leak into the next command's output
    assert build_parser() is build_parser()
    pinned = {command: (code, digest) for command, code, digest in GOLDEN}
    for command in ("core 8,1 --p 3 --format csv", "verify ratios --p 3 --max-w x",
                    "frobnicate", "core 30,17,2 --p 5",
                    "verify prop36 --p 3 --max-w 3 --format csv",
                    "verify ratios --p 3 --max-core 10 --max-w 4"):
        rc = main(command.split())
        out = capsys.readouterr()
        if command in pinned:
            assert (rc, hashlib.sha256(out.out.encode()).hexdigest()) == pinned[command]
        else:
            assert (rc, out.out) == (2, "")
            assert "usage: spinblocks" in out.err


ROOT = Path(__file__).resolve().parent.parent

# (demo script, SHA-256 of its stdout)
DEMOS = [
    ("explore_blocks.py", "2bda23984883089fe3e63579b03b96f73cf3044ca70565fcd9dd74199350e56c"),
    ("ratio_identities.py", "fc804bb586113d3a488e1a8d5a624659497fe456146895e7c3300053d485fe61"),
    ("witness_scan.py", "d7dddc6d93a8849f1b85d3eef0b719a4de32b6d1cf99bee39d2647c42ed2fb0b"),
]


@pytest.mark.parametrize("demo, digest", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_digest(demo, digest):
    # a record passed bare to "%" formats its fields, not its text: pinned here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest

"""Pinned output of fast CLI commands: the default output is byte-for-byte
deterministic, so any change to it shows up here as a changed digest."""

import hashlib

import pytest

from spinblocks.cli import main

# (command, exit code, SHA-256 of stdout)
GOLDEN = [
    ("blocks --n 20 --p 3", 0, "a1099e26daf53eae11bbcbfbc2fdd74ab8875c78b7031753e2691f43555757f1"),
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
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_output_digest(capsys, command, code, digest):
    rc = main(command.split())
    out = capsys.readouterr()
    assert rc == code
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest

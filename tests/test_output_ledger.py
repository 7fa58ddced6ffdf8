"""The committed output ledger: every CLI output keeps its bytes on the platform it was taken on."""

from pathlib import Path

import pytest

import output_hashes

LEDGER = Path(__file__).with_name("output_hashes.txt")


def test_every_output_matches_the_ledger():
    recorded, want = output_hashes.read_ledger(LEDGER)
    here = output_hashes.platform_record()
    if here != recorded:
        # numpy's cos and sin bits may differ on another build or CPU.
        pytest.skip(f"the ledger was taken on {recorded}; this platform is {here}")
    got = dict(output_hashes.hashes())
    differ = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    if differ:
        pytest.fail(f"{len(differ)} outputs differ from {LEDGER.name}: {differ}")

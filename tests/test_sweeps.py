"""The byte-identity gate: the decided draws of the cheaper sets of
``tests/sweeps.py`` keep their certificate texts and verdicts.

For each set, ``DECIDED`` holds a hex mask with bit i set for each draw
that was decided when the constants were written (its certificate claims
a member or an exclusion), and the sha256 (first 16 hex digits) of
[index, certificate text, verdict] over those draws.  A change to any of
them fails the test.  A draw outside the mask may become decided only if
its certificate verifies and ``rational.member_product`` agrees; the
test prints how many did (``pytest tests/test_sweeps.py -s``).  A change
that alters a decided draw on purpose rewrites that set's constants and
says why.  The seed-2 pools and the ``Random(21)`` and ``Random(41)``
sweeps stay in ``python -m tests.sweeps`` only, for their time.
"""

import pytest

from tests import sweeps

# set name: (mask of the decided draws, hash of their [index, text, verdict])
DECIDED = {
    "separate-1": (
        "7ffffffffffffffffffeffbb769f7177f6bfbff7f76977efdffffe7fdcffd6ff"
        "fffbfbeefedcfdef1b7ffbf2f7",
        "b90267ab0d1aa6e1"),
    "factorize-1": (
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
        "fffffffffffffffffffffffffffffff",
        "cb86879119eeff94"),
    "hall-1": (
        "3fffffffffffffffffffffffff",
        "20af61c11e479dff"),
    "n3 Random(22) cap 300": (
        "38570e8933621c03438a4511a55e1777730031542001b0b7a1806c85b1a42649"
        "92084d107f6",
        "117cc79196a167d1"),
    "n2 p3 Random(13) cap 16384": (
        "fbfeef99eef3ff7ffffaffff3fbffffffd7fdffff7ffffffeffdffffefffbeff"
        "b6fdfffdfff",
        "73f799c83571a9cb"),
    "n3 p3 Random(23) cap 4096": (
        "12438240080800060040090d91302a15994e3c",
        "6fb8cf766d50e6c5"),
    "seeded n4 Random(44)": (
        "3fffffffffffffffffffffffffffffffffffff",
        "b962785c8f2ff552"),
    "seeded n5 Random(45)": (
        "fffffffffffffff",
        "3c5002cf578163ed"),
    "seeded n3 p3 Random(43)": (
        "3fffffffffffffffffffffffffffffffffffff",
        "e55031c2df190675"),
}


@pytest.mark.parametrize("name", DECIDED, ids=lambda name: name.replace(" ", "-"))
def test_decided_draws_keep_their_certificates(name):
    mask, expected = DECIDED[name]
    mask = int(mask, 16)
    rows_of, args = sweeps.SETS[name]
    rows = rows_of(*args)
    decided = [status not in sweeps.UNDECIDED for _, _, status in rows]
    lost = [i for i, d in enumerate(decided) if mask >> i & 1 and not d]
    assert not lost, f"decided draws now undecided: {lost}"
    kept = [[i, text, verdict] for i, (text, verdict, _) in enumerate(rows) if mask >> i & 1]
    assert sweeps.digest(kept) == expected
    new = [i for i, d in enumerate(decided) if d and not mask >> i & 1]
    for i in new:
        sweeps.check(*rows[i])
    print(f"{name}: {len(new)} of {len(rows)} draws newly decided")

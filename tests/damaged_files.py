"""Damaged copies of valid files, for the loader suites.

Each loader (``load_ppm``, ``load_key``, ``load_checkpoint``) must turn any
byte string into a value or a PicryptError. The suites start from a file the
matching writer produced, overwrite a few bytes, then cut it short or append
to it, so most cases get past the magic and reach the deeper checks.
"""

import tempfile
from pathlib import Path

from hypothesis import strategies as st

from picrypt.errors import PicryptError


def saved_bytes(save) -> bytes:
    """The bytes that ``save(path)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid"
        save(path)
        return path.read_bytes()


def damaged(blob: bytes):
    """``blob`` with up to four runs of one to eight bytes overwritten (a run
    can replace a whole u64 field), then cut or extended."""

    def apply(edits, cut, tail):
        out = bytearray(blob)
        for at, run in edits:
            out[at : at + len(run)] = run
        return bytes(out[:cut]) + tail

    edits = st.lists(st.tuples(st.integers(0, len(blob) - 1),
                               st.binary(min_size=1, max_size=8)), max_size=4)
    cut = st.just(len(blob)) | st.integers(0, len(blob))
    return st.builds(apply, edits, cut, st.just(b"") | st.binary(max_size=8))


def load_or_none(load, blob: bytes):
    """``load`` on a file holding ``blob``: its value, or None if it raised a
    PicryptError. Any other exception propagates and fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged"
        path.write_bytes(blob)
        try:
            return load(path)
        except PicryptError:
            return None

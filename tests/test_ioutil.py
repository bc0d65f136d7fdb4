"""Atomic artifact writes: content, leftovers and file mode."""

import os
import stat

import pytest

from repro.ioutil import write_json_atomic, write_text_atomic


def _mode_under(umask, write):
    old = os.umask(umask)
    try:
        path = write()
    finally:
        os.umask(old)
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_file_mode_follows_the_umask(tmp_path, umask, mode):
    # As open() makes the journal: 0666 less the umask, not always 0600.
    text = tmp_path / "st.json"
    assert _mode_under(umask, lambda: write_text_atomic(text, "x\n")) == mode
    data = tmp_path / "m.json"
    assert _mode_under(umask, lambda: write_json_atomic(data, {"a": 1})) == mode


def test_replaces_content_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "out.json"
    write_json_atomic(path, {"a": 1})
    write_text_atomic(path, "second\n", durable=False)
    assert path.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.json"]

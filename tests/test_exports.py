import re
from pathlib import Path

import blakley

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_library_names():
    """Names the README's Library section promises: those imported in its
    example and those that open a bullet of its entry-point list."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    names = set(re.search(r"from blakley import (.+)", section)[1].split(", "))
    # join each bullet's wrapped lines, then take its leading `name` spans
    for bullet in re.findall(r"^- (.+(?:\n  .+)*)", section, re.M):
        lead = re.match(r"(?:`[^`]+`(?:,|/|\s)*)+", " ".join(bullet.split()))
        if lead:
            names.update(re.findall(r"`(\w+)", lead[0]))
    return names


def test_all_names_resolve():
    for name in blakley.__all__:
        assert hasattr(blakley, name), name


def test_all_has_no_duplicates():
    assert len(blakley.__all__) == len(set(blakley.__all__))


def test_readme_library_names_are_exported():
    names = readme_library_names()
    # the list must have been found, façade included
    assert {"split", "reconstruct_point", "decode_share", "in_rowspace"} <= names
    assert names <= set(blakley.__all__), sorted(names - set(blakley.__all__))

"""EXPERIMENTS.md stays tied to executed checks.

Every ``tests/…::…`` id the document cites must name a test that
exists, and every bullet of its extensions section must cite at least
one, so no extension number can outlive the check that produces it.
"""

import importlib
import re
from pathlib import Path

import pytest

DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
TEST_ID = re.compile(r"`(tests/[\w/]+\.py)((?:::\w+)+)`")


def _doc() -> str:
    return DOC.read_text(encoding="utf-8")


def _extension_bullets():
    section = _doc().split("## Extensions beyond the paper", 1)[1]
    return re.split(r"^\* ", section, flags=re.MULTILINE)[1:]


CITED = sorted(set(TEST_ID.findall(_doc())))


def test_doc_cites_test_ids():
    assert len(CITED) >= len(_extension_bullets()) > 0


@pytest.mark.parametrize(
    "path, names",
    CITED,
    ids=[f"{Path(path).stem}.{names[2:].replace('::', '.')}" for path, names in CITED],
)
def test_cited_test_id_resolves(path, names):
    module = importlib.import_module(path[: -len(".py")].replace("/", "."))
    obj = module
    for name in names.split("::")[1:]:
        assert hasattr(obj, name), f"{path}{names} does not resolve"
        obj = getattr(obj, name)
    assert callable(obj)


def test_every_extension_bullet_cites_a_test():
    for bullet in _extension_bullets():
        title = bullet.split("\n", 1)[0]
        assert TEST_ID.search(bullet), f"extension {title!r} cites no test"

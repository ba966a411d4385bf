"""The README's command-line examples, and `stats` and `spectrum` on a few
families, print pinned bytes: the sha256 of each command's stdout."""

import hashlib
import random
import re
import shlex
from itertools import combinations
from pathlib import Path

import pytest

from kneserlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Every `kneserlab ...` line of the README's "Command line" block."""
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S)
    return [line for line in block.group(1).splitlines() if line.startswith("kneserlab ")]


def write_family_files(directory: Path) -> None:
    """empty.txt, a (12,4) header alone, and random.txt, 150 seeded 4-sets of
    [12] in the order drawn, written here rather than by the package."""
    (directory / "empty.txt").write_text("n=12 k=4\n")
    sets = random.Random(1961).sample(list(combinations(range(1, 13), 4)), 150)
    (directory / "random.txt").write_text(
        "n=12 k=4\n" + "".join(",".join(map(str, s)) + "\n" for s in sets))


FAMILIES = ("star:1", "antistar:12", "union:1,2", "file:empty.txt", "file:random.txt")
FAMILY_COMMANDS = [f"kneserlab {cmd} --n 12 --k 4 --family {spec} --l {ell}"
                   for cmd in ("stats", "spectrum") for spec in FAMILIES for ell in (1, 2)]


def stdout_sha256(capsys, line: str) -> str:
    assert main(shlex.split(line)[1:]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


PINS = {  # the sha256 of each command line's stdout
    "kneserlab ekr --n 5 --k 2":
        "7aad3721eb8291c6681de25620d719a9902fec61366dda8b739bc9f0193a2c26",
    "kneserlab stats --n 5 --k 2 --family antistar:5 --l 1":
        "d7c44bb3e4d4e472ff1197257e3306e7fbec776797f990455da604663dc27f43",
    "kneserlab spectrum --n 5 --k 2 --family star:1":
        "4d0d08a8a47e8bdd26412a431892de51d3e0744a0c2ba453a15a058fbf2eb56f",
    "kneserlab removal --n 10 --k 2 --family star:1 --l 1 --c-const 2.0":
        "e249a06a5ba73b7c723c4e73ae9d573c39ca3bb92f95d062a1c7fad3fceede23",
    "kneserlab baranyai --n 6 --k 2":
        "33e257da5eff17c5cd8df259425c8d88b0c1bad6bd0d1b6adc424fefb4faffbb",
    "kneserlab simulate --n 12 --k 2 --p 0.4,0.6,0.8 --trials 200 --seed 1961":
        "0df4f5f231093f3cbefca805f587d6acbd00cc13957f1b56e3428350363cf728",
    "kneserlab threshold --n 12 --k 2 --trials 300":
        "feb9bed5f61ec181f400f25e6478faca09127b11e2148c25d5a855acc8c7d264",
    "kneserlab bounds --n 12 --k 2 --zeta 1.1 --i 2 --j 3":
        "e1bb6aae17b37ae423e0ef849444fed6e6c98de3b5395329ab7dace0b5b49218",
    "kneserlab stats --n 12 --k 4 --family star:1 --l 1":
        "a314ffea5dffe572c32cf3f5a3e6b1cd46da8dda941397f45c488f7d8e28d54b",
    "kneserlab stats --n 12 --k 4 --family star:1 --l 2":
        "47ce40bfcaacf43622a106ff15b263c02b005f1592c389189a72c615dc03e2da",
    "kneserlab stats --n 12 --k 4 --family antistar:12 --l 1":
        "1c95f378cbb9fa73371d916c28adcccdb50cb2c6a0c72ef4262367110e801263",
    "kneserlab stats --n 12 --k 4 --family antistar:12 --l 2":
        "d71dac529064635d5e394035892d54bf46468c298b7c9977f6a6496e98402956",
    "kneserlab stats --n 12 --k 4 --family union:1,2 --l 1":
        "e503f5206059ef1070e7c32b25d5041b49bffe736a6b5a4aebae0fb40857e4c5",
    "kneserlab stats --n 12 --k 4 --family union:1,2 --l 2":
        "eb432aa7f78740c53374678f1d370cf45a327736ea060832d545aa22d88a9342",
    "kneserlab stats --n 12 --k 4 --family file:empty.txt --l 1":
        "7a75fc607c445d3f20249d1160b7be8ee7eea0b68b9b367b16e1c8466c471603",
    "kneserlab stats --n 12 --k 4 --family file:empty.txt --l 2":
        "6e3ccbc42879324e34d177dd45b15f2c590259c7e8a01f4e2287cf25ebc8362f",
    "kneserlab stats --n 12 --k 4 --family file:random.txt --l 1":
        "be84464c94c9012bcae1814bb9a6f35a04a4448fc241c4a562edc4b61c45b2a7",
    "kneserlab stats --n 12 --k 4 --family file:random.txt --l 2":
        "8d1fcb956f5a6817ee9f8e0a8f44199ba09747f2ed4daabc4ec60ecbc40e2b25",
    "kneserlab spectrum --n 12 --k 4 --family star:1 --l 1":
        "c3353e73beb2ee33215554f5626ae06ecd18aba8e0cf764614ea75c87e47d02f",
    "kneserlab spectrum --n 12 --k 4 --family star:1 --l 2":
        "ab238bd40ccdc9531426ffb15f87942c88b20b89934e85f989fbb9f8d0da7750",
    "kneserlab spectrum --n 12 --k 4 --family antistar:12 --l 1":
        "3657835fe59bacf79244815ad597ef4356863a7faf5c4baa059958a29841e1e0",
    "kneserlab spectrum --n 12 --k 4 --family antistar:12 --l 2":
        "b4025e3c6e7b9cdfb9a40c0152658638f9bbfa13935af165dcff3ed8f74fa671",
    "kneserlab spectrum --n 12 --k 4 --family union:1,2 --l 1":
        "878ff46f5717a4d18aabed3f18ecaf12086c0a312c53429b5348017f6f95c956",
    "kneserlab spectrum --n 12 --k 4 --family union:1,2 --l 2":
        "eef15db2ddad8cc88a4ecd7c4ad6613e0e3ada6ac5a44cabc18a12a01e296704",
    "kneserlab spectrum --n 12 --k 4 --family file:empty.txt --l 1":
        "ecae65cd317643599ba5ac8a14e8c185e2ed2a65ee7b6e49b83558aa99722697",
    "kneserlab spectrum --n 12 --k 4 --family file:empty.txt --l 2":
        "a19b6879e2215fa680604ea98b01e55cc0c274fe54a7dfc10d48d79abf0bc352",
    "kneserlab spectrum --n 12 --k 4 --family file:random.txt --l 1":
        "cab67196656becdd4aab2d432eddba219b84892bd74f594ba701df3e812242f5",
    "kneserlab spectrum --n 12 --k 4 --family file:random.txt --l 2":
        "d8abe60298fcaba46fb890138d204d143b38591541509b163dffc94a782215c0",
}


def test_every_readme_command_is_pinned():
    assert sorted(readme_commands()) == sorted(line for line in PINS
                                               if line not in FAMILY_COMMANDS)


@pytest.mark.parametrize("line", readme_commands() + FAMILY_COMMANDS)
def test_stdout_matches_pin(capsys, monkeypatch, tmp_path, line):
    write_family_files(tmp_path)
    monkeypatch.chdir(tmp_path)  # the family spec, a relative path, is printed
    assert stdout_sha256(capsys, line) == PINS[line]

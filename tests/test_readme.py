import re
from pathlib import Path

from arraycode import Code
from arraycode.codes import FAMILIES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def _family_table():
    """(family, layout, tolerates) of each row of the README family table."""
    section = README.read_text().split("Supported families:")[1].split("\n\n")[1]
    rows = [line.split("|")[1:-1] for line in section.splitlines()[2:]]
    return [(fam.strip().strip("`"), layout.strip(), tol.strip())
            for fam, layout, _, tol in rows]


def test_readme_family_table_matches_code():
    """Layout and tolerance of every row at p=7, for every r the family
    allows there."""
    table = _family_table()
    assert [fam for fam, _, _ in table] == list(FAMILIES)
    p = 7
    for family, layout, tolerates in table:
        lo, hi = FAMILIES[family].r_range or (FAMILIES[family].r,) * 2
        for r in range(lo, min(hi, p - 1) + 1):
            code = Code.make(family, p, r)
            rows, n = (eval(side, {"p": p, "r": r}) for side in layout.split(" x "))
            assert (rows, n) == (code.rows, code.n), (family, r)
            tolerance = re.fullmatch(r"(.+) erasures", tolerates).group(1)
            assert eval(tolerance, {"r": r}) == code.erasure_tolerance, (family, r)

"""EXPERIMENTS.md stays tied to executed checks.

Every ``tests/…::…`` id the document cites must name a test that
exists, and every bullet of its extensions section must cite at least
one, so no extension number can outlive the check that produces it.

Every "ours" number in the paper sections (Tables I–IV, §IV-A and
Figs. 2–6) is checked against the ``to_dict()`` of the default-seed
result: each entry of ``DOC_NUMBERS`` is a snippet of the document with
one ``{}`` per number, and the (key path, printed precision) of each.
The snippet, filled with the formatted values, must occur exactly once
in its section, so changing any checked number in the document by one
unit in its last printed digit fails the check.  Phrases that are
approximate or not a result value are listed in ``EXEMPT`` with the
reason.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.experiments.paper_values import PAPER_TABLE1, PAPER_TABLE4
from repro.experiments.runner import PAPER_ARTIFACTS
from repro.seeding import DEFAULT_SEED

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


# ----------------------------------------------------------------------
# "ours" numbers of the paper sections
# ----------------------------------------------------------------------
def _selection_rows(artifact, paper):
    """Table I / IV rows: step, paper counter, R², VIF, then ours."""
    return [
        (
            f"| {i + 1} | {name} | {r2:.3f} | "
            f"{'n/a' if vif is None else f'{vif:.3f}'} | {{}} | {{}} | {{}} |",
            (f"{artifact}/steps/{i}/counter", "s"),
            (f"{artifact}/steps/{i}/r2", ".3f"),
            (f"{artifact}/steps/{i}/mean_vif", ".3f"),
        )
        for i, (name, r2, _adj, vif) in enumerate(paper)
    ]


def _table2_row(label, paper, key):
    return (
        f"| {label} | {paper} | {{}} / {{}} / {{}} |",
        *((f"table2/summary/{key}/{stat}", ".3f") for stat in ("min", "max", "mean")),
    )


#: Section heading (up to " — ") → (snippet, (key path, format), ...).
#: A key path is ``/``-separated and starts with the artifact; a
#: ``min``/``max`` step reduces a list or the values of a dict.  ``None``
#: prints as "n/a".
DOC_NUMBERS = {
    "Table I": [
        *_selection_rows("table1", PAPER_TABLE1),
        ("Adj.R² tracks within {};", ("fig2/max_r2_adj_gap", ".3f")),
        ("our first counter is {} (snoop", ("table1/steps/0/counter", "s")),
        ("single-counter explanatory power ({})", ("table1/steps/0/r2", ".3f")),
    ],
    "§IV-A extended selection": [
        (
            "Ours: the {}th counter ({}) raises R² to **{}** (the same value) "
            "while mean VIF jumps to **{}**",
            ("table1/first_unstable_step", "d"),
            ("table1/extended_steps/6/counter", "s"),
            ("table1/extended_steps/6/r2", ".3f"),
            ("table1/extended_steps/6/mean_vif", ".2f"),
        ),
    ],
    "Table II": [
        _table2_row("R²", "0.9904 / 0.9913 / 0.9910", "R2"),
        _table2_row("Adj.R²", "0.9900 / 0.9910 / 0.9906", "Adj.R2"),
        _table2_row("MAPE", "6.6114 / 8.3198 / 7.5452", "MAPE"),
        ("mean R² − mean Adj.R² = {} (paper 0.0004)", ("table2/r2_adj_gap", ".4f")),
        ("our fold R² is {} vs", ("table2/summary/R2/mean", ".3f")),
    ],
    "Fig. 2": [
        ("largest R²−Adj.R² gap {} —", ("fig2/max_r2_adj_gap", ".3f")),
    ],
    "Fig. 3": [
        (
            "Ours spans {} % ({}) to {} % ({})",
            ("fig3/best/mape_percent", ".1f"),
            ("fig3/best/workload", "s"),
            ("fig3/worst/mape_percent", ".1f"),
            ("fig3/worst/workload", "s"),
        ),
        ("in our reproduction too ({} %)", ("fig3/per_workload/ilbdc/mape_percent", ".1f")),
        (
            "our single worst row is the {} system ({} %)",
            ("fig3/worst/workload", "s"),
            ("fig3/worst/mape_percent", ".1f"),
        ),
    ],
    "Fig. 4": [
        (
            "| 1: four random workloads → rest | (mid) | {} % |",
            ("fig4/mape_percent/1:random-workloads", ".2f"),
        ),
        (
            "| 2: synthetic → SPEC OMP2012 | **15.10 %** (highest) | **{} %** (highest) |",
            ("fig4/mape_percent/2:synthetic-to-spec", ".2f"),
        ),
        (
            "| 3: 10-fold CV, everything | 7.55 % | {} % |",
            ("fig4/mape_percent/3:cv-all", ".2f"),
        ),
        (
            "| 4: 10-fold CV, synthetic only | (lowest) | {} % |",
            ("fig4/mape_percent/4:cv-synthetic", ".2f"),
        ),
        ("(paper 2.00×, ours {}×)", ("fig4/scenario2_over_cv_ratio", ".2f")),
        (
            "({} %–{} % depending on",
            ("fig4/scenario1_draw_mape_percent/min", ".0f"),
            ("fig4/scenario1_draw_mape_percent/max", ".0f"),
        ),
    ],
    "Fig. 5": [
        (
            "**md {} W and nab {} W consistently",
            ("fig5/systematic_bias_w/md", "+.1f"),
            ("fig5/systematic_bias_w/nab", "+.1f"),
        ),
        ("overall bias {} W", ("fig5/overall_bias_b_w", "+.2f")),
        ("corr(|residual|, power) = **{}**", ("fig5/heteroscedasticity_correlation", ".2f")),
    ],
    "Table III": [
        *(
            (
                f"| {paper} | {{}} | {{}} |",
                (f"table1/steps/{i}/counter", "s"),
                (f"table3/pcc/{ours}", ".2f"),
            )
            for i, (paper, ours) in enumerate(
                (
                    ("PRF_DM | 0.85", "CA_SNP"),
                    ("TOT_CYC | 0.59", "FUL_ICY"),
                    ("TLB_IM | 0.33", "MEM_WCY"),
                    ("FUL_CCY | 0.57", "RES_STL"),
                    ("STL_ICY | 0.38", "L3_TCR"),
                    ("BR_MSP | −0.01", "STL_ICY"),
                )
            )
        ),
        ("the high PCC ({} —", ("table3/first_counter_pcc", ".2f")),
        ("weakest selected counter sits at {}", ("table3/pcc/min", ".2f")),
        (
            "({} lands just outside our six, at step 8 of the extended "
            "selection, with PCC {})",
            ("table1/extended_steps/7/counter", "s"),
            ("fig6/pcc/BR_MSP", ".2f"),
        ),
    ],
    "Fig. 6": [
        (
            "rank #{} (CA_SNP), #{} (FUL_ICY), #{} (MEM_WCY), #{} (RES_STL), "
            "#{} (L3_TCR) and #{} (STL_ICY) by",
            *(
                (f"fig6/selected_rank_by_pcc/{c}", "d")
                for c in ("CA_SNP", "FUL_ICY", "MEM_WCY", "RES_STL", "L3_TCR", "STL_ICY")
            ),
        ),
    ],
    "Table IV": [
        *_selection_rows("table4", PAPER_TABLE4),
        ("({}/6 in common", ("table4/n_common", "d")),
        ("fit (R² {})", ("table4/steps/5/r2", ".3f")),
        ("(final VIF {})", ("table4/final_mean_vif", ".1f")),
    ],
}

#: Phrases with a digit in the paper sections that are not checked.
EXEMPT = {
    "Table I": [
        ("threshold of 10", "the VIF problem threshold, a constant"),
    ],
    "Table II": [
        ("(42–249 W, σ ≈ 46 W)", "the campaign's power column, rounded "
         "(41.95–248.70 W, σ 45.94 W), not a Table II value"),
        ("≈ `0.095 × σ_P`", "arithmetic on the paper's R² = 0.991"),
        ("≈ 4.4 W residuals", "that arithmetic applied to σ ≈ 46 W"),
        ("near ~60 W", "hypothetical power level of the argument"),
    ],
    "Fig. 3": [
        ("≥ 3× spread", "a bound, asserted in tests/experiments/test_shapes.py"),
        ("~5 W compromise error", "illustrative magnitude, not a result value"),
    ],
    "Fig. 4": [
        ("≈ 2× the CV error", "rounded form of the checked 2.13× ratio"),
        ("median over nine independent draws", "the draw count is a setting of "
         "scenario_random_workloads, not a measured number"),
    ],
    "Fig. 6": [
        ("≈ 0.12 across L1/L2/L3", "approximate family band of the Fig. 6 PCCs"),
        ("≈ 0.36", "approximate family band of the Fig. 6 PCCs"),
        ("≈ 0.48–0.61", "approximate family band of the Fig. 6 PCCs"),
    ],
    "Table IV": [
        ("> 1.5×", "a bound, asserted in tests/experiments/test_shapes.py"),
    ],
}


def _paper_sections():
    """Heading (up to " — ") → whitespace-normalised body, for every
    section before the extensions."""
    head = _doc().split("## Extensions beyond the paper", 1)[0]
    sections = {}
    for block in head.split("\n## ")[1:]:
        title, _, body = block.partition("\n")
        sections[title.split(" — ", 1)[0]] = " ".join(body.split())
    return sections


def _lookup(results, path):
    value = results
    for step in path.split("/"):
        if step in ("min", "max") and isinstance(value, (list, dict)):
            items = value.values() if isinstance(value, dict) else value
            value = min(items) if step == "min" else max(items)
        elif isinstance(value, list):
            value = value[int(step)]
        else:
            value = value[step]
    return value


def _filled(results, snippet, slots):
    values = []
    for path, fmt in slots:
        value = _lookup(results, path)
        values.append("n/a" if value is None else format(value, fmt))
    return snippet.format(*values)


@pytest.fixture(scope="module")
def results(full_dataset):
    """The ``to_dict()`` of every paper artifact at the default seed."""
    return {
        name: importlib.import_module(f"repro.experiments.{name}")
        .run(seed=DEFAULT_SEED)
        .to_dict()
        for name in PAPER_ARTIFACTS
    }


CHECKS = [
    (section, snippet, slots)
    for section, entries in DOC_NUMBERS.items()
    for snippet, *slots in entries
]


@pytest.mark.parametrize(
    "section, snippet, slots",
    CHECKS,
    ids=[f"{section}:{slots[0][0]}" for section, _snippet, slots in CHECKS],
)
def test_ours_number_matches_doc(results, section, snippet, slots):
    text = _filled(results, snippet, slots)
    count = _paper_sections()[section].count(text)
    assert count == 1, f"EXPERIMENTS.md {section}: {text!r} found {count} times"


def test_every_paper_section_is_checked():
    assert set(DOC_NUMBERS) == set(_paper_sections())


def test_exempt_phrases_are_in_the_doc():
    sections = _paper_sections()
    for section, phrases in EXEMPT.items():
        for phrase, reason in phrases:
            assert phrase in sections[section] and reason, (section, phrase)

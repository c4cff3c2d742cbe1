"""One-shot reproduction report.

Runs every analytical experiment (Tables I-II, Figures 3-5, the
ablations) and assembles a single markdown document with the
paper-vs-measured record and all shape-check verdicts.

Exposed through the CLI as ``python -m repro report --out results/``
(the default experiment set omits it because it reruns everything).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from repro.analysis import ablations
from repro.analysis import figure3 as fig3
from repro.analysis import figure4 as fig4
from repro.analysis import figure5 as fig5
from repro.analysis import table1 as tab1
from repro.analysis import table2 as tab2


@dataclass(frozen=True)
class ReportSection:
    """One experiment's contribution to the report."""

    title: str
    body: str
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        """All shape checks of the section hold."""
        return all(self.verdicts.values())


def _code_block(text: str) -> str:
    return "```\n" + text + "\n```"


def build_sections() -> list[ReportSection]:
    """Compute every experiment and wrap it as a report section."""
    sections = []

    cells1 = tab1.compute_table1()
    gap = tab1.max_relative_gap(cells1)
    sections.append(
        ReportSection(
            title="Table I — polluted-time blow-up",
            body=_code_block(tab1.render_table1(cells1))
            + f"\n\nMax relative gap vs published cells: **{100 * gap:.2f} %**.",
            verdicts={"published_cells_within_1pct": gap < 0.01},
        )
    )

    rows2 = tab2.compute_table2()
    sections.append(
        ReportSection(
            title="Table II — successive sojourn times",
            body=_code_block(tab2.render_table2(rows2)),
            verdicts={
                "first_sojourn_carries_mass": tab2.alternation_is_negligible(
                    rows2
                )
            },
        )
    )

    cells3 = fig3.compute_figure3()
    checks3 = fig3.shape_checks(cells3)
    sections.append(
        ReportSection(
            title="Figure 3 — expected safe/polluted events",
            body=_code_block(fig3.render_figure3(cells3)),
            verdicts=checks3,
        )
    )

    cells4 = fig4.compute_figure4()
    checks4 = fig4.shape_checks(cells4)
    sections.append(
        ReportSection(
            title="Figure 4 — absorption probabilities",
            body=_code_block(fig4.render_figure4(cells4)),
            verdicts=checks4,
        )
    )

    curves5 = fig5.compute_figure5()
    checks5 = fig5.shape_checks(curves5)
    sections.append(
        ReportSection(
            title="Figure 5 — overlay-level proportions",
            body=_code_block(fig5.render_figure5(curves5)),
            verdicts=checks5,
        )
    )

    k_points = ablations.compute_k_sweep()
    join_points = ablations.compute_join_policy_ablation()
    sections.append(
        ReportSection(
            title="Ablations",
            body="\n\n".join(
                [
                    _code_block(ablations.render_k_sweep(k_points, 0.20, 0.90)),
                    _code_block(
                        ablations.render_join_policy_ablation(join_points)
                    ),
                ]
            ),
            verdicts={
                "k1_dominates": ablations.k1_dominates(k_points),
                "spare_first_join_dominates": ablations.spare_first_dominates(
                    join_points
                ),
            },
        )
    )
    return sections


def render_report(sections: list[ReportSection]) -> str:
    """Assemble the markdown document."""
    lines = [
        "# Reproduction report",
        "",
        "Anceaume, Sericola, Ludinard & Tronel — *Modeling and Evaluating",
        "Targeted Attacks in Large Scale Dynamic Systems* (DSN 2011).",
        "",
        "## Verdict summary",
        "",
        "| section | checks | status |",
        "|---|---|---|",
    ]
    for section in sections:
        status = "PASS" if section.passed else "FAIL"
        lines.append(
            f"| {section.title} | {len(section.verdicts)} | {status} |"
        )
    lines.append("")
    for section in sections:
        lines.append(f"## {section.title}")
        lines.append("")
        lines.append(section.body)
        lines.append("")
        lines.append("Shape checks:")
        for name, verdict in section.verdicts.items():
            mark = "x" if verdict else " "
            lines.append(f"- [{mark}] {name}")
        lines.append("")
    return "\n".join(lines)


def write_report(path: pathlib.Path | str) -> pathlib.Path:
    """Build and persist the full report; returns its path."""
    sections = build_sections()
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_report(sections))
    return target

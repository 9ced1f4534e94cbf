"""Experiment harness tests over the tiny campaign.

These assert the *shape* of each regenerated table/figure matches the
paper's qualitative findings at tiny scale; the benchmarks regenerate
them at paper-shape scale.
"""

import pytest

from repro.experiments.ablations import ablation_padding, overlap_analysis
from repro.experiments.figures import fig4, fig8, fig9
from repro.experiments.tables import table1, table2, table3, table4, table5, table6


def test_table1_structure(tiny_campaign):
    result = table1(tiny_campaign)
    rows = {(r[0], r[1]): r for r in result.rows}
    zmap4 = rows[("ZMap", "IPv4")]
    alt4 = rows[("ALT-SVC", "IPv4")]
    https4 = rows[("HTTPS", "IPv4")]
    # ZMap finds the most IPv4 addresses; HTTPS RRs the fewest.
    assert zmap4[2] > alt4[2] > https4[2]
    # Every source discovers something in both families.
    for row in result.rows:
        assert row[2] > 0
    assert "[T1]" in result.render()


def test_table2_cloudflare_dominates_zmap(tiny_campaign):
    result = table2(tiny_campaign, 4, "zmap")
    assert result.rows[0][1] == "Cloudflare, Inc."
    names = [row[1] for row in result.rows]
    assert "Google LLC" in names


def test_table2_https_is_cloudflare_biased(tiny_campaign):
    result = table2(tiny_campaign, 4, "https")
    assert result.rows[0][1] == "Cloudflare, Inc."
    # Drastic bias: top provider holds most addresses (paper: 71k of 85k).
    total = sum(row[2] for row in result.rows)
    assert result.rows[0][2] / total > 0.5


def test_table2_unknown_source_rejected(tiny_campaign):
    with pytest.raises(ValueError):
        table2(tiny_campaign, 4, "carrier-pigeon")


def test_table3_shape(tiny_campaign):
    result = table3(tiny_campaign)
    by_label = {row[0]: row for row in result.rows}
    # SNI success dominates no-SNI success (both families).
    assert by_label["Success"][2] > by_label["Success"][1]
    assert by_label["Success"][4] > by_label["Success"][3]
    # 0x128 dominates the no-SNI failure modes.
    assert by_label["Crypto Error (0x128)"][1] > by_label["Version Mismatch"][1]
    # Totals present.
    assert all(isinstance(v, int) for v in by_label["Total Targets"][1:])


def test_table4_https_lowest(tiny_campaign):
    result = table4(tiny_campaign)
    v4 = {row[0]: row[3] for row in result.rows if row[1] == "IPv4"}
    assert v4["https-rr"] <= v4["zmap+dns"]
    assert v4["zmap+dns"] > 60


def test_table5_shape(tiny_campaign):
    result = table5(tiny_campaign)
    rows = {row[0]: row for row in result.rows}
    # no-SNI certificate parity is much lower than SNI parity (v4).
    assert rows["Certificate"][1] < rows["Certificate"][2]
    # Group and cipher always match.
    assert rows["Key Exchange Group"][2] == 100.0
    assert rows["Cipher"][2] == 100.0


def test_table6_paper_ordering(tiny_campaign):
    result = table6(tiny_campaign)
    values = [row[0] for row in result.rows]
    assert values[0] == "proxygen-bolt"
    assert values[1] == "gvs 1.0"
    assert "LiteSpeed" in values
    by_value = {row[0]: row for row in result.rows}
    # Facebook uses 4 configurations, gvs exactly 1 (paper Table 6).
    assert by_value["proxygen-bolt"][3] == 4
    assert by_value["gvs 1.0"][3] == 1


def test_fig4_concentration(tiny_campaign):
    result = fig4(tiny_campaign)
    rows = {row[0]: row for row in result.rows}
    # The top AS covers a large share everywhere; v6 more than v4 for ZMap.
    assert rows["[IPv4] ZMap"][2] > 0.2
    assert rows["[IPv6] SVCB"][2] > 0.8


def test_fig8_success_concentration(tiny_campaign):
    result = fig8(tiny_campaign)
    rows = {row[0]: row for row in result.rows}
    # no-SNI successes spread over many ASes (edge POPs): at least as
    # many ASes as SNI successes, which concentrate on big providers.
    assert rows["[IPv4] no SNI"][2] >= rows["[IPv4] SNI"][2]
    # Every series has a meaningfully concentrated head.
    for row in result.rows:
        assert row[3] > 0.1


def test_fig9_configuration_structure(tiny_campaign):
    result = fig9(tiny_campaign)
    assert result.rows, "no configurations observed"
    targets = [row[1] for row in result.rows]
    assert targets == sorted(targets, reverse=True)
    # The dominant config covers far more targets than the median one.
    assert targets[0] > 5 * targets[len(targets) // 2]


def test_ablation_padding(tiny_campaign):
    result = ablation_padding(tiny_campaign)
    values = {row[0]: row[1] for row in result.rows}
    rate = values["unpadded/padded response rate %"]
    assert rate < 30.0  # drastically lower response rate (paper: 11.3 %)
    assert values["top AS share of unpadded responders %"] > 80.0
    assert values["top AS"] == "Fastly"


def test_overlap_unique_contributions(tiny_campaign):
    result = overlap_analysis(tiny_campaign)
    values = {(row[0], row[1]): row[2] for row in result.rows}
    assert values[("IPv4", "only:zmap")] > 0
    assert values[("IPv4", "only:alt-svc")] >= 0
    assert values[("IPv6", "only:alt-svc")] > 0  # Hostinger-style hosts

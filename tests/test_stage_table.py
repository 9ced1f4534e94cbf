"""The stage table: structural invariants, and the one place stage names live."""

import ast
from functools import cached_property
from pathlib import Path

import repro
from repro.experiments.campaign import Campaign
from repro.experiments.stages import (
    DNS_RECORDS,
    GOSCANNER,
    IPV6_SCAN_INPUT,
    QSCAN,
    STAGE_NAMES,
    STAGES,
    ZMAP,
    find,
    paper_order,
    stage_inputs,
)

SRC = Path(repro.__file__).parent
TABLE_MODULE = SRC / "experiments" / "stages.py"


def test_rows_are_unique_and_found_by_kind_family_sni():
    keys = [(stage.kind, stage.family, stage.sni) for stage in STAGES]
    assert len(set(keys)) == len(STAGES) == len(set(STAGE_NAMES)) == 12
    for stage in STAGES:
        assert find(stage.kind, stage.family, stage.sni) is stage
        accessor = Campaign.__dict__[stage.name]
        assert isinstance(accessor, cached_property) and accessor.attrname == stage.name


def test_every_input_precedes_its_stage():
    plain = {DNS_RECORDS, IPV6_SCAN_INPUT}
    for index, stage in enumerate(STAGES):
        for name in stage.inputs:
            assert name in plain or STAGE_NAMES.index(name) < index, (stage.name, name)
        for name in stage.deps:
            assert hasattr(Campaign, name), (stage.name, name)
            assert name not in STAGE_NAMES or STAGE_NAMES.index(name) < index
    assert stage_inputs(IPV6_SCAN_INPUT) == (DNS_RECORDS,)
    assert stage_inputs(DNS_RECORDS) == ()


def test_consumers_feed_from_sources_and_barriers_wait_for_their_family():
    for stage in STAGES:
        upstream = stage.upstream
        if stage.sweep:
            assert upstream is None and not stage.barrier and stage.depth == 0
            continue
        # Every stateful stage is fed one way: record by record, or at a barrier.
        assert (upstream is None) == bool(stage.barrier), stage.name
        if upstream is not None:
            assert upstream.sweep and upstream.family == stage.family
            assert stage in upstream.consumers and stage.depth == 1
        else:
            assert stage.barrier == (
                find(ZMAP, stage.family).name,
                find(GOSCANNER, stage.family, sni=True).name,
            )
            assert stage.depth == 2


def test_paper_order_is_ipv4_first_then_no_sni_first():
    assert [(s.family, s.sni) for s in paper_order(QSCAN)] == [
        (4, False),
        (4, True),
        (6, False),
        (6, True),
    ]


def _stage_name_literals(path: Path):
    quoted = {f"'{name}'" for name in STAGE_NAMES}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in STAGE_NAMES or any(q in node.value for q in quoted):
                yield node.lineno, node.value


def test_no_stage_name_literal_outside_the_table():
    """A stage name, bare or as an SQL literal, is spelled only in the table."""
    found = [
        f"{path.relative_to(SRC)}:{line}: {value!r}"
        for path in sorted(SRC.rglob("*.py"))
        if path != TABLE_MODULE
        for line, value in _stage_name_literals(path)
    ]
    assert found == []


def test_the_lint_sees_the_table():
    assert {value for _, value in _stage_name_literals(TABLE_MODULE)} == set(STAGE_NAMES)

"""Batched shared-cell engine: bit-exact equivalence with the scalar
cell reference, N=1 degeneration to the independent cohort, the
cell-homogeneity contract, blocks of unequal member counts, packed
capacity sweeps, budget-exhaustion ordering, and statistical
convergence against the event-driven fleet."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.experiments.fleet import (
    deterministic_registry_dict,
    fleet_batch_tasks,
    fleet_sweep,
    fleet_tasks,
    pack_cell_blocks,
)
from repro.lte.shared_cell import (
    BG_TICKS,
    SharedCell,
    SharedCellArray,
    background_rng,
)
from repro.sim.batch import (
    BatchedSimulation,
    run_batched,
    run_batched_cell,
    run_batched_cells,
)
from repro.telephony.fleet import member_configs, run_cell
from repro.telephony.uplink import UplinkCellSession, run_uplink_cell

from tests.test_batch import assert_bit_identical, lockstep_config, nan_equal


def assert_cells_bit_identical(reference, batched):
    """Whole-:class:`CellResult` equality, member by member."""
    assert reference.member_bytes == batched.member_bytes
    assert nan_equal(reference.jain, batched.jain)
    assert nan_equal(reference.member_mos, batched.member_mos)
    assert len(reference.results) == len(batched.results)
    for a, b in zip(reference.results, batched.results):
        assert_bit_identical(a, b)


def test_single_batched_cell_reproduces_scalar_cell_exactly():
    config = lockstep_config(seed=11, duration=4.0)
    fleet = FleetConfig(ues=3, seed=config.seed)
    reference = run_uplink_cell(config, ues=3, fleet=fleet, warmup=1.0)
    batched = run_batched_cell(config, ues=3, fleet=fleet, warmup=1.0)
    assert_cells_bit_identical(reference, batched)


def test_scalar_cell_shares_equal_batched_shares_through_idle_ticks():
    """The lockstep cell decays every share on every tick
    (``SharedCell.begin_subframe``), as ``SharedCellArray`` does.  On a
    strong channel the members' buffers drain and whole ticks pass with
    no load read; a lazy ``decay ** k`` catch-up over those ticks rounds
    differently, so the final shares would not match bit for bit."""
    config = lockstep_config(seed=11, rss=-70.0, duration=4.0)
    fleet = FleetConfig(ues=3, seed=config.seed, pf_weight_exponent=0.7)
    members = member_configs(config, 3)
    scalar = UplinkCellSession(members, fleet=fleet)
    scalar.run(warmup=0.5)
    batched = BatchedSimulation(members, counts=[3], fleets=[fleet])
    batched.run_cells(warmup=0.5)
    end = 4500 * 1e-3  # the last tick: (0.5 + 4.0) s of 1 ms ticks
    shares = [scalar.cell.share_of(m, end) for m in range(3)]
    assert shares == list(batched._cells._shares[0])


def test_background_cell_reproduces_scalar_cell_exactly():
    config = lockstep_config(seed=5, duration=3.0)
    fleet = FleetConfig(
        ues=2, seed=31, background_ues=6, background_load=0.45, prb_budget=40
    )
    reference = run_uplink_cell(config, ues=2, fleet=fleet, warmup=0.5)
    batched = run_batched_cell(config, ues=2, fleet=fleet, warmup=0.5)
    assert_cells_bit_identical(reference, batched)


def test_multi_cell_block_matches_per_cell_runs():
    """Cells in one batched block never couple with each other."""
    base = lockstep_config(seed=3, duration=3.0)
    cells = [member_configs(replace(base, seed=s), 2) for s in (3, 2003, 4003)]
    fleets = [FleetConfig(ues=2, seed=s) for s in (3, 2003, 4003)]
    block = run_batched_cells(cells, fleets=fleets, warmup=0.5)
    for members, fleet, result in zip(cells, fleets, block):
        solo = run_batched_cells([members], fleets=[fleet], warmup=0.5)[0]
        assert_cells_bit_identical(solo, result)
        reference = UplinkCellSession(members, fleet=fleet).run(warmup=0.5)
        assert_cells_bit_identical(reference, result)


def test_one_member_cell_degenerates_to_independent_cohort():
    """N=1: the shared-cell arithmetic is an exact no-op, so a batched
    1-member cell equals the plain independent-cohort engine."""
    configs = [lockstep_config(seed=s, duration=3.0) for s in (1, 2)]
    independent = run_batched(configs, warmup=0.5)
    cells = run_batched_cells([[c] for c in configs], warmup=0.5)
    for reference, cell in zip(independent, cells):
        (member,) = cell.results
        assert_bit_identical(reference, member)
        assert cell.jain == 1.0


def test_heterogeneous_cells_rejected():
    aligned = lockstep_config()
    fleet = FleetConfig(ues=2, seed=1)
    UplinkCellSession(member_configs(aligned, 2), fleet=fleet)
    BatchedSimulation(member_configs(aligned, 2), counts=[2], fleets=[fleet])

    off_grid = replace(aligned, video=replace(aligned.video, fps=30.0))
    with pytest.raises(ValueError, match="grid"):
        UplinkCellSession([off_grid], fleet=FleetConfig(ues=1))
    with pytest.raises(ValueError, match="grid"):
        BatchedSimulation([off_grid], counts=[1], fleets=[FleetConfig(ues=1)])

    mixed_cadence = [
        aligned,
        replace(aligned, lte=replace(aligned.lte, diag_interval=0.020)),
    ]
    with pytest.raises(ValueError, match="homogeneous"):
        UplinkCellSession(mixed_cadence, fleet=fleet)
    with pytest.raises(ValueError, match="homogeneous"):
        BatchedSimulation(mixed_cadence, counts=[2], fleets=[fleet])


def test_unequal_member_counts_match_solo_cells():
    """Cells of 1, 3 and 8 members tick in one block, each equal to the
    same cell run alone: logs, summaries, member bytes, Jain index and
    the live per-cell meters.  The 8-member cell's small PRB budget runs
    out partway through its member list."""
    base = lockstep_config(seed=21, duration=3.0)
    cells = [
        member_configs(replace(base, seed=21), 1),
        member_configs(
            lockstep_config(seed=22, rss=-105.0, speed=30.0, load=0.4, duration=3.0),
            3,
        ),
        member_configs(replace(base, seed=23), 8),
    ]
    fleets = [
        FleetConfig(ues=1, seed=21, background_ues=5, background_load=0.3),
        FleetConfig(ues=3, seed=22, prb_budget=40, pf_weight_exponent=0.5),
        FleetConfig(
            ues=8, seed=23, prb_budget=18, background_ues=3, background_load=0.2
        ),
    ]
    block = run_batched_cells(cells, fleets=fleets, warmup=0.5, meter=True)
    assert [len(cell.results) for cell in block] == [1, 3, 8]
    for members, fleet, blocked in zip(cells, fleets, block):
        solo = run_batched_cells(
            [members], fleets=[fleet], warmup=0.5, meter=True
        )[0]
        assert_cells_bit_identical(solo, blocked)
        assert deterministic_registry_dict(solo.meter) == (
            deterministic_registry_dict(blocked.meter)
        )
    exhausted = block[2].meter.metrics.counters["fleet.cell_prb_exhausted"]
    assert 0 < exhausted < 3500


def _check_claims_against_sequential(fleets, counts, ticks=200):
    """Drive :class:`SharedCellArray` and per-cell :class:`SharedCell`
    references, clocked as the lockstep cell clocks them, through the
    same random claims; every load, grant, budget and share must agree
    exactly.  On some ticks no member reads its load or claims, so a
    share decay caught up lazily (``decay ** 2``) instead of per tick
    would show."""

    class _Flat:
        load = np.zeros(sum(counts))

    array = SharedCellArray(fleets, counts, _Flat())
    scalar = [SharedCell(fleet, background_rng(fleet)) for fleet in fleets]

    class _Zero:
        load = 0.0

    for cell, count in zip(scalar, counts):
        for _ in range(count):
            cell.add_member(_Zero(), lambda: now)
    owner = [(c, m) for c, count in enumerate(counts) for m in range(count)]

    rng = np.random.default_rng(42)
    quiet_ticks = 0
    for k in range(1, ticks):
        now = k * 1e-3
        loads = array.member_loads(k, now)
        for cell in scalar:
            if cell.background is not None and k % BG_TICKS == 0:
                cell.background.update(now)
            cell.begin_subframe(now)
        if rng.random() < 0.2:
            quiet_ticks += 1
        else:
            for row, (c, m) in enumerate(owner):
                assert loads[row] == scalar[c].load_for(m, now)
            # Random subset of members demand random PRB counts;
            # demands routinely exceed the cells' budgets.
            mask = rng.random(len(owner)) < 0.8
            rows = np.nonzero(mask)[0]
            if rows.size:
                prbs = rng.integers(2, 26, size=rows.size)
                grants = array.claim_rows(rows, prbs.astype(np.float64))
                for row, demand, granted in zip(rows, prbs, grants):
                    c, m = owner[row]
                    assert granted == float(scalar[c].claim(m, int(demand), now))
        for index, cell in enumerate(scalar):
            assert array.budget_left[index] == cell.budget_left
    assert quiet_ticks > 0
    for index, (cell, count) in enumerate(zip(scalar, counts)):
        shares = [cell.share_of(m, now) for m in range(count)]
        assert shares == list(array._shares[index, :count])
        assert not array._shares[index, count:].any()


def test_claim_rows_matches_sequential_claims_under_exhaustion():
    """The vectorised claim pass equals member-by-member sequential
    claims — including the tick where the budget runs out mid-list."""
    fleet = FleetConfig(ues=4, seed=0, prb_budget=30)
    _check_claims_against_sequential([fleet, fleet], [4, 4])


def test_claim_rows_with_unequal_member_counts_matches_sequential_claims():
    """Cells of 1, 5 and 3 members in one array — the 1-member row keeps
    its exact PF weight of 1.0, the padded slots stay zero, and budgets
    run out mid-list in the larger cells."""
    fleets = [
        FleetConfig(ues=1, seed=0, prb_budget=20),
        FleetConfig(ues=5, seed=1, prb_budget=30, pf_weight_exponent=0.7),
        FleetConfig(
            ues=3, seed=2, prb_budget=25, background_ues=4, background_load=0.4
        ),
    ]
    _check_claims_against_sequential(fleets, [1, 5, 3], ticks=400)


def test_metered_cell_run_is_bit_identical_to_plain():
    """Cell metering + progress only observe: results match the plain
    run bit for bit, per-cell counters are per-cell pure functions, and
    the block span rides the first cell's meter only."""
    base = lockstep_config(seed=3, duration=3.0)
    cells = [member_configs(replace(base, seed=s), 2) for s in (3, 2003)]
    fleets = [FleetConfig(ues=2, seed=s, prb_budget=40) for s in (3, 2003)]
    plain = run_batched_cells(cells, fleets=fleets, warmup=0.5)
    ticks = []
    metered = run_batched_cells(
        cells,
        fleets=fleets,
        warmup=0.5,
        meter=True,
        progress=lambda k, total, n: ticks.append((k, total, n)),
    )
    for reference, cell in zip(plain, metered):
        assert_cells_bit_identical(reference, cell)

    assert ticks and ticks[-1][0] == ticks[-1][1]
    assert all(n == 4 for _, _, n in ticks)  # 2 cells x 2 members
    total_ticks = ticks[-1][1]
    for index, cell in enumerate(metered):
        counters = cell.meter.metrics.counters
        assert counters["fleet.cells"] == 1.0
        assert counters["batch.sessions"] == 2.0
        assert counters["batch.subframes"] == 2.0 * total_ticks
        assert counters["fleet.cell_prb_exhausted"] >= 0.0
        spans = cell.meter.spans.as_dict()
        if index == 0:
            assert "batch.cell_run" in spans
        else:
            assert "batch.cell_run" not in spans
    # Plain results carry no meters at all.
    assert all(cell.meter is None for cell in plain)


def test_cell_counters_are_partition_invariant():
    """Per-cell counters don't depend on how cells are blocked together:
    running both cells in one block equals two single-cell blocks."""
    base = lockstep_config(seed=7, duration=3.0)
    cells = [member_configs(replace(base, seed=s), 2) for s in (7, 1007)]
    fleets = [FleetConfig(ues=2, seed=s, prb_budget=40) for s in (7, 1007)]
    block = run_batched_cells(cells, fleets=fleets, warmup=0.5, meter=True)
    for members, fleet, blocked in zip(cells, fleets, block):
        solo = run_batched_cells(
            [members], fleets=[fleet], warmup=0.5, meter=True
        )[0]
        for name in (
            "batch.sessions",
            "batch.subframes",
            "fleet.cell_prb_exhausted",
        ):
            assert (
                solo.meter.metrics.counters[name]
                == blocked.meter.metrics.counters[name]
            ), name


def test_batched_fleet_converges_with_event_fleet():
    """Fairness converges like the event-driven shared cell: N identical
    callers reach Jain >= 0.95 over grant bytes in both engines (the
    engines share the contention model, not the sender model, so the
    parity is statistical — absolute MOS/rate levels differ)."""
    config = lockstep_config(seed=3, duration=12.0)
    fleet = FleetConfig(ues=4, seed=3, prb_budget=50)
    event = run_cell(config, ues=4, fleet=fleet, duration=12.0, warmup=3.0)
    batched = run_batched_cell(config, ues=4, fleet=fleet, warmup=3.0)
    assert all(b > 0.0 for b in batched.member_bytes)
    assert event.jain >= 0.95
    assert batched.jain >= 0.95
    # Contention is real: a cell member moves fewer bytes than the same
    # config run uncontended on the same (lockstep) engine.
    solo = run_batched([config], warmup=3.0)[0]
    solo_bytes = solo.summary.throughput.mean * 12.0 / 8.0
    assert max(batched.member_bytes) < solo_bytes


def test_packed_sweep_equals_per_point_blocks():
    """``fleet_sweep(batch=True, jobs=1)`` ticks every point's cells in
    one engine run; each cell equals its own per-point block run."""
    kwargs = dict(
        calls=[1, 2, 4], cells=2, duration=2.0, warmup=0.5, seed=5,
        background_ues=3, background_load=0.3, prb_budget=30,
    )
    sweep = fleet_sweep("cellular", jobs=1, batch=True, meter=True, **kwargs)
    tasks = fleet_batch_tasks("cellular", jobs=2, meter=True, **kwargs)
    assert len(tasks) == 6 and all(len(task.seeds) == 1 for task in tasks)
    separate = [cell for task in tasks for cell in task.run()]
    packed = [cell for group in sweep.cells for cell in group]
    assert len(packed) == len(separate) == 6
    for reference, cell in zip(separate, packed):
        assert_cells_bit_identical(reference, cell)
        assert deterministic_registry_dict(reference.meter) == (
            deterministic_registry_dict(cell.meter)
        )


def test_pack_cell_blocks_balances_contiguous_runs():
    tasks = fleet_batch_tasks("cellular", [2, 4], cells=2, jobs=2, duration=1.0)
    assert [task.ues for task in tasks] == [2, 2, 4, 4]
    # 12 sessions over 2 runs: the first run crosses into the 4-call point.
    runs = pack_cell_blocks(tasks, 2)
    assert [run.blocks for run in runs] == [tuple(tasks[:3]), tuple(tasks[3:])]
    assert [run.blocks for run in pack_cell_blocks(tasks, 1)] == [tuple(tasks)]
    assert [len(run.blocks) for run in pack_cell_blocks(tasks, 9)] == [1, 1, 1, 1]


@pytest.mark.parametrize("bad", [{"cells": 0}, {"cells": -1}, {"calls": []}])
def test_sweep_rejects_empty_plans(bad):
    kwargs = {"calls": [2], "cells": 1, **bad}
    field = next(iter(bad))
    for build in (fleet_batch_tasks, fleet_tasks):
        with pytest.raises(ValueError, match=field):
            build("cellular", **kwargs)
    for batch in (False, True):
        with pytest.raises(ValueError, match=field):
            fleet_sweep("cellular", batch=batch, **kwargs)


def test_cell_grouping_is_checked_when_built():
    configs = member_configs(lockstep_config(), 3)
    with pytest.raises(ValueError, match="sum to 3"):
        BatchedSimulation(configs, counts=[1, 1])
    with pytest.raises(ValueError, match=">= 1"):
        BatchedSimulation(configs, counts=[3, 0])
    with pytest.raises(ValueError, match="2 member counts for 1 cells"):
        BatchedSimulation(configs, counts=[1, 2], fleets=[FleetConfig(ues=1)])
    with pytest.raises(ValueError, match="counts"):
        BatchedSimulation(configs, fleets=[FleetConfig(ues=3)])
    with pytest.raises(ValueError, match="counts"):
        BatchedSimulation(configs).run_cells()

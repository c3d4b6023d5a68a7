import math

import pytest
from hypothesis import given, settings, strategies as st

from sentinet.energy import (ACTIVE, DEAD, PROBE, SLEEP, TX, EnergyConfig,
                             EnergyLedger, accrue, accrue_node, add_tx,
                             set_status, summarize, tx_cost)
from sentinet.protocol import NodeStatus

CFG = EnergyConfig()


def node_total(led, node_id=0):
    return float(led.node_totals()[node_id])


def test_sleep_for_the_whole_run():
    led = EnergyLedger(CFG, 1)
    accrue_node(led, 0, 1000.0)
    assert node_total(led) == pytest.approx(3e-3)


def test_zero_dt_accrues_nothing():
    led = EnergyLedger(CFG, 1)
    set_status(led, 0, NodeStatus.ACTIVE)
    accrue_node(led, 0, 0.0)
    accrue(led, 0.0)
    assert node_total(led) == 0.0


def test_dead_accrues_nothing():
    led = EnergyLedger(CFG, 2)
    set_status(led, 0, NodeStatus.DEAD)
    accrue_node(led, 0, 123.0)
    accrue(led, 200.0)
    assert node_total(led, 0) == 0.0
    assert node_total(led, 1) == pytest.approx(CFG.sleep_draw_w * 200.0)


def test_negative_dt_rejected():
    led = EnergyLedger(CFG, 1)
    accrue_node(led, 0, 5.0)
    with pytest.raises(ValueError):
        accrue_node(led, 0, 4.0)
    with pytest.raises(ValueError):
        accrue(led, 4.0)


def test_rows_follow_node_status_then_tx():
    assert [SLEEP, PROBE, ACTIVE, DEAD] == [
        NodeStatus.SLEEP.index, NodeStatus.PROBE.index,
        NodeStatus.ACTIVE.index, NodeStatus.DEAD.index]
    assert TX == len(NodeStatus)
    led = EnergyLedger(CFG, 3)
    assert led.joules.shape == (TX + 1, 3)
    assert led.draws.tolist() == [CFG.sleep_draw_w, CFG.probe_awake_draw_w,
                                  CFG.active_draw_w, 0.0, 0.0]
    for status in NodeStatus:
        set_status(led, 1, status)
        assert led.status.tolist() == [SLEEP, status.index, SLEEP]


def test_tx_cost_hand_evaluated():
    assert tx_cost(CFG, -5.0, 0.004) == pytest.approx(1.84e-4)


def test_tx_cost_cheaper_at_low_power():
    assert tx_cost(CFG, -10.0, 0.004) < tx_cost(CFG, -5.0, 0.004)


def test_tx_cost_zero_duration():
    assert tx_cost(CFG, -10.0, 0.0) == 0.0


def test_tx_cost_unknown_level():
    with pytest.raises(ValueError):
        tx_cost(CFG, 0.0, 0.004)


def test_ledger_nonnegative_and_nondecreasing():
    led = EnergyLedger(CFG, 1)
    now = last = 0.0
    for status, dt in ((NodeStatus.SLEEP, 10.0), (NodeStatus.PROBE, 0.1),
                       (NodeStatus.ACTIVE, 5.0), (NodeStatus.DEAD, 50.0),
                       (NodeStatus.SLEEP, 0.0)):
        set_status(led, 0, status)
        now += dt
        accrue_node(led, 0, now)
        assert node_total(led) >= last
        last = node_total(led)
    add_tx(led, 0, -10.0, 0.004)
    assert node_total(led) > last


def test_summarize_accounting_identity():
    led = EnergyLedger(CFG, 5)
    for k in range(5):
        accrue_node(led, k, 100.0 * k)
        set_status(led, k, NodeStatus.ACTIVE)
        accrue_node(led, k, 100.0 * k + 13.0)
        add_tx(led, k, -5.0, 0.004)
    summary = summarize(led)
    by_state_sum = sum(summary["by_state_j"].values())
    assert summary["total_j"] == pytest.approx(by_state_sum, rel=1e-9)
    assert summary["mean_per_node_j"] == pytest.approx(summary["total_j"] / 5)


def test_summarize_empty_network():
    summary = summarize(EnergyLedger(CFG, 0))
    assert summary["total_j"] == 0.0
    assert summary["mean_per_node_j"] == 0.0


def test_extra_frame_strictly_increases_total():
    led = EnergyLedger(CFG, 1)
    set_status(led, 0, NodeStatus.ACTIVE)
    accrue(led, 100.0)
    before = summarize(led)["total_j"]
    add_tx(led, 0, -10.0, 0.004)
    assert summarize(led)["total_j"] > before


def test_add_tx_charges_the_cost_of_each_frame():
    # a frame's joules are worked out once per (level, duration) and then
    # reused; a level with no configured draw is refused every time
    led = EnergyLedger(CFG, 2)
    charged = [add_tx(led, nid, level, duration)
               for nid, level, duration in ((0, -10.0, 0.004), (1, -5.0, 0.004),
                                            (0, -10.0, 0.004), (0, -10.0, 0.002))]
    assert charged == [tx_cost(CFG, -10.0, 0.004), tx_cost(CFG, -5.0, 0.004),
                       tx_cost(CFG, -10.0, 0.004), tx_cost(CFG, -10.0, 0.002)]
    assert led.joules[TX].tolist() == [
        (charged[0] + charged[2]) + charged[3], charged[1]]
    for _ in range(2):
        with pytest.raises(ValueError):
            add_tx(led, 1, -7.0, 0.004)
    assert led.joules[TX, 1] == charged[1]


def test_config_rejects_negative_draws():
    with pytest.raises(ValueError):
        EnergyConfig(sleep_draw_w=-1e-9)


def test_total_is_a_left_fold_of_the_states():
    # values whose left fold and correctly rounded sum differ; Python
    # 3.12's sum() of floats would give the latter
    by_state = [0.1, 0.2, 0.3, 1e-17]
    led = EnergyLedger(CFG, 1)
    led.joules[[SLEEP, PROBE, ACTIVE, TX], 0] = by_state
    total = summarize(led)["total_j"]
    assert total == ((0.1 + 0.2) + 0.3) + 1e-17
    assert total != math.fsum(by_state)
    assert node_total(led) == total


# -- oracle: one scalar left fold per node, as each node once kept its own --

DRAWS = {NodeStatus.SLEEP: CFG.sleep_draw_w,
         NodeStatus.PROBE: CFG.probe_awake_draw_w,
         NodeStatus.ACTIVE: CFG.active_draw_w, NodeStatus.DEAD: 0.0}


class ScalarNode:
    def __init__(self):
        self.joules = [0.0, 0.0, 0.0, 0.0, 0.0]  # sleep, probe, active, dead, tx
        self.until = 0.0
        self.status = NodeStatus.SLEEP

    def touch(self, now):
        dt = now - self.until
        if dt > 0.0:
            row = self.status.index
            self.joules[row] = self.joules[row] + DRAWS[self.status] * dt
        self.until = now


steps = st.lists(st.one_of(
    st.tuples(st.just("wait"), st.floats(0.0, 50.0)),
    st.tuples(st.just("status"), st.integers(0, 7), st.sampled_from(list(DRAWS))),
    st.tuples(st.just("tx"), st.integers(0, 7), st.sampled_from([-10.0, -5.0]),
              st.floats(0.0, 0.01)),
    st.tuples(st.just("sample")),
), max_size=60)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), ops=steps)
def test_array_ledger_matches_scalar_left_folds(n, ops):
    led = EnergyLedger(CFG, n)
    nodes = [ScalarNode() for _ in range(n)]
    now = 0.0
    for op in ops:
        if op[0] == "wait":
            now += op[1]
        elif op[0] == "status":
            nid = op[1] % n
            accrue_node(led, nid, now)
            nodes[nid].touch(now)
            set_status(led, nid, op[2])
            nodes[nid].status = op[2]
        elif op[0] == "tx":
            nid = op[1] % n
            add_tx(led, nid, op[2], op[3])
            nodes[nid].joules[4] += CFG.tx_draw(op[2]) * op[3]
        else:
            accrue(led, now)
            for node in nodes:
                node.touch(now)
    assert led.joules.T.tolist() == [node.joules for node in nodes]
    assert led.node_totals().tolist() == [
        ((s + p) + a) + t for s, p, a, d, t in (node.joules for node in nodes)]
    assert all(node.joules[3] == 0.0 for node in nodes)  # the dead draw none
    by_state = [0.0, 0.0, 0.0, 0.0]
    for node in nodes:
        for k, row in enumerate((0, 1, 2, 4)):
            by_state[k] += node.joules[row]
    total = ((by_state[0] + by_state[1]) + by_state[2]) + by_state[3]
    assert summarize(led) == {
        "total_j": total, "mean_per_node_j": total / n,
        "by_state_j": dict(zip(("sleep", "probe", "active", "tx"), by_state))}

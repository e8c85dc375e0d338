"""Game-tree exhaustion: the adversaries hold against EVERY deterministic policy.

A deterministic policy is exactly a path in the game tree (the adversary's
emissions are a function of the take history), so walking the whole tree
verifies the constructions against all of them at once, not just a zoo.
"""

import copy
from fractions import Fraction

import pytest

from fairdiv import TwoAgentAdversary, check_O1_O2, make_recursive_adversary, verify_certificate
from fairdiv.adversary import RecursiveAdversary
from fairdiv.core import Allocation, Instance
from fairdiv.mms import mms_exact

from conftest import OracleRec3

F = Fraction


@pytest.mark.parametrize("eps", [F(1, 2), F(1, 3), F(1)])
def test_two_agent_game_beats_every_deterministic_policy(eps):
    """Every path of the two-agent game ends certified above 2 - eps.

    Also proves termination: no path survives past a fixed depth cap.
    """
    depth_cap = 2 + 2 * (3 * eps.denominator // eps.numerator + 2)
    target = 2 - eps
    leaves = 0
    deepest = 0

    def walk(adv: TwoAgentAdversary, depth: int) -> None:
        nonlocal leaves, deepest
        assert depth <= depth_cap, "game failed to terminate"
        for agent in (1, 2):
            child = copy.deepcopy(adv)
            child.next_item()
            child.observe(agent)
            cert = child.certificate()
            if cert is None:
                walk(child, depth + 1)
                continue
            leaves += 1
            deepest = max(deepest, depth + 1)
            assert cert.ratio_lower > target
            inst = child.instance()
            takes = Allocation(tuple(child.takes))
            assert verify_certificate(inst, takes, cert)
            exact = mms_exact(inst.agent_values(cert.agent), 2)[0]
            assert cert.mms_upper >= exact
            assert cert.d_A / exact > target

    walk(TwoAgentAdversary(eps), 0)
    assert leaves > 2


def test_recursive_game_all_take_sequences_depth_8():
    """Every length-8 allocation prefix of the n=3 game checks out exactly.

    At every node the production emission equals the independent oracle's;
    every fired window event is a strict (n - eps) crossing; and at every
    leaf the negligibility facts O1/O2 hold.
    """
    eps = F(1)
    depth = 8
    nodes = 0

    def walk(adv: RecursiveAdversary, oracle: OracleRec3, level: int) -> None:
        nonlocal nodes
        for agent in (1, 2, 3):
            a, o = copy.deepcopy(adv), copy.deepcopy(oracle)
            d = a.next_item()
            assert o.next() == d
            a.observe(agent)
            o.observe(agent)
            nodes += 1
            cert = a.certificate()
            for event in a.event_log:
                assert event.strict, event
            if cert is not None:
                assert cert.ratio_lower > 2
                assert verify_certificate(a.instance(), Allocation(tuple(a.takes)), cert)
            if level + 1 < depth and cert is None:
                walk(a, o, level + 1)
            else:
                rep = check_O1_O2(a.record())
                assert rep.o1_ok and rep.o2_ok, rep.failures

    walk(make_recursive_adversary(3, eps, pin_horizon=depth), OracleRec3(eps, pin_horizon=depth), 0)
    assert nodes > 1000


def test_recursive_game_four_agents():
    """n=4 gives a three-deep recursion; truncated runs still verify exactly."""
    eps = F(1)
    from fairdiv.allocator import make_policy

    from fairdiv import play_game

    for name in ["round-robin", "dump-to-one", "mixture:23", "mixture:41"]:
        adv = make_recursive_adversary(4, eps, pin_horizon=160)
        res = play_game(adv, make_policy(name), budget=160)
        rep = check_O1_O2(res.record)
        assert rep.o1_ok and rep.o2_ok, rep.failures
        assert all(e.strict for e in res.record.events)
        if res.certified:
            assert res.certificate.ratio_lower > 3  # n - eps
            assert verify_certificate(res.instance, res.allocation, res.certificate)


def test_trace_replay_reproduces_allocation():
    from fairdiv import play_game
    from fairdiv.allocator import make_policy

    res = play_game(TwoAgentAdversary(F(1, 2)), make_policy("mixture:5"), budget=100)
    assert res.trace.allocation() == res.allocation
    values = res.trace.raw_values
    assert Instance(2, tuple(tuple(t[c] for t, c in zip(values, row)) for row in res.trace.raw)) == res.instance

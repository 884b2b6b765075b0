"""Fault-plan vocabulary, the sim driver, and the no-op guarantee.

The load-bearing contract: installing an **empty** fault plan (or none)
leaves a measurement byte-identical — no extra RNG draws, no extra
events, no behavioural drift.  Fault hooks on the network likewise cost
nothing until a rule is installed, and misbehaving hosts never touch the
network at all.
"""

from __future__ import annotations

import pytest
from conftest import FrameLog, ignored_types
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.experiments.failures import stabilized_scenario
from repro.experiments.params import ExperimentParams
from repro.experiments.reporting import encode_artifact, json_safe
from repro.faults import (
    DEFAULT_MUTATION_TYPES,
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    FaultPlan,
    MutationEvent,
    PartitionEvent,
    Phase,
    RestartEvent,
    SimFaultDriver,
    measure_fault_plan,
    validate_phases,
)
from repro.faults.adversary import SimMisbehaviour
from repro.faults.measure import measure_byzantine_plan
from repro.gossip.messages import GossipData
from repro.sim.network import LinkFaultRule


def _tiny_base(seed: int = 5, n: int = 24):
    params = ExperimentParams.scaled(n, seed=seed, stabilization_cycles=3)
    return stabilized_scenario("hyparview", params)


def _hosts(scenario) -> SimMisbehaviour:
    return SimMisbehaviour(lambda: scenario.seeds.stream("network/faults"))


def _ignoring(scenario) -> int:
    return sum(1 for node in scenario.nodes.values() if ignored_types(node))


class TestPlanValidation:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            events=(CrashEvent(at=0.5, fraction=0.1), CrashEvent(at=0.1, count=1))
        )
        assert [event.at for event in plan.events] == [0.1, 0.5]

    def test_horizon_covers_windows(self):
        plan = FaultPlan(
            events=(
                DegradeEvent(at=0.1, until=0.9, loss_rate=0.1),
                CrashEvent(at=0.3, count=1),
            )
        )
        assert plan.horizon == 0.9

    def test_empty_plan_is_falsy_with_zero_horizon(self):
        assert not FaultPlan.empty()
        assert FaultPlan.empty().horizon == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            CrashEvent(at=-1.0, count=1)

    def test_fraction_and_count_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            CrashEvent(at=0.0, fraction=0.5, count=3)
        with pytest.raises(ConfigurationError, match="exactly one"):
            RestartEvent(at=0.0)

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError, match="weights"):
            PartitionEvent(at=0.0, weights=(1.0,))
        with pytest.raises(ConfigurationError, match="heal_at"):
            PartitionEvent(at=0.5, heal_at=0.5)
        with pytest.raises(ConfigurationError, match="rejoin requires"):
            PartitionEvent(at=0.0, rejoin=2)

    def test_degrade_window_must_be_nonempty(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            DegradeEvent(at=0.5, until=0.5)

    def test_adversary_needs_types_and_a_window(self):
        with pytest.raises(ConfigurationError, match="message type"):
            AdversaryEvent(at=0.0, fraction=0.5, drop_types=())
        with pytest.raises(ConfigurationError, match="adversary window"):
            AdversaryEvent(at=0.5, fraction=0.5, until=0.5)

    def test_churn_trace_constructor(self):
        plan = FaultPlan.churn_trace(
            [(0.1, "crash", 2), (0.2, "restart", 2)]
        )
        assert isinstance(plan.events[0], CrashEvent)
        assert isinstance(plan.events[1], RestartEvent)
        with pytest.raises(ConfigurationError, match="unknown churn-trace"):
            FaultPlan.churn_trace([(0.1, "explode", 1)])

    def test_describe_is_json_safe(self):
        plan = FaultPlan(
            events=(
                PartitionEvent(at=0.1, heal_at=0.5, rejoin=2),
                DegradeEvent(at=0.2, until=0.6, loss_rate=0.1, jitter=(0.0, 0.05)),
                AdversaryEvent(at=0.3, fraction=0.2),
            )
        )
        assert json_safe(plan.describe()) == plan.describe()

    def test_shared_split_and_pick_helpers(self):
        from repro.faults.plan import pick_count, split_weighted

        groups = split_weighted(list(range(10)), (0.5, 0.5))
        assert [len(g) for g in groups] == [5, 5]
        groups = split_weighted(list(range(10)), (0.7, 0.3))
        assert [len(g) for g in groups] == [7, 3]
        assert sum(split_weighted(list(range(7)), (1, 1, 1)), []) == list(range(7))
        assert pick_count(0.5, None, 10) == 5
        assert pick_count(None, 3, 10) == 3
        assert pick_count(None, 30, 10) == 10
        assert pick_count(1.0, None, 0) == 0

    def test_phase_validation(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            Phase("empty", 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="overlap"):
            validate_phases([Phase("a", 0.0, 0.5), Phase("b", 0.4, 1.0)])
        ordered = validate_phases([Phase("b", 0.5, 1.0), Phase("a", 0.0, 0.5)])
        assert [phase.name for phase in ordered] == ["a", "b"]


class TestPlanPopulation:
    def test_min_population_counts_explicit_victims(self):
        plan = FaultPlan(
            events=(
                CrashEvent(at=0.1, count=4),
                PartitionEvent(at=0.2, weights=(1, 1, 1)),
                RestartEvent(at=0.3, fraction=1.0),  # scales, no floor
            )
        )
        assert plan.min_population == 4
        assert FaultPlan.empty().min_population == 0

    def test_partition_groups_raise_the_floor(self):
        plan = FaultPlan(events=(PartitionEvent(at=0.0, weights=(1, 1, 1, 1, 1)),))
        assert plan.min_population == 5

    def test_validate_for_names_offenders(self):
        plan = FaultPlan(
            events=(CrashEvent(at=0.1, count=9),), label="too-big"
        )
        plan.validate_for(9)  # exactly enough is fine
        with pytest.raises(ConfigurationError, match="too-big") as excinfo:
            plan.validate_for(3)
        assert "9 nodes" in str(excinfo.value)
        assert "crash 9" in str(excinfo.value)


class TestPlanSerialization:
    def test_from_dict_round_trip(self):
        plan = FaultPlan.from_dict(
            {
                "label": "file-plan",
                "events": [
                    {"kind": "partition", "at": 0.1, "weights": [0.5, 0.5],
                     "heal_at": 0.5, "rejoin": 2},
                    {"kind": "crash", "at": 0.6, "count": 2},
                    {"kind": "restart", "at": 0.8, "fraction": 1.0},
                    {"kind": "degrade", "at": 0.2, "until": 0.4,
                     "loss_rate": 0.1, "jitter": [0.0, 0.05]},
                    {"kind": "adversary", "at": 0.3, "count": 1,
                     "drop_types": ["Shuffle"], "until": 0.5},
                ],
            }
        )
        assert plan.label == "file-plan"
        assert len(plan.events) == 5
        assert plan.min_population == 2
        assert isinstance(plan.events[0], PartitionEvent)
        assert plan.events[0].weights == (0.5, 0.5)

    def test_from_dict_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            FaultPlan.from_dict(["not", "a", "plan"])
        with pytest.raises(ConfigurationError, match="kind"):
            FaultPlan.from_dict({"events": [{"at": 0.1}]})
        with pytest.raises(ConfigurationError, match="#0"):
            FaultPlan.from_dict({"events": [{"kind": "explode", "at": 0.1}]})
        with pytest.raises(ConfigurationError, match="#1"):
            FaultPlan.from_dict(
                {
                    "events": [
                        {"kind": "crash", "at": 0.1, "count": 1},
                        {"kind": "crash", "at": 0.1, "bogus_field": 3},
                    ]
                }
            )

    def test_plan_from_file(self, tmp_path):
        from repro.faults import plan_from_file

        path = tmp_path / "plan.json"
        path.write_text(
            '{"label": "disk", "events": [{"kind": "crash", "at": 1.0, "count": 1}]}'
        )
        plan = plan_from_file(path)
        assert plan.label == "disk"
        assert isinstance(plan.events[0], CrashEvent)

        with pytest.raises(ConfigurationError, match="cannot read"):
            plan_from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            plan_from_file(bad)


class TestNoOpGuarantee:
    """No plan == empty plan, byte for byte."""

    def test_empty_plan_measurement_identical_to_no_driver(self):
        base = _tiny_base()
        frozen = base.freeze()

        plain = base.clone()
        summaries_plain = [
            s.reliability for s in plain.send_paced_broadcasts(4)
        ]

        faulted = plain.thaw(frozen)
        driver = SimFaultDriver(faulted, FaultPlan.empty())
        driver.install()
        summaries_faulted = [
            s.reliability for s in faulted.send_paced_broadcasts(4)
        ]
        assert summaries_plain == summaries_faulted
        assert plain.engine.processed == faulted.engine.processed
        assert plain.network.stats.snapshot() == faulted.network.stats.snapshot()

    def test_empty_plan_installs_nothing(self):
        scenario = _tiny_base()
        pending_before = scenario.engine.live_pending
        driver = SimFaultDriver(scenario, FaultPlan.empty())
        driver.install()
        assert scenario.engine.live_pending == pending_before
        assert driver._rng is None  # the fault stream is never even created

    def test_measure_with_empty_plan_matches_twice(self):
        frozen = _tiny_base().freeze()
        results = []
        for _ in range(2):
            scenario = _tiny_base().thaw(frozen)
            result = measure_fault_plan(
                scenario, FaultPlan.empty(), messages=3,
                phases=(Phase("all", 0.0, 1.0),),
            )
            results.append(encode_artifact(json_safe(result)))
        assert results[0] == results[1]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_fuzz_noop_plan_identity_across_seeds(self, seed):
        """Property form of the no-op guarantee: for any base seed the
        empty-plan run equals the plain run exactly."""
        params = ExperimentParams.scaled(16, seed=seed, stabilization_cycles=2)
        base = stabilized_scenario("hyparview", params)
        frozen = base.freeze()

        plain = base.thaw(frozen)
        faulted = base.thaw(frozen)
        SimFaultDriver(faulted, FaultPlan.empty()).install()
        assert [s.reliability for s in plain.send_paced_broadcasts(2)] == [
            s.reliability for s in faulted.send_paced_broadcasts(2)
        ]
        assert plain.engine.processed == faulted.engine.processed


class TestSharedMeasuringLoop:
    def test_raw_and_value_judged_shapes_agree_on_an_honest_plan(self):
        """Both result shapes read one loop: on two thaws of one base under
        an honest crash + restart plan they agree exactly, and with no
        Byzantine sender every tracker delivery is of the sent value."""
        base = _tiny_base()
        frozen = base.freeze()
        plan = FaultPlan(
            events=(CrashEvent(at=0.1, fraction=0.25), RestartEvent(at=0.3, fraction=1.0)),
            label="crash-restart",
        )
        phases = (Phase("before", 0.0, 0.1), Phase("after", 0.1, 1.0))
        raw = measure_fault_plan(base.thaw(frozen), plan, messages=6, phases=phases)
        judged = measure_byzantine_plan(base.thaw(frozen), plan, messages=6, phases=phases)
        for key in ("series", "send_times", "interval", "final", "applied", "phases"):
            assert judged[key] == raw[key], key
        assert raw["fault_stats"] == {key: judged["fault_stats"][key] for key in raw["fault_stats"]}
        assert len(raw["applied"]) == 2
        assert judged["validated_series"] == judged["series"]
        assert judged["wrong_deliveries"] == 0
        assert judged["agreement"] == 1.0


class TestSimDriver:
    def test_double_install_rejected(self):
        scenario = _tiny_base()
        driver = SimFaultDriver(scenario, FaultPlan.empty())
        driver.install()
        with pytest.raises(ConfigurationError, match="already installed"):
            driver.install()

    def test_crash_event_kills_fraction(self):
        scenario = _tiny_base()
        plan = FaultPlan(events=(CrashEvent(at=0.1, fraction=0.5),))
        SimFaultDriver(scenario, plan).install()
        scenario.engine.run_until(scenario.engine.now + 0.2)
        assert len(scenario.alive_ids()) == 12

    def test_crash_never_kills_last_survivor(self):
        scenario = _tiny_base(n=4)
        plan = FaultPlan(events=(CrashEvent(at=0.1, fraction=1.0),))
        SimFaultDriver(scenario, plan).install()
        scenario.engine.run_until(scenario.engine.now + 0.2)
        assert len(scenario.alive_ids()) == 1

    def test_restart_revives_and_rejoins(self):
        scenario = _tiny_base()
        plan = FaultPlan(
            events=(
                CrashEvent(at=0.1, fraction=0.5),
                RestartEvent(at=0.3, fraction=1.0),
            )
        )
        SimFaultDriver(scenario, plan).install()
        scenario.engine.run_until(scenario.engine.now + 0.5)
        scenario.drain()
        assert len(scenario.alive_ids()) == 24
        # Rejoined nodes are wired into the overlay again.
        snapshot = scenario.snapshot()
        assert snapshot.largest_component_fraction() > 0.9

    def test_partition_and_heal_flow(self):
        scenario = _tiny_base()
        plan = FaultPlan(
            events=(PartitionEvent(at=0.1, heal_at=0.3, rejoin=2),)
        )
        driver = SimFaultDriver(scenario, plan)
        driver.install()
        engine = scenario.engine
        engine.run_until(engine.now + 0.2)
        sample = scenario.alive_ids()
        cross = [
            (a, b)
            for a in sample[:6]
            for b in sample[:6]
            if a != b and not scenario.network.reachable(a, b)
        ]
        assert cross  # the cut separates at least some sampled pairs
        engine.run_until(engine.now + 0.3)
        scenario.drain()
        assert all(
            scenario.network.reachable(a, b)
            for a in sample[:6]
            for b in sample[:6]
        )
        descriptions = [d for _t, d in driver.applied]
        assert any("heal" in d for d in descriptions)
        assert any("rejoin 2" in d for d in descriptions)

    def test_crashed_adversary_restarts_honest(self):
        """A restarted process is fresh: the old incarnation's adversary
        registration must not survive the revive (parity with the live
        substrate, where restart spawns a brand-new RuntimeNode)."""
        scenario = _tiny_base()
        victim = scenario.alive_ids()[0]
        _hosts(scenario).apply(
            AdversaryEvent(at=0.0, count=1, drop_types=("Shuffle",)), [scenario.nodes[victim]]
        )
        assert ignored_types(scenario.nodes[victim]) == {"Shuffle"}
        scenario.fail_nodes([victim])
        scenario.revive_node(victim)
        assert ignored_types(scenario.nodes[victim]) == set()

    def test_adversary_applies_and_clears(self):
        scenario = _tiny_base()
        plan = FaultPlan(
            events=(AdversaryEvent(at=0.1, fraction=0.25, until=0.4),)
        )
        SimFaultDriver(scenario, plan).install()
        engine = scenario.engine
        engine.run_until(engine.now + 0.2)
        assert _ignoring(scenario) == 6
        engine.run_until(engine.now + 0.3)
        assert _ignoring(scenario) == 0

    def test_overlapping_adversary_windows_are_independent(self):
        """The simulator twin of the live test: one window closing must not
        end another still-open window early, on the same nodes."""
        scenario = _tiny_base(n=16)
        plan = FaultPlan(
            events=(
                AdversaryEvent(at=0.0, fraction=1.0, drop_types=("Shuffle",), until=0.3),
                AdversaryEvent(at=0.1, fraction=1.0, drop_types=("ForwardJoin",), until=0.9),
            )
        )
        SimFaultDriver(scenario, plan).install()
        engine = scenario.engine
        start = engine.now
        engine.run_until(start + 0.2)
        assert all(
            ignored_types(node) == {"Shuffle", "ForwardJoin"} for node in scenario.nodes.values()
        )
        engine.run_until(start + 0.6)  # first window over, second open
        assert all(ignored_types(node) == {"ForwardJoin"} for node in scenario.nodes.values())
        engine.run_until(start + 1.0)
        assert _ignoring(scenario) == 0

    def test_clear_skips_a_restarted_victim_corrupted_again(self):
        """A window closing on a restarted node leaves the window a later
        event opened on the new incarnation alone."""
        scenario = _tiny_base(n=16)
        plan = FaultPlan(
            events=(
                AdversaryEvent(at=0.0, fraction=1.0, drop_types=("Shuffle",), until=0.5),
                AdversaryEvent(at=0.3, fraction=1.0, drop_types=("ForwardJoin",), until=0.9),
            )
        )
        SimFaultDriver(scenario, plan).install()
        engine = scenario.engine
        start = engine.now
        engine.run_until(start + 0.2)
        victim = scenario.node_ids[0]
        scenario.fail_nodes([victim])
        scenario.revive_node(victim, drain=False)
        engine.run_until(start + 0.6)
        assert ignored_types(scenario.nodes[victim]) == {"ForwardJoin"}

    def test_driver_is_deterministic(self):
        frozen = _tiny_base().freeze()
        plan = FaultPlan(
            events=(
                CrashEvent(at=0.05, fraction=0.3),
                PartitionEvent(at=0.15, heal_at=0.35, rejoin=2),
                RestartEvent(at=0.45, fraction=1.0),
            )
        )
        outcomes = []
        for _ in range(2):
            scenario = _tiny_base().thaw(frozen)
            result = measure_fault_plan(
                scenario, plan, messages=4,
                phases=(Phase("all", 0.0, 0.6),),
            )
            outcomes.append(encode_artifact(json_safe(result)))
        assert outcomes[0] == outcomes[1]


class TestNetworkFaultHooks:
    def test_link_rule_validation(self):
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError, match="loss_rate"):
            LinkFaultRule(loss_rate=1.5)
        with pytest.raises(SimulationError, match="link_fraction"):
            LinkFaultRule(link_fraction=0.0)
        with pytest.raises(SimulationError, match="extra latency"):
            LinkFaultRule(extra_latency=(0.5, 0.1))

    def test_link_fraction_selection_is_stable(self):
        scenario = _tiny_base()
        rule = LinkFaultRule(link_fraction=0.5, selector_seed=9)
        ids = scenario.node_ids
        first = [rule.applies(ids[0], other) for other in ids[1:]]
        second = [rule.applies(ids[0], other) for other in ids[1:]]
        assert first == second
        assert any(first) and not all(first)

    def test_loss_rule_drops_datagrams_not_reliable_sends(self):
        params = ExperimentParams.scaled(16, seed=7, stabilization_cycles=2)
        scenario = stabilized_scenario("cyclon", params)
        scenario.network.add_link_rule(LinkFaultRule(loss_rate=0.5))
        before = scenario.network.stats.snapshot()
        scenario.send_broadcasts(5)
        after = scenario.network.stats.snapshot()
        assert after["dropped_fault"] > before["dropped_fault"]

    def test_expired_rules_prune_themselves(self):
        scenario = _tiny_base()
        scenario.network.add_link_rule(
            LinkFaultRule(until=scenario.engine.now + 0.05, loss_rate=0.3)
        )
        assert len(scenario.network.link_rules) == 1
        scenario.engine.run_until(scenario.engine.now + 0.1)
        scenario.send_broadcasts(1)  # first post-expiry send prunes
        assert len(scenario.network.link_rules) == 0

    def test_duplicate_rule_reposts_datagrams(self):
        params = ExperimentParams.scaled(16, seed=7, stabilization_cycles=2)
        scenario = stabilized_scenario("cyclon", params)
        scenario.network.add_link_rule(LinkFaultRule(duplicate_rate=1.0))
        scenario.send_broadcasts(2)
        assert scenario.network.stats.duplicated_fault > 0


class TestByzantineVocabulary:
    def test_mutation_validation(self):
        with pytest.raises(ConfigurationError, match="message type"):
            MutationEvent(at=0.0, fraction=0.2, target_types=())
        with pytest.raises(ConfigurationError, match="mutation"):
            MutationEvent(at=0.5, fraction=0.2, until=0.5)
        event = MutationEvent(at=0.1, fraction=0.2)
        assert event.target_types == DEFAULT_MUTATION_TYPES
        assert not event.equivocate

    def test_from_dict_byzantine_kinds(self):
        plan = FaultPlan.from_dict(
            {
                "events": [
                    {"kind": "mutation", "at": 0.1, "fraction": 0.2,
                     "target_types": ["GossipData"]},
                    {"kind": "equivocation", "at": 0.2, "count": 2, "until": 0.6},
                ]
            }
        )
        mutation, equivocation = plan.events
        assert isinstance(mutation, MutationEvent) and not mutation.equivocate
        assert mutation.target_types == ("GossipData",)
        # The "equivocation" kind is mutation with the flag pre-set.
        assert isinstance(equivocation, MutationEvent) and equivocation.equivocate
        assert plan.horizon == 0.6
        assert json_safe(plan.describe()) == plan.describe()

    def test_byzantine_events_count_toward_population_floor(self):
        plan = FaultPlan(
            events=(
                MutationEvent(at=0.1, count=4),
                MutationEvent(at=0.2, count=6, equivocate=True),
            )
        )
        assert plan.min_population == 6


class _Payloads(dict):
    """Delivery recorder: node id -> the value it delivered last."""

    def note(self, node_id, _message_id, payload) -> None:
        self[node_id] = payload


class TestMisbehavingHosts:
    """Adversaries and Byzantine senders live on the node (its handler table
    and its send slot), never in the network."""

    def _message(self, scenario, payload=("p", 1)):
        from repro.gossip.messages import BRBSend

        origin = scenario.node_ids[0]
        message_id = scenario.broadcast_layer(origin)._sequence.next_id()
        return BRBSend(message_id, payload, origin)

    def test_adversary_drops_selected_types_silently(self):
        scenario = _tiny_base()
        victim = scenario.nodes[scenario.alive_ids()[1]]
        hosts = _hosts(scenario)
        event = AdversaryEvent(at=0.0, count=1, drop_types=("GossipData",))
        hosts.apply(event, [victim])
        scenario.send_broadcasts(2)
        assert hosts.dropped_adversary > 0
        assert not scenario.network._hooked
        assert hosts.clear(event) == 1
        assert ignored_types(victim) == set()

    def test_consistent_mutation_draws_no_randomness(self):
        scenario = _tiny_base()
        hosts = _hosts(scenario)
        src, a, b = scenario.node_ids[:3]
        message = self._message(scenario)
        to_a = hosts._corrupt(src, message, False)
        to_b = hosts._corrupt(src, message, False)
        # Consistent: every destination sees the same wrong value, derived
        # by hashing — no fault stream is ever created.
        assert to_a.payload == to_b.payload != message.payload
        assert to_a.payload[0] == "byz"
        assert hosts._rng is None
        assert hosts.mutated_byz == 2

    def test_equivocation_diverges_per_destination(self):
        scenario = _tiny_base()
        hosts = _hosts(scenario)
        src = scenario.node_ids[0]
        message = self._message(scenario)
        to_a = hosts._corrupt(src, message, True)
        to_b = hosts._corrupt(src, message, True)
        assert to_a.payload != to_b.payload
        assert hosts.equivocated_byz == 2

    def test_untargeted_types_pass_through(self):
        scenario = _tiny_base()
        hosts = _hosts(scenario)
        node = scenario.nodes[scenario.node_ids[0]]
        peer = scenario.membership(node.node_id).active_members()[0]
        hosts.apply(MutationEvent(at=0.0, count=1, target_types=("GossipData",)), [node])
        node.transport.send(peer, self._message(scenario))
        assert hosts.mutated_byz == 0
        node.transport.send(peer, GossipData(self._message(scenario).message_id, 1, 0, node.node_id))
        assert hosts.mutated_byz == 1

    def test_revive_restores_honesty(self):
        scenario = _tiny_base()
        victim = scenario.alive_ids()[0]
        hosts = _hosts(scenario)
        hosts.apply(MutationEvent(at=0.0, count=1), [scenario.nodes[victim]])
        assert hosts.corrupted_ids() == {victim}
        scenario.fail_nodes([victim])
        scenario.revive_node(victim)
        assert victim not in hosts.corrupted_ids()
        assert scenario.nodes[victim].transport._network_send == scenario.network.send

    def test_corrupted_flood_node_corrupts_every_fan_out_copy(self):
        """A flood node sends its k copies as one fan-out: under a mutation
        window every copy leaves corrupted, so every other node delivers the
        wrong value; after a restart the node floods honestly again."""
        scenario = _tiny_base()
        hosts = _hosts(scenario)
        origin = scenario.node_ids[0]
        node = scenario.nodes[origin]
        delivered = _Payloads()
        scenario.set_delivery_recorder(delivered)
        hosts.apply(MutationEvent(at=0.0, count=1, target_types=("GossipData",)), [node])
        fan_out = len(scenario.membership(origin).active_members())
        assert scenario.send_broadcast(origin, payload="honest").reliability == 1.0
        assert hosts.mutated_byz == fan_out > 1
        assert delivered.pop(origin) == "honest"
        assert {value[0] for value in delivered.values()} == {"byz"}
        scenario.fail_nodes([origin])
        scenario.revive_node(origin)
        assert node.transport._network_send_all == scenario.network.send_all
        delivered.clear()
        scenario.send_broadcast(origin, payload="honest")
        assert hosts.mutated_byz == fan_out
        assert set(delivered.values()) == {"honest"}

    def test_victim_revived_inside_its_window_stays_honest(self):
        """A corrupted victim that crashes and restarts before ``until`` is a
        fresh, honest process: it sends honest frames, leaves the corrupted
        set, and the clear at ``until`` leaves its new stack alone."""
        scenario = _tiny_base()
        plan = FaultPlan(
            events=(
                AdversaryEvent(at=0.1, fraction=1.0, drop_types=("Shuffle",), until=0.5),
                MutationEvent(at=0.1, fraction=1.0, target_types=("GossipData",), until=0.5),
            )
        )
        driver = SimFaultDriver(scenario, plan)
        driver.install()
        hosts = driver.misbehaviour
        engine = scenario.engine
        engine.run_until(engine.now + 0.2)
        victim = scenario.node_ids[0]
        node = scenario.nodes[victim]
        assert victim in hosts.corrupted_ids() and ignored_types(node) == {"Shuffle"}
        scenario.fail_nodes([victim])
        scenario.revive_node(victim, drain=False)  # the clear at `until` still pending
        assert victim not in hosts.corrupted_ids() and ignored_types(node) == set()
        mutated = hosts.mutated_byz
        peer = scenario.membership(victim).active_members()[0]
        node.transport.send(peer, GossipData(self._message(scenario).message_id, 1, 0, victim))
        assert hosts.mutated_byz == mutated  # an honest frame
        stack = dict(node._handlers)
        engine.run_until(engine.now + 0.4)  # past `until`
        assert node._handlers == stack
        assert node.transport._network_send == scenario.network.send
        assert hosts.corrupted_ids() == set() and _ignoring(scenario) == 0

    def test_traced_run_records_drops_and_corrupted_sends(self):
        """With a trace sink attached, an ignored GossipData records
        ``drop-adversary`` and a corrupted one ``send`` then ``mutate-byz``."""
        scenario = _tiny_base()
        scenario.network.trace = log = FrameLog()
        hosts = _hosts(scenario)
        origin = scenario.nodes[scenario.node_ids[0]]
        deaf = scenario.nodes[scenario.membership(origin.node_id).active_members()[0]]
        hosts.apply(MutationEvent(at=0.0, count=1, target_types=("GossipData",)), [origin])
        hosts.apply(AdversaryEvent(at=0.0, count=1, drop_types=("GossipData",)), [deaf])
        scenario.send_broadcast(origin.node_id)
        gossip = [frame for frame in log if frame.message_type == "GossipData"]
        kinds = [frame.kind for frame in gossip]
        assert kinds[:2] == ["send", "mutate-byz"]
        assert kinds.count("mutate-byz") == hosts.mutated_byz > 0
        assert kinds.count("drop-adversary") == hosts.dropped_adversary > 0
        dropped = next(frame for frame in gossip if frame.kind == "drop-adversary")
        assert dropped.src == dropped.dst == deaf.node_id

    def test_honest_runs_never_create_the_fault_stream(self):
        scenario = _tiny_base()
        scenario.send_broadcasts(3)
        assert scenario.network._fault_rng is None

    def test_driver_applies_and_clears_mutation(self):
        scenario = _tiny_base()
        plan = FaultPlan(
            events=(MutationEvent(at=0.1, fraction=0.25, until=0.4),)
        )
        driver = SimFaultDriver(scenario, plan)
        driver.install()
        engine = scenario.engine
        engine.run_until(engine.now + 0.2)
        assert len(driver.misbehaviour.corrupted_ids()) == 6
        engine.run_until(engine.now + 0.3)
        assert driver.misbehaviour.corrupted_ids() == set()
        descriptions = [d for _t, d in driver.applied]
        assert any("mutate" in d for d in descriptions)
        assert any("byzantine cleared" in d for d in descriptions)

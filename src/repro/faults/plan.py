"""Declarative fault plans: one timeline, one reader, two substrates.

A :class:`FaultPlan` is an ordered set of fault *events* on a relative
timeline (seconds from plan start).  :class:`PlanDriver` is the one reader
of a plan: it dispatches each event, schedules the follow-ups (heal at
``heal_at``, honesty at ``until``), makes every pick (victims, partition
groups, rejoin movers, join and restart contacts), keeps the survivor floor
and writes the ``applied`` log.  Its two subclasses only name a
substrate's seams:

* :class:`~repro.faults.sim.SimFaultDriver` — the discrete-event
  simulator's :class:`~repro.sim.engine.Engine` /
  :class:`~repro.sim.network.Network`;
* :class:`~repro.faults.chaos.ChaosController` — a loopback-TCP
  :class:`~repro.runtime.cluster.LocalCluster` over wall-clock time.  It
  refuses ``duplicate_rate > 0`` (the live transport cannot duplicate a
  frame) and drops a lost frame where the simulator delays a reliable send.

Events name *populations* (fractions, counts, group weights), never
concrete node identities: victim selection happens at apply time from the
plan's private seeded stream, so a plan is portable across system sizes
and substrates, and the same plan logs the same ``applied`` lines on both.

The vocabulary:

========================  ====================================================
:class:`PartitionEvent`   split the network into weighted groups, optionally
                          healing later and re-joining a few nodes across the
                          former cut (operator-assisted remerge)
:class:`DegradeEvent`     per-link degradation window: loss, extra latency
                          (WAN jitter), duplication, on a stable link subset
:class:`CrashEvent`       crash a fraction/count of the live population
:class:`RestartEvent`     restart a fraction/count of the dead population as
                          fresh processes that re-join (``fraction=1.0`` at a
                          single instant is a flash crowd)
:class:`AdversaryEvent`   turn a fraction of live nodes into misbehaving
                          peers that silently ignore selected message types
                          (e.g. SHUFFLE / FORWARDJOIN), optionally recovering
:class:`MutationEvent`    turn live nodes into Byzantine *senders* that
                          corrupt outgoing payloads of selected message
                          types; ``equivocate=True`` sends a *different*
                          corrupted payload to each destination (the JSON
                          kind ``"equivocation"`` is this with the flag on)
========================  ====================================================

An **empty plan is a strict no-op**: drivers install nothing, draw no
randomness, and leave every artifact byte-identical to an unfaulted run —
asserted by the fault-injection test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from ..common.errors import ConfigurationError
from ..sim.network import LinkFaultRule


def _check_at(at: float) -> None:
    if at < 0:
        raise ConfigurationError(f"fault event time must be >= 0: {at}")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """Base class: one fault on the plan's relative timeline."""

    #: seconds from plan start at which the fault applies.
    at: float

    def __post_init__(self) -> None:
        _check_at(self.at)

    @property
    def end(self) -> float:
        """When the event's effect is over (equals ``at`` for instants)."""
        return self.at

    def describe(self) -> str:
        return f"{type(self).__name__}@{self.at:g}"


@dataclass(frozen=True, slots=True)
class PartitionEvent(FaultEvent):
    """Split the network into groups proportional to ``weights``.

    ``heal_at`` (absolute plan time) removes the cut; ``rejoin`` nodes then
    re-issue JOINs through random live contacts — the operator-assisted
    remerge real deployments perform after a partition, without which two
    healed HyParView components never find each other again.
    """

    weights: tuple[float, ...] = (0.5, 0.5)
    heal_at: Optional[float] = None
    rejoin: int = 0

    def __post_init__(self) -> None:
        _check_at(self.at)
        if len(self.weights) < 2 or any(w <= 0 for w in self.weights):
            raise ConfigurationError(
                f"partition needs >= 2 positive group weights: {self.weights}"
            )
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ConfigurationError(
                f"heal_at must follow the partition: {self.heal_at} <= {self.at}"
            )
        if self.rejoin < 0:
            raise ConfigurationError(f"rejoin must be >= 0: {self.rejoin}")
        if self.rejoin and self.heal_at is None:
            raise ConfigurationError("rejoin requires heal_at")

    @property
    def end(self) -> float:
        return self.heal_at if self.heal_at is not None else self.at

    def describe(self) -> str:
        healed = f" heal@{self.heal_at:g}" if self.heal_at is not None else ""
        return f"partition{list(self.weights)}@{self.at:g}{healed}"


@dataclass(frozen=True, slots=True)
class DegradeEvent(FaultEvent):
    """Degrade matching links from ``at`` until ``until``.

    Both substrates read it as a :class:`~repro.sim.network.LinkFaultRule`:
    ``jitter=(low, high)`` adds uniform extra latency, ``duplicate_rate``
    re-posts datagram copies, and ``link_fraction`` picks the same
    hash-stable subset of directed links.  In the simulator loss drops
    datagrams and delays reliable sends by ``retransmit_delay`` (TCP masks
    loss as latency); on the live cluster loss drops the frame, and a
    ``duplicate_rate`` is refused because the live transport cannot
    duplicate one.
    """

    until: float = 0.0
    loss_rate: float = 0.0
    jitter: tuple[float, float] = (0.0, 0.0)
    duplicate_rate: float = 0.0
    retransmit_delay: float = 0.05
    link_fraction: float = 1.0

    def __post_init__(self) -> None:
        _check_at(self.at)
        if self.until <= self.at:
            raise ConfigurationError(
                f"degradation window must be non-empty: until {self.until} "
                f"<= at {self.at}"
            )

    @property
    def end(self) -> float:
        return self.until

    def describe(self) -> str:
        parts = []
        if self.loss_rate:
            parts.append(f"loss={self.loss_rate:g}")
        if self.jitter[1]:
            parts.append(f"jitter={self.jitter[0]:g}..{self.jitter[1]:g}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:g}")
        if self.link_fraction < 1.0:
            parts.append(f"links={self.link_fraction:g}")
        return f"degrade[{','.join(parts)}]@{self.at:g}..{self.until:g}"


def _check_population(fraction: Optional[float], count: Optional[int]) -> None:
    if (fraction is None) == (count is None):
        raise ConfigurationError("specify exactly one of fraction / count")
    if fraction is not None and not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1]: {fraction}")
    if count is not None and count < 1:
        raise ConfigurationError(f"count must be >= 1: {count}")


def _check_until(at: float, until: Optional[float], what: str) -> None:
    if until is not None and until <= at:
        raise ConfigurationError(
            f"{what} window must be non-empty: until {until} <= at {at}"
        )


@dataclass(frozen=True, slots=True)
class CrashEvent(FaultEvent):
    """Crash a random ``fraction`` (of live nodes) or fixed ``count``."""

    fraction: Optional[float] = None
    count: Optional[int] = None

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_population(self.fraction, self.count)

    def describe(self) -> str:
        amount = f"{self.fraction:.0%}" if self.fraction is not None else str(self.count)
        return f"crash {amount}@{self.at:g}"


@dataclass(frozen=True, slots=True)
class RestartEvent(FaultEvent):
    """Restart a random ``fraction`` (of dead nodes) or fixed ``count``.

    Restarted nodes come back as fresh processes and re-join through random
    live contacts.  All restarts of one event are issued at the same
    instant without draining between them — ``fraction=1.0`` is a flash
    crowd of concurrent joins.
    """

    fraction: Optional[float] = None
    count: Optional[int] = None

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_population(self.fraction, self.count)

    def describe(self) -> str:
        amount = f"{self.fraction:.0%}" if self.fraction is not None else str(self.count)
        return f"restart {amount}@{self.at:g}"


@dataclass(frozen=True, slots=True)
class AdversaryEvent(FaultEvent):
    """Turn live nodes into silent droppers of selected message types.

    The selected nodes stay alive and reachable but ignore every incoming
    message whose type name is in ``drop_types`` — by default the HyParView
    repair vocabulary (SHUFFLE and FORWARDJOIN traffic), the misbehaving
    peer the failure detector cannot see.  ``until`` restores honesty.
    """

    fraction: Optional[float] = None
    count: Optional[int] = None
    drop_types: tuple[str, ...] = ("Shuffle", "ShuffleReply", "ForwardJoin")
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_population(self.fraction, self.count)
        if not self.drop_types:
            raise ConfigurationError("adversary needs at least one message type")
        _check_until(self.at, self.until, "adversary")

    @property
    def end(self) -> float:
        return self.until if self.until is not None else self.at

    def describe(self) -> str:
        amount = f"{self.fraction:.0%}" if self.fraction is not None else str(self.count)
        return f"adversary {amount} drop{list(self.drop_types)}@{self.at:g}"


#: Message types the Byzantine sender events corrupt by default: the
#: payload-bearing gossip frame plus every BRB phase frame that carries a
#: value or a vote.  Types an overlay never speaks are inert.
DEFAULT_MUTATION_TYPES = ("GossipData", "BRBSend", "BRBEcho", "BRBReady")


@dataclass(frozen=True, slots=True)
class MutationEvent(FaultEvent):
    """Turn live nodes into Byzantine senders that corrupt payloads.

    Selected nodes stay alive, receive and route normally, but every
    outgoing message whose type name is in ``target_types`` leaves with a
    corrupted payload (or vote digest).  Plain mutation corrupts
    *consistently* — every recipient of one ``(sender, message)`` pair
    sees the same wrong value; ``equivocate=True`` is the stronger
    Byzantine behaviour of sending a *different* value to each peer for
    the same :class:`~repro.common.ids.MessageId`.  Every matching send
    is corrupted; ``until`` restores honesty.  Both substrates apply it
    (see :mod:`repro.faults.adversary`).
    """

    fraction: Optional[float] = None
    count: Optional[int] = None
    target_types: tuple[str, ...] = DEFAULT_MUTATION_TYPES
    equivocate: bool = False
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_population(self.fraction, self.count)
        if not self.target_types:
            raise ConfigurationError("mutation needs at least one message type")
        _check_until(self.at, self.until, "mutation")

    @property
    def end(self) -> float:
        return self.until if self.until is not None else self.at

    def describe(self) -> str:
        amount = f"{self.fraction:.0%}" if self.fraction is not None else str(self.count)
        verb = "equivocate" if self.equivocate else "mutate"
        return f"{verb} {amount} on{list(self.target_types)}@{self.at:g}"


def _needed_nodes(event: FaultEvent) -> int:
    """The nodes one event names: one per group of a partition, ``count``
    of a count-based event, none of a fraction."""
    if isinstance(event, PartitionEvent):
        return len(event.weights)
    return getattr(event, "count", None) or 0


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable fault scenario: an ordered timeline of fault events,
    the named windows it is measured in and the end of its stream.

    ``events`` are sorted by ``at`` (ties keep construction order, which
    both drivers preserve).  ``horizon`` is the end of the last effect.
    ``phases`` are sorted by start and may not overlap (a message would
    count twice); ``end`` is the last send time of a stream measured
    under the plan and defaults to ``horizon``.
    """

    events: tuple[FaultEvent, ...] = ()
    #: label mixed into victim-selection seeding so two plans in one run
    #: draw independent choices.
    label: str = "faults"
    phases: tuple[Phase, ...] = ()
    end: Optional[float] = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda event: event.at))
        object.__setattr__(self, "events", ordered)
        phases = tuple(sorted(self.phases, key=lambda phase: phase.start))
        for previous, current in zip(phases, phases[1:]):
            if current.start < previous.end:
                raise ConfigurationError(
                    f"phases overlap: {previous.name!r} ends at {previous.end}, "
                    f"{current.name!r} starts at {current.start}"
                )
        object.__setattr__(self, "phases", phases)
        if self.end is None:
            object.__setattr__(self, "end", self.horizon)

    @property
    def horizon(self) -> float:
        return max((event.end for event in self.events), default=0.0)

    @property
    def min_population(self) -> int:
        """The smallest system the plan makes sense against.

        Count-based events name that many concrete victims; a partition
        needs one node per group.  Fractions scale with any population and
        ``rejoin`` is "up to that many" (it samples from whoever is alive),
        so neither raises the floor.
        """
        return max(map(_needed_nodes, self.events), default=0)

    def validate_for(self, size: int) -> None:
        """Reject the plan against a ``size``-node deployment up front.

        Without this the mismatch surfaces only at apply time, deep inside
        a driver's victim sampling, long after the cluster was built.
        """
        needed = self.min_population
        if size < needed:
            offenders = [
                event.describe() for event in self.events if _needed_nodes(event) > size
            ]
            raise ConfigurationError(
                f"plan {self.label!r} references {needed} nodes but the "
                f"deployment has {size}; offending events: {offenders}"
            )

    def __bool__(self) -> bool:
        return bool(self.events)

    def describe(self) -> list[str]:
        """One human/JSON-friendly line per event, in timeline order."""
        return [event.describe() for event in self.events]

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "FaultPlan":
        return FaultPlan()

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        """Build a plan from its JSON form (see ``plan_from_file``).

        Shape: ``{"label": str, "events": [{"kind": "crash", "at": 1.0,
        ...}, ...]}`` where ``kind`` selects the event class and the
        remaining keys are its constructor fields.  List-valued fields
        (``weights``, ``jitter``, ``drop_types``) are accepted as JSON
        arrays.  Every validation error is a :class:`ConfigurationError`
        naming the offending event or key.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(f"plan must be a JSON object: {type(data).__name__}")
        unknown = sorted(set(data) - {"label", "events"})
        if unknown:
            raise ConfigurationError(
                f"plan has unknown keys {unknown}; expected 'label' and 'events'"
            )
        kinds = {
            "partition": PartitionEvent,
            "degrade": DegradeEvent,
            "crash": CrashEvent,
            "restart": RestartEvent,
            "adversary": AdversaryEvent,
            "mutation": MutationEvent,
            # Equivocation is mutation with per-destination divergence
            # pre-selected; an explicit "equivocate" key still wins.
            "equivocation": MutationEvent,
        }
        tuple_fields = ("weights", "jitter", "drop_types", "target_types")
        events: list[FaultEvent] = []
        for index, entry in enumerate(data.get("events", ())):
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ConfigurationError(
                    f"plan event #{index} must be an object with a 'kind': {entry!r}"
                )
            fields = dict(entry)
            kind = fields.pop("kind")
            event_class = kinds.get(kind)
            if event_class is None:
                raise ConfigurationError(
                    f"plan event #{index}: unknown kind {kind!r}; "
                    f"expected one of {sorted(kinds)}"
                )
            for name in tuple_fields:
                if isinstance(fields.get(name), list):
                    fields[name] = tuple(fields[name])
            if kind == "equivocation":
                fields.setdefault("equivocate", True)
            try:
                events.append(event_class(**fields))
            except TypeError as error:
                raise ConfigurationError(
                    f"plan event #{index} ({kind}): {error}"
                ) from error
        return FaultPlan(events=tuple(events), label=str(data.get("label", "faults")))


@dataclass(frozen=True, slots=True)
class Phase:
    """A named window of the plan timeline, for per-phase metrics."""

    name: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"phase {self.name!r} must be non-empty: "
                f"[{self.start}, {self.end}]"
            )

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


def pick_count(fraction: Optional[float], count: Optional[int], population: int) -> int:
    """How many victims an event selects from ``population`` members (the
    rounding rule :class:`PlanDriver` applies on both substrates)."""
    if fraction is not None:
        count = int(round(fraction * population))
    return min(count or 0, population)


def split_weighted(members: Sequence, weights: Sequence[float]) -> list[list]:
    """Split ``members`` (already shuffled by :class:`PlanDriver`) into
    groups proportional to ``weights``; the last group takes the remainder."""
    total = sum(weights)
    groups: list[list] = []
    offset = 0
    for index, weight in enumerate(weights):
        if index == len(weights) - 1:
            groups.append(list(members[offset:]))
        else:
            size = int(round(len(members) * weight / total))
            groups.append(list(members[offset:offset + size]))
            offset += size
    return groups


def plan_from_file(path) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file (``FaultPlan.from_dict``
    shape); malformed JSON is a :class:`ConfigurationError`, not a crash."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read plan file {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"plan file {path} is not valid JSON: {error}") from error
    return FaultPlan.from_dict(data)


class PlanDriver:
    """Reads one :class:`FaultPlan` against one deployment.

    This class owns what a plan means; a subclass names its substrate's
    seams, all over node ids: ``_alive`` / ``_dead``; ``_at(t, callback,
    event)`` (run ``callback(event)`` at plan time ``t``) and ``_now``
    (the time an ``applied`` note carries); ``_partition(groups)`` /
    ``_heal``, ``_degrade(rule)``, ``_crash(ids)``, ``_restart(id,
    contact)``, ``_join(id, contact)``; ``_hosts(ids)``, the node objects
    its ``_misbehaviour`` class edits.  ``start`` is the substrate clock at
    plan time 0, which a link rule's ``until`` is read against;
    ``make_rng`` makes the plan's private stream.
    """

    def __init__(self, plan: FaultPlan, size: int, seeds, start: float, make_rng) -> None:
        # Fail here, when the plan names more nodes than the deployment
        # has, not at apply time inside victim sampling.
        plan.validate_for(size)
        self.plan = plan
        self.start = start
        #: (time, description) per applied effect, in order.
        self.applied: list[tuple[float, str]] = []
        self._seeds = seeds
        self._installed = False
        # The plan's private stream; never created for an empty plan so
        # the no-op path has zero observable footprint.
        self._rng = make_rng() if plan else None
        # Equivocation draws from the label link rules draw from.  No
        # registered plan combines the two, so every draw matches.
        self.misbehaviour = self._misbehaviour(lambda: seeds.stream("network/faults"))

    def install(self) -> None:
        """Schedule every event on the plan's timeline."""
        if self._installed:
            raise ConfigurationError("fault plan already installed")
        self._installed = True
        for event in self.plan.events:
            self._at(event.at, self._apply, event)

    def _note(self, description: str) -> None:
        self.applied.append((self._now(), description))

    def _pick(self, population: list, fraction: Optional[float],
              count: Optional[int]) -> list:
        chosen = pick_count(fraction, count, len(population))
        return self._rng.sample(population, chosen) if chosen else []

    def _apply(self, event: FaultEvent) -> None:
        if isinstance(event, PartitionEvent):
            members = self._alive()
            self._rng.shuffle(members)
            self._partition(split_weighted(members, event.weights))
            self._note(event.describe())
            if event.heal_at is not None:
                self._at(event.heal_at, self._heal_partition, event)
        elif isinstance(event, DegradeEvent):
            self._degrade(
                LinkFaultRule(
                    until=self.start + event.until,
                    loss_rate=event.loss_rate,
                    extra_latency=event.jitter,
                    duplicate_rate=event.duplicate_rate,
                    retransmit_delay=event.retransmit_delay,
                    link_fraction=event.link_fraction,
                    selector_seed=self._seeds.derive_seed(
                        f"{self.plan.label}/links/{event.at:g}"
                    ),
                )
            )
            self._note(event.describe())
        elif isinstance(event, CrashEvent):
            alive = self._alive()
            victims = self._pick(alive, event.fraction, event.count)
            if len(victims) >= len(alive):
                victims = victims[:-1]  # never kill the last survivor
            if victims:
                self._crash(victims)
            self._note(f"{event.describe()} -> {len(victims)} crashed")
        elif isinstance(event, RestartEvent):
            # Concurrent rejoins (a flash crowd): every joiner dials a
            # member of the pre-restart live set, like a bootstrap list.
            live = self._alive()
            victims = self._pick(self._dead(), event.fraction, event.count)
            for node_id in victims:
                self._restart(node_id, self._rng.choice(live))
            self._note(f"{event.describe()} -> {len(victims)} restarted")
        elif isinstance(event, (AdversaryEvent, MutationEvent)):
            victims = self._pick(self._alive(), event.fraction, event.count)
            self.misbehaviour.apply(event, self._hosts(victims))
            role = "adversarial" if isinstance(event, AdversaryEvent) else "byzantine"
            self._note(f"{event.describe()} -> {len(victims)} {role}")
            if event.until is not None:
                self._at(event.until, self._clear_misbehaviour, event)
        else:  # pragma: no cover - vocabulary guard
            raise ConfigurationError(f"unknown fault event: {event!r}")

    def _heal_partition(self, event: PartitionEvent) -> None:
        self._heal()
        self._note(f"heal@{event.heal_at:g}")
        if event.rejoin:
            # Operator-assisted remerge: a handful of nodes re-join through
            # uniformly random contacts; with balanced groups roughly half
            # of the joins cross the former cut and stitch the components.
            alive = self._alive()
            movers = self._pick(alive, None, event.rejoin)
            for node_id in movers:
                others = [other for other in alive if other != node_id]
                if others:
                    self._join(node_id, self._rng.choice(others))
            self._note(f"rejoin {len(movers)}@{event.heal_at:g}")

    def _clear_misbehaviour(self, event: AdversaryEvent | MutationEvent) -> None:
        count = self.misbehaviour.clear(event)  # other open windows stay
        role = "adversary" if isinstance(event, AdversaryEvent) else "byzantine"
        self._note(f"{role} cleared ({count})")


__all__ = [
    "AdversaryEvent",
    "CrashEvent",
    "DEFAULT_MUTATION_TYPES",
    "DegradeEvent",
    "FaultEvent",
    "FaultPlan",
    "MutationEvent",
    "PartitionEvent",
    "Phase",
    "PlanDriver",
    "RestartEvent",
    "pick_count",
    "plan_from_file",
    "split_weighted",
]

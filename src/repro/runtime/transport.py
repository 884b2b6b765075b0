"""Asyncio TCP implementation of the sans-io :class:`Transport` interface.

Wire format: newline-delimited JSON frames.  The first frame on every
connection is a hello — ``{"hello": [host, port], "epoch": n}`` —
identifying the *listening* address of the sending side (TCP source ports
are ephemeral and useless as identities) and its **epoch**: the restart
count of the process bound to that address.  Both sides send one: the
dialer immediately after connecting, the acceptor in reply.  Every
subsequent frame is a message.  A :class:`~repro.gossip.messages.GossipData`
frame is a small per-hop header, a tab, and the payload's JSON body on the
same line: ``[origin host, origin port, sequence, hops, sender host, sender
port]\t<body>``.  The header is what changes from hop to hop, so a node
relaying a payload re-sends the body bytes it received and the payload is
encoded once per broadcast, at its origin.  A receiver reads the header
first and parses the body only when the id is fresh (the :attr:`delivered`
hook the node installs says so): a duplicate is dropped unread, so a
duplicate with a malformed body is not counted as malformed.  Every other
frame is the generic JSON encoding
(:func:`repro.common.messages.encode_message`), which a receiver also
accepts for GossipData.  Every inbound line is capped at
:data:`MAX_FRAME_BYTES`, and an accepted connection that sends no valid
hello within ``connect_timeout`` is closed (:attr:`handshakes_refused`).

The epoch is how peers distinguish a restarted node from its predecessor
when the address is reused.  The transport remembers the highest epoch it
has seen per peer address; a handshake claiming an *older* epoch is
rejected outright (a stale identity — either the dead predecessor's
half-open socket or an impostor replaying its address), and frames arriving
on a pooled connection whose epoch has since been superseded are dropped.
Both show up in :attr:`frames_stale` / :attr:`stale_handshakes`.

Outbound frames go through a **bounded per-peer outbox**: one queue and one
pump task per destination, so one slow or dead peer never blocks traffic
to other peers (the bulkhead pattern).  A frame is encoded once per
fan-out: ``send`` remembers the last message it encoded, and the flood,
Plumtree's eager push and BRB's roster sends hand one message to k peers
in a row, so the k copies share one frame.  A message must therefore not
be mutated after it is sent (they are frozen dataclasses; a mutable
payload inside one is the caller's to leave alone).  Only a relay of the
GossipData being handled re-sends the received body; any other send of
that payload object encodes it afresh.  Each pump wakeup
takes everything queued as one batch and writes it with one
``writelines`` and one ``drain()``; outcomes stay per frame
(:attr:`frames_sent`, :attr:`send_observer`, each frame's own failure
callback).  Queued plus in-flight frames per peer never exceed
``max_queue``; when they would, the *new* frame is rejected with its
failure callback — backpressure surfaces at the caller, it does not
accumulate.

Semantics mirror the simulator exactly:

* ``send(dst, msg)`` — best effort; connection errors are swallowed;
* ``send(dst, msg, on_failure=cb)`` — ``cb`` fires when the peer cannot be
  reached or the write fails (TCP reset == failure detector);
* ``probe(dst, cb)`` — connection attempt, reports success/failure;
* ``watch(dst, on_down)`` — keeps a pooled connection open to ``dst``; the
  reader hitting EOF/reset fires ``on_down``.  This is the open-TCP-
  connection-per-active-view-member of Section 4.1.

Two optional hooks let a service layer wrap every peer link without
subclassing: :attr:`send_guard` (return ``False`` to reject a send before
it touches the network — the circuit breaker's fail-fast path) and
:attr:`send_observer` (called with ``(dst, ok)`` after every send attempt —
the breaker's failure counter feed).
"""

from __future__ import annotations

import asyncio
import json
from json.encoder import encode_basestring_ascii as _json_string
from typing import Awaitable, Callable, Optional

from ..common.errors import CodecError
from ..common.ids import MessageId, NodeId
from ..common.interfaces import FailureCallback, ProbeCallback, Transport
from ..common.messages import (
    Message,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
)
from ..gossip.messages import GossipData

#: Handler invoked with (peer, message) for every decoded incoming frame.
IncomingHandler = Callable[[NodeId, Message], None]

#: Outbound fault injector (chaos testing): called with ``(dst, message)``
#: before every send, and with ``(dst, None)`` before every probe (a probe
#: carries no frame — injectors must tolerate the ``None``).  Verdicts:
#: ``None`` passes the frame through, ``"drop"`` discards it silently
#: (lossy link), ``"fail"`` discards it and reports a send failure to the
#: caller (partition / TCP reset; the only verdict a probe honours), and
#: a positive float delays the frame by that many seconds (jitter).
FaultInjector = Callable[[NodeId, Optional[Message]], object]

#: Pre-send gate: return ``False`` to reject the frame without touching the
#: network (reported to the caller as a send failure).
SendGuard = Callable[[NodeId], bool]

#: Post-send signal: ``(dst, ok)`` after every send attempt that reached
#: the network path (or was failed by the fault injector).
SendObserver = Callable[[NodeId, bool], None]

#: Longest inbound line (frame or hello) read, newline excluded: the
#: ``limit`` of every stream this transport opens or accepts.
MAX_FRAME_BYTES = 64 * 1024

#: Never a message: the encode memo's initial key.
_NOTHING = object()

#: Largest TCP port: a header port outside ``0..65535`` is malformed.
_MAX_PORT = 65535

#: Delivery test for gossip ids (see :attr:`AsyncioTransport.delivered`).
DeliveredTest = Callable[[MessageId], bool]


#: ``json.loads`` minus its per-call checks (and the encoding detection
#: bytes get): a header is parsed for every copy a flood delivers.
_parse_json = json.JSONDecoder().decode


def _gossip_frame(message: GossipData, body: bytes) -> bytes:
    """A GossipData frame: the per-hop header, a tab, the payload's body.

    The header is the JSON array ``json.dumps`` would write, built by hand
    (the hosts escaped as JSON strings, the numbers as integers) for half
    the cost."""
    try:
        (origin_host, origin_port), sequence = message.message_id
        sender_host, sender_port = message.sender
        header = (
            f"[{_json_string(origin_host)}, {origin_port:d}, {sequence:d}, "
            f"{message.hops:d}, {_json_string(sender_host)}, {sender_port:d}]\t"
        )
    except (TypeError, ValueError) as exc:
        raise CodecError("malformed gossip header fields") from exc
    return header.encode("ascii") + body + b"\n"


def _gossip_header(line: bytes) -> tuple[MessageId, int, NodeId, bytes]:
    """Split a GossipData frame into its message id, hops, sender and body
    (newline excluded); raises ``ValueError`` (or ``RecursionError``) when
    the header is malformed.  The body is not read."""
    end = line.index(b"\t")
    origin_host, origin_port, sequence, hops, sender_host, sender_port = _parse_json(
        line[:end].decode("utf-8")
    )
    if not (
        type(origin_host) is str
        and type(sender_host) is str
        and type(origin_port) is int
        and type(sender_port) is int
        and type(sequence) is int
        and type(hops) is int
        and 0 <= origin_port <= _MAX_PORT
        and 0 <= sender_port <= _MAX_PORT
        and sequence >= 0
        and hops >= 0
    ):
        raise ValueError("malformed gossip header")
    body = line[end + 1 : -1] if line.endswith(b"\n") else line[end + 1 :]
    return (
        MessageId(NodeId(origin_host, origin_port), sequence),
        hops,
        NodeId(sender_host, sender_port),
        body,
    )


class _Connection:
    """One pooled TCP connection with its reader task.

    ``epoch`` is the epoch the *remote* side claimed in its hello:  known
    immediately for accepted connections, learned from the reply hello (the
    first frame the acceptor writes) for dialed ones.
    """

    __slots__ = ("peer", "reader", "writer", "reader_task", "closed", "epoch")

    def __init__(self, peer: NodeId, reader, writer, epoch: Optional[int] = None) -> None:
        self.peer = peer
        self.reader = reader
        self.writer = writer
        self.reader_task: Optional[asyncio.Task] = None
        self.closed = False
        self.epoch = epoch


class _Outbox:
    """Bounded send queue + pump task for one destination.

    ``in_flight`` counts the frames the pump has taken off the queue and
    not yet settled; it is part of the ``max_queue`` bound.
    """

    __slots__ = ("queue", "task", "in_flight")

    def __init__(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None
        self.in_flight = 0


class AsyncioTransport(Transport):
    """Connection-pooling TCP transport for one runtime node."""

    def __init__(
        self,
        local: NodeId,
        on_message: IncomingHandler,
        *,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        connect_timeout: float = 2.0,
        epoch: int = 0,
        max_queue: int = 256,
    ) -> None:
        self._local = local
        self._on_message = on_message
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._connect_timeout = connect_timeout
        self._epoch = epoch
        self._max_queue = max_queue
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: dict[NodeId, _Connection] = {}
        self._connecting: dict[NodeId, asyncio.Task] = {}
        self._outboxes: dict[NodeId, _Outbox] = {}
        #: Highest epoch ever claimed by each peer address.
        self._peer_epochs: dict[NodeId, int] = {}
        self._watch_callbacks: dict[NodeId, Callable[[NodeId], None]] = {}
        self._background: set[asyncio.Task] = set()
        self._delayed = 0  # frames a fault delay is holding back
        self._closing = False
        self.frames_sent = 0
        self.frames_received = 0
        #: Frames dropped because their connection's epoch was superseded.
        self.frames_stale = 0
        #: Inbound handshakes rejected for claiming an outdated epoch.
        self.stale_handshakes = 0
        #: Inbound handshakes refused for their hello: none within
        #: ``connect_timeout``, over :data:`MAX_FRAME_BYTES`, not JSON, or
        #: bad fields.
        self.handshakes_refused = 0
        #: Inbound lines dropped unread: over :data:`MAX_FRAME_BYTES` (once
        #: per line, however many writes it spans), not JSON, not a
        #: decodable message, a GossipData header that does not parse, or a
        #: fresh GossipData body that does not decode.
        self.frames_malformed = 0
        #: Decoded frames whose handler raised; the connection stays up.
        self.handler_errors = 0
        #: Frames rejected because the destination's outbox was full.
        self.frames_overflow = 0
        #: Frames rejected by :attr:`send_guard` before reaching the network.
        self.frames_rejected = 0
        #: Chaos hook (see :data:`FaultInjector`); ``None`` = no faults.
        self.fault_injector: Optional[FaultInjector] = None
        self.frames_faulted = 0
        #: Service hooks (see :data:`SendGuard` / :data:`SendObserver`).
        self.send_guard: Optional[SendGuard] = None
        self.send_observer: Optional[SendObserver] = None
        #: Optional dissemination-trace sink with the same ``record(time,
        #: kind, src, dst, message)`` interface the simulator's Network
        #: uses (e.g. :class:`repro.obs.trace.TraceSegment`).  ``None``
        #: (the default) keeps the hot path at one ``if`` check.
        self.trace = None
        #: Gossip dedup hook: ``True`` when the local broadcast layer has
        #: delivered the id.  A GossipData frame it names is a duplicate,
        #: dispatched with its body unread (``payload`` ``None``).
        #: ``None`` (the default) reads every body.
        self.delivered: Optional[DeliveredTest] = None
        #: One-entry encode memo: a fan-out sends one message k times.
        self._last_message: object = _NOTHING
        self._last_frame = b""
        #: The GossipData frame being handled and its body as received: a
        #: relay of that message's payload re-sends the bytes.
        self._received: Optional[GossipData] = None
        self._body = b""

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    @property
    def local_address(self) -> NodeId:
        return self._local

    @property
    def epoch(self) -> int:
        return self._epoch

    def peer_epoch(self, peer: NodeId) -> int:
        """Highest epoch this transport has seen ``peer`` claim."""
        return self._peer_epochs.get(peer, 0)

    @property
    def idle(self) -> bool:
        """No dial pending and no frame queued, being written or held by a fault
        delay (a probe or watch spawned this loop iteration shows on the next)."""
        return not (self._connecting or self._delayed) and all(
            outbox.queue.empty() and not outbox.in_flight for outbox in self._outboxes.values()
        )

    def send(
        self,
        dst: NodeId,
        message: Message,
        on_failure: Optional[FailureCallback] = None,
    ) -> None:
        # Encode here, synchronously: an unencodable message is a caller
        # bug and must surface in the caller, not in a detached task.  The
        # memo is set only after an encode succeeds.
        if message is self._last_message:
            frame = self._last_frame
        else:
            frame = self._encode(message)
            self._last_message = message
            self._last_frame = frame
        if self.trace is not None:
            self.trace.record(self._loop.time(), "send", self._local, dst, message)
        guard = self.send_guard
        if guard is not None and not guard(dst):
            self.frames_rejected += 1
            if on_failure is not None and not self._closing:
                self._loop.call_soon(on_failure, dst, message)
            return
        injector = self.fault_injector
        if injector is not None:
            verdict = injector(dst, message)
            if verdict == "drop":
                self.frames_faulted += 1
                return
            if verdict == "fail":
                self.frames_faulted += 1
                self._observe(dst, False)
                if on_failure is not None and not self._closing:
                    self._loop.call_soon(on_failure, dst, message)
                return
            if isinstance(verdict, (int, float)) and verdict > 0:
                self.frames_faulted += 1
                self._delayed += 1
                self._loop.call_later(verdict, self._release, dst, frame, message, on_failure)
                return
        self._enqueue(dst, frame, message, on_failure)

    def _encode(self, message: Message) -> bytes:
        if type(message) is not GossipData:
            return (json.dumps(encode_message(message)) + "\n").encode("utf-8")
        payload = message.payload
        received = self._received
        if (
            received is not None
            and payload is received.payload
            and message.message_id == received.message_id
        ):
            body = self._body  # a relay: the bytes the payload arrived as
        else:
            body = json.dumps(encode_value(payload)).encode("utf-8")
        return _gossip_frame(message, body)

    def probe(self, dst: NodeId, on_result: ProbeCallback) -> None:
        injector = self.fault_injector
        if injector is not None and injector(dst, None) == "fail":
            # Partitioned peers are unreachable even when a pooled
            # connection still exists underneath.
            self.frames_faulted += 1
            if not self._closing:
                self._loop.call_soon(on_result, dst, False)
            return
        self._spawn(self._probe_async(dst, on_result))

    def watch(self, dst: NodeId, on_down: Callable[[NodeId], None]) -> None:
        self._watch_callbacks[dst] = on_down
        self._spawn(self._ensure_watch(dst))

    def unwatch(self, dst: NodeId) -> None:
        self._watch_callbacks.pop(dst, None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start_server(self) -> None:
        """Listen on the local address (call before any protocol starts)."""
        self._server = await asyncio.start_server(
            self._handle_incoming, self._local.host, self._local.port, limit=MAX_FRAME_BYTES
        )

    async def close(self) -> None:
        """Tear everything down: server, pool, outboxes, background tasks."""
        self._closing = True
        self._watch_callbacks.clear()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for outbox in self._outboxes.values():
            outbox.task.cancel()
        self._outboxes.clear()
        for connection in list(self._connections.values()):
            self._close_connection(connection, notify=False)
        self._connections.clear()
        # Dials run outside _background (several sends share one, shielded).
        tasks = [*self._background, *self._connecting.values()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._background.clear()
        if server is not None:
            # Last: from Python 3.12 this waits for every accepted socket to
            # close, which the cancelled handshakes and readers did above.
            await server.wait_closed()

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------
    def _enqueue(
        self,
        dst: NodeId,
        frame: bytes,
        message: Message,
        on_failure: Optional[FailureCallback],
    ) -> None:
        if self._closing:
            return
        outbox = self._outboxes.get(dst)
        if outbox is None or outbox.task.done():
            outbox = _Outbox()
            outbox.task = self._spawn(self._pump(dst, outbox))
            self._outboxes[dst] = outbox
        if outbox.queue.qsize() + outbox.in_flight >= self._max_queue:
            # Bulkhead: a slow/dead peer can hold at most max_queue frames,
            # queued or in flight.  The *new* frame is the one rejected, so
            # backpressure reaches the caller immediately instead of
            # silently shedding old load.
            self.frames_overflow += 1
            if on_failure is not None:
                self._loop.call_soon(on_failure, dst, message)
            return
        outbox.queue.put_nowait((frame, message, on_failure))

    async def _pump(self, dst: NodeId, outbox: _Outbox) -> None:
        """Drain one destination's outbox over its pooled connection: each
        wakeup writes everything queued with one ``writelines`` and one
        ``drain()``."""
        queue = outbox.queue
        while True:
            batch = [await queue.get()]
            outbox.in_flight = 1
            try:
                connection = await self._get_connection(dst)
                # Everything queued by now, during a dial too, rides the
                # same write.
                while not queue.empty():
                    batch.append(queue.get_nowait())
                outbox.in_flight = len(batch)
                connection.writer.writelines([frame for frame, _m, _cb in batch])
                await connection.writer.drain()
            except (OSError, asyncio.TimeoutError, ConnectionError):
                # Everything queued behind a failed dial or write would have
                # ridden the same connection: fail the lot, each frame once.
                while not queue.empty():
                    batch.append(queue.get_nowait())
                outbox.in_flight = 0
                for _frame, message, on_failure in batch:
                    self._send_failed(dst, message, on_failure)
                continue
            outbox.in_flight = 0
            self.frames_sent += len(batch)
            for _ in batch:
                self._observe(dst, True)

    def _send_failed(
        self, dst: NodeId, message: Message, on_failure: Optional[FailureCallback]
    ) -> None:
        self._observe(dst, False)
        if on_failure is not None and not self._closing:
            on_failure(dst, message)

    def _observe(self, dst: NodeId, ok: bool) -> None:
        observer = self.send_observer
        if observer is not None and not self._closing:
            observer(dst, ok)

    def _release(self, *queued) -> None:
        """A delayed frame's time is up (after close, ``_enqueue`` drops it)."""
        self._delayed -= 1
        self._enqueue(*queued)

    async def _probe_async(self, dst: NodeId, on_result: ProbeCallback) -> None:
        try:
            await self._get_connection(dst)
        except (OSError, asyncio.TimeoutError, ConnectionError):
            if not self._closing:
                on_result(dst, False)
            return
        if not self._closing:
            on_result(dst, True)

    async def _ensure_watch(self, dst: NodeId) -> None:
        """Open the held connection behind ``watch``; failure to connect is
        itself a down signal."""
        try:
            await self._get_connection(dst)
        except (OSError, asyncio.TimeoutError, ConnectionError):
            callback = self._watch_callbacks.pop(dst, None)
            if callback is not None and not self._closing:
                callback(dst)

    async def _get_connection(self, dst: NodeId) -> _Connection:
        existing = self._connections.get(dst)
        if existing is not None and not existing.closed:
            return existing
        pending = self._connecting.get(dst)
        if pending is None:
            pending = self._loop.create_task(self._dial(dst))
            self._connecting[dst] = pending
            pending.add_done_callback(self._dial_finished)
        # Shield so several queued sends can await one dial attempt.
        return await asyncio.shield(pending)

    def _dial_finished(self, task: asyncio.Task) -> None:
        for dst, pending in list(self._connecting.items()):
            if pending is task:
                del self._connecting[dst]
        if not task.cancelled():
            # Retrieve the exception even when every awaiting send was
            # cancelled mid-dial, so asyncio never logs it as unretrieved.
            task.exception()

    async def _dial(self, dst: NodeId) -> _Connection:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(dst.host, dst.port, limit=MAX_FRAME_BYTES),
            timeout=self._connect_timeout,
        )
        hello = json.dumps({"hello": self._local.to_wire(), "epoch": self._epoch}) + "\n"
        try:
            writer.write(hello.encode("utf-8"))
            await writer.drain()
        except BaseException:  # includes cancellation by close()
            writer.close()
            raise
        # The peer's epoch arrives in its reply hello — the first frame it
        # writes — and is applied by the read loop.
        connection = _Connection(dst, reader, writer)
        if not self._register(connection):
            raise ConnectionError(f"transport closed while dialing {dst}")
        return connection

    # ------------------------------------------------------------------
    # Inbound path
    # ------------------------------------------------------------------
    def _handle_incoming(self, reader, writer) -> None:
        # A plain callback, so the handshake is a tracked task close() cancels.
        self._spawn(self._handshake(reader, writer))

    async def _handshake(self, reader, writer) -> None:
        """Read the dialer's hello, reply with ours and pool the connection;
        the socket is closed on every other way out."""
        registered = False
        try:
            try:
                hello_line = await asyncio.wait_for(reader.readline(), self._connect_timeout)
                if not hello_line:
                    return  # the dialer left before saying hello
                hello = json.loads(hello_line)
                peer = NodeId.from_wire(hello["hello"])
                peer_epoch = int(hello.get("epoch", 0))
            except (
                asyncio.TimeoutError, KeyError, TypeError, ValueError, OverflowError, RecursionError
            ):
                # Silent, over MAX_FRAME_BYTES (readline's ValueError), not
                # JSON, or bad fields: a peer this transport cannot identify.
                self.handshakes_refused += 1
                return
            if peer_epoch < self._peer_epochs.get(peer, 0):
                # A handshake claiming an epoch this address has already moved
                # past: the dead predecessor's half-open socket, or someone
                # replaying its identity.  Refuse the connection entirely.
                self.stale_handshakes += 1
                return
            self._note_epoch(peer, peer_epoch)
            reply = json.dumps({"hello": self._local.to_wire(), "epoch": self._epoch}) + "\n"
            writer.write(reply.encode("utf-8"))
            await writer.drain()
            registered = self._register(_Connection(peer, reader, writer, epoch=peer_epoch))
        except (OSError, ConnectionError):
            pass
        finally:
            if not registered:
                writer.close()

    def _note_epoch(self, peer: NodeId, epoch: int) -> None:
        """Record a claimed epoch; a *newer* one retires stale connections."""
        known = self._peer_epochs.get(peer, 0)
        if epoch <= known:
            return
        self._peer_epochs[peer] = epoch
        pooled = self._connections.get(peer)
        if pooled is not None and pooled.epoch is not None and pooled.epoch < epoch:
            # The pool still holds a connection to the previous
            # incarnation; retire it silently — the new incarnation's
            # connection replaces it, this is not a peer failure.
            del self._connections[peer]
            pooled.closed = True
            pooled.writer.close()

    def _register(self, connection: _Connection) -> bool:
        """Pool ``connection`` and start its reader; refused (and the socket
        closed) once :meth:`close` has begun — a handshake finishing after
        that would start a reader task nobody is left to cancel."""
        if self._closing:
            connection.closed = True
            connection.writer.close()
            return False
        previous = self._connections.get(connection.peer)
        self._connections[connection.peer] = connection
        if previous is not None and previous is not connection:
            # Simultaneous dials: keep the newest, silently retire the
            # older socket (its reader task ends without a down signal).
            previous.closed = True
            previous.writer.close()
        connection.reader_task = self._spawn(self._read_loop(connection))
        return True

    async def _read_loop(self, connection: _Connection) -> None:
        reader = connection.reader
        oversize = False  # inside a line over the limit, discarding
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.LimitOverrunError as exc:
                    # A line over MAX_FRAME_BYTES (the stream's limit): the
                    # sender is wrong, not gone.  Count it once and discard it
                    # through its newline, however many writes its tail takes.
                    if not oversize:
                        self.frames_malformed += 1
                        oversize = True
                    await reader.readexactly(exc.consumed)
                    continue
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: an unterminated last line, or b""
                if not line:
                    break
                if oversize:
                    oversize = False  # the oversize line's tail
                    continue
                message = self._decode(connection, line)
                if message is None:
                    continue
                self.frames_received += 1
                if self.trace is not None:
                    self.trace.record(
                        self._loop.time(), "deliver", connection.peer, self._local, message
                    )
                try:
                    self._on_message(connection.peer, message)
                except Exception:
                    # A local handler bug, not a peer failure: count it and
                    # keep the connection.
                    self.handler_errors += 1
                finally:
                    # The received body is relayable only while its own
                    # frame is handled: a later send of that payload object
                    # may follow a mutation.
                    self._received = None
        except (OSError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connection_lost(connection)

    def _decode(self, connection: _Connection, line: bytes) -> Optional[Message]:
        """The message one inbound line carries, or ``None`` when the line
        was consumed here: a hello, or a counted malformed or stale frame."""
        gossip = line[:1] == b"["
        try:
            if gossip:
                message_id, hops, sender, body = _gossip_header(line)
            else:
                payload = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, not UTF-8, too deep, bad header
            self.frames_malformed += 1
            return None  # corrupt frame: drop, keep the connection
        if not gossip and isinstance(payload, dict) and "hello" in payload:
            # The acceptor's reply hello on a dialed connection: learn the
            # peer's epoch, dispatch nothing.
            try:
                connection.epoch = int(payload.get("epoch", 0))
            except (TypeError, ValueError, OverflowError):
                self.frames_malformed += 1
                return None
            self._note_epoch(connection.peer, connection.epoch)
            return None
        if connection.epoch is not None and connection.epoch < self._peer_epochs.get(
            connection.peer, 0
        ):
            # This connection belongs to a superseded incarnation of the
            # peer; whatever it says is from the past.
            self.frames_stale += 1
            return None
        if not gossip:
            try:
                return decode_message(payload)
            except CodecError:
                self.frames_malformed += 1
                return None
        delivered = self.delivered
        if delivered is not None and delivered(message_id):
            return GossipData(message_id, None, hops, sender)  # a duplicate, unread
        try:
            payload = decode_value(_parse_json(body.decode("utf-8")))
        except (ValueError, RecursionError, CodecError):
            self.frames_malformed += 1
            return None
        self._received = GossipData(message_id, payload, hops, sender)
        self._body = body
        return self._received

    def _connection_lost(self, connection: _Connection) -> None:
        if connection.closed:
            return  # intentionally retired; not a peer failure
        connection.closed = True
        if self._connections.get(connection.peer) is connection:
            del self._connections[connection.peer]
        try:
            connection.writer.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        callback = self._watch_callbacks.pop(connection.peer, None)
        if callback is not None and not self._closing:
            callback(connection.peer)

    def _close_connection(self, connection: _Connection, *, notify: bool) -> None:
        connection.closed = not notify  # suppress the down signal if asked
        if connection.reader_task is not None:
            connection.reader_task.cancel()
        try:
            connection.writer.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass

    # ------------------------------------------------------------------
    def _spawn(self, coroutine: Awaitable) -> asyncio.Task:
        task = self._loop.create_task(coroutine)
        self._background.add(task)
        task.add_done_callback(self._background.discard)
        return task

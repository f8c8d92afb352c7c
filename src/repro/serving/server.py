"""Asyncio network front door over :class:`repro.api.ExplanationSession`.

:class:`ExplanationServer` turns the in-process session facade into a
TCP service: clients speak length-prefixed :mod:`repro.api.protocol`
envelopes (framing in :mod:`repro.serving.frames`) and get back the
same summaries — bit-identical, because the payload codec preserves
node/neighbor/relation iteration order — that a local
``ExplanationSession.run()`` would produce.

Architecture
------------
- **Multi-tenant named sessions.** The server hosts one or more named
  graphs (a bare graph becomes ``"default"``). Each name owns a
  :class:`_SessionHost`: a lazily created warm ``ExplanationSession``
  plus a dedicated single-thread executor. All blocking work for a
  graph — summarization, mutation, pool release — runs on that one
  thread, so concurrent clients are serialized *per graph* (sessions
  are not thread-safe) while distinct graphs proceed in parallel, and
  the asyncio loop never blocks.
- **Admission control.** Each host tracks in-flight + queued requests;
  past ``ServerConfig.max_pending`` the server answers immediately
  with a typed ``overloaded`` error frame instead of letting latency
  grow unbounded (the client raises
  :class:`~repro.serving.client.OverloadedError` and can back off).
  The counter mutates only on the event-loop thread, so no lock.
- **Streaming.** ``stream`` frames each ``BatchResult`` the moment the
  session's scheduler yields it: a pump on the session thread pushes
  results into an asyncio queue via ``call_soon_threadsafe`` and the
  handler writes one ``result`` frame per item, then an ``end`` frame
  with the count. On the process backend the first frame leaves the
  server while later tasks are still computing.
- **Mutation RPCs.** ``mutate`` applies graph edits on the session
  thread (serialized against in-flight runs). Edits bump the graph's
  version counter, which the session's ``_refresh`` notices on the
  next request — derived state (frozen view, shm export, pools,
  closure cache) is invalidated exactly as in-process callers get.
- **Durability.** With ``state_dir=``, each named graph owns a
  :class:`~repro.serving.journal.GraphJournal`: mutations are
  journaled (CRC'd write-ahead log, configurable fsync) before they
  are acknowledged, and startup recovers snapshot + journal tail to a
  bit-identical graph — an acked edit survives ``kill -9``.
- **Lifecycle.** ``request_stop()`` (signal-handler-safe) flips the
  server into draining: new work gets typed ``shutting-down`` frames
  with a ``retry_after_ms`` hint while in-flight dispatches finish and
  write their responses; ``stop(drain=True)`` waits them out under a
  deadline, flushes the journals, then tears down. The ``health`` op
  reports live/ready/draining plus per-graph depth, journal and
  resilience counters — and is never admission-gated.
- **Connection hygiene.** Optional idle-read timeouts, slow-reader
  write timeouts, and a max-connections bound (typed
  ``too-many-connections`` rejection) keep mute or slow peers from
  pinning server resources.
- **Idle reaper.** A background task watches each host's idle clock
  and calls ``release_pool()`` on sessions idle past
  ``pool_idle_ttl_seconds`` — returning worker processes and the
  shared-memory export to the OS while keeping the cheap serial state
  warm. This closes the ROADMAP carry-over that the elastic pool only
  shrank while a dispatch was draining: the TTL now shrinks it to
  zero between bursts.

Error taxonomy: transport violations (oversized frame) get an error
frame before the connection closes; protocol violations (bad JSON,
unknown version, malformed request) get a typed error frame and the
connection stays usable; task failures get ``task-error``. See
:data:`repro.api.protocol.ERROR_CODES`.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.api import protocol
from repro.api.config import CacheConfig, EngineConfig, ParallelConfig
from repro.api.registry import available_methods
from repro.api.session import ExplanationSession
from repro.cache import ClosureStoreConfig
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.obs.config import ObservabilityConfig
from repro.obs.registry import (
    exponential_buckets,
    get_registry,
    render_simple,
)
from repro.serving.config import (
    JournalConfig,
    ResilienceConfig,
    SchedulerConfig,
)
from repro.serving.faults import FaultPlan
from repro.serving.frames import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameTooLarge,
    TruncatedFrame,
    get_codec,
    read_frame_async,
    write_frame_async,
)

# The mutation-op table lives with the journal (which replays it);
# re-exported here because the wire validates against the same table.
from repro.serving.journal import MUTATION_OPS, GraphJournal  # noqa: F401

#: Admission-queue wait of workload requests (time between admission
#: and the moment the session thread actually starts the work) — the
#: front-door latency component invisible to per-task worker spans.
_QUEUE_WAIT_SECONDS = get_registry().histogram(
    "repro_queue_wait_seconds",
    "Wait between request admission and session-thread start (seconds)",
    buckets=exponential_buckets(start=0.0001, count=14),
)

#: How long ``stop()`` waits for connection handlers to return after
#: hanging up on them; idle ones return within a loop iteration.
_CLIENT_CLOSE_GRACE_SECONDS = 1.0


@dataclass(frozen=True)
class ServerConfig:
    """Network front-door knobs (validated at construction).

    ``port=0`` binds an ephemeral port (read it back from
    ``server.port`` after start — what the tests and the self-hosting
    bench harness do). ``max_pending`` bounds each graph's in-flight +
    queued requests before admission control answers ``overloaded``;
    every ``overloaded`` frame carries ``retry_after_ms`` as a backoff
    floor hint for retry-aware clients.
    ``pool_idle_ttl_seconds=0`` disables the idle reaper.

    Connection hygiene (all default-off, 0 = disabled):
    ``idle_timeout_seconds`` hangs up on a connection that sends no
    frame for that long; ``write_timeout_seconds`` hangs up on a peer
    too slow to drain a response (a slow reader must not pin server
    memory); ``max_connections`` bounds concurrent connections — the
    excess connection gets one typed ``too-many-connections`` frame and
    is closed. ``drain_timeout_seconds`` is the default deadline for
    ``stop(drain=True)`` to wait out in-flight dispatches.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 32
    max_frame_bytes: int = MAX_FRAME_BYTES
    codec: str = "json"
    pool_idle_ttl_seconds: float = 0.0
    reap_interval_seconds: float = 1.0
    retry_after_ms: int = 100
    idle_timeout_seconds: float = 0.0
    write_timeout_seconds: float = 0.0
    max_connections: int = 0
    drain_timeout_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.retry_after_ms < 0:
            raise ValueError("retry_after_ms must be >= 0")
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes must be >= 64")
        if self.pool_idle_ttl_seconds < 0:
            raise ValueError("pool_idle_ttl_seconds must be >= 0")
        if self.reap_interval_seconds <= 0:
            raise ValueError("reap_interval_seconds must be > 0")
        if self.idle_timeout_seconds < 0:
            raise ValueError("idle_timeout_seconds must be >= 0 (0 = off)")
        if self.write_timeout_seconds < 0:
            raise ValueError("write_timeout_seconds must be >= 0 (0 = off)")
        if self.max_connections < 0:
            raise ValueError("max_connections must be >= 0 (0 = unbounded)")
        if self.drain_timeout_seconds <= 0:
            raise ValueError("drain_timeout_seconds must be > 0")
        get_codec(self.codec)  # fail fast on unknown/unavailable codec


class _SessionHost:
    """One named graph's session, executor, and admission state."""

    def __init__(self, name: str, graph: KnowledgeGraph, make_session) -> None:
        self.name = name
        self.graph = graph
        self._make_session = make_session
        self._session: ExplanationSession | None = None
        # One thread per graph: serializes all session access without
        # blocking the event loop; distinct graphs run concurrently.
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"session-{name}"
        )
        self.pending = 0  # event-loop-thread only; no lock needed
        self.requests = 0  # admitted workload requests, lifetime
        self.last_active = time.monotonic()

    @property
    def session(self) -> ExplanationSession:
        if self._session is None:
            self._session = self._make_session(self.graph)
        return self._session

    def session_if_created(self) -> ExplanationSession | None:
        return self._session

    def close(self) -> None:
        self.executor.shutdown(wait=True, cancel_futures=True)
        if self._session is not None:
            self._session.close()


class ExplanationServer:
    """TCP front door serving explanation summaries for named graphs.

    ``graphs`` is either a single :class:`KnowledgeGraph` (hosted as
    ``"default"``) or a mapping of name -> graph. The remaining keyword
    configs are forwarded to every lazily created
    :class:`~repro.api.ExplanationSession`.

    Lifecycle: ``await start()`` binds the socket (``server.port`` is
    then live), ``await stop()`` closes connections and sessions.
    Synchronous callers use :class:`ServerThread`.
    """

    def __init__(
        self,
        graphs: KnowledgeGraph | Mapping[str, KnowledgeGraph],
        config: ServerConfig | None = None,
        *,
        engine: EngineConfig | None = None,
        cache: CacheConfig | None = None,
        parallel: ParallelConfig | None = None,
        scheduler: SchedulerConfig | None = None,
        default_method: str = "st",
        resilience: ResilienceConfig | None = None,
        faults: FaultPlan | None = None,
        loop_faults: FaultPlan | None = None,
        state_dir: str | os.PathLike | None = None,
        journal: JournalConfig | None = None,
        journal_faults: FaultPlan | None = None,
        store: ClosureStoreConfig | None = None,
        obs: ObservabilityConfig | None = None,
    ) -> None:
        if isinstance(graphs, KnowledgeGraph):
            graphs = {"default": graphs}
        graphs = dict(graphs)
        if not graphs:
            raise ValueError("server needs at least one graph to host")
        self.config = config if config is not None else ServerConfig()
        self._codec = get_codec(self.config.codec)
        self._obs = obs if obs is not None else ObservabilityConfig()
        # Deterministic chaos: `faults` rides into every hosted
        # session's worker envelopes; `loop_faults` is consulted by the
        # event loop itself, keyed on workload-request arrival ordinal
        # ("delay" stalls handling, "overload" forces a rejection,
        # "kill-server" hard-aborts the whole server mid-request);
        # `journal_faults` injures journal appends (torn-write /
        # truncated-journal), keyed on record ordinal.
        self._loop_faults = loop_faults
        self._workload_ordinal = 0
        # Durability: with a state_dir, each named graph recovers from
        # its snapshot + journal (replacing the passed seed wholesale —
        # the durable state is authoritative across restarts), and
        # every accepted mutation is journaled before it is acked.
        self._journals: dict[str, GraphJournal] = {}
        if state_dir is not None:
            root = Path(state_dir)
            for name in list(graphs):
                graph_journal = GraphJournal(
                    root / name, graphs[name], journal, faults=journal_faults
                )
                self._journals[name] = graph_journal
                graphs[name] = graph_journal.graph

        def make_session(graph: KnowledgeGraph) -> ExplanationSession:
            return ExplanationSession(
                graph,
                engine=engine,
                cache=cache,
                parallel=parallel,
                scheduler=scheduler,
                default_method=default_method,
                resilience=resilience,
                faults=faults,
                store=store,
                obs=obs,
            )

        self._hosts = {
            name: _SessionHost(name, graph, make_session)
            for name, graph in graphs.items()
        }
        self._server: asyncio.AbstractServer | None = None
        self._reaper: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._draining = False
        #: Open connections (handler task -> its writer), so ``stop()``
        #: can hang up on them and let each handler return on its own.
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._stop_requested = threading.Event()
        self._started_at: float | None = None
        self.port: int | None = None
        #: Served-request counters, for the ``stats`` RPC and tests.
        self.frames_in = 0
        self.frames_out = 0
        self.rejected = 0
        self.connections_now = 0
        self.connections_rejected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the idle reaper."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.pool_idle_ttl_seconds > 0:
            self._reaper = asyncio.create_task(self._reap_idle_pools())

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    @property
    def draining(self) -> bool:
        return self._draining

    def request_stop(self) -> None:
        """Begin draining; safe to call from a signal handler or any
        thread. New work is refused with typed ``shutting-down`` frames
        from this point on; the caller (or whoever awaits
        :meth:`wait_stop_requested`) then runs ``stop(drain=True)``."""
        self._draining = True
        self._stop_requested.set()
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    async def wait_stop_requested(self) -> None:
        """Block until :meth:`request_stop` fires (the CLI's idle wait)."""
        assert self._stop_event is not None, "call start() first"
        await self._stop_event.wait()

    async def stop(
        self, drain: bool = False, timeout: float | None = None
    ) -> bool:
        """Shut down; returns True if nothing in flight was abandoned.

        With ``drain=True``: stop admitting (every new request gets a
        typed ``shutting-down`` frame while the socket stays open),
        wait — up to ``timeout`` (default
        ``ServerConfig.drain_timeout_seconds``) — for in-flight
        dispatches to finish *and write their responses* (admission
        counters release only after the response frame is sent, so
        pending==0 means zero dropped results), flush the journals,
        then tear down. Without ``drain``, tear down immediately;
        whatever the journal already made durable stays durable.
        """
        drained = True
        if drain:
            self._draining = True
            budget = (
                timeout
                if timeout is not None
                else self.config.drain_timeout_seconds
            )
            deadline = time.monotonic() + budget
            while any(host.pending for host in self._hosts.values()):
                if time.monotonic() >= deadline:
                    drained = False
                    break
                await asyncio.sleep(0.02)
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._close_clients()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        for host in self._hosts.values():
            await loop.run_in_executor(None, host.close)
        for store in self._journals.values():
            store.close()  # flush to stable storage (idempotent)
        return drained

    async def _close_clients(self) -> None:
        """Hang up on every open connection and wait for its handler.

        Closing a transport ends its handler's pending frame read, so
        an idle handler returns normally. A handler left running when
        the event loop ends is cancelled instead, and asyncio.streams
        then logs an "Exception in callback ... CancelledError"
        traceback for it. A handler still computing is given a short
        grace period, not an unbounded wait.
        """
        handlers = list(self._clients)
        for writer in self._clients.values():
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=_CLIENT_CLOSE_GRACE_SECONDS)

    def _abort(self) -> None:
        """The in-process stand-in for ``kill -9``.

        Drops the listening socket and the journal handles *without
        flushing* — only what the fsync policy already made durable
        survives, exactly the guarantee a hard kill tests. Triggered by
        the ``kill-server`` loop fault; the hosting thread still calls
        ``stop()`` afterwards, which is idempotent over the wreckage.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None
        for store in self._journals.values():
            store.abort()

    async def _reap_idle_pools(self) -> None:
        """Release pooled resources of sessions idle past the TTL."""
        ttl = self.config.pool_idle_ttl_seconds
        while True:
            await asyncio.sleep(self.config.reap_interval_seconds)
            now = time.monotonic()
            loop = asyncio.get_running_loop()
            for host in self._hosts.values():
                session = host.session_if_created()
                if (
                    session is None
                    or host.pending
                    or now - host.last_active < ttl
                ):
                    continue
                if session._steal_pool is None and session._export is None:
                    continue  # nothing pooled to release
                # On the session thread: serialized behind any work
                # admitted between this check and the call.
                await loop.run_in_executor(
                    host.executor, session.release_pool
                )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        bound = self.config.max_frame_bytes
        limit = self.config.max_connections
        idle = self.config.idle_timeout_seconds
        admitted = not limit or self.connections_now < limit
        if admitted:
            self.connections_now += 1
        handler = asyncio.current_task()
        self._clients[handler] = writer
        try:
            if not admitted:
                # One typed frame telling the peer why, then hang up —
                # the bound protects the connections already admitted.
                self.connections_rejected += 1
                await self._send(
                    writer,
                    protocol.error_frame(
                        "too-many-connections",
                        f"server at its {limit}-connection bound; "
                        "retry later",
                        retry_after_ms=self.config.retry_after_ms,
                    ),
                )
                return
            while True:
                try:
                    read = read_frame_async(reader, bound)
                    if idle > 0:
                        # A connection that sends nothing for this long
                        # is hung up on (TimeoutError -> outer except).
                        payload = await asyncio.wait_for(read, idle)
                    else:
                        payload = await read
                except FrameTooLarge as error:
                    # Tell the peer why, then hang up: the oversized
                    # payload is still in flight and unskippable.
                    await self._send(
                        writer,
                        protocol.error_frame("frame-too-large", str(error)),
                    )
                    return
                except (ConnectionClosed, TruncatedFrame):
                    return
                self.frames_in += 1
                await self._dispatch(writer, payload)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # peer vanished / went mute mid-exchange
        finally:
            self._clients.pop(handler, None)
            if admitted:
                self.connections_now -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                # Server stop may cancel this handler while it drains
                # the close; the connection is already down, and
                # letting the cancellation escape here only produces
                # "Exception in callback" noise from asyncio.streams.
                asyncio.CancelledError,
            ):
                pass

    async def _send(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        write = write_frame_async(
            writer, self._codec.encode(frame), self.config.max_frame_bytes
        )
        if self.config.write_timeout_seconds > 0:
            # A peer too slow to drain its responses must not pin
            # server buffers; TimeoutError closes the connection.
            await asyncio.wait_for(write, self.config.write_timeout_seconds)
        else:
            await write
        self.frames_out += 1

    async def _dispatch(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        """Decode one request frame and answer it (errors included)."""
        try:
            try:
                data = self._codec.decode(payload)
            except ValueError as error:
                raise protocol.ProtocolError(
                    "bad-frame", f"undecodable frame ({error})"
                ) from None
            kind, frame = protocol.open_envelope(data)
            handler = getattr(self, f"_op_{kind.replace('-', '_')}", None)
            if handler is None:
                raise protocol.ProtocolError(
                    "bad-request", f"unknown request kind {kind!r}"
                )
            await handler(writer, frame)
        except protocol.ProtocolError as error:
            await self._send(
                writer,
                protocol.error_frame(
                    error.code, str(error), **getattr(error, "extra", {})
                ),
            )

    def _host_for(self, frame: dict) -> _SessionHost:
        name = frame.get("graph", "default")
        host = self._hosts.get(name)
        if host is None:
            raise protocol.ProtocolError(
                "unknown-graph",
                f"no graph named {name!r}; hosted: "
                f"{sorted(self._hosts)}",
            )
        return host

    def _admit(self, host: _SessionHost) -> None:
        """Admission control: typed refusal when draining or full."""
        if self._draining:
            self.rejected += 1
            raise protocol.ProtocolError(
                "shutting-down",
                "server is draining and no longer admits work; retry "
                "against another replica or after it restarts",
                retry_after_ms=self.config.retry_after_ms,
            )
        if host.pending >= self.config.max_pending:
            self.rejected += 1
            raise protocol.ProtocolError(
                "overloaded",
                f"graph {host.name!r} has {host.pending} pending "
                f"request(s) (bound {self.config.max_pending}); retry "
                "with backoff",
                retry_after_ms=self.config.retry_after_ms,
            )
        host.pending += 1
        host.requests += 1
        host.last_active = time.monotonic()

    async def _inject_loop_fault(self, host: _SessionHost) -> None:
        """Apply the fault plan directive for this workload request.

        Consulted by the workload ops (explain/run/stream) only, keyed
        on arrival ordinal: "delay" stalls handling on the event loop
        (what makes client deadlines testable without timing luck),
        "overload" forces an admission rejection regardless of queue
        depth (what makes client backoff testable), "kill-server"
        hard-aborts the whole server mid-batch — the deterministic
        stand-in for ``kill -9`` that pins journal recovery in tests.
        Other kinds are worker-side and ignored here.
        """
        if self._loop_faults is None:
            return
        ordinal = self._workload_ordinal
        self._workload_ordinal += 1
        fault = self._loop_faults.for_request(ordinal)
        if fault is None:
            return
        if fault.kind == "delay":
            await asyncio.sleep(fault.seconds)
        elif fault.kind == "overload":
            self.rejected += 1
            raise protocol.ProtocolError(
                "overloaded",
                f"graph {host.name!r} rejected request {ordinal} by "
                "fault plan; retry with backoff",
                retry_after_ms=self.config.retry_after_ms,
            )
        elif fault.kind == "kill-server":
            self._abort()
            # No farewell frame — a killed process sends none; the
            # reset propagates to _handle_client, which hangs up.
            raise ConnectionResetError(
                f"server killed by fault plan at request {ordinal}"
            )

    @staticmethod
    def _deadline_from(frame: dict) -> float | None:
        """Absolute monotonic expiry from an optional ``deadline_ms``.

        The field is optional (absent = no deadline), so adding it did
        not bump :data:`~repro.api.protocol.PROTOCOL_VERSION`; servers
        that predate it simply never enforce one.
        """
        value = frame.get("deadline_ms")
        if value is None:
            return None
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or value < 0
        ):
            raise protocol.ProtocolError(
                "bad-request", "'deadline_ms' must be a non-negative number"
            )
        return time.monotonic() + value / 1000.0

    @staticmethod
    def _trace_id_from(frame: dict) -> str | None:
        """Optional client-stamped ``trace_id`` — same optional-field
        contract as ``deadline_ms``, so no protocol-version bump:
        servers that predate it simply ignore the field, and the
        session mints its own id when tracing is on."""
        value = frame.get("trace_id")
        if value is None:
            return None
        if not isinstance(value, str) or not value:
            raise protocol.ProtocolError(
                "bad-request",
                "'trace_id' must be a non-empty string when present",
            )
        return value

    @staticmethod
    def _check_deadline(expires: float | None) -> None:
        """Drop expired work; runs where the work *starts* (session
        thread), so requests that aged out while queued behind a busy
        session are rejected instead of computed for nobody."""
        if expires is not None and time.monotonic() > expires:
            raise protocol.ProtocolError(
                "deadline-exceeded",
                "client deadline expired before the request started; "
                "dropped without computing",
            )

    def _release(self, host: _SessionHost) -> None:
        host.pending -= 1
        host.last_active = time.monotonic()

    async def _run_on_session(self, host: _SessionHost, fn, *args):
        """Run blocking session work on the host's thread; map errors."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(host.executor, fn, *args)
        except protocol.ProtocolError:
            raise
        except (ValueError, KeyError, TypeError) as error:
            raise protocol.ProtocolError(
                "task-error", f"{type(error).__name__}: {error}"
            ) from error
        except Exception as error:  # pool/shm infrastructure failures
            raise protocol.ProtocolError(
                "internal", f"{type(error).__name__}: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Request handlers (one per envelope kind)
    # ------------------------------------------------------------------
    async def _op_ping(self, writer, frame) -> None:
        await self._send(
            writer, protocol.envelope("pong", {"graphs": sorted(self._hosts)})
        )

    async def _op_methods(self, writer, frame) -> None:
        await self._send(
            writer,
            protocol.envelope(
                "methods", {"methods": list(available_methods())}
            ),
        )

    async def _op_stats(self, writer, frame) -> None:
        host = self._host_for(frame)
        session = host.session_if_created()
        stats = {}
        store_stats = None
        if session is not None:
            stats = session.stats.to_dict()
            store_stats = session.store_stats()
        await self._send(
            writer,
            protocol.envelope(
                "stats",
                {
                    "graph": host.name,
                    "session": stats,
                    # Live shared-closure-store counters (None when the
                    # store is off or not yet created for this version).
                    "store": store_stats,
                    "pending": host.pending,
                    "requests": host.requests,
                    "uptime_seconds": (
                        time.monotonic() - self._started_at
                        if self._started_at is not None
                        else 0.0
                    ),
                    "server": {
                        "frames_in": self.frames_in,
                        "frames_out": self.frames_out,
                        "rejected": self.rejected,
                        "requests": {
                            name: h.requests
                            for name, h in sorted(self._hosts.items())
                        },
                    },
                },
            ),
        )

    async def _op_explain(self, writer, frame) -> None:
        host = self._host_for(frame)
        request = protocol.request_from_json(
            protocol._expect(frame, "request", dict, "explain")
        )
        expires = self._deadline_from(frame)
        trace_id = self._trace_id_from(frame)
        await self._inject_loop_fault(host)
        self._admit(host)
        admitted = time.monotonic()

        def work():
            self._check_deadline(expires)
            wait = time.monotonic() - admitted
            if self._obs.metrics:
                _QUEUE_WAIT_SECONDS.observe(wait)
            return host.session.explain(
                request, trace_id=trace_id, queue_wait_seconds=wait
            )

        # Release only after the response frame is written: draining
        # waits on pending==0, which must cover the write, so a drain
        # never cuts a connection between compute and response.
        try:
            explanation = await self._run_on_session(host, work)
            await self._send(
                writer,
                protocol.envelope(
                    "explanation",
                    {
                        "explanation": protocol.explanation_to_json(
                            explanation
                        )
                    },
                ),
            )
        finally:
            self._release(host)

    async def _op_run(self, writer, frame) -> None:
        host = self._host_for(frame)
        requests = self._decode_requests(frame, "run")
        expires = self._deadline_from(frame)
        trace_id = self._trace_id_from(frame)
        await self._inject_loop_fault(host)
        self._admit(host)
        admitted = time.monotonic()

        def work():
            self._check_deadline(expires)
            wait = time.monotonic() - admitted
            if self._obs.metrics:
                _QUEUE_WAIT_SECONDS.observe(wait)
            return host.session.run(
                requests, trace_id=trace_id, queue_wait_seconds=wait
            )

        try:
            report = await self._run_on_session(host, work)
            await self._send(
                writer,
                protocol.envelope(
                    "report", {"report": protocol.report_to_json(report)}
                ),
            )
        finally:
            self._release(host)

    async def _op_stream(self, writer, frame) -> None:
        """Frame each result the moment the scheduler yields it."""
        host = self._host_for(frame)
        requests = self._decode_requests(frame, "stream")
        expires = self._deadline_from(frame)
        trace_id = self._trace_id_from(frame)
        await self._inject_loop_fault(host)
        self._admit(host)
        admitted = time.monotonic()
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        done = object()

        def pump() -> None:
            # Session thread: drive the stream, hand each result to the
            # event loop as soon as the scheduler yields it.
            try:
                self._check_deadline(expires)
                wait = time.monotonic() - admitted
                if self._obs.metrics:
                    _QUEUE_WAIT_SECONDS.observe(wait)
                for result in host.session.stream(
                    requests, trace_id=trace_id, queue_wait_seconds=wait
                ):
                    loop.call_soon_threadsafe(queue.put_nowait, result)
                loop.call_soon_threadsafe(queue.put_nowait, done)
            except BaseException as error:  # delivered, not swallowed
                loop.call_soon_threadsafe(queue.put_nowait, error)

        future = loop.run_in_executor(host.executor, pump)
        count = 0
        try:
            while True:
                item = await queue.get()
                if item is done:
                    break
                if isinstance(item, protocol.ProtocolError):
                    raise item  # keep the typed code (deadline-exceeded)
                if isinstance(item, BaseException):
                    raise protocol.ProtocolError(
                        "task-error", f"{type(item).__name__}: {item}"
                    )
                await self._send(
                    writer,
                    protocol.envelope(
                        "result", {"result": protocol.result_to_json(item)}
                    ),
                )
                count += 1
            # End frame before releasing: a drain that begins mid-
            # stream holds the server open until every result AND the
            # terminator reach the client — zero dropped results.
            await self._send(
                writer, protocol.envelope("end", {"count": count})
            )
        finally:
            await asyncio.wait([future])
            self._release(host)

    async def _op_mutate(self, writer, frame) -> None:
        """Apply graph edits, serialized against in-flight session work.

        With a ``state_dir``, the validated op batch is journaled —
        durably, per the fsync policy — *before* it is applied, and
        applied before it is acknowledged. A crash after the journal
        write but before the ack replays the ops on restart while the
        client (which never saw an ack) retries: both sides converge.
        """
        host = self._host_for(frame)
        ops = protocol._expect(frame, "ops", list, "mutate")
        plan = []
        canon = []
        for op in ops:
            name = protocol._expect(op, "op", str, "mutate op")
            if name not in MUTATION_OPS:
                raise protocol.ProtocolError(
                    "bad-request",
                    f"unknown mutation op {name!r}; supported: "
                    f"{sorted(MUTATION_OPS)}",
                )
            args = op.get("args", [])
            if not isinstance(args, list):
                raise protocol.ProtocolError(
                    "bad-request", "mutate op 'args' must be a list"
                )
            plan.append((MUTATION_OPS[name], args))
            canon.append({"op": name, "args": args})
        self._admit(host)
        store = self._journals.get(host.name)

        def apply() -> int:
            if store is not None:
                store.record(canon)  # write-ahead: journal, THEN apply
            for method, args in plan:
                getattr(host.graph, method)(*args)
            if store is not None:
                store.maybe_compact()
            return host.graph.version

        try:
            version = await self._run_on_session(host, apply)
            await self._send(
                writer,
                protocol.envelope(
                    "ok", {"graph": host.name, "version": version}
                ),
            )
        finally:
            self._release(host)

    async def _op_release(self, writer, frame) -> None:
        """Drop a session's pooled resources now (client-driven shrink)."""
        host = self._host_for(frame)
        session = host.session_if_created()
        if session is not None:
            self._admit(host)
            try:
                await self._run_on_session(host, session.release_pool)
                await self._send(
                    writer, protocol.envelope("ok", {"graph": host.name})
                )
            finally:
                self._release(host)
        else:
            await self._send(
                writer, protocol.envelope("ok", {"graph": host.name})
            )

    async def _op_compact(self, writer, frame) -> None:
        """Fold a graph's journal into a fresh snapshot on demand."""
        host = self._host_for(frame)
        store = self._journals.get(host.name)
        if store is None:
            raise protocol.ProtocolError(
                "bad-request",
                f"graph {host.name!r} has no state_dir; nothing to "
                "compact",
            )
        self._admit(host)

        def work() -> dict:
            store.compact()
            return store.stats()

        try:
            stats = await self._run_on_session(host, work)
            await self._send(
                writer,
                protocol.envelope("ok", {"graph": host.name, **stats}),
            )
        finally:
            self._release(host)

    async def _op_health(self, writer, frame) -> None:
        """Liveness/readiness/draining + per-graph depth and counters.

        Never admission-gated: a draining or saturated server must
        still answer its load balancer. ``ready`` is the routable bit
        (False the moment draining starts); ``live`` distinguishes
        "answering at all" from ready.
        """
        graphs = {}
        for name, host in self._hosts.items():
            info: dict = {
                "pending": host.pending,
                "version": host.graph.version,
            }
            session = host.session_if_created()
            if session is not None:
                info["resilience"] = {
                    "worker_deaths": session.stats.worker_deaths,
                    "task_retries": session.stats.task_retries,
                    "task_timeouts": session.stats.task_timeouts,
                    "local_fallbacks": session.stats.local_fallbacks,
                }
                closure_store = session.store_stats()
                if closure_store is not None:
                    info["store"] = closure_store
            store = self._journals.get(name)
            if store is not None:
                info["journal"] = store.stats()
            graphs[name] = info
        await self._send(
            writer,
            protocol.envelope(
                "health",
                {
                    "status": "draining" if self._draining else "ok",
                    "live": True,
                    "ready": not self._draining,
                    "draining": self._draining,
                    "durable": bool(self._journals),
                    "connections": self.connections_now,
                    # Registry liveness only — family count and config
                    # bits, never a render or graph-lock acquisition, so
                    # health stays cheap under load.
                    "metrics": {
                        "enabled": self._obs.metrics,
                        "tracing": self._obs.trace,
                        "families": get_registry().family_count(),
                    },
                    "graphs": graphs,
                },
            ),
        )

    async def _op_trace(self, writer, frame) -> None:
        """Fetch one finished request trace (by id, or the latest).

        Never admission-gated: the collector is a small ring buffer
        behind its own lock, so reading it does not contend with the
        session thread. ``trace`` is None when tracing is off, the
        session has served nothing yet, or the id has been evicted.
        """
        host = self._host_for(frame)
        trace_id = self._trace_id_from(frame)
        session = host.session_if_created()
        trace = None
        if session is not None:
            trace = (
                session.get_trace(trace_id)
                if trace_id is not None
                else session.last_trace()
            )
        await self._send(
            writer,
            protocol.envelope(
                "trace", {"graph": host.name, "trace": trace}
            ),
        )

    async def _op_metrics(self, writer, frame) -> None:
        """Prometheus text exposition of every process-wide family.

        The process-wide registry renders first (task/batch latency
        histograms, journal counters, queue-wait); per-session lifetime
        counters follow as render-time views built from
        ``SessionStats.to_dict()`` — views, not registered families, so
        session counters are never double-counted and sessions that die
        leave no stale registrations behind.
        """
        parts = [get_registry().render()]
        samples = []
        for name, host in sorted(self._hosts.items()):
            session = host.session_if_created()
            if session is None:
                continue
            for counter, value in session.stats.to_dict().items():
                samples.append(
                    ({"graph": name, "counter": counter}, value)
                )
        if samples:
            parts.append(
                render_simple(
                    "repro_session_counter",
                    "gauge",
                    "Lifetime session counters "
                    "(SessionStats.to_dict view)",
                    samples,
                )
            )
        parts.append(
            render_simple(
                "repro_server_requests_total",
                "counter",
                "Workload requests admitted per hosted graph",
                [
                    ({"graph": name}, host.requests)
                    for name, host in sorted(self._hosts.items())
                ],
            )
        )
        await self._send(
            writer,
            protocol.envelope("metrics", {"text": "".join(parts)}),
        )

    @staticmethod
    def _decode_requests(frame: dict, what: str):
        items = protocol._expect(frame, "requests", list, what)
        return [protocol.request_from_json(item) for item in items]


class ServerThread:
    """Run an :class:`ExplanationServer` on a background event loop.

    For tests, the demo and the bench harness: construction blocks
    until the socket is bound (``.port`` is live), ``stop()`` shuts
    the server and the loop down. Usable as a context manager.
    """

    def __init__(self, server: ExplanationServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="explanation-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as error:
                self._startup_error = error
                raise
            finally:
                self._started.set()

        try:
            self._loop.run_until_complete(main())
            self._loop.run_forever()
        except BaseException:
            pass
        finally:
            # Drain whatever the stop left behind (half-closed
            # transports, cancelled handlers) so closing the loop
            # doesn't strand callbacks that would warn at GC time.
            try:
                pending = asyncio.all_tasks(self._loop)
                for task in pending:
                    task.cancel()
                if pending:
                    self._loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                self._loop.run_until_complete(
                    self._loop.shutdown_asyncgens()
                )
            except BaseException:
                pass
            self._loop.close()

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def request_stop(self) -> None:
        """Flip the server into draining without tearing it down."""
        self.server.request_stop()

    def stop(self, drain: bool = False, timeout: float | None = None) -> None:
        if self._loop.is_closed():
            return

        async def shutdown() -> None:
            await self.server.stop(drain=drain, timeout=timeout)
            self._loop.stop()

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            # A silent timeout here would leak the loop thread (and
            # every session it owns) while the caller believes the
            # server is down; fail loudly instead.
            raise RuntimeError(
                "server loop thread did not exit within 30s of stop(); "
                "the event loop (and its sessions) are still running"
            )

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

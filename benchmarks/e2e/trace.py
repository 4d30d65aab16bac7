"""Span tracing for the traced benchmark run.

:class:`Tracer` wraps the public methods of the objects a workload builds
-- controllers, estimators, feeds, links, the gateway and its placement
policy, the wire codec, the decision digest, the client and the cluster
supervisor -- and records one span per call: ``(name, start_ns, end_ns,
parent, request)``.  Spans live in flat in-memory arrays and are written
out only when the run ends.  The parent link and the request id travel
in context variables, so spans nest correctly across ``await`` points.

Wrappers are installed on the *classes* of the objects found in a probe
gateway, before the gateway under test is built: links cache some bound
methods at construction, and a class-level wrapper is what those cached
methods resolve to.  Installing wrappers changes no argument and no
return value; ``enabled`` switches recording on and off without
reinstalling.
"""

from __future__ import annotations

import contextvars
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

#: Public methods wrapped, per role of an object the benchmark builds.
GATEWAY_METHODS = ("admit", "admit_many", "depart", "depart_many", "tick",
                   "install")
PLACEMENT_METHODS = ("choose", "choose_batch")
LINK_METHODS = ("admit", "admit_many", "depart", "depart_many", "tick",
                "install")
FEED_METHODS = ("measure", "measure_classified", "staleness")
ESTIMATOR_METHODS = ("advance", "observe", "observe_classified", "estimate",
                     "estimate_or_none", "class_estimate")
CONTROLLER_METHODS = ("target_count", "target_count_batch")
CLIENT_METHODS = ("call", "admit", "admit_many", "depart", "depart_many")
CLUSTER_METHODS = ("admit", "depart")

_V2_MAGIC = 0xB2
_LENGTH_PREFIX = 4


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its prefix before ``:``)."""
    return name.split(":", 1)[0]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    ``parent[i]`` is the index of span ``i``'s parent or ``-1``.  Child
    intervals are clipped to the parent and their union is taken, so
    children that overlap one another (concurrent awaits) are counted
    once.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = (end - start).astype(np.float64)
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return own
    p = parent[child]
    s = np.maximum(start[child], start[p])
    e = np.maximum(np.minimum(end[child], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    first = np.ones(len(p), dtype=bool)
    first[1:] = p[1:] != p[:-1]
    group = np.cumsum(first) - 1
    # Running max of child ends within each parent: offsetting every
    # group above all earlier ones makes one global accumulate reset at
    # each group boundary.
    base = int(s.min())
    width = int(e.max()) - base + 1
    offset = group * width
    running = np.maximum.accumulate((e - base) + offset) - offset + base
    previous = np.empty_like(running)
    previous[0] = base
    previous[1:] = running[:-1]
    previous[first] = base
    covered = np.maximum(0, e - np.maximum(s, previous))
    return own - np.bincount(p, weights=covered, minlength=len(own))


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``clock`` times the spans: the wall clock by default, which async
    spans need; a process whose spans are all synchronous may pass
    ``time.process_time_ns`` so that preemption does not count as work.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        #: Units of work per span name (decisions for admit calls).
        self.units: dict[str, int] = defaultdict(int)
        #: Named counts taken at span sites (wire bytes, JSON frames).
        self.tally: dict[str, int] = defaultdict(int)
        self.current = contextvars.ContextVar("e2e_span", default=-1)
        self.request_id = contextvars.ContextVar("e2e_request", default=-1)
        self._patched: list[tuple[object, str, bool, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def reset(self) -> None:
        """Drop every recorded span (call only with no span open)."""
        for column in (self.start, self.end, self.parent, self.name,
                       self.request):
            del column[:]
        self.units.clear()
        self.tally.clear()

    def _open(self, name_id: int) -> tuple[int, contextvars.Token]:
        index = len(self.start)
        self.parent.append(self.current.get())
        self.name.append(name_id)
        self.request.append(self.request_id.get())
        self.end.append(0)
        token = self.current.set(index)
        self.start.append(self.clock())
        return index, token

    def _close(self, index: int, token: contextvars.Token) -> None:
        self.end[index] = self.clock()
        self.current.reset(token)

    def span(self, name: str, request: int = -1):
        """Context manager recording one span around a block of bench code.

        ``request`` tags the span and everything under it with a request id.
        """
        return _Span(self, self._name_id(name), request)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, *, on_result=None):
        """A sync wrapper recording a span per call of ``fn``."""
        name_id = self._name_id(name)
        units = self.units

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index, token = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, token)
            units[name] += len(result) if type(result) is list else 1
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper._e2e_span = True
        return wrapper

    def wrap_async(self, fn, name: str):
        """An async wrapper recording a span per awaited call of ``fn``."""
        name_id = self._name_id(name)
        units = self.units

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.enabled:
                return await fn(*args, **kwargs)
            index, token = self._open(name_id)
            try:
                result = await fn(*args, **kwargs)
            finally:
                self._close(index, token)
            units[name] += len(result) if type(result) is list else 1
            return result

        wrapper._e2e_span = True
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._patched.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def _patch_methods(self, cls, layer: str, methods, *, is_async=False):
        for method in methods:
            fn = getattr(cls, method, None)
            # Skip absent methods and ones already wrapped here or on a
            # base class, so no call records two spans.
            if fn is None or getattr(fn, "_e2e_span", False):
                continue
            name = f"{layer}:{cls.__name__}.{method}"
            wrapped = (self.wrap_async(fn, name) if is_async
                       else self.wrap(fn, name))
            self._patch(cls, method, wrapped)

    def instrument_gateway(self, probe) -> None:
        """Wrap the classes of every object inside the gateway ``probe``.

        Build the gateway under test *after* this call.
        """
        self._patch_methods(type(probe), "runtime.gateway", GATEWAY_METHODS)
        self._patch_methods(type(probe.placement), "runtime.gateway",
                            PLACEMENT_METHODS)
        for link in probe.links:
            self._patch_methods(type(link), "runtime.link", LINK_METHODS)
            self._patch_methods(type(link.feed), "runtime.feed", FEED_METHODS)
            self._patch_methods(type(link.estimator), "core.estimators",
                                ESTIMATOR_METHODS)
            controllers = [link.controller, link.conservative_controller]
            bank = link.class_bank
            if bank is not None:
                for class_id in bank.class_ids():
                    controllers.append(bank.controller(class_id))
                    controllers.append(
                        bank.controller(class_id, conservative=True)
                    )
            for controller in controllers:
                self._patch_methods(type(controller), "core.controllers",
                                    CONTROLLER_METHODS)

    def instrument_server_module(self) -> None:
        """Wrap the server's response encoder and decision digest."""
        from repro.service import server

        self._patch(server, "encode_response", self.wrap(
            server.encode_response, "service.protocol:encode_response",
            on_result=self._count_encoded,
        ))
        self._patch(server, "digest_record", self.wrap(
            server.digest_record, "service.server:digest_record"
        ))
        self._instrument_decoder()

    def instrument_client(self) -> None:
        """Wrap the client's calls and its request encoder."""
        from repro.service import client

        self._patch_methods(client.AsyncAdmissionClient, "service.client",
                            CLIENT_METHODS, is_async=True)
        self._patch(client, "encode_request", self.wrap(
            client.encode_request, "service.protocol:encode_request",
            on_result=self._count_encoded,
        ))
        self._instrument_decoder()

    def instrument_cluster(self) -> None:
        """Wrap the cluster supervisor's routed calls."""
        from repro.service.replication import ProcessCluster

        self._patch_methods(ProcessCluster, "service.replication",
                            CLUSTER_METHODS, is_async=True)

    def _instrument_decoder(self) -> None:
        from repro.service import protocol

        if any(owner is protocol for owner, _, _, _ in self._patched):
            return
        self._patch(protocol, "decode_frame_body", self.wrap(
            protocol.decode_frame_body, "service.protocol:decode_frame_body",
            on_result=self._count_decoded,
        ))

    def _count_encoded(self, args, frame) -> None:
        self.tally["protocol.bytes"] += len(frame)
        if frame[_LENGTH_PREFIX] != _V2_MAGIC:
            self.tally["protocol.json_frames"] += 1

    def _count_decoded(self, args, payload) -> None:
        if args[0][0] != _V2_MAGIC:
            self.tally["protocol.json_frames"] += 1

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, had_own, old in reversed(self._patched):
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, units, total and self nanoseconds."""
        if not len(self.start):
            return {}
        names = np.frombuffer(self.name, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        own = self_times(start, end, np.frombuffer(self.parent, np.int64))
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=end - start,
                            minlength=len(self.names))
        self_ns = np.bincount(names, weights=own, minlength=len(self.names))
        return {
            name: {
                "calls": int(calls[i]),
                "units": int(self.units.get(name, 0)),
                "total_ns": float(total[i]),
                "self_ns": float(self_ns[i]),
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def outer_durations_ns(self, layer: str, since_ns: int = 0) -> np.ndarray:
        """Durations of a layer's outermost spans started at ``since_ns`` or later.

        A span is outermost in its layer when its parent is not a span
        of the same layer.
        """
        if not len(self.start):
            return np.empty(0)
        ids = [i for i, n in enumerate(self.names) if layer_of(n) == layer]
        names = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        nested = (parent >= 0) & np.isin(names[np.maximum(parent, 0)], ids)
        keep = np.isin(names, ids) & (start >= since_ns) & ~nested
        return (end - start)[keep]

    def write(self, path) -> None:
        """Write every span to ``path`` (``numpy`` ``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
        )


class _Span:
    __slots__ = ("tracer", "name_id", "request", "index", "token",
                 "request_token")

    def __init__(self, tracer: Tracer, name_id: int, request: int) -> None:
        self.tracer = tracer
        self.name_id = name_id
        self.request = request

    def __enter__(self):
        tracer = self.tracer
        self.request_token = tracer.request_id.set(self.request)
        if tracer.enabled:
            self.index, self.token = tracer._open(self.name_id)
        else:
            self.token = None
        return self

    def __exit__(self, *exc) -> None:
        if self.token is not None:
            self.tracer._close(self.index, self.token)
        self.tracer.request_id.reset(self.request_token)


def merge_totals(*parts: dict) -> dict[str, dict]:
    """Sum per-name totals from several processes."""
    merged: dict[str, dict] = {}
    for part in parts:
        for name, row in part.items():
            into = merged.setdefault(
                name, {"calls": 0, "units": 0, "total_ns": 0.0, "self_ns": 0.0}
            )
            for key in into:
                into[key] += row[key]
    return merged

"""In-memory span tracing of the ``repro`` layers, installed from outside.

:class:`Tracer` wraps the public functions and methods of every layer
package, plus the few private entry points in :data:`EXTRA_TARGETS`, so
a call that enters a layer opens a span: name, layer, start, end,
parent span and -- on the invocation layer's ``multicast``/``deliver``
-- the operation's ``message_key``, which child spans inherit.  Calls
that stay inside the layer of the innermost open span add no span
(their time is that layer's either way), except the counted functions.

The simulation kernel (the ``sim`` layer) and the live clock run other
layers' code as callbacks: events, timers, CPU jobs, thread-pool grants.
Every callable handed to a ``sim`` function or to a clock's
``schedule`` is wrapped in a span of the callable's own layer, so the
kernel and the clock keep only their own bookkeeping.

Self time is a span's duration minus the part of it its child spans
cover.  Layer self times plus ``other`` -- the time no layer span
covers -- add up to the traced wall time (:meth:`Tracer.account`).

Nothing here runs until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores every patched attribute, and :func:`installed_wrappers` lists
any wrapper still in place.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
import typing

#: ``repro`` sub-package -> layer it is charged to.  The FS-NewTOP
#: wrapper plumbing belongs with the fail-signal core.  Packages not
#: listed (workloads, experiments, analysis, perf caches) are glue: their
#: time lands in the caller's span, or in ``other`` when nothing covers it.
PACKAGE_LAYER = {
    "sim": "sim",
    "crypto": "crypto",
    "net": "net",
    "corba": "corba",
    "newtop": "newtop",
    "core": "core",
    "fsnewtop": "core",
    "shard": "shard",
    "service": "service",
    "transport": "transport",
    "app": "app",
    "invariants": "invariants",
    "obs": "obs",
    "adversary": "adversary",
}

LAYERS = tuple(dict.fromkeys(PACKAGE_LAYER.values()))

#: Pseudo-layers: ``other`` is time no layer span covers (benchmark and
#: workload glue); ``idle`` is a live event loop blocked in ``select``.
OTHER = "other"
IDLE = "idle"

#: The layer whose functions take other layers' code as callbacks.
KERNEL = "sim"

#: Outside the kernel, the methods that take callbacks: the live clock's.
CALLBACK_TAKERS = frozenset(
    ("repro.transport.aio", "AsyncioClock", attr) for attr in ("schedule", "schedule_at")
)

#: Private functions that are layer entry points: called by the event
#: loop or from a listener list rather than by name.
EXTRA_TARGETS = (
    ("repro.transport.aio", "AsyncioClock", "_fire_due"),
    ("repro.transport.aio", "AsyncioNetwork", "_deliver"),
    ("repro.invariants.monitor", "InvariantMonitor", "_observe"),
)

#: Public functions left unwrapped: a live clock's ``run`` spans the
#: loop's idle waiting, which the ``idle`` pseudo-layer accounts for.
SKIP_TARGETS = frozenset({("repro.transport.aio", "AsyncioClock", "run")})

#: Functions whose calls are counted, by counter name, and whether the
#: ``len`` of the result is summed as bytes.  Recursive calls count once.
COUNTED = {
    ("repro.crypto.canonical", None, "canonical_encode"): ("crypto.encode", True),
    ("repro.crypto.binwire", None, "binwire_encode"): ("crypto.encode", True),
    ("repro.net.message", None, "wire_size"): ("net.wire_size", False),
    ("repro.corba.orb", "Orb", "invoke"): ("corba.invocations", False),
    ("repro.corba.orb", "Orb", "oneway"): ("corba.invocations", False),
    ("repro.transport.wire", None, "frame"): ("transport.frames", True),
    ("repro.shard.barrier", "ShardBarrierAgent", "handle"): ("shard.barrier_ops", False),
    ("repro.invariants.monitor", "InvariantMonitor", "_observe"): (
        "invariants.records",
        False,
    ),
}

#: Scheme methods doing real signing work, counted on every subclass of
#: :class:`repro.crypto.signing.SignatureScheme` that defines them.
SCHEME_COUNTED = {"sign": "crypto.signs", "verify": "crypto.verifies"}

#: Counters whose inclusive time (outermost calls only) is kept.
TIMED_COUNTERS = frozenset({"net.wire_size"})

#: Raw spans kept per run (the aggregates cover every span).
SPAN_CAP = 100_000

#: Callables the kernel wrapper re-wraps: plain functions and closures,
#: bound methods and partials.
_CALLBACK_TYPES = (types.FunctionType, types.MethodType, functools.partial)


def layer_of_module(module: str | None) -> str | None:
    """The layer a ``repro`` module belongs to, ``None`` for glue."""
    if not module or not module.startswith("repro."):
        return None
    return PACKAGE_LAYER.get(module.split(".")[1])


class _Frame:
    __slots__ = ("span_id", "layer", "name", "start", "child_ns", "op")

    def __init__(self, span_id: int, layer: str, name: str, op: str | None) -> None:
        self.span_id = span_id
        self.layer = layer
        self.name = name
        self.start = 0
        self.child_ns = 0
        self.op = op


class Tracer:
    """Span recorder over monkey-patched layer entry points.

    The aggregates (self time per layer, counters, inclusive times)
    cover every span; the first :data:`SPAN_CAP` raw spans are kept in
    memory for the caller to write out when the run ends.  ``clock``
    returns nanoseconds (a parameter so tests can drive it).
    """

    def __init__(self, clock: typing.Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.self_ns: dict[str, int] = {}
        self.top_ns = 0
        self.calls: dict[str, int] = {}
        self.nbytes: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.timer_slack_ms: list[float] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.clocks: dict[int, typing.Any] = {}
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches: list[tuple[typing.Any, str, typing.Any]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _open(self, layer: str, name: str, op: str | None) -> _Frame:
        stack = self._stack
        if op is None and stack:
            op = stack[-1].op
        self._next_id += 1
        frame = _Frame(self._next_id, layer, name, op)
        stack.append(frame)
        frame.start = self.clock()
        return frame

    def _close(self, frame: _Frame) -> int:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        layer = frame.layer
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - frame.child_ns
        if stack:
            parent = stack[-1]
            parent.child_ns += duration
            parent_id = parent.span_id
        else:
            self.top_ns += duration
            parent_id = None
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame.span_id, frame.name, layer, frame.start, end, parent_id, frame.op)
            )
        else:
            self.spans_dropped += 1
        return duration

    def account(self, wall_ns: int) -> dict[str, int]:
        """Self nanoseconds per layer plus ``other`` for ``wall_ns`` of
        traced wall time; the values sum to ``wall_ns``."""
        out = dict(self.self_ns)
        out[OTHER] = out.get(OTHER, 0) + (wall_ns - self.top_ns)
        return out

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn, layer: str, name: str, counter=None, before=None, callbacks=None):
        """``fn`` inside a span of ``layer``.

        ``counter`` is a ``(key, count_bytes)`` pair from :data:`COUNTED`;
        ``before(args)`` runs ahead of each call and may return the
        operation id the span carries; ``callbacks`` (default: whether
        ``layer`` is the kernel) wraps callable arguments in spans of
        their own layer.
        """
        tracer = self
        stack = self._stack
        key, count_bytes = counter if counter is not None else (None, False)
        timed = key in TIMED_COUNTERS
        always = key is not None or before is not None
        if callbacks is None:
            callbacks = layer == KERNEL
        callback = self._callback

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callbacks:
                args = tuple(
                    callback(a, layer) if isinstance(a, _CALLBACK_TYPES) else a for a in args
                )
            if stack:
                top = stack[-1]
                if top.name is name or (top.layer is layer and not always):
                    return fn(*args, **kwargs)
            op = before(args) if before is not None else None
            frame = tracer._open(layer, name, op)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            if key is not None:
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                if count_bytes:
                    tracer.nbytes[key] = tracer.nbytes.get(key, 0) + len(result)
                if timed:
                    tracer.incl_ns[key] = tracer.incl_ns.get(key, 0) + duration
            return result

        wrapper.__hostbench_wrapped__ = fn
        return wrapper

    def _callback(self, callback, taker: str):
        """A callback inside a span of its own layer (callables of the
        ``taker``'s layer and already-wrapped ones pass through)."""
        target = getattr(callback, "func", callback)  # functools.partial
        if hasattr(target, "__hostbench_wrapped__"):
            return callback
        module = getattr(target, "__module__", None)
        layer = layer_of_module(module) or OTHER
        if layer == taker:
            return callback
        name = f"{module}.{getattr(target, '__qualname__', '?')}"
        tracer = self
        calls = self.calls
        key = f"callbacks.{layer}"

        def run_callback(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            frame = tracer._open(layer, name, None)
            try:
                return callback(*args, **kwargs)
            finally:
                tracer._close(frame)

        run_callback.__hostbench_wrapped__ = callback
        return run_callback

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, selector=None) -> int:
        """Wrap every layer entry point of the loaded ``repro`` modules.

        ``selector`` (a live run's event-loop selector) gets an ``idle``
        span around ``select``.  Returns the number of patched attributes.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: module
            for name, module in sorted(sys.modules.items())
            if module is not None and layer_of_module(name) is not None
        }
        signing = modules.get("repro.crypto.signing")
        scheme_base = getattr(signing, "SignatureScheme", None)
        wrapped: dict[int, typing.Any] = {}
        for module_name, module in modules.items():
            layer = layer_of_module(module_name)
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == module_name:
                    self._wrap_class(value, module_name, layer, scheme_base)
                elif (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module_name
                    and _wrappable(attr, value)
                ):
                    wrapper = self.wrap(
                        value,
                        layer,
                        f"{module_name}.{attr}",
                        counter=COUNTED.get((module_name, None, attr)),
                    )
                    wrapped[id(value)] = wrapper
                    self._set(module, attr, wrapper)
        for module_name, cls_name, attr in EXTRA_TARGETS:
            cls = getattr(modules.get(module_name), cls_name, None)
            if cls is not None:
                before = self._note_timer_slack if attr == "_fire_due" else None
                self._set(
                    cls,
                    attr,
                    self.wrap(
                        cls.__dict__[attr],
                        layer_of_module(module_name),
                        f"{module_name}.{cls_name}.{attr}",
                        counter=COUNTED.get((module_name, cls_name, attr)),
                        before=before,
                    ),
                )
        perf = sys.modules.get("repro.perf")
        if perf is not None:
            original = perf.clear_caches
            wrapped[id(original)] = self._wrap_clear_caches(perf)
        self._rebind(wrapped)
        if selector is not None:
            self._wrap_selector(selector)
        return len(self._patches)

    def _wrap_class(self, cls: type, module_name: str, layer: str, scheme_base) -> None:
        is_scheme = scheme_base is not None and issubclass(cls, scheme_base)
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType) or not _wrappable(attr, value):
                continue
            target = (module_name, cls.__name__, attr)
            if target in SKIP_TARGETS or getattr(value, "__isabstractmethod__", False):
                continue
            counter = COUNTED.get(target)
            if is_scheme and attr in SCHEME_COUNTED:
                counter = (SCHEME_COUNTED[attr], False)
            before = _OP_OF.get(target)
            if layer == KERNEL and attr == "run":
                before = self._note_clock
            self._set(
                cls,
                attr,
                self.wrap(
                    value,
                    layer,
                    f"{module_name}.{cls.__qualname__}.{attr}",
                    counter=counter,
                    before=before,
                    callbacks=layer == KERNEL or target in CALLBACK_TAKERS,
                ),
            )

    def _rebind(self, wrapped: dict[int, typing.Any]) -> None:
        """Point every other binding of a wrapped module function -- a
        ``from x import f`` in another module, or a default argument --
        at its wrapper."""
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and wrapper is not value:
                    self._set(module, attr, wrapper)
                functions = [value]
                if isinstance(value, type) and value.__module__ == module_name:
                    functions = [
                        getattr(f, "__hostbench_wrapped__", f) for f in vars(value).values()
                    ]
                for function in functions:
                    defaults = getattr(function, "__defaults__", None)
                    if isinstance(function, types.FunctionType) and defaults and any(
                        id(d) in wrapped for d in defaults
                    ):
                        self._set(
                            function,
                            "__defaults__",
                            tuple(wrapped.get(id(d), d) for d in defaults),
                        )

    def _note_clock(self, args) -> None:
        """Remember each simulator a traced run drives (for its event count)."""
        self.clocks[id(args[0])] = args[0]

    def _note_timer_slack(self, args) -> None:
        """Record how late a live clock's wakeup fired: its loop timer
        was armed for the heap head's deadline, ``_wakeup_time``."""
        clock = args[0]
        due = clock._wakeup_time
        if due is not None:
            self.timer_slack_ms.append(clock.now - due)

    def events_processed(self) -> int:
        """Events the traced simulators dispatched."""
        return sum(clock.events_processed for clock in self.clocks.values())

    def snapshot_caches(self) -> None:
        """Fold the memo caches' hit/miss counters into the totals; their
        ``clear`` resets them, so this runs before every clear."""
        from repro import perf

        for cache in (
            perf.encode_cache,
            perf.countersign_cache,
            perf.wire_size_cache,
            perf.binwire_cache,
        ):
            counters = cache.stats
            self.cache_hits += counters.hits
            self.cache_misses += counters.misses

    def _wrap_clear_caches(self, perf):
        clear = perf.clear_caches
        tracer = self

        @functools.wraps(clear)
        def clear_caches():
            tracer.snapshot_caches()
            clear()

        clear_caches.__hostbench_wrapped__ = clear
        self._set(perf, "clear_caches", clear_caches)
        return clear_caches

    def _wrap_selector(self, selector) -> None:
        select = selector.select
        tracer = self

        def idle_select(timeout=None):
            frame = tracer._open(IDLE, "selector.select", None)
            try:
                return select(timeout)
            finally:
                tracer._close(frame)

        idle_select.__hostbench_wrapped__ = select
        self._patches.append((selector, "select", None))
        selector.select = idle_select

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # instance attribute shadowing a method
            else:
                setattr(owner, attr, original)


def _wrappable(attr: str, fn: types.FunctionType) -> bool:
    """Public, synchronous functions (a generator or coroutine call would
    only time its creation)."""
    if attr.startswith("_"):
        return False
    return not (
        inspect.isgeneratorfunction(fn)
        or inspect.iscoroutinefunction(fn)
        or inspect.isasyncgenfunction(fn)
    )


def _multicast_op(args) -> str | None:
    from repro.newtop.invocation import message_key

    if len(args) < 4:
        return None
    service, value = args[0], args[3]
    return message_key(service.member_id, value)


def _deliver_op(args) -> str | None:
    from repro.newtop.invocation import message_key

    if len(args) < 4:
        return None
    sender, payload = args[2], args[3]
    return message_key(sender, payload.extract())


#: Spans carrying an operation id: the invocation layer's send and
#: deliver sides, keyed exactly as the invariant oracles key them.
_OP_OF = {
    ("repro.newtop.invocation", "InvocationService", "multicast"): _multicast_op,
    ("repro.newtop.invocation", "InvocationService", "deliver"): _deliver_op,
}


def installed_wrappers() -> list[str]:
    """Every ``repro`` module attribute or class method currently
    replaced by a tracer wrapper."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__hostbench_wrapped__"):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type) and value.__module__ == module_name:
                found.extend(
                    f"{module_name}.{attr}.{name}"
                    for name, member in vars(value).items()
                    if hasattr(member, "__hostbench_wrapped__")
                )
    return found

"""Host-time attribution of a simulator run to the ``repro`` layers.

:class:`LayerTracer` patches the simulator from outside (nothing in
``src/`` knows about it) and records *spans*: host intervals measured
with :func:`time.perf_counter`, each charged to one layer.  A layer's
self time is the duration of its spans minus the part covered by spans
nested inside them, so self times never double-count.

Spans are recorded in three places:

- every engine callback, under the layer whose source file defines the
  callback (wrapped at ``Engine.schedule``/``schedule_at``);
- every generator step (``send``/``throw``/``close``) of a process body
  passed to ``Machine.spawn``/``spawn_light``, under the layer defining
  the body;
- the public cross-layer entry points listed in :data:`ENTRY_POINTS`;
  those returning a generator are timed per step the same way.

``Engine.run`` is itself a ``sim`` span, so the ``sim`` layer's self time
is the event loop minus everything it calls.  Layers are the ``repro``
subpackages in :data:`LAYERS`; code anywhere else (other subpackages,
builtins) is charged to ``other``.  Tracing changes host timing only:
the simulated results of a traced run equal the untraced run's.
"""

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("sim", "kernel", "net", "sip", "proxy", "clients")
OTHER = len(LAYERS)

#: (module, qualified attribute) pairs wrapped as spans; ``Class.*``
#: means every public function defined on the class
ENTRY_POINTS = (
    ("repro.sip.parser", "parse_message"),
    ("repro.sip.message", "SipMessage.render"),
    ("repro.sip.builder", "MessageBuilder.*"),
    ("repro.net.fabric", "Fabric.deliver"),
    ("repro.net.udp", "UdpEndpoint.sendto"),
    ("repro.net.tcp", "TcpConn.send"),
    ("repro.net.tcp", "TcpConn.recv"),
    ("repro.kernel.ipc", "IpcEndpoint.*"),
    ("repro.kernel.fdtable", "FdTable.*"),
    ("repro.proxy.conn_table", "ConnTable.*"),
    ("repro.proxy.txn_table", "TransactionTable.*"),
    ("repro.proxy.fd_cache", "FdCache.*"),
    ("repro.proxy.idle_scan", "ScanIdleStrategy.*_pass"),
    ("repro.proxy.idle_pq", "PqIdleStrategy.*_pass"),
    ("repro.sim.engine", "Engine.run"),
)

#: classes whose instances are registered so their counters can be read
REGISTERED = (
    ("repro.kernel.locks", "SpinLock"),
    ("repro.kernel.locks", "KMutex"),
    ("repro.kernel.sockets", "DatagramBuffer"),
)

_PKG_MARK = os.sep + "repro" + os.sep


def _layer_of_file(filename: str) -> int:
    """Layer index of a source file of the ``repro`` package."""
    _head, mark, tail = filename.rpartition(_PKG_MARK)
    if not mark:
        return OTHER
    sub = tail.split(os.sep, 1)[0]
    return LAYERS.index(sub) if sub in LAYERS else OTHER


class SpanIter:
    """Generator proxy timing every step of ``gen`` as one span.

    Forwards ``send``/``throw``/``close`` (so ``yield from`` and
    ``SimProcess.kill`` behave exactly as on the bare generator) and
    passes ``StopIteration`` and its return value through untouched.
    """

    __slots__ = ("gen", "layer", "tracer")

    def __init__(self, gen, layer: int, tracer: "LayerTracer") -> None:
        self.gen = gen
        self.layer = layer
        self.tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self.tracer.call(self.layer, None, self.gen.send, None)

    def send(self, value):
        return self.tracer.call(self.layer, None, self.gen.send, value)

    def throw(self, *exc):
        return self.tracer.call(self.layer, None, self.gen.throw, *exc)

    def close(self):
        return self.tracer.call(self.layer, None, self.gen.close)


class LayerTracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        n = len(LAYERS) + 1
        self.self_s = [0.0] * n
        self.spans = [0] * n
        #: entry point name -> [calls, inclusive host seconds]
        self.entries = {}
        #: registered class name -> live instances
        self.instances = {name: [] for _mod, name in REGISTERED}
        self._stack = []
        self._code_layer = {}
        self._patches = []

    # -- span recording ------------------------------------------------
    def call(self, layer: int, stat, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``layer``."""
        frame = [0.0]  # host seconds covered by nested spans
        stack = self._stack
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            stack.pop()
            self.self_s[layer] += dur - frame[0]
            self.spans[layer] += 1
            if stack:
                stack[-1][0] += dur
            if stat is not None:
                stat[0] += 1
                stat[1] += dur

    def layer_of(self, fn) -> int:
        """Layer defining callable ``fn`` (cached per code object)."""
        while isinstance(fn, functools.partial):
            fn = fn.func
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        if code is None:
            return OTHER
        layer = self._code_layer.get(code)
        if layer is None:
            layer = self._code_layer[code] = _layer_of_file(code.co_filename)
        return layer

    def wrap_body(self, body):
        """Time each step of a process body under its defining layer."""
        code = getattr(body, "gi_code", None)
        layer = OTHER if code is None else _layer_of_file(code.co_filename)
        return SpanIter(body, layer, self)

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _entry_wrapper(self, fn, name: str):
        layer = _layer_of_file(fn.__code__.co_filename)
        stat = self.entries.setdefault(name, [0, 0.0])
        call = self.call
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if generator:
                stat[0] += 1
                return SpanIter(fn(*args, **kwargs), layer, self)
            return call(layer, stat, fn, *args, **kwargs)
        return wrapper

    def _wrap_module_function(self, module, attr: str) -> None:
        original = getattr(module, attr)
        wrapper = self._entry_wrapper(original, attr)
        # ``from module import fn`` copies the binding: rebind every copy.
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _wrap_class(self, cls, pattern: str) -> None:
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value) or attr.startswith("_"):
                continue
            if pattern == "*" or pattern == attr or (
                    pattern.startswith("*") and attr.endswith(pattern[1:])):
                self._set(cls, attr,
                          self._entry_wrapper(value, f"{cls.__name__}.{attr}"))

    def install(self) -> "LayerTracer":
        """Patch the simulator.  Call before building the cell."""
        from repro.kernel.machine import Machine
        from repro.sim.engine import Engine

        for modname, qual in ENTRY_POINTS:
            module = importlib.import_module(modname)
            if "." in qual:
                clsname, pattern = qual.split(".", 1)
                self._wrap_class(getattr(module, clsname), pattern)
            else:
                self._wrap_module_function(module, qual)

        call = self.call
        layer_of = self.layer_of
        for attr in ("schedule", "schedule_at"):
            original = vars(Engine)[attr]

            def schedule(engine, when, fn, *args, _original=original):
                return _original(engine, when, call, layer_of(fn), None,
                                 fn, *args)
            self._set(Engine, attr, schedule)

        wrap_body = self.wrap_body
        spawn, spawn_light = Machine.spawn, Machine.spawn_light

        def traced_spawn(machine, body, name, *args, **kwargs):
            return spawn(machine, wrap_body(body), name, *args, **kwargs)

        def traced_spawn_light(machine, body, name):
            return spawn_light(machine, wrap_body(body), name)
        self._set(Machine, "spawn", traced_spawn)
        self._set(Machine, "spawn_light", traced_spawn_light)

        for modname, clsname in REGISTERED:
            cls = getattr(importlib.import_module(modname), clsname)
            registry = self.instances[clsname]
            init = vars(cls)["__init__"]

            def registering_init(obj, *args, _init=init, _reg=registry,
                                 **kwargs):
                _init(obj, *args, **kwargs)
                _reg.append(obj)
            self._set(cls, "__init__", registering_init)
        return self

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def layer_times(self) -> dict:
        """{layer: (self seconds, spans)}, ``other`` included."""
        names = LAYERS + ("other",)
        return {names[i]: (self.self_s[i], self.spans[i])
                for i in range(len(names))}

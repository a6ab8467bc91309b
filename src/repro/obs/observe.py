"""`Observability` — one object attaching the tracer and metrics to a
running partitioned program.

The individual hooks are deliberately dumb (a ``tracer`` attribute
checked for ``None`` on each hot path, exactly like
``Machine.access_hooks``); this module owns the choreography:

* :meth:`Observability.attach` wires a :class:`~repro.obs.tracer.
  Tracer` into the runtime (spawn/trampoline/reply events), its
  channel matrices (push/pop + queue-depth timelines), the machine
  (step-burst events from both engines' ``run_burst``), and —
  optionally — a :class:`~repro.sgx.metering.MachineMeter` whose
  :class:`~repro.sgx.costmodel.CostMeter` streams cost-charge events.

* :meth:`Observability.detach` unwires everything, restoring the
  unobserved fast path (empty ``access_hooks``, ``tracer is None``).

* :meth:`Observability.publish` snapshots every counter the system
  keeps — ``RuntimeStats``, per-channel kind counts, engine step
  counters, cost-model breakdowns, per-chunk and per-color profiles —
  into one :class:`~repro.obs.metrics.MetricsRegistry`, which the
  exporters of :mod:`repro.obs.export` turn into JSON or text.

Typical use (this is what ``repro run --trace out.json --stats``
does)::

    obs = Observability(trace=True, meter=True).attach(runtime)
    runtime.run("main")
    obs.detach()
    obs.write_trace("out.json")
    print(obs.metrics_text())
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.export import metrics_to_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sgx.costmodel import CostParams, MACHINE_A
from repro.sgx.metering import MachineMeter


class Observability:
    """Tracing + metrics for one :class:`~repro.runtime.executor.
    PrivagicRuntime` run.

    Parameters
    ----------
    trace:
        Record trace events (otherwise only metrics publishing is
        available and the run stays on the unobserved fast path).
    meter:
        Attach a :class:`MachineMeter`, so actual memory traffic is
        charged against the SGX cost model and appears in the trace
        (``cost`` counter track) and metrics (``cost.*`` names).
        This slows the run — metering observes every access.
    params:
        Cost-model machine preset for the meter.
    registry:
        Publish into an existing registry instead of a fresh one.
    """

    def __init__(self, trace: bool = True, meter: bool = False,
                 params: CostParams = MACHINE_A,
                 registry: Optional[MetricsRegistry] = None):
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._want_meter = meter
        self._params = params
        self.meter: Optional[MachineMeter] = None
        self.runtime = None
        self._mem_hook = None

    # -- wiring ------------------------------------------------------------------

    def attach(self, runtime) -> "Observability":
        """Install the hooks on ``runtime`` (idempotent per runtime)."""
        if self.runtime is not None and self.runtime is not runtime:
            raise ValueError("Observability is already attached to a "
                             "different runtime")
        self.runtime = runtime
        machine = runtime.machine
        if self._want_meter and self.meter is None:
            self.meter = MachineMeter(machine, self._params,
                                      track_colors=True)
            if self.tracer is not None:
                self.meter.meter.set_observer(self.tracer.cost_charge)
        if self.tracer is not None:
            runtime.tracer = self.tracer
            machine.tracer = self.tracer
            for group in runtime._groups.values():
                group.matrix.set_tracer(self.tracer)
            if self._mem_hook is None:
                tracer = self.tracer

                def mem_hook(ctx, addr, region, rw):
                    tracer.memory_access(region, rw)

                self._mem_hook = mem_hook
                machine.access_hooks.append(mem_hook)
        return self

    def detach(self) -> "Observability":
        """Remove every hook; counters and events keep their values."""
        runtime = self.runtime
        if runtime is None:
            return self
        machine = runtime.machine
        if runtime.tracer is self.tracer:
            runtime.tracer = None
        if machine.tracer is self.tracer:
            machine.tracer = None
        for group in runtime._groups.values():
            if group.matrix.tracer is self.tracer:
                group.matrix.set_tracer(None)
        if self._mem_hook is not None:
            if self._mem_hook in machine.access_hooks:
                machine.access_hooks.remove(self._mem_hook)
            self._mem_hook = None
        if self.meter is not None:
            self.meter.detach()
            self.meter.meter.set_observer(None)
        if self.tracer is not None:
            self.tracer.flush()
        return self

    # -- metrics publishing ------------------------------------------------------

    def publish(self) -> MetricsRegistry:
        """Snapshot every layer's counters into the registry and
        return it.  Safe to call repeatedly (counters are overwritten,
        not re-accumulated)."""
        runtime = self.runtime
        if runtime is None:
            return self.registry
        reg = self.registry
        for name, value in runtime.stats.as_dict().items():
            reg.set(f"runtime.{name}", value)
        for kind, count in runtime.message_stats().items():
            reg.set(f"channel.{kind}", count)
        machine = runtime.machine
        reg.set("interp.steps", machine.total_steps)
        reg.set("interp.blocked_steps", machine.blocked_steps)
        reg.set("interp.contexts", len(machine.contexts))
        for chunk, profile in runtime.stats.per_chunk.items():
            for key, value in profile.items():
                reg.set(f"chunk.{key}[{chunk}]", value)
        for color, profile in self.color_profiles().items():
            for key, value in profile.items():
                reg.set(f"color.{key}[{color}]", value)
        injector = getattr(runtime, "fault_injector", None)
        if injector is not None:
            reg.set("faults.armed", injector.armed)
            reg.set("faults.injected", injector.injected_total())
            reg.set("faults.detected", injector.detected_total())
            for action, count in injector.injected.items():
                reg.set(f"faults.injected[{action}]", count)
            for kind, count in injector.detected.items():
                reg.set(f"faults.detected[{kind}]", count)
        if self.meter is not None:
            meter = self.meter.meter
            reg.set("cost.cycles", meter.cycles)
            for kind, cycles in meter.breakdown.items():
                reg.set(f"cost.cycles[{kind}]", round(cycles, 2))
            for kind, count in meter.counts.items():
                reg.set(f"cost.count[{kind}]", count)
            for region, count in \
                    self.meter.accesses_by_region.items():
                reg.set(f"mem.accesses[{region}]", count)
        return reg

    # -- profiles ----------------------------------------------------------------

    def color_profiles(self) -> Dict[str, Dict[str, object]]:
        """Per-color profile: interpreted steps, messages sent and
        received over the channels, and (when metering) LLC traffic."""
        runtime = self.runtime
        profiles: Dict[str, Dict[str, object]] = {}

        def profile(color: str) -> Dict[str, object]:
            entry = profiles.get(color)
            if entry is None:
                entry = profiles[color] = {
                    "steps": 0, "sent": 0, "received": 0}
            return entry

        for ctx in runtime.machine.contexts:
            color = ctx.mode if ctx.mode is not None \
                else runtime.untrusted
            profile(color)["steps"] += ctx.steps
        for group in runtime._groups.values():
            for (src, dst), channel in group.matrix.channels.items():
                profile(src)["sent"] += channel.sent
                profile(dst)["received"] += channel.received
        if self.meter is not None:
            for color, (hits, misses) in \
                    self.meter.traffic_by_color.items():
                entry = profile(color)
                entry["llc_hits"] = hits
                entry["llc_misses"] = misses
        return profiles

    def profiles(self) -> Dict[str, object]:
        """Both profile families, JSON-ready."""
        return {
            "colors": self.color_profiles(),
            "chunks": dict(self.runtime.stats.per_chunk)
            if self.runtime is not None else {},
        }

    # -- export ------------------------------------------------------------------

    def write_trace(self, path: str) -> str:
        if self.tracer is None:
            raise ValueError("Observability was created with "
                             "trace=False; no trace to write")
        return self.tracer.write_chrome(path)

    def metrics_text(self) -> str:
        return metrics_to_text(self.publish())

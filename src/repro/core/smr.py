"""State-machine replication over strict atomic multicast (§6.1).

The paper's motivation for the strict variation: vanilla atomic multicast
is too weak for linearizable SMR — "if some command d is submitted after
a command c got delivered, atomic multicast does not enforce c to be
delivered before d, breaking linearizability" [3].  This module is that
application layer:

* a :class:`ReplicatedStateMachine` funnels commands through a strict
  :class:`repro.core.engine.MulticastSystem` deployment and applies deliveries,
  in order, to a deterministic state machine per replica;
* sharded machines are supported naturally: one machine per destination
  group, cross-group commands multicast to group unions.

Because the transport is *strict*, the real-time order between a
completed command and a later submission is preserved, which is exactly
the linearizability obligation SMR adds on top of total order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.model.errors import SimulationError
from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId

#: A deterministic transition: (state, command payload) -> (state, output).
ApplyFn = Callable[[Any, Any], Tuple[Any, Any]]


def kv_apply(state: Dict[str, Any], command: Tuple[str, ...]) -> Tuple[Dict, Any]:
    """The bundled example machine: a key-value store.

    Commands: ``("put", k, v)``, ``("get", k)``, ``("incr", k)``.
    """
    op = command[0]
    if op == "put":
        _, key, value = command
        new_state = dict(state)
        new_state[key] = value
        return new_state, value
    if op == "incr":
        _, key = command
        new_state = dict(state)
        new_state[key] = new_state.get(key, 0) + 1
        return new_state, new_state[key]
    if op == "get":
        _, key = command
        return state, state.get(key)
    raise SimulationError(f"unknown command {command!r}")


class ReplicatedStateMachine:
    """Linearizable replicated objects over strict atomic multicast.

    Attributes:
        system: the underlying strict deployment (``variant="strict"``).
        apply_fn: the deterministic transition function.
    """

    def __init__(
        self,
        system: MulticastSystem,
        apply_fn: ApplyFn = kv_apply,
        initial_state: Any = None,
    ) -> None:
        if system.variant != "strict":
            raise SimulationError(
                "linearizable SMR needs the strict variant (§6.1)"
            )
        self.system = system
        self.multicaster = AtomicMulticast(system)
        self.apply_fn = apply_fn
        self._initial_state = initial_state if initial_state is not None else {}
        #: Applied command count per replica (cursor into local_order).
        self._applied_upto: Dict[ProcessId, int] = {}
        #: Current state per replica.
        self._states: Dict[ProcessId, Any] = {}
        #: Outputs per command id, per replica.
        self._outputs: Dict[Tuple[ProcessId, object], Any] = {}

    # -- Client interface ---------------------------------------------------------

    def submit(
        self, client: ProcessId, group: str, command: Tuple[str, ...]
    ) -> MulticastMessage:
        """Submit a command to the replicas of ``group``."""
        return self.multicaster.multicast(client, group, payload=command)

    def run(self, **kwargs: object) -> int:
        rounds = self.system.run(**kwargs)
        self._apply_deliveries()
        return rounds

    # -- Replica application --------------------------------------------------------

    def _apply_deliveries(self) -> None:
        for p in self.system.topology.processes:
            order = self.system.record.local_order(p)
            start = self._applied_upto.get(p, 0)
            state = self._states.get(p, self._initial_state)
            for message in order[start:]:
                state, output = self.apply_fn(state, message.payload)
                self._outputs[(p, message.mid)] = output
            self._states[p] = state
            self._applied_upto[p] = len(order)

    def state_at(self, p: ProcessId) -> Any:
        """The replica's current state."""
        return self._states.get(p, self._initial_state)

    def output_of(
        self, p: ProcessId, message: MulticastMessage
    ) -> Optional[Any]:
        """The output the replica computed for a command, if applied."""
        return self._outputs.get((p, message.mid))

    def read(self, p: ProcessId, key: str) -> Any:
        """A local read of the replica state (for the kv machine)."""
        state = self.state_at(p)
        return state.get(key) if isinstance(state, dict) else None

"""Functional-operational multicore engine.

This engine plays the role of the paper's RISC-V FPGA prototype: it
*runs* programs against a shared memory with exact visibility
semantics and lets a seeded random scheduler explore interleavings.
The litmus harness (§6.3 methodology) runs each test many times here
and checks the observed outcomes against the axiomatic model.

Per-core machinery:

* an instruction *window* (in-order fetch, out-of-order execute under
  the gating rules of the configured consistency model, in-order
  retire);
* a *store buffer* — FIFO drain under PC, random-within-segment drain
  with same-address coalescing under WC, absent under SC;
* store→load forwarding from the buffer;
* the FSBC + FSB (:mod:`repro.core`) for imprecise store exceptions,
  with the configured drain-stream policy;
* precise exception handling for faulting loads/atomics, including
  the §5.3 rule that the store buffer is drained (possibly raising
  imprecise exceptions first) before any precise handler runs.

Visibility: memory is single-copy-atomic (see
:mod:`repro.sim.mem.memory`); a store becomes visible when it drains
from the store buffer (or when the OS applies it from the FSB).

The scheduler interleaves micro-actions — instruction executions,
buffer drains, and OS-handler steps — uniformly at random, so OS
activity races with other cores' accesses exactly as in Figure 2.
Each core keeps its candidate actions up to date: gating reads only
core-local state, so after a step only the core that stepped is
rescanned (every core after a delivered interrupt).
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.contract import ContractChecker
from ..core.exceptions import ExceptionCode, is_recoverable
from ..core.interface import ArchitecturalInterface
from ..core.streams import DrainPolicy, DrainTarget, PendingStore, plan_drain
from ..memmodel.events import FenceKind
from .config import ConsistencyModel, SystemConfig, small_config
from .devices.einject import EInject
from .isa import READS, Gate, Instruction, Op
from .mem.memory import FlatMemory
from .program import Program


class CoreStatus(enum.Enum):
    RUNNING = "running"
    SERVICING = "servicing"   # OS micro-ops pending (drain/handler)
    TERMINATED = "terminated"  # irrecoverable fault killed the app
    DONE = "done"


# Enum member lookup is slow on some Python versions; the scheduler's
# hot paths compare against these aliases.
_RUNNING, _SERVICING = CoreStatus.RUNNING, CoreStatus.SERVICING


class WindowSlot:
    """One fetched instruction, waiting until ``done``."""

    __slots__ = ("instr", "pc", "done", "value")

    def __init__(self, instr: Instruction, pc: int) -> None:
        self.instr = instr
        self.pc = pc
        self.done = False
        self.value: Optional[int] = None


@dataclass(eq=False)
class SbEntry:
    addr: int
    data: int
    seq: int


_BARRIER = "barrier"  # store-buffer barrier marker (store-store fences)
_ANY_ADDR = object()  # an in-flight WC load whose address is indexed


@dataclass
class RunStats:
    steps: int = 0
    instructions_retired: int = 0
    sb_drains: int = 0
    forwards: int = 0
    imprecise_exceptions: int = 0
    precise_exceptions: int = 0
    faulting_stores_handled: int = 0
    flushes: int = 0
    interrupts: int = 0
    interrupts_deferred: int = 0


class DeadlockError(RuntimeError):
    pass


class _Core:
    """Execution state for one hardware thread."""

    def __init__(self, system: "MulticoreSystem", core_id: int) -> None:
        self.system = system
        self.id = core_id
        cfg = system.config
        self.model = cfg.core.consistency
        self._sc = self.model == ConsistencyModel.SC
        self._fifo = self.model == ConsistencyModel.PC  # drain head only
        self._wc = self.model == ConsistencyModel.WC
        self.window_capacity = max(2, cfg.core.width * 2)
        self.sb_capacity = cfg.core.store_buffer_entries
        self.regs: Dict[int, int] = {}
        self.pc = 0
        self.window: Deque[WindowSlot] = deque()
        self.sb: List = []  # SbEntry | _BARRIER
        self.status = CoreStatus.RUNNING
        self.pending_ops: Deque[Callable[[], None]] = deque()
        self.observations: Dict[str, int] = {}
        #: Scheduler candidates, ``(kind, core, arg)`` with ``kind`` one
        #: of :meth:`execute`, :meth:`drain_one` or :meth:`run_op`.
        self.actions: List[Tuple[Callable, "_Core", object]] = []
        self._sb_seq = 0
        self._program = system.program.threads[core_id].instructions
        self._end = len(self._program)

    @cached_property
    def interface(self) -> ArchitecturalInterface:
        """The FSB interface, built on the first imprecise exception."""
        return ArchitecturalInterface(
            self.id, fsb_capacity=_fsb_capacity(self.system.config))

    # ------------------------------------------------------------------
    # Register helpers
    # ------------------------------------------------------------------
    def read_reg(self, reg: Optional[int]) -> int:
        if reg is None or reg == 0:
            return 0
        return self.regs.get(reg, 0)

    def write_reg(self, reg: Optional[int], value: int) -> None:
        if reg is not None and reg != 0:
            self.regs[reg] = value

    # ------------------------------------------------------------------
    # Retire
    # ------------------------------------------------------------------
    def retire_ready(self) -> None:
        window = self.window
        while window and window[0].done:
            slot = window.popleft()
            if slot.instr.label and slot.instr.is_read:
                self.observations[slot.instr.label] = slot.value or 0
            self.system.stats.instructions_retired += 1

    @property
    def finished(self) -> bool:
        """Done or terminated, or running with nothing left to do."""
        status = self.status
        if status is _RUNNING:
            return (not self.window and self.pc >= self._end
                    and not self.sb_entries())
        return status is not _SERVICING

    def sb_entries(self) -> List[SbEntry]:
        return [e for e in self.sb if e is not _BARRIER]

    # ------------------------------------------------------------------
    # Gating: one forward pass per rescan
    # ------------------------------------------------------------------
    def rescan(self) -> None:
        """Fetch, then rebuild :attr:`actions` in scheduler order:
        executable window slots oldest first, then drainable
        store-buffer indices (the head under PC, the first segment
        under WC), or the next OS micro-op while servicing.

        One forward walk over the window carries what the older
        in-flight slots hold back — their ``holds`` classes, their
        destination registers and, under WC, their load addresses — so
        each slot is gated without revisiting its elders.
        """
        status = self.status
        if status is not _RUNNING:
            self.actions = ([(_Core.run_op, self, None)]
                            if status is _SERVICING and self.pending_ops
                            else [])
            return
        window, sb = self.window, self.sb
        # In-order fetch with no speculation past an unresolved branch,
        # which is always the youngest slot: fetch stops after one.
        if not (window and window[-1].instr.is_branch
                and not window[-1].done):
            program, pc = self._program, self.pc
            while len(window) < self.window_capacity and pc < self._end:
                instr = program[pc]
                window.append(WindowSlot(instr, pc))
                pc += 1
                if instr.is_branch:
                    break
            self.pc = pc
        actions = self.actions = []
        buffered = len(sb) - sb.count(_BARRIER) if sb else 0
        wc = self._wc
        held = regs = 0
        loads = set() if wc else None  # addresses of in-flight WC loads
        for slot in window:
            if slot.done:
                continue
            instr = slot.instr
            gate = instr.gate
            if not (instr.waits_on & held or instr.src_regs & regs):
                if gate is Gate.NONE:
                    ready = True
                elif gate is Gate.LOAD:
                    ready = (not (loads and (
                        instr.rs1 is not None or _ANY_ADDR in loads
                        or instr.addr in loads))
                        if wc else not held & READS)
                elif gate is Gate.STORE:
                    ready = self._sc or buffered < self.sb_capacity
                else:
                    ready = not buffered
                if ready:
                    actions.append((_Core.execute, self, slot))
            held |= instr.holds
            regs |= instr.dst_regs
            if wc and gate is Gate.LOAD:
                loads.add(_ANY_ADDR if instr.rs1 is not None else instr.addr)
        self._drop_leading_barriers()
        if sb:
            if self._fifo:
                actions.append((_Core.drain_one, self, 0))
            else:
                for index, entry in enumerate(sb):
                    if entry is _BARRIER:
                        break
                    actions.append((_Core.drain_one, self, index))

    def run_op(self, _arg=None) -> None:
        """Run the next queued OS micro-op."""
        self.pending_ops.popleft()()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, slot: WindowSlot) -> None:
        instr = slot.instr
        gate = instr.gate
        if gate is Gate.LOAD:
            self._execute_load(slot)
            return  # the memory paths mark the slot done themselves
        if gate is Gate.STORE:
            self._execute_store(slot)
            return
        if instr.is_write:
            self._execute_atomic(slot)
            return
        op = instr.op
        if instr.is_branch:
            self._execute_branch(slot)
        elif op is Op.FENCE:
            if instr.fence in (FenceKind.STORE_STORE, FenceKind.LOAD_STORE):
                if self.sb_entries():
                    self.sb.append(_BARRIER)
        elif op is Op.LI:
            self.write_reg(instr.rd, instr.imm)
        elif op is Op.ADD:
            self.write_reg(instr.rd,
                           self.read_reg(instr.rs1) + self.read_reg(instr.rs2))
        elif op is Op.ADDI:
            self.write_reg(instr.rd, self.read_reg(instr.rs1) + instr.imm)
        elif op is Op.XOR:
            self.write_reg(instr.rd,
                           self.read_reg(instr.rs1) ^ self.read_reg(instr.rs2))
        slot.done = True

    def _execute_branch(self, slot: WindowSlot) -> None:
        instr = slot.instr
        a, b = self.read_reg(instr.rs1), self.read_reg(instr.rs2)
        taken = (a == b) if instr.op is Op.BEQ else (a != b)
        if taken:
            self.pc = min(self._end, self.pc + instr.imm)

    def _effective_addr(self, instr: Instruction) -> int:
        base = instr.addr or 0
        if instr.rs1 is not None:
            base += self.read_reg(instr.rs1)
        return base

    def _execute_load(self, slot: WindowSlot) -> None:
        addr = self._effective_addr(slot.instr)
        forwarded = self._forward(addr)
        if forwarded is not None:
            slot.value = forwarded
            self.write_reg(slot.instr.rd, forwarded)
            slot.done = True
            self.system.stats.forwards += 1
            return
        if self.system.einject.is_faulting(addr):
            self.system.begin_precise_fault(self, slot, addr, is_write=False)
            return
        value = self.system.memory.read(addr)
        slot.value = value
        self.write_reg(slot.instr.rd, value)
        slot.done = True

    def _forward(self, addr: int) -> Optional[int]:
        for entry in reversed(self.sb):
            if entry is not _BARRIER and entry.addr == addr:
                return entry.data
        return None

    def _execute_store(self, slot: WindowSlot) -> None:
        instr = slot.instr
        addr = self._effective_addr(instr)
        data = (self.read_reg(instr.rs2) if instr.rs2 is not None
                else instr.imm)
        if self._sc:
            if self.system.einject.is_faulting(addr):
                # Precise store fault: the slot stays not done and
                # re-executes after the handler resolves the page.
                self.system.begin_precise_fault(self, slot, addr,
                                                is_write=True)
                return
            self.system.memory.write(addr, data)
            slot.done = True
            return
        self._sb_insert(addr, data)
        slot.done = True

    def _sb_insert(self, addr: int, data: int) -> None:
        seq = self._sb_seq
        self._sb_seq += 1
        if self._wc:
            # Coalesce into the open (post-barrier) segment.
            open_segment_start = 0
            for i in range(len(self.sb) - 1, -1, -1):
                if self.sb[i] is _BARRIER:
                    open_segment_start = i + 1
                    break
            for i in range(open_segment_start, len(self.sb)):
                entry = self.sb[i]
                if entry is not _BARRIER and entry.addr == addr:
                    self.sb[i] = SbEntry(addr, data, entry.seq)
                    return
        self.sb.append(SbEntry(addr, data, seq))

    def _execute_atomic(self, slot: WindowSlot) -> None:
        instr = slot.instr
        addr = self._effective_addr(instr)
        if self.system.einject.is_faulting(addr):
            self.system.begin_precise_fault(self, slot, addr, is_write=True)
            return
        old = self.system.memory.read(addr)
        operand = (self.read_reg(instr.rs2) if instr.rs2 is not None
                   else instr.imm)
        new = (old + operand) if instr.op is Op.AMOADD else operand
        self.system.memory.write(addr, new)
        slot.value = old
        self.write_reg(instr.rd, old)
        slot.done = True

    # ------------------------------------------------------------------
    # Store-buffer drain
    # ------------------------------------------------------------------
    def drain_one(self, index: int) -> None:
        entry = self.sb.pop(index)
        assert entry is not _BARRIER
        self.system.stats.sb_drains += 1
        if self.system.einject.is_faulting(entry.addr):
            self.sb.insert(index, entry)  # stays buffered; goes to FSB
            self.system.begin_imprecise_exception(self)
            return
        self.system.memory.write(entry.addr, entry.data)
        self._drop_leading_barriers()

    def _drop_leading_barriers(self) -> None:
        while self.sb and self.sb[0] is _BARRIER:
            self.sb.pop(0)

    # ------------------------------------------------------------------
    # Flush (imprecise exception pinned at oldest uncommitted instr)
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self.window:
            self.pc = self.window[0].pc
        self.window.clear()
        self.system.stats.flushes += 1


def _fsb_capacity(cfg: SystemConfig) -> int:
    size = cfg.fsb_entries
    # round up to a power of two (ring-with-mask requirement)
    cap = 1
    while cap < size:
        cap *= 2
    return cap


class MulticoreSystem:
    """The full functional system: cores + memory + EInject + OS."""

    def __init__(
        self,
        program: Program,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        drain_policy: DrainPolicy = DrainPolicy.SAME_STREAM,
        fault_source=None,
        interrupt_rate: float = 0.0,
    ) -> None:
        """``fault_source`` is any EInject-compatible object
        (``check``/``is_faulting``/``mmio_clr``) — e.g. the täkō or
        Midgard models in :mod:`repro.sim.devices.faultsource`.

        ``interrupt_rate`` injects asynchronous interrupts: at each
        scheduler step, with this probability, a random core takes an
        interrupt.  Delivery respects the IE bit (§5.3): a core whose
        handler is running has the bit set, so the interrupt is
        deferred; imprecise store exceptions detected meanwhile queue
        behind it.
        """
        self.program = program
        self.config = config or small_config(cores=program.cores)
        if self.config.cores < program.cores:
            raise ValueError(
                f"program has {program.cores} threads but the system only "
                f"{self.config.cores} cores")
        self.rng = random.Random(seed)
        self.drain_policy = drain_policy
        self.interrupt_rate = interrupt_rate
        self.memory = FlatMemory(dict(program.initial_memory))
        self.einject = fault_source if fault_source is not None else EInject()
        self.contract = ContractChecker(
            ordered=self.config.core.consistency == ConsistencyModel.PC)
        self.stats = RunStats()
        self.cores = [_Core(self, i) for i in range(program.cores)]
        self.terminated = False

    # ------------------------------------------------------------------
    # Fault injection front-end (the litmus harness poisons test memory)
    # ------------------------------------------------------------------
    def inject_faults(self, addrs: Sequence[int]) -> None:
        for addr in addrs:
            self.einject.mmio_set(addr)

    # ------------------------------------------------------------------
    # Exception flows
    # ------------------------------------------------------------------
    def begin_imprecise_exception(self, core: _Core) -> None:
        """A store drain was denied: route the buffer through the FSB
        per the drain policy, flush, and queue the OS handler."""
        if core.status is CoreStatus.SERVICING:
            return
        core.status = CoreStatus.SERVICING
        self.stats.imprecise_exceptions += 1

        pending = []
        for e in core.sb_entries():
            if self.einject.is_faulting(e.addr):
                verdict = self.einject.check(e.addr)
                code = ExceptionCode(verdict.error_code)
            else:
                code = ExceptionCode.NONE
            pending.append(PendingStore(addr=e.addr, data=e.data,
                                        error_code=code))
        core.sb.clear()
        plan = plan_drain(pending, self.drain_policy)

        seq_base = core.interface.fsb.tail
        seq = [seq_base]

        def make_drain_op(action):
            def op() -> None:
                if action.target is DrainTarget.INTERFACE:
                    self.contract.sb_send(core.id, seq[0])
                    core.interface.put(action.store.addr, action.store.data,
                                       action.store.byte_mask,
                                       action.store.error_code)
                    self.contract.put(core.id, seq[0])
                    seq[0] += 1
                else:
                    self.memory.write(action.store.addr, action.store.data)
            return op

        for action in plan:
            core.pending_ops.append(make_drain_op(action))

        def flush_and_handle() -> None:
            core.flush()
            self._queue_handler_ops(core)
        core.pending_ops.append(flush_and_handle)

    def _queue_handler_ops(self, core: _Core) -> None:
        """Minimal-handler micro-steps: GET → resolve → apply, repeated
        until head == tail, then RESUME (§6.2).

        Irrecoverable faults (§4.1) terminate the application instead:
        the faulting stores are discarded.
        """
        entries = core.interface.peek_all()
        if any(e.is_faulting and not is_recoverable(e.error_code)
               for e in entries):
            def terminate() -> None:
                core.interface.get_all()     # discard
                core.status = CoreStatus.TERMINATED
                self.terminated = True
            core.pending_ops.append(terminate)
            return
        self.stats.faulting_stores_handled += sum(
            1 for e in entries if e.is_faulting)

        def make_get_resolve_apply(expect_seq):
            def op() -> None:
                entry = core.interface.get()
                assert entry is not None and entry.seq == expect_seq
                self.contract.get(core.id, entry.seq)
                if entry.is_faulting:
                    self.einject.mmio_clr(entry.addr)
                core.pending_ops.appendleft(_apply(entry))
            def _apply(entry):
                def apply_op() -> None:
                    self.memory.write(entry.addr, entry.data)
                    self.contract.apply(core.id, entry.seq)
                return apply_op
            return op

        for entry in entries:
            core.pending_ops.append(make_get_resolve_apply(entry.seq))

        def resume() -> None:
            self.contract.resume(core.id)
            core.status = CoreStatus.RUNNING
        core.pending_ops.append(resume)

    def begin_precise_fault(self, core: _Core, slot: WindowSlot,
                            addr: int, is_write: bool) -> None:
        """A load/atomic (or SC store) faulted precisely.  Per §5.3 the
        store buffer is drained first; a faulting store there flips the
        flow to the imprecise path, after which the instruction
        re-executes and may fault precisely again."""
        if core.status is CoreStatus.SERVICING:
            return
        faulting_in_sb = any(
            self.einject.is_faulting(e.addr) for e in core.sb_entries())
        if faulting_in_sb:
            # Imprecise exceptions win; this instruction re-executes
            # after RESOLVE (its slot stays not done through the flush).
            self.begin_imprecise_exception(core)
            return

        core.status = CoreStatus.SERVICING
        self.stats.precise_exceptions += 1

        verdict = self.einject.check(addr)
        if verdict.denied and not is_recoverable(
                ExceptionCode(verdict.error_code)):
            def terminate() -> None:
                core.status = CoreStatus.TERMINATED
                self.terminated = True
            core.pending_ops.append(terminate)
            return

        def drain_all() -> None:
            # Non-faulting residue drains normally before the handler.
            for entry in core.sb_entries():
                self.memory.write(entry.addr, entry.data)
            core.sb.clear()

        def resolve() -> None:
            self.einject.mmio_clr(addr)

        def resume() -> None:
            core.status = CoreStatus.RUNNING  # slot re-executes later
        core.pending_ops.extend([drain_all, resolve, resume])

    # ------------------------------------------------------------------
    # Interrupts (§5.3: concurrent with imprecise store exceptions)
    # ------------------------------------------------------------------
    def _maybe_deliver_interrupt(self) -> bool:
        """Draw for an interrupt; True when one was delivered."""
        if self.rng.random() >= self.interrupt_rate:
            return False
        candidates = [c for c in self.cores
                      if c.status is CoreStatus.RUNNING
                      and not c.finished]
        masked = [c for c in self.cores
                  if c.status is CoreStatus.SERVICING]
        if not candidates:
            if masked:
                # IE bit set: the interrupt is deferred, not lost to
                # the running handler (§5.3's serialisation).
                self.stats.interrupts_deferred += 1
            return False
        core = self.rng.choice(candidates)
        self.stats.interrupts += 1
        core.status = CoreStatus.SERVICING

        def handler_body() -> None:
            pass  # device acknowledgement / bottom-half work

        def resume() -> None:
            core.status = CoreStatus.RUNNING
        core.pending_ops.extend([handler_body, handler_body, resume])
        return True

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def run(self, max_steps: int = 200_000) -> "RunResult":
        """Step until every core has finished.

        Each step: an interrupt draw (when ``interrupt_rate`` > 0),
        then one ``rng.choice`` over every core's candidates
        concatenated in core order.  A core's candidates change only
        when it steps or takes an interrupt, so only that core is
        retired and rescanned; the others' lists stay valid.
        """
        cores = self.cores
        choice = self.rng.choice
        stats = self.stats
        interrupts = self.interrupt_rate > 0.0
        live = sum(not core.finished for core in cores)
        stale = cores
        steps = 0
        while live:
            if interrupts and self._maybe_deliver_interrupt():
                stale = cores
            for core in stale:
                core.rescan()
            actions: List = []
            for core in cores:
                actions += core.actions
            if not actions:
                raise DeadlockError(
                    f"no runnable actions; statuses="
                    f"{[c.status for c in cores]}, "
                    f"sb={[len(c.sb) for c in cores]}")
            kind, core, arg = choice(actions)
            kind(core, arg)
            stats.steps += 1
            core.retire_ready()
            if core.finished:
                live -= 1
            stale = (core,)
            steps += 1
            if steps > max_steps:
                raise DeadlockError(f"exceeded {max_steps} steps")
        return RunResult(self)


@dataclass
class RunResult:
    """Final architectural state of one run."""

    system: MulticoreSystem

    @property
    def observations(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for core in self.system.cores:
            out.update(core.observations)
        return out

    def memory_value(self, addr: int) -> int:
        return self.system.memory.peek(addr)

    @property
    def outcome(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(self.observations.items()))

    @property
    def contract_report(self):
        return self.system.contract.check()

    @property
    def stats(self) -> RunStats:
        return self.system.stats

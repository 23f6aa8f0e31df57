"""Structural verifier for IL modules.

Run after lowering, after every inline expansion, and — under
``--check`` — after every pipeline pass, to guarantee transformations
preserve IL well-formedness:

- every label referenced by a jump/branch/switch exists exactly once
  (duplicate labels are rejected),
- every frame slot referenced by FRAME exists in the function, and the
  frame layout is consistent (offsets assigned, aligned, non-overlapping,
  inside the declared frame size),
- every direct call targets a defined function or declared external,
- every GADDR names a known global, every FADDR a known function or
  external,
- call-site ids are unique program-wide,
- argument counts of direct calls to defined functions match,
- RET arity matches the function signature: a value function never
  returns without a value and a void function never returns one (the
  static face of the inliner's RETURN_MISMATCH hazard),
- the function ends with a terminator (cannot fall off the end),
- def-before-use of registers over the control-flow graph: reading a
  register that is *definitely unassigned* (unwritten along every path
  from entry) is rejected. This catches renaming bugs in inlining —
  e.g. a call destination left unwritten by a spliced valueless
  return — without flagging conditionally-initialized locals, which
  the zero-initializing VM defines.
"""

from __future__ import annotations

from repro.errors import ILError
from repro.il.function import ILFunction
from repro.il.instructions import Instr, Opcode, is_terminator
from repro.il.module import ILModule


def verify_function(module: ILModule, function: ILFunction) -> None:
    labels = function.label_indices()  # raises on duplicate labels
    for instr in function.body:
        for label in instr.labels_used():
            if label not in labels:
                raise ILError(
                    f"{function.name}: jump to unknown label {label!r}"
                )
        if instr.op is Opcode.RET:
            if function.returns_value and instr.a is None:
                raise ILError(
                    f"{function.name}: valueless return in a value-returning"
                    " function"
                )
            if not function.returns_value and instr.a is not None:
                raise ILError(
                    f"{function.name}: value returned from a void function"
                )
    _verify_frame(function)
    _verify_def_before_use(function, labels)
    if not function.body or not is_terminator(function.body[-1]):
        raise ILError(f"{function.name}: function may fall off the end")

    for instr in function.body:
        if instr.op is Opcode.FRAME:
            if instr.name not in function.slots:
                raise ILError(
                    f"{function.name}: FRAME references unknown slot {instr.name!r}"
                )
        elif instr.op is Opcode.GADDR:
            if instr.name not in module.globals:
                raise ILError(
                    f"{function.name}: GADDR references unknown global {instr.name!r}"
                )
        elif instr.op is Opcode.FADDR:
            if instr.name not in module.functions and instr.name not in module.externals:
                raise ILError(
                    f"{function.name}: FADDR references unknown function {instr.name!r}"
                )
        elif instr.op is Opcode.CALL:
            callee = module.functions.get(instr.name or "")
            if callee is None:
                if instr.name not in module.externals:
                    raise ILError(
                        f"{function.name}: call to unknown function {instr.name!r}"
                    )
            elif len(instr.args) != len(callee.params):
                raise ILError(
                    f"{function.name}: call to {instr.name} with {len(instr.args)}"
                    f" args, expected {len(callee.params)}"
                )
            if instr.site < 0:
                raise ILError(f"{function.name}: call without a site id")
        elif instr.op is Opcode.ICALL and instr.site < 0:
            raise ILError(f"{function.name}: indirect call without a site id")


def _verify_frame(function: ILFunction) -> None:
    """Frame-slot consistency: layout assigned, aligned, non-overlapping."""
    if not function.slots:
        return
    laid_out = sorted(function.slots.values(), key=lambda slot: slot.offset)
    end = 0
    for slot in laid_out:
        if slot.size < 1:
            raise ILError(
                f"{function.name}: frame slot {slot.name!r} has size {slot.size}"
            )
        if slot.offset < 0:
            raise ILError(
                f"{function.name}: frame slot {slot.name!r} has no offset"
                " (layout_frame never ran)"
            )
        align = max(slot.align, 1)
        if slot.offset % align:
            raise ILError(
                f"{function.name}: frame slot {slot.name!r} at offset"
                f" {slot.offset} violates alignment {align}"
            )
        if slot.offset < end:
            raise ILError(
                f"{function.name}: frame slot {slot.name!r} at offset"
                f" {slot.offset} overlaps the previous slot (ends at {end})"
            )
        end = slot.offset + slot.size
    if end > function.frame_size:
        raise ILError(
            f"{function.name}: frame slots end at {end} but frame_size is"
            f" {function.frame_size}"
        )


def _verify_def_before_use(
    function: ILFunction, labels: dict[str, int]
) -> None:
    """Reject reads of registers that are definitely unassigned.

    A forward dataflow over the CFG tracks the set of registers
    *definitely unassigned* (unwritten along every path from entry;
    meet = intersection). Reading one is an error: no execution could
    have produced a value, so the read is either a frontend bug or —
    the case this exists for — an inlining rename bug such as a call
    destination no spliced return ever wrote. Registers assigned on
    *some* path are accepted, because the VM zero-initializes registers
    and conditional initialization is therefore well-defined.
    """
    body = function.body
    if not body:
        return

    # --- registers never assigned anywhere (cheap global screen) ------
    assigned_anywhere = set(function.params)
    for instr in body:
        if instr.dst is not None:
            assigned_anywhere.add(instr.dst)
    for instr in body:
        for reg in instr.source_regs():
            if reg not in assigned_anywhere:
                raise ILError(
                    f"{function.name}: register {reg!r} read before written"
                    " (never assigned anywhere)"
                )

    # --- basic blocks --------------------------------------------------
    leaders = {0}
    for index, instr in enumerate(body):
        if instr.op is Opcode.LABEL:
            leaders.add(index)
        if (is_terminator(instr) or instr.labels_used()) and index + 1 < len(body):
            leaders.add(index + 1)
    starts = sorted(leaders)
    block_of_index = {}
    blocks: list[tuple[int, int]] = []
    for block_id, start in enumerate(starts):
        end = starts[block_id + 1] if block_id + 1 < len(starts) else len(body)
        blocks.append((start, end))
        block_of_index[start] = block_id

    def successors(block_id: int) -> list[int]:
        start, end = blocks[block_id]
        last = body[end - 1]
        result = [
            block_of_index[labels[label]]
            for label in last.labels_used()
            if label in labels
        ]
        if not is_terminator(last) and end < len(body):
            result.append(block_of_index[end])
        return result

    all_regs = frozenset(assigned_anywhere)
    entry_unassigned = all_regs - set(function.params)

    def transfer(block_id: int, unassigned: frozenset[str]) -> frozenset[str]:
        current = set(unassigned)
        start, end = blocks[block_id]
        for instr in body[start:end]:
            if instr.dst is not None:
                current.discard(instr.dst)
        return frozenset(current)

    # Forward fixpoint, meet = intersection over predecessors; blocks
    # not yet reached contribute nothing (top element = all registers).
    in_sets: dict[int, frozenset[str]] = {0: frozenset(entry_unassigned)}
    out_sets: dict[int, frozenset[str]] = {}
    work = [0]
    while work:
        block_id = work.pop()
        out = transfer(block_id, in_sets[block_id])
        if out_sets.get(block_id) == out:
            continue
        out_sets[block_id] = out
        for succ in successors(block_id):
            merged = out if succ not in in_sets else (in_sets[succ] & out)
            if in_sets.get(succ) != merged:
                in_sets[succ] = merged
                work.append(succ)

    # Final pass: report reads of definitely-unassigned registers.
    for block_id, unassigned in in_sets.items():
        current = set(unassigned)
        start, end = blocks[block_id]
        for instr in body[start:end]:
            for reg in instr.source_regs():
                if reg in current:
                    raise ILError(
                        f"{function.name}: register {reg!r} read before written"
                    )
            if instr.dst is not None:
                current.discard(instr.dst)


def verify_module(module: ILModule) -> None:
    """Verify the whole module; raises ILError on the first defect."""
    if module.entry not in module.functions:
        raise ILError(f"entry function {module.entry!r} is not defined")
    sites: set[int] = set()
    for function in module.functions.values():
        verify_function(module, function)
        for instr in function.body:
            if instr.op is Opcode.CALL or instr.op is Opcode.ICALL:
                if instr.site in sites:
                    raise ILError(
                        f"duplicate call-site id {instr.site} (in {function.name})"
                    )
                sites.add(instr.site)
    for name in module.address_taken:
        if name not in module.functions and name not in module.externals:
            raise ILError(f"address-taken function {name!r} does not exist")

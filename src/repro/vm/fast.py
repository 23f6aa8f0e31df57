"""The fast execution tier: closure compilation of linked IL code.

The counting interpreter in :mod:`repro.vm.machine` pays a full dispatch
round (tuple fetch, opcode compare chain, operand boxing checks) for
every executed IL instruction. This module removes that overhead by
*compiling* each linked :class:`~repro.vm.machine._CompiledFunction`
into Python closures fused over control-flow regions
("superinstructions"):

- The function body is split into basic blocks (leaders: entry, jump /
  switch targets, the instruction after every control transfer or
  call). Each block becomes one generated Python closure whose body is
  straight-line Python — operand fetches, 32-bit wrapping arithmetic,
  and memory bounds checks are inlined with no per-instruction
  dispatch at all.
- Each closure greedily *inlines* its forward successors (both arms of
  a conditional, jump chains, fallthroughs, call continuations) up to
  a per-closure instruction budget, duplicating join blocks instead of
  bouncing through the driver. A branch back to the closure's own
  entry block compiles to ``continue`` of a surrounding ``while``
  loop, so hot inner loops run entirely inside one Python frame.
- Virtual registers are promoted to Python locals for the lifetime of
  a closure invocation: only live-in registers (and, for closures with
  back-edges, loop-carried ones) are unpacked from the register file
  on entry, and modified locals are written back only where control
  leaves the closure (cold branches, switches, deep calls).
- *Leaf* callees (acyclic, no calls to other user functions, no
  switch) are expanded transparently into the caller's closure with
  renamed locals — while still bumping the call/site/function/return
  counters, so the profile the paper's inliner consumes is untouched.
  This is the fast tier quietly agreeing with the paper: most dynamic
  calls go to small leaves, and expanding them wins.
- Remaining user calls are *direct Python calls*: the call site
  invokes the callee's entry closure inline and resumes in the same
  Python frame, so the caller's promoted registers survive the call
  with no spill at all. Beyond a fixed IL call depth (`_DEPTH_LIMIT`)
  call sites switch to returning a request tuple that an
  explicit-stack trampoline (``drive``) executes iteratively, so IL
  recursion of any depth — the reference interpreter bounds it only by
  stack memory, not Python frames — can never overflow the host stack.
- Dynamic-instruction accounting is *deferred along straight paths*:
  instruction and control-transfer counts accumulate as compile-time
  constants along each tail-duplicated path and flush as a single
  ``st[0] += n`` / ``st[1] += m`` at segment points (calls, closure
  exits, loop back-edges), so counters are exact at every call and on
  every successful run even when a builtin raises
  :class:`~repro.vm.builtins.ExitSignal` mid-block.

The tier is proven against the reference interpreter: for every
successful run it produces the exact same :class:`~repro.vm.counters.
Counters` — ``il``/``ct``/``calls``/``returns`` totals and the
``site_counts``/``func_counts``/``branch_counts`` dicts — and identical
outputs (see :mod:`repro.verify.engines` and the ``fast-tier-smoke`` CI
job). Divergences exist only on *aborted* runs: fuel exhaustion is
detected at region granularity (the trap still fires, but the reported
instruction count may differ from the reference by up to one closure's
inline budget), and a :class:`~repro.errors.VMTrap` mid-segment leaves
that segment's trailing instructions partially counted.

Generated code is a pure function of the linked instruction stream, so
factory sources are cached process-wide keyed on a structural
fingerprint of the compiled tuples and byte-compiled lazily, one
function at a time, the first time a run actually calls that function.
Re-running the same module (profiling loops, differential checks, fuzz
replay) pays code generation once, and functions that never execute
are never compiled.
"""

from __future__ import annotations

import struct
import sys
import threading
import weakref
from collections import OrderedDict

from repro.errors import VMTrap
from repro.vm.builtins import BUILTINS
from repro.vm.machine import (
    _BINOPS,
    _OP_BIN,
    _OP_CALLB,
    _OP_CALLU,
    _OP_CJUMP,
    _OP_CONST,
    _OP_FRAME,
    _OP_ICALL,
    _OP_JUMP,
    _OP_LOAD1,
    _OP_LOAD4,
    _OP_MOV,
    _OP_RET,
    _OP_STORE1,
    _OP_STORE4,
    _OP_SWITCH,
    _OP_UN,
    _UNOPS,
)

#: Operator symbol for each interpreter lambda (codegen inlines these).
_BIN_SYMBOL = {fn: symbol for symbol, fn in _BINOPS.items()}
_UN_SYMBOL = {fn: symbol for symbol, fn in _UNOPS.items()}

#: Comparison operators produce bare 0/1 and need no 32-bit wrap.
_COMPARISONS = {"<", ">", "<=", ">=", "==", "!="}

_TERMINATORS = (
    _OP_JUMP, _OP_CJUMP, _OP_SWITCH, _OP_RET, _OP_CALLU, _OP_ICALL,
)

#: How many instructions each closure may inline beyond its entry
#: block. Join blocks get tail-duplicated into both arms, so this caps
#: generated code growth; the budget is shared across the whole tree.
_INLINE_BUDGET = 256

#: Leaf callees whose fully tail-duplicated expansion exceeds this many
#: instructions are called through the normal protocol instead.
_LEAF_EXPANSION_CAP = 64

#: IL call depth beyond which call sites stop recursing into Python
#: and hand the callee to the explicit-stack trampoline instead. One
#: Python frame is consumed per direct IL call level.
_DEPTH_LIMIT = 512

#: Python recursion headroom needed for `_DEPTH_LIMIT` direct calls
#: plus builtins and the surrounding application stack.
_PY_STACK_NEED = 3000

#: Process-wide factory cache: structural code fingerprint -> module
#: factory table (sources compiled lazily, shared across machines).
_FACTORY_CACHE: OrderedDict[tuple, "_FactoryTable"] = OrderedDict()
_FACTORY_CACHE_LIMIT = 32
_FACTORY_LOCK = threading.Lock()

#: Fingerprint memo: source module -> {collect_branches: (link stamp,
#: fingerprint)}. Linking the same module content with the same flags
#: always produces the same instruction stream, so the (expensive)
#: canonicalisation runs once per module instead of once per run. The
#: machine's link stamp, a digest of its functions' content keys,
#: revalidates an entry, so a module edited in place gets a new
#: fingerprint.
_FP_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_UNPACK4 = struct.Struct("<i").unpack_from
_PACK4 = struct.Struct("<I").pack_into


class _FastFunction:
    """Per-machine shell for one closure-compiled function."""

    __slots__ = ("name", "nregs", "nparams", "frame_size", "entry")

    def __init__(self, name: str, nregs: int, nparams: int, frame_size: int):
        self.name = name
        self.nregs = nregs
        self.nparams = nparams
        self.frame_size = frame_size
        #: Entry block closure; None until the function first runs.
        self.entry = None


class _FactoryTable:
    """Lazily byte-compiled factory sources for one module shape.

    Shared by every machine whose linked code has the same fingerprint;
    each function's source is compiled at most once per process (a
    benign race under threads re-compiles identical source).
    """

    __slots__ = ("sources", "factories")

    def __init__(self, sources: dict[str, str]):
        self.sources = sources
        self.factories: dict = {}

    def get(self, name: str):
        factory = self.factories.get(name)
        if factory is None:
            namespace: dict = {}
            exec(
                compile(self.sources[name], "<repro-fast-tier>", "exec"),
                namespace,
            )
            factory = namespace[f"_factory_{name}"]
            self.factories[name] = factory
        return factory


# ----------------------------------------------------------------------
# structural fingerprint (cache key)


def _code_fingerprint(compiled: dict) -> tuple:
    """Flatten the linked instruction stream into a hashable key.

    Callables (builtin impls, operator lambdas) are module-level
    singletons, so identity is a stable process-wide token. Marker
    strings can never collide with payload strings (function and
    builtin names are C identifiers).
    """
    parts = []
    for name, function in compiled.items():
        flat: list = [
            name, function.nregs, function.nparams, function.frame_size,
        ]
        append = flat.append
        for ins in function.code:
            append("|")
            for item in ins:
                kind = type(item)
                if kind is int or kind is str or item is None:
                    append(item)
                elif kind is tuple:
                    append("(")
                    for sub in item:
                        if type(sub) is tuple:  # boxed immediate
                            append("#")
                            append(sub[0])
                        else:
                            append(sub)
                    append(")")
                elif kind is dict:
                    append("{")
                    for key in sorted(item):
                        append(key)
                        append(item[key])
                    append("}")
                else:  # callable
                    append(id(item))
        parts.append(tuple(flat))
    return tuple(parts)


# ----------------------------------------------------------------------
# code generation


def _block_starts(code: list) -> list[int]:
    starts = {0, len(code)}
    for pc, ins in enumerate(code):
        op = ins[0]
        if op == _OP_JUMP:
            starts.add(ins[1])
            starts.add(pc + 1)
        elif op == _OP_CJUMP:
            starts.add(ins[2])
            starts.add(ins[3])
            starts.add(pc + 1)
        elif op == _OP_SWITCH:
            starts.update(ins[2].values())
            starts.add(ins[3])
            starts.add(pc + 1)
        elif op in (_OP_RET, _OP_CALLU, _OP_ICALL):
            starts.add(pc + 1)
    return sorted(start for start in starts if start <= len(code))


def _leaf_expansion_size(function) -> tuple[int, int | None] | None:
    """(expansion size, loop header block) for an inlinable leaf.

    A *leaf* makes no user or indirect calls and has no switch, so its
    whole body can be expanded into a caller with every path ending in
    a return or trap, never needing the caller's driver protocol.
    Builtin calls are fine. Backward branches are allowed when they all
    target one common header that dominates them — the expansion wraps
    that region in a nested ``while`` whose returns ``break`` out, so
    loop-containing string/scan helpers inline too. Returns None when
    the function is not expandable (or too large).
    """
    code = function.code
    header_pc: int | None = None
    for pc, ins in enumerate(code):
        op = ins[0]
        if op in (_OP_CALLU, _OP_ICALL, _OP_SWITCH):
            return None
        targets = ()
        if op == _OP_JUMP:
            targets = (ins[1],)
        elif op == _OP_CJUMP:
            targets = (ins[2], ins[3])
        for target in targets:
            if target <= pc:
                if header_pc is None:
                    header_pc = target
                elif header_pc != target:
                    return None  # two distinct loops: not expandable
    starts = _block_starts(code)
    block_of = {start: i for i, start in enumerate(starts)}
    header = None if header_pc is None else block_of[header_pc]

    def successors(index: int):
        start = starts[index]
        end = starts[index + 1] if index + 1 < len(starts) else len(code)
        if start >= len(code):
            return ()
        terminator = code[end - 1]
        op = terminator[0]
        if op == _OP_JUMP:
            return (block_of[terminator[1]],)
        if op == _OP_CJUMP:
            return (block_of[terminator[2]], block_of[terminator[3]])
        if op == _OP_RET:
            return ()
        return (block_of[end],) if end in block_of else ()

    if header is not None and header != 0:
        # The generated `continue` is only well-formed if every
        # back-edge source sits inside the header's `while` — i.e. is
        # unreachable without passing through the header. Reject jumps
        # into the middle of the loop.
        seen = {0}
        work = [0]
        while work:
            for successor in successors(work.pop()):
                if successor != header and successor not in seen:
                    seen.add(successor)
                    work.append(successor)
        for pc, ins in enumerate(code):
            op = ins[0]
            back = (
                op == _OP_JUMP and ins[1] <= pc
            ) or (op == _OP_CJUMP and (ins[2] <= pc or ins[3] <= pc))
            if back:
                source = block_of[
                    max(s for s in starts if s <= pc and s < len(code))
                ]
                if source in seen:
                    return None

    memo: dict[int, int] = {}
    in_progress: set[int] = set()

    def expansion(index: int) -> int:
        if index in memo:
            return memo[index]
        if index in in_progress:  # back-edge: compiles to `continue`
            return 0
        in_progress.add(index)
        start = starts[index]
        end = starts[index + 1] if index + 1 < len(starts) else len(code)
        if start >= len(code):
            in_progress.discard(index)
            return 1
        size = end - start
        terminator = code[end - 1]
        op = terminator[0]
        if op == _OP_JUMP:
            size += expansion(block_of[terminator[1]])
        elif op == _OP_CJUMP:
            size += expansion(block_of[terminator[2]])
            size += expansion(block_of[terminator[3]])
        elif op != _OP_RET:  # fallthrough into the next block
            size += expansion(block_of[end])
        in_progress.discard(index)
        memo[index] = size
        return size

    total = expansion(0)
    return (total, header) if total <= _LEAF_EXPANSION_CAP else None


class _Frame:
    """One level of transparent expansion inside a generated closure.

    The root frame is the function the closure belongs to (registers
    ``rN``, frame pointer ``fp``). Each inlined leaf call adds a frame
    with a unique register prefix and a constant frame-pointer offset.
    """

    __slots__ = ("function", "code", "starts", "block_of", "prefix",
                 "fp_off", "depth_off", "frame_size", "retk",
                 "loop_header")

    def __init__(self, function, prefix: str, fp_off: int, depth_off: int):
        self.function = function
        self.code = function.code
        self.starts = _block_starts(function.code)
        self.block_of = {s: i for i, s in enumerate(self.starts)}
        self.prefix = prefix
        self.fp_off = fp_off
        self.depth_off = depth_off
        self.frame_size = function.frame_size
        #: Emission callback replacing RET for inlined frames; carries
        #: the caller's continuation so every return site in the
        #: expansion resumes the caller in place.
        self.retk = None
        #: Block index of the single loop header (inlined frames only).
        self.loop_header: int | None = None

    def fp_expr(self) -> str:
        return "fp" if self.fp_off == 0 else f"fp + {self.fp_off}"


class _FunctionCodegen:
    """Emits the factory source for one compiled function."""

    def __init__(self, name: str, compiled: dict,
                 leaves: dict[str, tuple[int, int | None]]):
        self.name = name
        self.compiled = compiled
        self.leaves = leaves
        self.root = _Frame(compiled[name], "", 0, 0)
        self.lines: list[str] = []
        self.bindings: dict[str, str] = {}  # identifier -> init statement
        self.switches: list[str] = []
        self._switch_count = 0
        #: Branch key -> bound alias of its [taken, not-taken] pair.
        #: run_fast pre-seeds every static key, so the binding resolves
        #: at materialisation and each arm is a plain list bump.
        self._branch_aliases: dict = {}
        # Blocks targeted by a backward branch: each gets a nested
        # `while` when reached, so inner loops never bounce through the
        # driver between iterations.
        self.root_loop_headers: set[int] = set()
        code = self.root.code
        for pc, ins in enumerate(code):
            op = ins[0]
            if op == _OP_JUMP and ins[1] <= pc:
                self.root_loop_headers.add(self.root.block_of[ins[1]])
            elif op == _OP_CJUMP:
                for target in (ins[2], ins[3]):
                    if target <= pc:
                        self.root_loop_headers.add(
                            self.root.block_of[target]
                        )
        # Per-closure emission state.
        self.body: list = []
        self.live_in: set[int] = set()
        self.assigned_anywhere: set[int] = set()
        self.has_backedge = False
        self.budget = 0
        self._inline_count = 0
        #: Textually-open nested root loops, innermost last.
        self._loop_stack: list[int] = []

    # -- emission helpers ---------------------------------------------

    def emit(self, indent: int, line: str) -> None:
        self.body.append("    " * indent + line)

    def bind(self, identifier: str, init: str) -> str:
        self.bindings.setdefault(identifier, f"    {identifier} = {init}")
        return identifier

    def assign(self, frame: _Frame, assigned: set[str], index: int) -> str:
        """Mark a register as defined on this path; return its local."""
        name = f"{frame.prefix}r{index}"
        assigned.add(name)
        if not frame.prefix:
            self.assigned_anywhere.add(index)
        return name

    def operand(self, frame: _Frame, value, assigned: set[str]) -> str:
        """Expression for one operand.

        Root-frame reads before a path assignment make the register
        live-in (unpacked at closure entry). Inlined-frame reads before
        a path assignment fold to the register's initial value, 0 —
        every emitted location sits on exactly one tail-duplicated path
        from the expansion entry, so "not assigned here" means "still
        holds its initial zero".
        """
        if type(value) is int:
            name = f"{frame.prefix}r{value}"
            if name not in assigned:
                if frame.prefix:
                    return "0"
                self.live_in.add(value)
            return name
        return repr(value[0])

    def _wrap_assign(self, indent: int, target: str, expression: str) -> None:
        """32-bit two's-complement wrap of ``expression`` into ``target``."""
        self.emit(indent, f"t = {expression} & 4294967295")
        self.emit(
            indent, f"{target} = t - 4294967296 if t & 2147483648 else t"
        )

    def _flush(self, indent: int, pil: int, pct: int,
               pca: int = 0, prt: int = 0) -> None:
        """Account deferred il / ct / call / return counts.

        Every flush point dominates the next builtin invocation and
        every closure exit, so the shared counter segment is exact
        whenever foreign code (or the driver) can observe it.
        """
        if pil:
            self.emit(indent, f"st[0] += {pil}")
        if pct:
            self.emit(indent, f"st[1] += {pct}")
        if pca:
            self.emit(indent, f"st[2] += {pca}")
        if prt:
            self.emit(indent, f"st[3] += {prt}")

    def _bump(self, indent: int, counts: str, key) -> None:
        """Exact equivalent of ``d[k] = d.get(k, 0) + 1``, hot-path cheap."""
        self.emit(indent, "try:")
        self.emit(indent, f"    {counts}[{key!r}] += 1")
        self.emit(indent, "except KeyError:")
        self.emit(indent, f"    {counts}[{key!r}] = 1")

    def _writeback(self, indent: int, assigned: set[str]) -> None:
        """Spill modified root-frame locals back to the register file.

        Emitted as a placeholder and expanded once the whole closure is
        generated: when the closure contains a back-edge, locals
        assigned on *any* path may carry state from a previous loop
        iteration into this exit, so the spill must cover the
        closure-wide assigned set, not just the current path's.
        Inlined-frame registers never spill — they are dead at every
        closure exit.
        """
        roots = frozenset(
            int(name[1:]) for name in assigned if name[0] == "r"
        )
        self.body.append((indent, roots))

    # -- per-instruction bodies ---------------------------------------

    def _emit_simple(self, frame: _Frame, ins, indent: int,
                     assigned: set[str]) -> None:
        op = ins[0]
        if op == _OP_CONST:
            self.emit(
                indent, f"{self.assign(frame, assigned, ins[1])} = {ins[2]!r}"
            )
        elif op == _OP_MOV:
            value = self.operand(frame, ins[2], assigned)
            self.emit(
                indent, f"{self.assign(frame, assigned, ins[1])} = {value}"
            )
        elif op == _OP_BIN:
            symbol = _BIN_SYMBOL[ins[2]]
            a = self.operand(frame, ins[3], assigned)
            b = self.operand(frame, ins[4], assigned)
            target = self.assign(frame, assigned, ins[1])
            if symbol in _COMPARISONS:
                self.emit(indent, f"{target} = 1 if {a} {symbol} {b} else 0")
            elif symbol == "/":
                self.emit(indent, f"{target} = c_div({a}, {b})")
            elif symbol == "%":
                self.emit(indent, f"{target} = c_mod({a}, {b})")
            elif symbol == "<<":
                self._wrap_assign(indent, target, f"{a} << ({b} & 31)")
            elif symbol == ">>":
                self._wrap_assign(indent, target, f"{a} >> ({b} & 31)")
            else:
                self._wrap_assign(indent, target, f"{a} {symbol} {b}")
        elif op == _OP_UN:
            symbol = _UN_SYMBOL[ins[2]]
            a = self.operand(frame, ins[3], assigned)
            target = self.assign(frame, assigned, ins[1])
            if symbol == "+":
                self.emit(indent, f"{target} = {a}")
            elif symbol == "!":
                self.emit(indent, f"{target} = 0 if {a} else 1")
            elif symbol == "sxt8":
                self.emit(indent, f"{target} = (({a} & 255) ^ 128) - 128")
            else:  # "-" / "~"
                self._wrap_assign(indent, target, f"{symbol}({a})")
        elif op == _OP_LOAD4:
            address = self.operand(frame, ins[2], assigned)
            self.emit(
                indent, f"if {address} < 16 or {address} + 4 > lm:"
            )
            self.emit(
                indent,
                f"    raise VMTrap(f'load4 from bad address {{{address}}}')",
            )
            self.emit(
                indent,
                f"{self.assign(frame, assigned, ins[1])} ="
                f" U4(mem, {address})[0]",
            )
        elif op == _OP_LOAD1:
            address = self.operand(frame, ins[2], assigned)
            self.emit(indent, f"if {address} < 16 or {address} >= lm:")
            self.emit(
                indent,
                f"    raise VMTrap(f'load1 from bad address {{{address}}}')",
            )
            self.emit(
                indent,
                f"{self.assign(frame, assigned, ins[1])} ="
                f" (mem[{address}] ^ 128) - 128",
            )
        elif op == _OP_STORE4:
            address = self.operand(frame, ins[1], assigned)
            self.emit(
                indent, f"if {address} < 16 or {address} + 4 > lm:"
            )
            self.emit(
                indent,
                f"    raise VMTrap(f'store4 to bad address {{{address}}}')",
            )
            value = ins[2]
            if type(value) is not int:
                self.emit(
                    indent,
                    f"P4(mem, {address}, {value[0] & 0xFFFFFFFF})",
                )
            else:
                self.emit(
                    indent,
                    f"P4(mem, {address},"
                    f" {self.operand(frame, value, assigned)} & 4294967295)",
                )
        elif op == _OP_STORE1:
            address = self.operand(frame, ins[1], assigned)
            self.emit(indent, f"if {address} < 16 or {address} >= lm:")
            self.emit(
                indent,
                f"    raise VMTrap(f'store1 to bad address {{{address}}}')",
            )
            value = self.operand(frame, ins[2], assigned)
            self.emit(indent, f"mem[{address}] = {value} & 255")
        elif op == _OP_FRAME:
            self.emit(
                indent,
                f"{self.assign(frame, assigned, ins[1])} ="
                f" fp + {frame.fp_off + ins[2]}",
            )
        else:  # pragma: no cover - handled by callers
            raise AssertionError(f"not a simple opcode {op}")

    def _emit_callb(self, frame: _Frame, ins, indent: int,
                    assigned: set[str], pil: int, pct: int, pca: int,
                    prt: int) -> tuple[int, int, int, int]:
        """Emit a builtin call; returns the pending counts that follow.

        All deferred counts (including this call) flush before the
        implementation runs — a builtin may raise ExitSignal and the
        counter snapshot must be exact at that point. The matching
        return is deferred into the continuation.
        """
        dst, impl, args, site, name = ins[1], ins[2], ins[3], ins[4], ins[5]
        if impl is None:
            self._flush(indent, pil, pct, pca, prt)
            message = f"call to unavailable external {name!r}"
            self.emit(indent, f"raise VMTrap({message!r})")
            return 0, 0, 0, 0
        self._flush(indent, pil, pct, pca + 1, prt)
        self._bump(indent, "site_counts", site)
        self._bump(indent, "func_counts", name)
        binding = self.bind(f"B_{name}", f"builtins[{name!r}][1]")
        arguments = "".join(
            f", {self.operand(frame, arg, assigned)}" for arg in args
        )
        self.emit(indent, f"t = {binding}(M{arguments})")
        self.emit(indent, "lm = len(mem)")
        if dst >= 0:
            self.emit(
                indent,
                f"{self.assign(frame, assigned, dst)} = 0 if t is None else t",
            )
        return 0, 0, 0, 1

    def _emit_new_regs(self, callee, values, indent: int) -> None:
        if callee.nregs <= 24:
            cells = values + ["0"] * (callee.nregs - len(values))
            self.emit(indent, f"nr = [{', '.join(cells)}]")
        else:
            self.emit(indent, f"nr = [0] * {callee.nregs}")
            for index, value in enumerate(values):
                self.emit(indent, f"nr[{index}] = {value}")

    def _emit_inline_call(self, frame: _Frame, ins, cont: int, entry: int,
                          path: frozenset, indent: int, assigned: set[str],
                          pil: int, pct: int, pca: int, prt: int) -> None:
        """Expand a leaf callee into the current closure.

        Counting (call, site, function, return) is emitted exactly as
        for a protocol call — the call and its matching return simply
        join the deferred pending counts, since a pure leaf body cannot
        invoke foreign code before the next flush point. The
        stack-overflow probe stays when the callee owns frame memory —
        when its frame size is 0 the probe can never fire (the caller's
        own entry already proved ``fp + fp_off + frame_size`` is within
        the limit) and is elided.
        """
        dst, name, args, site = ins[1], ins[2], ins[3], ins[4]
        callee = self.compiled[name]
        self._bump(indent, "site_counts", site)
        self._bump(indent, "func_counts", name)
        values = [self.operand(frame, arg, assigned) for arg in args]
        self._inline_count += 1
        inner = _Frame(
            callee,
            f"i{self._inline_count}_",
            frame.fp_off + frame.frame_size,
            frame.depth_off + 1,
        )
        inner.loop_header = self.leaves[name][1]
        for index, value in enumerate(values):
            self.emit(
                indent, f"{self.assign(inner, assigned, index)} = {value}"
            )
        if callee.frame_size > 0:
            self.emit(
                indent,
                f"if {inner.fp_expr()} + {callee.frame_size} > stack_limit:",
            )
            self.emit(
                indent,
                "    raise VMTrap(f'control stack overflow calling"
                f" {name} (depth {{d + {inner.depth_off}}})')",
            )

        def return_to_caller(value_expr: str, ret_assigned: set[str],
                             ret_indent: int, ret_pil: int, ret_pct: int,
                             ret_pca: int, ret_prt: int) -> None:
            if dst >= 0:
                self.emit(
                    ret_indent,
                    f"{self.assign(frame, ret_assigned, dst)} = {value_expr}",
                )
            self._goto(
                frame, cont, entry, path, ret_assigned, ret_indent,
                ret_pil, ret_pct, ret_pca, ret_prt + 1,
            )

        inner.retk = return_to_caller
        self._gen_block(
            inner, 0, entry, path | {(inner.prefix, 0)}, assigned, indent,
            pil, pct, pca + 1, prt,
        )

    def _emit_callu(self, frame: _Frame, ins, cont: int, entry: int,
                    path: frozenset, indent: int, assigned: set[str],
                    pil: int, pct: int, pca: int, prt: int) -> None:
        """Direct call when shallow; trampoline request tuple when deep.

        The shallow arm runs the callee via plain Python recursion and
        falls straight through to the continuation in the same Python
        frame — the caller's promoted registers never touch the
        register file. One Python frame per IL depth level is safe up
        to `_DEPTH_LIMIT`; past that every call site returns a request
        tuple and ``drive`` executes the subtree with an explicit
        stack.
        """
        name = ins[2]
        callee = self.compiled[name]
        leaf = self.leaves.get(name)
        if leaf is not None and leaf[0] <= self.budget:
            self.budget -= leaf[0]
            self._emit_inline_call(
                frame, ins, cont, entry, path, indent, assigned,
                pil, pct, pca, prt,
            )
            return
        dst, args, site = ins[1], ins[3], ins[4]
        self._flush(indent, pil, pct, pca + 1, prt)
        self._bump(indent, "site_counts", site)
        self._bump(indent, "func_counts", name)
        values = [self.operand(frame, arg, assigned) for arg in args]
        self._emit_new_regs(callee, values, indent)
        binding = self.bind(f"F_{name}", f"FNS[{name!r}]")
        fp_off = frame.fp_off + frame.frame_size
        fp2 = "fp" if fp_off == 0 else f"fp + {fp_off}"
        depth = f"d + {frame.depth_off + 1}"
        self.emit(indent, f"if d < {_DEPTH_LIMIT}:")
        inner = indent + 1
        if callee.frame_size > 0:
            self.emit(
                inner, f"if {fp2} + {callee.frame_size} > stack_limit:"
            )
            self.emit(
                inner,
                "    raise VMTrap(f'control stack overflow calling"
                f" {name} (depth {{{depth}}})')",
            )
        self.emit(inner, f"blk = {binding}.entry")
        self.emit(inner, "if blk is None:")
        self.emit(inner, f"    blk = MAT({binding})")
        self.emit(inner, f"t = blk(nr, {fp2}, {depth})")
        self.emit(inner, "while t.__class__ is not tuple:")
        self.emit(inner, f"    t = t(nr, {fp2}, {depth})")
        self.emit(inner, "if len(t) != 1:")
        self.emit(inner, f"    t = drive(t, nr, {fp2}, {depth})")
        self.emit(inner, "lm = len(mem)")
        shallow = set(assigned)
        if dst >= 0:
            self.emit(inner, f"{self.assign(frame, shallow, dst)} = t[0]")
        self._goto(frame, cont, entry, path, shallow, inner, 0, 0, 0, 1)
        self.emit(indent, "else:")
        self._writeback(indent + 1, assigned)
        self.emit(
            indent + 1,
            f"return ({binding}, nr, {dst}, b{cont}, {fp2})",
        )

    def _emit_icall(self, frame: _Frame, ins, cont: int, entry: int,
                    path: frozenset, indent: int, assigned: set[str],
                    pil: int, pct: int, pca: int, prt: int) -> None:
        dst, pointer, args, site = ins[1], ins[2], ins[3], ins[4]
        self._flush(indent, pil, pct, pca, prt)
        values = ", ".join(
            self.operand(frame, arg, assigned) for arg in args
        )
        values = f"({values},)" if values else "()"
        pointer = self.operand(frame, pointer, assigned)
        fp_off = frame.fp_off + frame.frame_size
        fp2 = "fp" if fp_off == 0 else f"fp + {fp_off}"
        depth = "d" if frame.depth_off == 0 else f"d + {frame.depth_off}"
        self.emit(
            indent,
            f"t = icall({pointer}, {values}, {dst}, {site},"
            f" {fp2}, {depth}, b{cont})",
        )
        self.emit(indent, "lm = len(mem)")
        self.emit(indent, "if len(t) == 1:")
        inner = indent + 1
        shallow = set(assigned)
        if dst >= 0:
            self.emit(inner, f"{self.assign(frame, shallow, dst)} = t[0]")
        self._goto(frame, cont, entry, path, shallow, inner, 0, 0, 0, 0)
        self.emit(indent, "else:")
        self._writeback(indent + 1, assigned)
        self.emit(indent + 1, "return t")

    # -- control-flow-region emission ---------------------------------

    def _emit_inline_loop(self, frame: _Frame, index: int, entry: int,
                          path: frozenset, assigned: set[str], indent: int,
                          pil: int, pct: int, pca: int, prt: int) -> None:
        """Wrap an inlined leaf's loop region in a nested ``while``.

        Return sites inside the loop stash the value and ``break``; the
        caller's continuation is emitted once after the loop, so a
        ``continue`` emitted there still targets the *enclosing*
        closure loop. The fuel probe at the top of the body keeps this
        cycle checked — it never passes the closure entry.
        """
        self._flush(indent, pil, pct, pca, prt)
        result = f"{frame.prefix}rv"
        outer_retk = frame.retk

        def loop_retk(value_expr: str, ret_assigned: set[str],
                      ret_indent: int, ret_pil: int, ret_pct: int,
                      ret_pca: int, ret_prt: int) -> None:
            self.emit(ret_indent, f"{result} = {value_expr}")
            self._flush(ret_indent, ret_pil, ret_pct, ret_pca, ret_prt)
            self.emit(ret_indent, "break")

        frame.retk = loop_retk
        self.emit(indent, "while 1:")
        self.emit(indent + 1, "if st[0] > fuel:")
        self.emit(
            indent + 1,
            "    raise VMTrap('fuel exhausted after"
            " %d instructions' % st[0])",
        )
        self._gen_block(
            frame, index, entry, path, assigned, indent + 1,
            0, 0, 0, 0, as_loop_body=True,
        )
        frame.retk = outer_retk
        outer_retk(result, assigned, indent, 0, 0, 0, 0)

    def _block_extent(self, frame: _Frame, index: int) -> tuple[int, int]:
        start = frame.starts[index]
        end = (
            frame.starts[index + 1]
            if index + 1 < len(frame.starts)
            else len(frame.code)
        )
        return start, end

    def _goto(self, frame: _Frame, target: int, entry: int, path: frozenset,
              assigned: set[str], indent: int, pil: int, pct: int,
              pca: int = 0, prt: int = 0) -> None:
        """Transfer control to block ``target`` from inside a closure.

        Back-edges to the closure's entry block re-enter its ``while``
        loop; forward targets are inlined (tail-duplicated) while the
        budget lasts; everything else spills locals and bounces through
        the driver via the target's own closure. Inlined leaf frames
        are acyclic and fully pre-budgeted, so their transfers always
        land in the first two cases.
        """
        key = (frame.prefix, target)
        if not frame.prefix:
            if target == entry and not self._loop_stack:
                self.has_backedge = True
                self._flush(indent, pil, pct, pca, prt)
                self.emit(indent, "continue")
                return
            if (
                self._loop_stack
                and target == self._loop_stack[-1]
                and key in path
            ):
                # Back-edge of the innermost open nested loop.
                self._flush(indent, pil, pct, pca, prt)
                self.emit(indent, "continue")
                return
            # A `continue` for any other loop level would bind to the
            # wrong `while`; fall through to the bounce path (below),
            # which re-enters via the target block's own closure.
        elif target == frame.loop_header and key in path:
            # Back-edge of an inlined leaf loop: re-enter its `while`.
            self._flush(indent, pil, pct, pca, prt)
            self.emit(indent, "continue")
            return
        start, end = self._block_extent(frame, target)
        size = end - start
        if key not in path and (frame.prefix or size <= self.budget):
            if not frame.prefix:
                self.budget -= size
            self._gen_block(
                frame, target, entry, path | {key}, assigned, indent,
                pil, pct, pca, prt,
            )
            return
        self._flush(indent, pil, pct, pca, prt)
        self._writeback(indent, assigned)
        self.emit(indent, f"return b{target}")

    def _gen_block(self, frame: _Frame, index: int, entry: int,
                   path: frozenset, assigned: set[str], indent: int,
                   pil: int, pct: int, pca: int = 0, prt: int = 0,
                   as_loop_body: bool = False) -> None:
        if (
            frame.prefix
            and index == frame.loop_header
            and not as_loop_body
        ):
            self._emit_inline_loop(
                frame, index, entry, path, assigned, indent,
                pil, pct, pca, prt,
            )
            return
        if (
            not frame.prefix
            and not as_loop_body
            and index != entry
            and index in self.root_loop_headers
        ):
            # Inner loop of this function: give it its own `while` so
            # iterating never leaves the closure. Registers assigned on
            # any path may now carry values across iterations, so exits
            # must spill the closure-wide assigned set (has_backedge).
            self._flush(indent, pil, pct, pca, prt)
            self.has_backedge = True
            self._loop_stack.append(index)
            self.emit(indent, "while 1:")
            self.emit(indent + 1, "if st[0] > fuel:")
            self.emit(
                indent + 1,
                "    raise VMTrap('fuel exhausted after"
                " %d instructions' % st[0])",
            )
            self._gen_block(
                frame, index, entry, path, assigned, indent + 1,
                0, 0, 0, 0, as_loop_body=True,
            )
            self._loop_stack.pop()
            return
        start, end = self._block_extent(frame, index)
        if start >= len(frame.code):
            # Control fell (or jumped) off the end of the function; the
            # reference interpreter raises the same IndexError here.
            self._flush(indent, pil, pct, pca, prt)
            self.emit(indent, "raise IndexError('list index out of range')")
            return
        body = frame.code[start:end]
        terminator = body[-1]
        has_terminator = terminator[0] in _TERMINATORS
        straight = body[:-1] if has_terminator else body
        for ins in straight:
            pil += 1
            if ins[0] == _OP_CALLB:
                pil, pct, pca, prt = self._emit_callb(
                    frame, ins, indent, assigned, pil, pct, pca, prt
                )
            else:
                self._emit_simple(frame, ins, indent, assigned)
        if not has_terminator:
            self._goto(
                frame, frame.block_of[end], entry, path, assigned, indent,
                pil, pct, pca, prt,
            )
            return
        pil += 1
        op = terminator[0]
        if op == _OP_JUMP:
            self._goto(
                frame, frame.block_of[terminator[1]], entry, path, assigned,
                indent, pil, pct + 1, pca, prt,
            )
        elif op == _OP_CJUMP:
            pct += 1
            value = self.operand(frame, terminator[1], assigned)
            taken = frame.block_of[terminator[2]]
            fallthrough = frame.block_of[terminator[3]]
            key = terminator[4]
            self.emit(indent, f"if {value}:")
            if key is not None:
                alias = self._branch_aliases.get(key)
                if alias is None:
                    alias = f"BR{len(self._branch_aliases)}"
                    self._branch_aliases[key] = alias
                    self.bind(alias, f"branch_counts[{key!r}]")
                self.emit(indent + 1, f"{alias}[0] += 1")
            self._goto(
                frame, taken, entry, path, set(assigned), indent + 1,
                pil, pct, pca, prt,
            )
            if key is not None:
                self.emit(indent, f"{alias}[1] += 1")
            self._goto(
                frame, fallthrough, entry, path, assigned, indent,
                pil, pct, pca, prt,
            )
        elif op == _OP_SWITCH:
            self._flush(indent, pil, pct + 1, pca, prt)
            name = f"S{self._switch_count}"
            self._switch_count += 1
            entries = ", ".join(
                f"{value!r}: b{frame.block_of[target]}"
                for value, target in terminator[2].items()
            )
            self.switches.append(f"    {name} = {{{entries}}}")
            value = self.operand(frame, terminator[1], assigned)
            default = f"b{frame.block_of[terminator[3]]}"
            self._writeback(indent, assigned)
            self.emit(indent, f"return {name}.get({value}, {default})")
        elif op == _OP_RET:
            # Registers die at return: no spill needed.
            operand = terminator[1]
            value = (
                "0"
                if operand is None
                else self.operand(frame, operand, assigned)
            )
            if frame.retk is None:
                self._flush(indent, pil, pct, pca, prt)
                self.emit(indent, f"return ({value},)")
            else:
                frame.retk(value, assigned, indent, pil, pct, pca, prt)
        elif op == _OP_CALLU:
            self._emit_callu(
                frame, terminator, frame.block_of[end], entry, path, indent,
                assigned, pil, pct, pca, prt,
            )
        elif op == _OP_ICALL:
            self._emit_icall(
                frame, terminator, frame.block_of[end], entry, path, indent,
                assigned, pil, pct, pca, prt,
            )
        else:  # pragma: no cover
            raise AssertionError(f"unhandled terminator {op}")

    # -- closures ------------------------------------------------------

    def _gen_closure(self, index: int) -> None:
        self.body = []
        self.live_in = set()
        self.assigned_anywhere = set()
        self.has_backedge = False
        self.budget = _INLINE_BUDGET
        self._inline_count = 0
        self._loop_stack = []
        # The fuel probe sits at the top of every closure (and so on
        # every loop iteration and every call): all executed
        # instructions are flushed at closure exits and back-edges, so
        # st[0] is exact here and no cycle can run unchecked.
        self.emit(3, "if st[0] > fuel:")
        self.emit(
            3,
            "    raise VMTrap('fuel exhausted after"
            " %d instructions' % st[0])",
        )
        self._gen_block(
            self.root, index, index, frozenset((("", index),)), set(), 3,
            0, 0,
        )
        self.lines.append(f"    def b{index}(r, fp, d):")
        # Localise the memory bound: ``mem`` only grows, and only
        # builtins grow it, so refreshing ``lm`` at entry and after
        # every call keeps the bound exact without a ``len`` per access.
        self.lines.append("        lm = len(mem)")
        # Unpack live-in registers; a back-edge additionally keeps every
        # assigned register local across iterations, so those spill
        # targets must be defined on every path too.
        unpack = self.live_in
        if self.has_backedge:
            unpack = unpack | self.assigned_anywhere
        for register in sorted(unpack):
            self.lines.append(f"        r{register} = r[{register}]")
        # Every path through the region tree ends in continue / return /
        # raise, so the loop only repeats on back-edges to this entry.
        self.lines.append("        while 1:")
        for item in self.body:
            if type(item) is str:
                self.lines.append(item)
                continue
            indent, path_assigned = item
            spill = (
                self.assigned_anywhere if self.has_backedge else path_assigned
            )
            for register in sorted(spill):
                self.lines.append(
                    "    " * indent + f"r[{register}] = r{register}"
                )

    def generate(self) -> str:
        for index in range(len(self.root.starts)):
            self._gen_closure(index)
        header = [
            f"def _factory_{self.name}(env, FNS):",
            "    st = env['st']",
            "    mem = env['mem']",
            "    fuel = env['fuel']",
            "    site_counts = env['site_counts']",
            "    func_counts = env['func_counts']",
            "    branch_counts = env['branch_counts']",
            "    M = env['machine']",
            "    icall = env['icall']",
            "    drive = env['drive']",
            "    MAT = env['materialize']",
            "    stack_limit = env['stack_limit']",
            "    builtins = env['builtins']",
            "    U4 = env['U4']",
            "    P4 = env['P4']",
            "    c_div = env['c_div']",
            "    c_mod = env['c_mod']",
            "    VMTrap = env['VMTrap']",
        ]
        header.extend(sorted(self.bindings.values()))
        return "\n".join(header + self.lines + self.switches + ["    return b0"])


def _build_sources(compiled: dict) -> dict[str, str]:
    """Generate (but do not compile) the factory source per function."""
    leaves: dict[str, tuple[int, int | None]] = {}
    for name, function in compiled.items():
        leaf = _leaf_expansion_size(function)
        if leaf is not None:
            leaves[name] = leaf
    return {
        name: _FunctionCodegen(name, compiled, leaves).generate()
        for name in compiled
    }


def _factories_for(compiled: dict, module=None,
                   collect_branches: bool = False, stamp=None) -> _FactoryTable:
    key = None
    if module is not None:
        try:
            memo = _FP_MEMO.setdefault(module, {})
        except TypeError:  # unhashable/unweakrefable module object
            memo = None
        if memo is not None:
            entry = memo.get(collect_branches)
            if entry is not None and entry[0] == stamp:
                key = entry[1]
            else:
                key = _code_fingerprint(compiled)
                memo[collect_branches] = (stamp, key)
    if key is None:
        key = _code_fingerprint(compiled)
    with _FACTORY_LOCK:
        table = _FACTORY_CACHE.get(key)
        if table is not None:
            _FACTORY_CACHE.move_to_end(key)
            return table
    table = _FactoryTable(_build_sources(compiled))
    with _FACTORY_LOCK:
        table = _FACTORY_CACHE.setdefault(key, table)
        _FACTORY_CACHE.move_to_end(key)
        while len(_FACTORY_CACHE) > _FACTORY_CACHE_LIMIT:
            _FACTORY_CACHE.popitem(last=False)
    return table


# ----------------------------------------------------------------------
# execution


def run_fast(machine, entry_compiled, args: list[int]) -> int:
    """Execute ``machine``'s linked module on the fast tier.

    Mirrors :meth:`~repro.vm.machine.Machine._execute`: same memory,
    same virtual OS, same counter totals and per-site/function/branch
    dicts on every successful run.
    """
    from repro.vm.machine import _c_div, _c_mod

    if sys.getrecursionlimit() < _PY_STACK_NEED:
        sys.setrecursionlimit(_PY_STACK_NEED)

    compiled = machine._compiled
    factories = _factories_for(
        compiled, machine.module, machine._collect_branches, machine._link_stamp
    )
    counters = machine.counters
    site_counts = counters.site_counts
    func_counts = counters.func_counts
    function_table = machine._function_table
    stack_limit = machine._stack_limit

    #: [il, ct, calls, returns] — flushed into counters on exit.
    st = [0, 0, 0, 0]
    shells = {
        name: _FastFunction(
            name, function.nregs, function.nparams, function.frame_size
        )
        for name, function in compiled.items()
    }

    def materialize(shell):
        """Build a function's block closures on first call."""
        block = factories.get(shell.name)(env, shells)
        shell.entry = block
        return block

    def drive(request, regs, fp, d):
        """Explicit-stack trampoline for calls past `_DEPTH_LIMIT`.

        ``request`` is the call tuple a closure running frame
        ``(regs, fp)`` at IL depth ``d`` returned instead of recursing.
        Executes that call and everything after it in the issuing frame
        until the frame itself returns; its return tuple flows back to
        the Python-recursive call site that entered the trampoline.
        """
        stack: list[tuple] = []
        while True:
            if request.__class__ is tuple:
                if len(request) == 1:
                    if not stack:
                        return request
                    st[3] += 1
                    value = request[0]
                    regs, fp, dst, block, d = stack.pop()
                    if dst >= 0:
                        regs[dst] = value
                else:
                    callee, new_regs, dst, cont, fp2 = request
                    stack.append((regs, fp, dst, cont, d))
                    regs = new_regs
                    fp = fp2
                    d += 1
                    if fp + callee.frame_size > stack_limit:
                        raise VMTrap(
                            f"control stack overflow calling {callee.name}"
                            f" (depth {d})"
                        )
                    block = callee.entry
                    if block is None:
                        block = materialize(callee)
            else:
                block = request
            request = block(regs, fp, d)

    def icall(pointer, values, dst, site, fp2, d, cont):
        """Indirect-call resolution (the reference's _OP_ICALL arm).

        Returns a 1-tuple holding the produced value, or — for a user
        call past the depth limit — the trampoline request tuple the
        calling closure must propagate.
        """
        if pointer >= 0:
            raise VMTrap(f"indirect call through bad pointer {pointer}")
        index = -1 - pointer
        if index >= len(function_table):
            raise VMTrap(f"indirect call through bad pointer {pointer}")
        kind, name = function_table[index]
        st[2] += 1
        site_counts[site] = site_counts.get(site, 0) + 1
        func_counts[name] = func_counts.get(name, 0) + 1
        if kind == "b":
            entry = BUILTINS.get(name)
            if entry is None:
                raise VMTrap(f"indirect call to unavailable {name!r}")
            result = entry[1](machine, *values)
            st[3] += 1
            return (result if result is not None else 0,)
        callee = shells[name]
        if len(values) != callee.nparams:
            raise VMTrap(
                f"indirect call to {name} with {len(values)} args,"
                f" expected {callee.nparams}"
            )
        new_regs = [0] * callee.nregs
        new_regs[: len(values)] = values
        if d >= _DEPTH_LIMIT:
            return (callee, new_regs, dst, cont, fp2)
        if fp2 + callee.frame_size > stack_limit:
            raise VMTrap(
                f"control stack overflow calling {name} (depth {d + 1})"
            )
        block = callee.entry
        if block is None:
            block = materialize(callee)
        result = block(new_regs, fp2, d + 1)
        while result.__class__ is not tuple:
            result = result(new_regs, fp2, d + 1)
        if len(result) != 1:
            result = drive(result, new_regs, fp2, d + 1)
        st[3] += 1
        return result

    env = {
        "st": st,
        "mem": machine._mem,
        "fuel": machine._fuel,
        "site_counts": site_counts,
        "func_counts": func_counts,
        "branch_counts": counters.branch_counts,
        "machine": machine,
        "icall": icall,
        "drive": drive,
        "materialize": materialize,
        "stack_limit": stack_limit,
        "builtins": BUILTINS,
        "U4": _UNPACK4,
        "P4": _PACK4,
        "c_div": _c_div,
        "c_mod": _c_mod,
        "VMTrap": VMTrap,
    }

    # Pre-seed every static branch key so factories can bind the
    # [taken, not-taken] pair once at materialisation instead of paying
    # a dict probe per executed branch. Keys a run never touches are
    # pruned on exit — the reference interpreter only creates entries
    # for executed branches.
    branch_counts = counters.branch_counts
    if machine._collect_branches:
        for function in compiled.values():
            for ins in function.code:
                if ins[0] == _OP_CJUMP and ins[4] is not None:
                    branch_counts.setdefault(ins[4], [0, 0])

    entry = shells[entry_compiled.name]
    regs = [0] * entry.nregs
    regs[: len(args)] = args
    fp = machine._sp
    sp = fp + entry.frame_size
    if sp > stack_limit:
        raise VMTrap("control stack overflow at entry")
    func_counts[entry.name] = func_counts.get(entry.name, 0) + 1
    block = materialize(entry)

    try:
        result = block(regs, fp, 0)
        while result.__class__ is not tuple:
            result = result(regs, fp, 0)
        if len(result) != 1:  # pragma: no cover - needs _DEPTH_LIMIT == 0
            result = drive(result, regs, fp, 0)
        # The entry frame's return has no matching call instruction, so
        # it is not a counted dynamic return.
        return result[0]
    finally:
        counters.il += st[0]
        counters.ct += st[1]
        counters.calls += st[2]
        counters.returns += st[3]
        if machine._collect_branches:
            for key in [k for k, v in branch_counts.items() if v == [0, 0]]:
                del branch_counts[key]

"""The IL interpreter.

The machine links an :class:`~repro.il.module.ILModule` into a compact
executable form (dense register indices, resolved labels and global
addresses) and interprets it with an explicit control stack, counting
the dynamic quantities the paper's profiler needs.

Memory model: one flat byte-addressable space.

- ``[0, 16)`` is unmapped (null-pointer guard),
- ``[16, 16 + stack_size)`` is the control stack (frame slots only;
  scalar temporaries live in per-activation register files),
- globals follow the stack region,
- the heap grows beyond the globals via a bump allocator.

Function pointers are encoded as negative integers (``-1 - index`` into
the function table), so they survive 32-bit store/load round trips and
can never collide with data addresses.

Two execution engines share this link step: the counting interpreter
below (``engine="counting"``, the reference) and the closure-compiled
fast tier in :mod:`repro.vm.fast` (``engine="fast"``), which produces
the exact same :class:`~repro.vm.counters.Counters` on every
successful run at roughly an order of magnitude higher
dynamic-instruction throughput.
"""

from __future__ import annotations

import hashlib
import marshal
import weakref
from dataclasses import dataclass

from repro.errors import ILError, VMTrap
from repro.il.instructions import Opcode
from repro.il.module import ILModule
from repro.vm.builtins import BUILTINS, ExitSignal
from repro.vm.counters import Counters
from repro.vm.os import VirtualOS

# Compiled opcodes (distinct from IL opcodes: loads/stores are split by
# size and calls by callee kind for dispatch speed).
_OP_CONST = 0
_OP_MOV = 1
_OP_BIN = 2
_OP_UN = 3
_OP_LOAD4 = 4
_OP_LOAD1 = 5
_OP_STORE4 = 6
_OP_STORE1 = 7
_OP_FRAME = 8
_OP_CALLU = 9
_OP_CALLB = 10
_OP_ICALL = 11
_OP_RET = 12
_OP_JUMP = 13
_OP_CJUMP = 14
_OP_SWITCH = 15

_NULL_GUARD = 16
_INT_MASK = 0xFFFFFFFF
_INT_SIGN = 0x80000000

#: Recognized execution engines (see the module docstring).
ENGINES = ("counting", "fast")

#: Ceiling on bump-allocator growth (bytes). Fuel caps instruction
#: counts but not allocation: a tight ``malloc`` loop can otherwise
#: grow host memory without bound. 256 MiB clears every suite
#: benchmark and fuzz program by a wide margin.
DEFAULT_HEAP_LIMIT = 256 * 1024 * 1024

#: Per-module cache of compiled (link-stage) code. Compilation is pure
#: in the module plus the link knobs captured in the key, so machines
#: built against the same module share one compiled form instead of
#: recompiling every function per construction. ``base`` is the only
#: field mutated after compilation and is a pure function of the same
#: key, so re-linking a shared entry rewrites identical values.
_COMPILED_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _wrap(value: int) -> int:
    value &= _INT_MASK
    return value - 0x100000000 if value & _INT_SIGN else value


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise VMTrap("integer division by zero")
    quotient = abs(a) // abs(b)
    return _wrap(-quotient if (a < 0) != (b < 0) else quotient)


def _c_mod(a: int, b: int) -> int:
    return _wrap(a - _c_div(a, b) * b)


_BINOPS = {
    "+": lambda a, b: _wrap(a + b),
    "-": lambda a, b: _wrap(a - b),
    "*": lambda a, b: _wrap(a * b),
    "/": _c_div,
    "%": _c_mod,
    "<<": lambda a, b: _wrap(a << (b & 31)),
    ">>": lambda a, b: _wrap(a >> (b & 31)),
    "&": lambda a, b: _wrap(a & b),
    "|": lambda a, b: _wrap(a | b),
    "^": lambda a, b: _wrap(a ^ b),
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}

_UNOPS = {
    "-": lambda a: _wrap(-a),
    "+": lambda a: a,
    "~": lambda a: _wrap(~a),
    "!": lambda a: 0 if a else 1,
    "sxt8": lambda a: ((a & 0xFF) ^ 0x80) - 0x80,
}


class _CompiledFunction:
    __slots__ = (
        "name", "code", "nregs", "nparams", "frame_size", "returns_value", "base",
    )

    def __init__(self, name: str, nparams: int, frame_size: int, returns_value: bool):
        self.name = name
        self.code: list[tuple] = []
        self.nregs = nparams
        self.nparams = nparams
        self.frame_size = frame_size
        self.returns_value = returns_value
        #: Simulated code address of instruction 0 (set by the linker;
        #: used by the optional instruction-cache tracer).
        self.base = 0


@dataclass
class RunResult:
    """Outcome of one program run."""

    exit_code: int
    counters: Counters
    os: VirtualOS

    @property
    def stdout(self) -> str:
        return self.os.stdout_text()


class Machine:
    """Links and executes one IL module.

    A machine is single-shot: build one, call :meth:`run` once (a
    second call raises :class:`~repro.errors.ILError` — the first run
    mutates globals and the heap, so re-running would execute a
    different program and double-report into the metrics registry).
    The compile step is reusable across runs via :func:`compile_module`
    if many inputs must be executed against the same module.

    ``engine`` selects how the linked code is executed: ``"counting"``
    (default) is the reference interpreter below; ``"fast"`` is the
    closure-compiled tier in :mod:`repro.vm.fast`, which produces
    identical counters and outputs on every successful run. The fast
    tier has no per-instruction dispatch point, so it cannot drive the
    instruction-cache tracer — combining ``engine="fast"`` with
    ``icache`` is rejected at construction.
    """

    def __init__(
        self,
        module: ILModule,
        os: VirtualOS | None = None,
        stack_size: int = 1 << 20,
        fuel: int = 2_000_000_000,
        collect_branches: bool = False,
        icache=None,
        code_layout: str = "sequential",
        layout_seed: int = 0,
        function_order: list[str] | None = None,
        metrics=None,
        engine: str = "counting",
        heap_limit: int = DEFAULT_HEAP_LIMIT,
    ):
        if engine not in ENGINES:
            raise ILError(
                f"unknown engine {engine!r}, expected one of {ENGINES}"
            )
        if engine == "fast" and icache is not None:
            raise ILError(
                "engine='fast' cannot drive the instruction-cache tracer;"
                " use engine='counting' for icache simulation"
            )
        self.module = module
        self.os = os if os is not None else VirtualOS()
        self._engine = engine
        self._heap_limit = heap_limit
        self._ran = False
        self._stack_limit = _NULL_GUARD + stack_size
        self._fuel = fuel
        self._collect_branches = collect_branches
        #: Optional repro.observability MetricsRegistry; dynamic counts
        #: are reported into it once per run (never from the hot loop).
        self._metrics = metrics
        #: Optional repro.icache.InstructionCache fed one access per
        #: executed instruction (slows execution; off by default).
        self.icache = icache
        #: "sequential" packs functions in module order; "scattered"
        #: shuffles them with random gaps, modelling a linker that
        #: places related functions far apart (the mapping-conflict
        #: regime of the paper's instruction-cache study).
        self._code_layout = code_layout
        self._layout_seed = layout_seed
        self._function_order = function_order
        self._mem = bytearray()
        self._sp = _NULL_GUARD
        self.counters = Counters()
        self._global_addresses: dict[str, int] = {}
        self._function_table: list[tuple] = []
        self._function_ids: dict[str, int] = {}
        self._compiled: dict[str, _CompiledFunction] = {}
        #: A digest of the functions' content keys at link time.
        self._link_stamp = b""
        self._link()

    # ------------------------------------------------------------------
    # linking

    def _link(self) -> None:
        module = self.module
        # Function table: user functions first, then externals.
        for name in module.functions:
            self._function_ids[name] = len(self._function_table)
            self._function_table.append(("u", name))
        for name in sorted(module.externals):
            self._function_ids[name] = len(self._function_table)
            self._function_table.append(("b", name))
        # Global placement after the stack region.
        address = self._stack_limit
        for data in module.globals.values():
            align = max(data.align, 1)
            address = (address + align - 1) // align * align
            self._global_addresses[data.name] = address
            address += max(data.size, 1)
        heap_start = (address + 15) // 16 * 16
        self._mem = bytearray(heap_start)
        self._heap_top = heap_start
        self._heap_start = heap_start
        for data in module.globals.values():
            self._init_global(data)
        compile_key = (
            self._stack_limit,
            self._collect_branches,
            self._code_layout,
            self._layout_seed,
            tuple(self._function_order) if self._function_order else None,
        )
        # The stamp revalidates cache hits by content: an in-place edit
        # to any function, down to one operand, changes its key. A
        # digest of the keys, not the keys, is kept: every linked module
        # holds one, and the keys are as large as the code.
        keys = tuple(fn.content_key() for fn in module.functions.values())
        stamp = hashlib.blake2b(marshal.dumps(keys), digest_size=16).digest()
        cached = None
        try:
            cached = _COMPILED_MEMO.setdefault(module, {})
        except TypeError:  # un-weakref-able module stand-in (tests)
            pass
        hit = cached.get(compile_key) if cached is not None else None
        self._link_stamp = stamp
        if hit is not None and hit[0] == stamp:
            self._compiled = hit[1]
        else:
            for name, function in module.functions.items():
                self._compiled[name] = self._compile_function(function)
            if cached is not None:
                cached[compile_key] = (stamp, self._compiled)
        # Lay functions out in a simulated code space for the
        # instruction-cache tracer (4 bytes per IL instruction,
        # line-aligned starts).
        ordered = list(self._compiled.values())
        gaps = [0] * len(ordered)
        if self._function_order is not None:
            # Explicit placement (e.g. profile-guided affinity order);
            # names missing from the order keep their relative position
            # at the end.
            position = {name: i for i, name in enumerate(self._function_order)}
            ordered.sort(key=lambda c: position.get(c.name, len(position)))
        elif self._code_layout == "scattered":
            import random

            rng = random.Random(0xC0DE + self._layout_seed)
            rng.shuffle(ordered)
            gaps = [rng.randrange(0, 16) * 16 for _ in ordered]
        elif self._code_layout != "sequential":
            raise ILError(f"unknown code layout {self._code_layout!r}")
        code_address = 0
        for compiled, gap in zip(ordered, gaps):
            code_address += gap
            compiled.base = code_address
            code_address += 4 * len(compiled.code)
            code_address = (code_address + 15) // 16 * 16

    def _init_global(self, data) -> None:
        base = self._global_addresses[data.name]
        for item in data.init:
            offset = base + item.offset
            if item.kind == "int":
                raw = item.value & (_INT_MASK if item.size == 4 else 0xFF)
                self._mem[offset : offset + item.size] = raw.to_bytes(
                    item.size, "little"
                )
            elif item.kind == "bytes":
                self._mem[offset : offset + len(item.data)] = item.data
            elif item.kind == "gaddr":
                address = self._global_addresses[item.symbol]
                self._mem[offset : offset + 4] = address.to_bytes(4, "little")
            elif item.kind == "faddr":
                fid = self._function_pointer(item.symbol)
                self._mem[offset : offset + 4] = (fid & _INT_MASK).to_bytes(4, "little")
            else:  # pragma: no cover
                raise ILError(f"unknown init kind {item.kind!r}")

    def _function_pointer(self, name: str) -> int:
        if name not in self._function_ids:
            raise ILError(f"unknown function {name!r} used as a pointer")
        return -1 - self._function_ids[name]

    def _compile_function(self, function) -> _CompiledFunction:
        compiled = _CompiledFunction(
            function.name,
            len(function.params),
            function.layout_frame(),
            function.returns_value,
        )
        regmap: dict[str, int] = {name: i for i, name in enumerate(function.params)}

        def reg(name: str) -> int:
            index = regmap.get(name)
            if index is None:
                index = len(regmap)
                regmap[name] = index
            return index

        def operand(value):
            if isinstance(value, str):
                return reg(value)
            return (value,)  # immediate, boxed to distinguish from indices

        # First pass: label -> compiled index (labels are dropped).
        label_at: dict[str, int] = {}
        compiled_index = 0
        for instr in function.body:
            if instr.op is Opcode.LABEL:
                label_at[instr.label] = compiled_index
            else:
                compiled_index += 1

        code = compiled.code
        for il_index, instr in enumerate(function.body):
            op = instr.op
            if op is Opcode.LABEL:
                continue
            if op is Opcode.CONST:
                code.append((_OP_CONST, reg(instr.dst), instr.a))
            elif op is Opcode.MOV:
                code.append((_OP_MOV, reg(instr.dst), operand(instr.a)))
            elif op is Opcode.BIN:
                fn = _BINOPS.get(instr.op2)
                if fn is None:
                    raise ILError(f"unknown binary operator {instr.op2!r}")
                code.append(
                    (_OP_BIN, reg(instr.dst), fn, operand(instr.a), operand(instr.b))
                )
            elif op is Opcode.UN:
                fn = _UNOPS.get(instr.op2)
                if fn is None:
                    raise ILError(f"unknown unary operator {instr.op2!r}")
                code.append((_OP_UN, reg(instr.dst), fn, operand(instr.a)))
            elif op is Opcode.LOAD:
                kind = _OP_LOAD4 if instr.size == 4 else _OP_LOAD1
                code.append((kind, reg(instr.dst), operand(instr.a)))
            elif op is Opcode.STORE:
                kind = _OP_STORE4 if instr.size == 4 else _OP_STORE1
                code.append((kind, operand(instr.a), operand(instr.b)))
            elif op is Opcode.FRAME:
                slot = function.slots.get(instr.name)
                if slot is None:
                    raise ILError(
                        f"{function.name}: unknown frame slot {instr.name!r}"
                    )
                code.append((_OP_FRAME, reg(instr.dst), slot.offset))
            elif op is Opcode.GADDR:
                address = self._global_addresses.get(instr.name)
                if address is None:
                    raise ILError(f"unknown global {instr.name!r}")
                code.append((_OP_CONST, reg(instr.dst), address))
            elif op is Opcode.FADDR:
                code.append((_OP_CONST, reg(instr.dst), self._function_pointer(instr.name)))
            elif op is Opcode.CALL:
                dst = reg(instr.dst) if instr.dst is not None else -1
                args = tuple(operand(a) for a in instr.args)
                if instr.name in self.module.functions:
                    callee = self.module.functions[instr.name]
                    if len(args) != len(callee.params):
                        # Indirect calls trap on arity mismatch at run
                        # time; direct calls are fully resolved here, so
                        # reject them at link time instead of letting
                        # extra args overwrite callee temporaries.
                        raise ILError(
                            f"{function.name}: call to {instr.name} at site"
                            f" {instr.site} passes {len(args)} args,"
                            f" expected {len(callee.params)}"
                        )
                    code.append((_OP_CALLU, dst, instr.name, args, instr.site))
                else:
                    entry = BUILTINS.get(instr.name)
                    impl = None
                    if entry is not None:
                        nargs, impl = entry
                        if nargs != len(args):
                            raise ILError(
                                f"builtin {instr.name} takes {nargs} args,"
                                f" called with {len(args)}"
                            )
                    code.append(
                        (_OP_CALLB, dst, impl, args, instr.site, instr.name)
                    )
            elif op is Opcode.ICALL:
                dst = reg(instr.dst) if instr.dst is not None else -1
                args = tuple(operand(a) for a in instr.args)
                code.append((_OP_ICALL, dst, operand(instr.a), args, instr.site))
            elif op is Opcode.RET:
                code.append((_OP_RET, operand(instr.a) if instr.a is not None else None))
            elif op is Opcode.JUMP:
                code.append((_OP_JUMP, label_at[instr.label]))
            elif op is Opcode.CJUMP:
                key = (function.name, il_index) if self._collect_branches else None
                code.append(
                    (
                        _OP_CJUMP,
                        operand(instr.a),
                        label_at[instr.label],
                        label_at[instr.label2],
                        key,
                    )
                )
            elif op is Opcode.SWITCH:
                table = {value: label_at[label] for value, label in instr.cases}
                code.append(
                    (_OP_SWITCH, operand(instr.a), table, label_at[instr.label2])
                )
            else:  # pragma: no cover
                raise ILError(f"cannot compile opcode {op}")
        compiled.nregs = len(regmap)
        return compiled

    # ------------------------------------------------------------------
    # services used by builtins

    def heap_alloc(self, size: int) -> int:
        address = self._heap_top
        rounded = (max(size, 1) + 7) // 8 * 8
        if self._heap_top + rounded - self._heap_start > self._heap_limit:
            raise VMTrap("out of heap memory")
        self._heap_top += rounded
        self._mem.extend(b"\x00" * rounded)
        return address

    def read_cstring_bytes(self, address: int) -> bytes:
        mem = self._mem
        if address < _NULL_GUARD:
            raise VMTrap(f"string read through bad pointer {address}")
        end = mem.find(b"\x00", address)
        if end < 0:
            raise VMTrap("unterminated string in VM memory")
        return bytes(mem[address:end])

    def write_bytes(self, address: int, data: bytes) -> None:
        if address < _NULL_GUARD or address + len(data) > len(self._mem):
            raise VMTrap(f"block write to bad address {address}")
        self._mem[address : address + len(data)] = data

    def read_byte(self, address: int) -> int:
        if address < _NULL_GUARD or address >= len(self._mem):
            raise VMTrap(f"block read from bad address {address}")
        return self._mem[address]

    def read_bytes(self, address: int, length: int) -> bytes:
        if address < _NULL_GUARD or address + length > len(self._mem):
            raise VMTrap(f"block read from bad address {address}")
        return bytes(self._mem[address : address + length])

    def mem_bounds_ok(self, address: int, length: int) -> bool:
        """Whether ``[address, address+length)`` is fully mapped.

        Block-transfer builtins use this to pick the bulk path; windows
        that touch unmapped memory fall back to byte-at-a-time loops so
        partial-progress-then-trap behaviour stays exactly as specified.
        """
        return address >= _NULL_GUARD and address + length <= len(self._mem)

    # ------------------------------------------------------------------
    # execution

    def run(self) -> RunResult:
        if self._ran:
            raise ILError(
                "Machine is single-shot: run() was already called;"
                " build a new Machine to execute again"
            )
        self._ran = True
        entry = self._compiled.get(self.module.entry)
        if entry is None:
            raise ILError(f"entry function {self.module.entry!r} not found")
        args: list[int] = []
        if entry.nparams == 2:
            args = self._setup_argv()
        elif entry.nparams != 0:
            raise ILError(
                f"{self.module.entry} must take 0 or 2 parameters,"
                f" has {entry.nparams}"
            )
        try:
            if self._engine == "fast":
                from repro.vm.fast import run_fast

                exit_code = run_fast(self, entry, args)
            else:
                exit_code = self._execute(entry, args)
        except ExitSignal as signal:
            exit_code = signal.code
        if self._metrics is not None:
            metrics = self._metrics
            metrics.inc("vm.runs")
            metrics.inc("vm.instructions_retired", self.counters.il)
            metrics.inc("vm.control_transfers", self.counters.ct)
            metrics.inc("vm.calls", self.counters.calls)
            metrics.inc("vm.returns", self.counters.returns)
        return RunResult(exit_code, self.counters, self.os)

    def _setup_argv(self) -> list[int]:
        argv = [self.module.entry, *self.os.argv]
        pointers = []
        for arg in argv:
            data = arg.encode("latin-1") + b"\x00"
            address = self.heap_alloc(len(data))
            self.write_bytes(address, data)
            pointers.append(address)
        table = self.heap_alloc(4 * (len(pointers) + 1))
        for index, pointer in enumerate(pointers):
            self.write_bytes(table + 4 * index, pointer.to_bytes(4, "little"))
        return [len(pointers), table]

    def _execute(self, entry: _CompiledFunction, args: list[int]) -> int:
        mem = self._mem
        os = self.os
        counters = self.counters
        fuel = self._fuel
        compiled = self._compiled
        function_table = self._function_table
        stack_limit = self._stack_limit
        site_counts = counters.site_counts
        func_counts = counters.func_counts
        branch_counts = counters.branch_counts
        icache = self.icache

        n_il = 0
        n_ct = 0
        n_calls = 0
        n_rets = 0

        current = entry
        code = entry.code
        regs = [0] * entry.nregs
        regs[: len(args)] = args
        pc = 0
        fp = self._sp
        sp = fp + entry.frame_size
        if sp > stack_limit:
            raise VMTrap("control stack overflow at entry")
        func_counts[entry.name] = func_counts.get(entry.name, 0) + 1
        call_stack: list[tuple] = []

        try:
            while True:
                ins = code[pc]
                if icache is not None:
                    icache.access(current.base + 4 * pc)
                pc += 1
                n_il += 1
                if n_il > fuel:
                    raise VMTrap(f"fuel exhausted after {n_il} instructions")
                op = ins[0]

                if op == _OP_BIN:
                    a = ins[3]
                    b = ins[4]
                    regs[ins[1]] = ins[2](
                        regs[a] if type(a) is int else a[0],
                        regs[b] if type(b) is int else b[0],
                    )
                elif op == _OP_LOAD4:
                    a = ins[2]
                    address = regs[a] if type(a) is int else a[0]
                    if address < _NULL_GUARD or address + 4 > len(mem):
                        raise VMTrap(f"load4 from bad address {address}")
                    regs[ins[1]] = int.from_bytes(
                        mem[address : address + 4], "little", signed=True
                    )
                elif op == _OP_CJUMP:
                    a = ins[1]
                    value = regs[a] if type(a) is int else a[0]
                    if value:
                        pc = ins[2]
                        taken = 0
                    else:
                        pc = ins[3]
                        taken = 1
                    n_ct += 1
                    key = ins[4]
                    if key is not None:
                        pair = branch_counts.setdefault(key, [0, 0])
                        pair[taken] += 1
                elif op == _OP_CONST:
                    regs[ins[1]] = ins[2]
                elif op == _OP_MOV:
                    a = ins[2]
                    regs[ins[1]] = regs[a] if type(a) is int else a[0]
                elif op == _OP_STORE4:
                    a = ins[1]
                    address = regs[a] if type(a) is int else a[0]
                    b = ins[2]
                    value = regs[b] if type(b) is int else b[0]
                    if address < _NULL_GUARD or address + 4 > len(mem):
                        raise VMTrap(f"store4 to bad address {address}")
                    mem[address : address + 4] = (value & _INT_MASK).to_bytes(
                        4, "little"
                    )
                elif op == _OP_LOAD1:
                    a = ins[2]
                    address = regs[a] if type(a) is int else a[0]
                    if address < _NULL_GUARD or address >= len(mem):
                        raise VMTrap(f"load1 from bad address {address}")
                    byte = mem[address]
                    regs[ins[1]] = (byte ^ 0x80) - 0x80
                elif op == _OP_STORE1:
                    a = ins[1]
                    address = regs[a] if type(a) is int else a[0]
                    b = ins[2]
                    value = regs[b] if type(b) is int else b[0]
                    if address < _NULL_GUARD or address >= len(mem):
                        raise VMTrap(f"store1 to bad address {address}")
                    mem[address] = value & 0xFF
                elif op == _OP_FRAME:
                    regs[ins[1]] = fp + ins[2]
                elif op == _OP_JUMP:
                    pc = ins[1]
                    n_ct += 1
                elif op == _OP_CALLU:
                    callee = compiled[ins[2]]
                    n_calls += 1
                    site = ins[4]
                    site_counts[site] = site_counts.get(site, 0) + 1
                    func_counts[callee.name] = func_counts.get(callee.name, 0) + 1
                    new_regs = [0] * callee.nregs
                    arg_ops = ins[3]
                    for index, a in enumerate(arg_ops):
                        new_regs[index] = regs[a] if type(a) is int else a[0]
                    call_stack.append((current, code, regs, pc, fp, ins[1]))
                    current = callee
                    code = callee.code
                    regs = new_regs
                    pc = 0
                    fp = sp
                    sp = fp + callee.frame_size
                    if sp > stack_limit:
                        raise VMTrap(
                            f"control stack overflow calling {callee.name}"
                            f" (depth {len(call_stack)})"
                        )
                elif op == _OP_CALLB:
                    impl = ins[2]
                    name = ins[5]
                    if impl is None:
                        raise VMTrap(f"call to unavailable external {name!r}")
                    n_calls += 1
                    site = ins[4]
                    site_counts[site] = site_counts.get(site, 0) + 1
                    func_counts[name] = func_counts.get(name, 0) + 1
                    values = [
                        regs[a] if type(a) is int else a[0] for a in ins[3]
                    ]
                    result = impl(self, *values)
                    n_rets += 1
                    if ins[1] >= 0:
                        regs[ins[1]] = result if result is not None else 0
                elif op == _OP_ICALL:
                    a = ins[2]
                    pointer = regs[a] if type(a) is int else a[0]
                    if pointer >= 0:
                        raise VMTrap(f"indirect call through bad pointer {pointer}")
                    index = -1 - pointer
                    if index >= len(function_table):
                        raise VMTrap(f"indirect call through bad pointer {pointer}")
                    kind, name = function_table[index]
                    n_calls += 1
                    site = ins[4]
                    site_counts[site] = site_counts.get(site, 0) + 1
                    func_counts[name] = func_counts.get(name, 0) + 1
                    values = [
                        regs[x] if type(x) is int else x[0] for x in ins[3]
                    ]
                    if kind == "b":
                        entry_builtin = BUILTINS.get(name)
                        if entry_builtin is None:
                            raise VMTrap(f"indirect call to unavailable {name!r}")
                        result = entry_builtin[1](self, *values)
                        n_rets += 1
                        if ins[1] >= 0:
                            regs[ins[1]] = result if result is not None else 0
                    else:
                        callee = compiled[name]
                        if len(values) != callee.nparams:
                            raise VMTrap(
                                f"indirect call to {name} with {len(values)} args,"
                                f" expected {callee.nparams}"
                            )
                        new_regs = [0] * callee.nregs
                        new_regs[: len(values)] = values
                        call_stack.append((current, code, regs, pc, fp, ins[1]))
                        current = callee
                        code = callee.code
                        regs = new_regs
                        pc = 0
                        fp = sp
                        sp = fp + callee.frame_size
                        if sp > stack_limit:
                            raise VMTrap(
                                f"control stack overflow calling {name}"
                                f" (depth {len(call_stack)})"
                            )
                elif op == _OP_RET:
                    a = ins[1]
                    value = 0
                    if a is not None:
                        value = regs[a] if type(a) is int else a[0]
                    if not call_stack:
                        # The entry frame's return has no matching call
                        # instruction, so it does not count as a dynamic
                        # return (the paper assumes calls == returns).
                        return value
                    n_rets += 1
                    sp = fp
                    current, code, regs, pc, fp, dst = call_stack.pop()
                    if dst >= 0:
                        regs[dst] = value
                elif op == _OP_UN:
                    a = ins[3]
                    regs[ins[1]] = ins[2](regs[a] if type(a) is int else a[0])
                elif op == _OP_SWITCH:
                    a = ins[1]
                    value = regs[a] if type(a) is int else a[0]
                    pc = ins[2].get(value, ins[3])
                    n_ct += 1
                else:  # pragma: no cover
                    raise VMTrap(f"unknown compiled opcode {op}")
        finally:
            counters.il += n_il
            counters.ct += n_ct
            counters.calls += n_calls
            counters.returns += n_rets

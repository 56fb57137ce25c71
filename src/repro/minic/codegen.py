"""MiniC code generator: AST -> VM64 assembly -> object module.

The generator is a straightforward single-accumulator scheme: every
expression leaves its value in ``r0``, with intermediate results pushed
to the stack.  It is not an optimizing compiler — and that is a
feature for this reproduction: the emitted code has the plain
basic-block structure (dispatcher compare chains, per-feature handler
functions) that DynaCut's trace-diff analysis expects from ``-O0``-ish
server binaries.

Calling convention (matches ``repro.isa``): arguments in ``r1..r6``,
return value in ``r0``, ``fp``/``sp`` callee-maintained via the
standard prologue/epilogue.
"""

from __future__ import annotations

from ..binfmt.object import ObjectModule
from ..isa.assembler import assemble
from .ast import (
    AsmStmt,
    AssignStmt,
    BinaryExpr,
    BreakStmt,
    CallExpr,
    ContinueStmt,
    Expr,
    ExprStmt,
    FuncDecl,
    IfStmt,
    IndexAssignStmt,
    IndexExpr,
    NameExpr,
    NumberExpr,
    Program,
    ReturnStmt,
    Stmt,
    StringExpr,
    SwitchStmt,
    UnaryExpr,
    VarDeclStmt,
    WhileStmt,
)
from .parser import parse

#: builtins handled inline by the code generator
BUILTINS = frozenset({"load8", "load64", "store8", "store64", "syscall"})

_CMP_JUMPS = {
    "==": "je", "!=": "jne", "<": "jl", "<=": "jle", ">": "jg", ">=": "jge",
}
_ARITH_OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
}


class CompileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _FunctionContext:
    """Per-function state: locals, labels, loop stack."""

    def __init__(self, func: FuncDecl):
        self.func = func
        self.locals: dict[str, tuple[str, int]] = {}  # name -> (kind, fp offset)
        self.frame_size = 0
        self.loop_stack: list[tuple[str, str]] = []   # (break label, continue label)

    def add_scalar(self, name: str, line: int) -> int:
        # MiniC has function-wide scope: re-declaring the same scalar in
        # disjoint branches shares one slot (old-C style)
        if name in self.locals:
            kind, offset = self.locals[name]
            if kind != "scalar":
                raise CompileError(f"local {name!r} redeclared as scalar", line)
            return offset
        self.frame_size += 8
        offset = self.frame_size
        self.locals[name] = ("scalar", offset)
        return offset

    def add_array(self, name: str, size: int, line: int) -> int:
        if name in self.locals:
            raise CompileError(f"duplicate local array {name!r}", line)
        self.frame_size += -(-size // 8) * 8
        offset = self.frame_size
        self.locals[name] = ("array", offset)
        return offset


class CodeGenerator:
    """Compiles one MiniC :class:`Program` into assembly text."""

    def __init__(self, program: Program, module_name: str):
        self.program = program
        self.module_name = module_name
        self.text: list[str] = []
        self.rodata: list[str] = []
        self.data: list[str] = []
        self.bss: list[str] = []
        self._strings: dict[str, str] = {}
        self._label_counter = 0
        self._global_kinds: dict[str, str] = {}   # name -> "scalar" | "array"
        self._function_names = {f.name for f in program.functions}
        self._extern_names = set(program.externs)

    # ------------------------------------------------------------------

    def generate(self, entry: bool = True) -> str:
        """Produce full assembly; ``entry`` adds the ``_start`` shim."""
        self._collect_globals()
        if entry:
            if "main" not in self._function_names:
                raise CompileError("program has no main function", 0)
            self._emit_start_shim()
        for func in self.program.functions:
            self._function(func)
        return self._render()

    def _render(self) -> str:
        parts = [".section text"]
        parts += self.text
        if self.rodata:
            parts.append(".section rodata")
            parts += self.rodata
        if self.data:
            parts.append(".section data")
            parts += self.data
        if self.bss:
            parts.append(".section bss")
            parts += self.bss
        return "\n".join(parts) + "\n"

    # ------------------------------------------------------------------
    # emission helpers

    def _emit(self, line: str) -> None:
        self.text.append("    " + line)

    def _label(self, label: str) -> None:
        self.text.append(label + ":")

    def _new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"_L{hint}_{self._label_counter}"

    def _intern_string(self, value: str) -> str:
        label = self._strings.get(value)
        if label is None:
            label = f"_Lstr_{len(self._strings)}"
            self._strings[value] = label
            escaped = (
                value.encode("unicode_escape").decode("ascii").replace('"', '\\"')
            )
            self.rodata.append(f'{label}: .asciiz "{escaped}"')
        return label

    # ------------------------------------------------------------------
    # globals and entry shim

    def _collect_globals(self) -> None:
        for decl in self.program.globals:
            if decl.name in self._global_kinds:
                raise CompileError(f"duplicate global {decl.name!r}", decl.line)
            if decl.size is not None:
                self._global_kinds[decl.name] = "array"
                size = -(-decl.size // 8) * 8
                self.bss.append(f".global {decl.name}")
                self.bss.append(f"{decl.name}: .space {size}")
            else:
                self._global_kinds[decl.name] = "scalar"
                if decl.init is None:
                    self.bss.append(f".global {decl.name}")
                    self.bss.append(f"{decl.name}: .space 8")
                elif isinstance(decl.init, NumberExpr):
                    self.data.append(f".global {decl.name}")
                    self.data.append(f"{decl.name}: .quad {decl.init.value}")
                elif isinstance(decl.init, StringExpr):
                    label = self._intern_string(decl.init.value)
                    self.data.append(f".global {decl.name}")
                    self.data.append(f"{decl.name}: .quad @{label}")
                else:  # pragma: no cover - parser restricts initializers
                    raise CompileError("bad global initializer", decl.line)

    def _emit_start_shim(self) -> None:
        self.text.append(".global _start")
        self._label("_start")
        # the loader leaves argc in r1 and argv in r2 — pass them through
        self._emit("call main")
        self._emit("mov r1, r0")
        self._emit("movi r0, 1")          # SYS_EXIT
        self._emit("syscall")

    # ------------------------------------------------------------------
    # functions

    def _function(self, func: FuncDecl) -> None:
        ctx = _FunctionContext(func)
        for param in func.params:
            ctx.add_scalar(param, func.line)
        self._predeclare_locals(ctx, func.body)

        frame = -(-ctx.frame_size // 16) * 16
        self.text.append(f".global {func.name}")
        self._label(func.name)
        self._emit("push fp")
        self._emit("mov fp, sp")
        if frame:
            self._emit(f"subi sp, {frame}")
        for index, param in enumerate(func.params):
            __, offset = ctx.locals[param]
            self._emit(f"st64 [fp-{offset}], r{index + 1}")

        for stmt in func.body:
            self._statement(ctx, stmt)

        # implicit return 0 at the end of the body
        self._emit("movi r0, 0")
        self._emit("mov sp, fp")
        self._emit("pop fp")
        self._emit("ret")

    def _predeclare_locals(self, ctx: _FunctionContext, body: tuple[Stmt, ...]) -> None:
        """Function-wide scoping: collect every var decl up front."""
        for stmt in body:
            if isinstance(stmt, VarDeclStmt):
                if stmt.size is not None:
                    ctx.add_array(stmt.name, stmt.size, stmt.line)
                else:
                    ctx.add_scalar(stmt.name, stmt.line)
            elif isinstance(stmt, IfStmt):
                self._predeclare_locals(ctx, stmt.then_body)
                self._predeclare_locals(ctx, stmt.else_body)
            elif isinstance(stmt, WhileStmt):
                self._predeclare_locals(ctx, stmt.body)
            elif isinstance(stmt, SwitchStmt):
                for case in stmt.cases:
                    self._predeclare_locals(ctx, case.body)
                if stmt.default is not None:
                    self._predeclare_locals(ctx, stmt.default)

    # ------------------------------------------------------------------
    # statements

    def _statement(self, ctx: _FunctionContext, stmt: Stmt) -> None:
        if isinstance(stmt, VarDeclStmt):
            if stmt.init is not None:
                self._expression(ctx, stmt.init)
                __, offset = ctx.locals[stmt.name]
                self._emit(f"st64 [fp-{offset}], r0")
        elif isinstance(stmt, AssignStmt):
            self._expression(ctx, stmt.value)
            self._store_name(ctx, stmt.name, stmt.line)
        elif isinstance(stmt, IndexAssignStmt):
            self._expression(ctx, stmt.value)
            self._emit("push r0")
            self._expression(ctx, stmt.index)
            self._emit("push r0")
            self._address_of(ctx, stmt.name, stmt.line)
            self._emit("pop r1")          # index
            self._emit("add r0, r1")
            self._emit("pop r1")          # value
            self._emit("st8 [r0], r1")
        elif isinstance(stmt, ExprStmt):
            self._expression(ctx, stmt.expr)
        elif isinstance(stmt, IfStmt):
            self._if(ctx, stmt)
        elif isinstance(stmt, WhileStmt):
            self._while(ctx, stmt)
        elif isinstance(stmt, SwitchStmt):
            self._switch(ctx, stmt)
        elif isinstance(stmt, BreakStmt):
            if not ctx.loop_stack:
                raise CompileError("break outside loop/switch", stmt.line)
            self._emit(f"jmp {ctx.loop_stack[-1][0]}")
        elif isinstance(stmt, ContinueStmt):
            target = next(
                (cont for __, cont in reversed(ctx.loop_stack) if cont), None
            )
            if target is None:
                raise CompileError("continue outside loop", stmt.line)
            self._emit(f"jmp {target}")
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self._expression(ctx, stmt.value)
            else:
                self._emit("movi r0, 0")
            self._emit("mov sp, fp")
            self._emit("pop fp")
            self._emit("ret")
        elif isinstance(stmt, AsmStmt):
            for line in stmt.text.splitlines():
                line = line.strip()
                if line:
                    self._emit(line)
        else:  # pragma: no cover - parser and codegen must agree
            raise CompileError(f"unhandled statement {type(stmt).__name__}", stmt.line)

    def _if(self, ctx: _FunctionContext, stmt: IfStmt) -> None:
        else_label = self._new_label("else")
        end_label = self._new_label("endif")
        self._condition(ctx, stmt.condition, false_target=else_label)
        for inner in stmt.then_body:
            self._statement(ctx, inner)
        if stmt.else_body:
            self._emit(f"jmp {end_label}")
            self._label(else_label)
            for inner in stmt.else_body:
                self._statement(ctx, inner)
            self._label(end_label)
        else:
            self._label(else_label)

    def _while(self, ctx: _FunctionContext, stmt: WhileStmt) -> None:
        head = self._new_label("while")
        end = self._new_label("endwhile")
        self._label(head)
        self._condition(ctx, stmt.condition, false_target=end)
        ctx.loop_stack.append((end, head))
        for inner in stmt.body:
            self._statement(ctx, inner)
        ctx.loop_stack.pop()
        self._emit(f"jmp {head}")
        self._label(end)

    def _switch(self, ctx: _FunctionContext, stmt: SwitchStmt) -> None:
        """The dispatcher pattern: one compare chain, one label per case."""
        end = self._new_label("endswitch")
        default = self._new_label("default") if stmt.default is not None else end
        case_labels = [self._new_label("case") for __ in stmt.cases]

        self._expression(ctx, stmt.selector)
        for case, label in zip(stmt.cases, case_labels):
            self._emit(f"cmpi r0, {case.value}")
            self._emit(f"je {label}")
        self._emit(f"jmp {default}")

        ctx.loop_stack.append((end, ""))  # break exits the switch
        for case, label in zip(stmt.cases, case_labels):
            self._label(label)
            for inner in case.body:
                self._statement(ctx, inner)
            self._emit(f"jmp {end}")
        if stmt.default is not None:
            self._label(default)
            for inner in stmt.default:
                self._statement(ctx, inner)
        ctx.loop_stack.pop()
        self._label(end)

    def _condition(self, ctx: _FunctionContext, expr: Expr, false_target: str) -> None:
        """Evaluate ``expr`` for control flow; jump when false."""
        self._expression(ctx, expr)
        self._emit("cmpi r0, 0")
        self._emit(f"je {false_target}")

    # ------------------------------------------------------------------
    # expressions

    def _expression(self, ctx: _FunctionContext, expr: Expr) -> None:
        if isinstance(expr, NumberExpr):
            self._emit(f"movi r0, {expr.value}")
        elif isinstance(expr, StringExpr):
            label = self._intern_string(expr.value)
            self._emit(f"movi r0, @{label}")
        elif isinstance(expr, NameExpr):
            self._load_name(ctx, expr.name, expr.line)
        elif isinstance(expr, UnaryExpr):
            self._expression(ctx, expr.operand)
            if expr.op == "-":
                self._emit("neg r0")
            elif expr.op == "~":
                self._emit("not r0")
            else:  # "!"
                true_label = self._new_label("not1")
                end_label = self._new_label("notend")
                self._emit("cmpi r0, 0")
                self._emit(f"je {true_label}")
                self._emit("movi r0, 0")
                self._emit(f"jmp {end_label}")
                self._label(true_label)
                self._emit("movi r0, 1")
                self._label(end_label)
        elif isinstance(expr, BinaryExpr):
            self._binary(ctx, expr)
        elif isinstance(expr, IndexExpr):
            self._expression(ctx, expr.index)
            self._emit("push r0")
            self._address_of(ctx, expr.name, expr.line)
            self._emit("pop r1")
            self._emit("add r0, r1")
            self._emit("ld8 r0, [r0]")
        elif isinstance(expr, CallExpr):
            self._call(ctx, expr)
        else:  # pragma: no cover
            raise CompileError(f"unhandled expression {type(expr).__name__}", expr.line)

    def _binary(self, ctx: _FunctionContext, expr: BinaryExpr) -> None:
        if expr.op == "&&":
            false_label = self._new_label("andf")
            end_label = self._new_label("andend")
            self._expression(ctx, expr.left)
            self._emit("cmpi r0, 0")
            self._emit(f"je {false_label}")
            self._expression(ctx, expr.right)
            self._emit("cmpi r0, 0")
            self._emit(f"je {false_label}")
            self._emit("movi r0, 1")
            self._emit(f"jmp {end_label}")
            self._label(false_label)
            self._emit("movi r0, 0")
            self._label(end_label)
            return
        if expr.op == "||":
            true_label = self._new_label("ort")
            end_label = self._new_label("orend")
            self._expression(ctx, expr.left)
            self._emit("cmpi r0, 0")
            self._emit(f"jne {true_label}")
            self._expression(ctx, expr.right)
            self._emit("cmpi r0, 0")
            self._emit(f"jne {true_label}")
            self._emit("movi r0, 0")
            self._emit(f"jmp {end_label}")
            self._label(true_label)
            self._emit("movi r0, 1")
            self._label(end_label)
            return

        self._expression(ctx, expr.left)
        self._emit("push r0")
        self._expression(ctx, expr.right)
        self._emit("mov r1, r0")
        self._emit("pop r0")
        if expr.op in _ARITH_OPS:
            self._emit(f"{_ARITH_OPS[expr.op]} r0, r1")
            return
        jump = _CMP_JUMPS.get(expr.op)
        if jump is None:  # pragma: no cover - parser restricts operators
            raise CompileError(f"unhandled operator {expr.op!r}", expr.line)
        true_label = self._new_label("cmpt")
        end_label = self._new_label("cmpend")
        self._emit("cmp r0, r1")
        self._emit(f"{jump} {true_label}")
        self._emit("movi r0, 0")
        self._emit(f"jmp {end_label}")
        self._label(true_label)
        self._emit("movi r0, 1")
        self._label(end_label)

    # ------------------------------------------------------------------
    # names

    def _load_name(self, ctx: _FunctionContext, name: str, line: int) -> None:
        if name in ctx.locals:
            kind, offset = ctx.locals[name]
            if kind == "scalar":
                self._emit(f"ld64 r0, [fp-{offset}]")
            else:
                self._emit("mov r0, fp")
                self._emit(f"subi r0, {offset}")
            return
        if name in self.program.constants:
            self._emit(f"movi r0, {self.program.constants[name]}")
            return
        kind = self._global_kinds.get(name)
        if kind == "scalar":
            self._emit(f"movi r0, @{name}")
            self._emit("ld64 r0, [r0]")
            return
        if kind == "array":
            self._emit(f"movi r0, @{name}")
            return
        if name in self._function_names or name in self._extern_names:
            self._emit(f"movi r0, @{name}")   # function address
            return
        raise CompileError(f"undefined name {name!r}", line)

    def _store_name(self, ctx: _FunctionContext, name: str, line: int) -> None:
        if name in ctx.locals:
            kind, offset = ctx.locals[name]
            if kind != "scalar":
                raise CompileError(f"cannot assign to array {name!r}", line)
            self._emit(f"st64 [fp-{offset}], r0")
            return
        if self._global_kinds.get(name) == "scalar":
            self._emit(f"movi r2, @{name}")
            self._emit("st64 [r2], r0")
            return
        raise CompileError(f"cannot assign to {name!r}", line)

    def _address_of(self, ctx: _FunctionContext, name: str, line: int) -> None:
        """Base address for indexing: arrays decay, scalars dereference."""
        if name in ctx.locals:
            kind, offset = ctx.locals[name]
            if kind == "array":
                self._emit("mov r0, fp")
                self._emit(f"subi r0, {offset}")
            else:
                self._emit(f"ld64 r0, [fp-{offset}]")
            return
        kind = self._global_kinds.get(name)
        if kind == "array":
            self._emit(f"movi r0, @{name}")
            return
        if kind == "scalar":
            self._emit(f"movi r0, @{name}")
            self._emit("ld64 r0, [r0]")
            return
        raise CompileError(f"cannot index {name!r}", line)

    # ------------------------------------------------------------------
    # calls

    def _call(self, ctx: _FunctionContext, expr: CallExpr) -> None:
        if expr.callee in BUILTINS:
            self._builtin(ctx, expr)
            return
        if len(expr.args) > 6:
            raise CompileError("at most 6 arguments are supported", expr.line)
        for arg in expr.args:
            self._expression(ctx, arg)
            self._emit("push r0")
        is_direct = (
            expr.callee in self._function_names or expr.callee in self._extern_names
        )
        if not is_direct:
            # indirect call through a variable holding a function pointer
            self._load_name(ctx, expr.callee, expr.line)
            self._emit("mov r10, r0")
        for index in range(len(expr.args), 0, -1):
            self._emit(f"pop r{index}")
        if is_direct:
            self._emit(f"call {expr.callee}")
        else:
            self._emit("callr r10")

    def _builtin(self, ctx: _FunctionContext, expr: CallExpr) -> None:
        name = expr.callee

        def expect(count: int) -> None:
            if len(expr.args) != count:
                raise CompileError(
                    f"{name} expects {count} argument(s), got {len(expr.args)}",
                    expr.line,
                )

        if name == "load8":
            expect(1)
            self._expression(ctx, expr.args[0])
            self._emit("ld8 r0, [r0]")
        elif name == "load64":
            expect(1)
            self._expression(ctx, expr.args[0])
            self._emit("ld64 r0, [r0]")
        elif name == "store8":
            expect(2)
            self._expression(ctx, expr.args[0])
            self._emit("push r0")
            self._expression(ctx, expr.args[1])
            self._emit("pop r1")
            self._emit("st8 [r1], r0")
        elif name == "store64":
            expect(2)
            self._expression(ctx, expr.args[0])
            self._emit("push r0")
            self._expression(ctx, expr.args[1])
            self._emit("pop r1")
            self._emit("st64 [r1], r0")
        else:  # syscall(n, args...)
            if not 1 <= len(expr.args) <= 7:
                raise CompileError("syscall expects 1..7 arguments", expr.line)
            for arg in expr.args:
                self._expression(ctx, arg)
                self._emit("push r0")
            for index in range(len(expr.args) - 1, -1, -1):
                self._emit(f"pop r{index}")
            self._emit("syscall")


def compile_source(
    source: str, module_name: str, entry: bool = True
) -> ObjectModule:
    """Compile MiniC ``source`` into a relocatable object module.

    ``entry=True`` (default, for executables) emits the ``_start`` shim
    calling ``main``; shared libraries pass ``entry=False``.
    """
    program = parse(source)
    asm_text = CodeGenerator(program, module_name).generate(entry=entry)
    return assemble(asm_text, module_name)


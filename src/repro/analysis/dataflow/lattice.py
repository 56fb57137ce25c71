"""The value-set lattice used by the DynaFlow clients.

A :class:`ValueSet` approximates the set of 64-bit integers a register
(or stack slot) may hold, split into two *regions* in the classic VSA
style:

* the **global** region — absolute virtual addresses and plain
  integers.  Tracked as a finite set of constants (up to
  :data:`MAX_CONSTS`), widened to an interval ``[lo, hi]``, widened
  again to ``TOP`` when the interval grows past :data:`MAX_SPAN`.
* the **stack** region — offsets relative to the stack pointer at
  function entry.  Tracked as a finite offset set or ``TOP``.

Two taint bits ride along and survive joins and arithmetic:

* ``code`` — the global component was derived from a code address
  (a ``movi``/``lea`` of a text address, or a value loaded from a
  code-pointer word).  The store-hazard client uses it to flag
  unbounded stores that may alias executable bytes.
* ``external`` — the value was loaded from a load-time relocation site
  (a GOT word).  An indirect branch on such a value leaves the module
  through an import and is *resolved-external*, not unknown.

The lattice has finite height by construction (finite set → interval →
TOP), so every monotone client terminates without widening; the
framework's widening hook only accelerates interval growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

BinOp = Callable[[int, int], int]

MASK64 = (1 << 64) - 1

#: finite constant sets larger than this widen to an interval
MAX_CONSTS = 16
#: intervals wider than this widen to TOP
MAX_SPAN = 1 << 24
#: stack offset sets larger than this widen to stack-TOP
MAX_STACK_OFFSETS = 16


@dataclass(frozen=True)
class ValueSet:
    """One lattice element.

    ``consts`` — finite global constants, or ``None`` when the global
    component is an interval/TOP/empty.  ``lo``/``hi`` — interval
    bounds when ``consts`` is None; both ``None`` with ``global_top``
    False means the global component is empty.  ``stack`` — finite
    entry-sp-relative offsets, or ``None`` with ``stack_top`` marking
    TOP/empty.
    """

    consts: frozenset[int] | None = None
    lo: int | None = None
    hi: int | None = None
    global_top: bool = False
    stack: frozenset[int] | None = None
    stack_top: bool = False
    code: bool = False
    external: bool = False

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def bottom() -> "ValueSet":
        return ValueSet()

    @staticmethod
    def top() -> "ValueSet":
        return ValueSet(global_top=True, stack_top=True)

    @staticmethod
    def const(value: int, code: bool = False) -> "ValueSet":
        return ValueSet(consts=frozenset({value & MASK64}), code=code)

    @staticmethod
    def const_set(values: frozenset[int], code: bool = False) -> "ValueSet":
        if not values:
            return ValueSet(code=code)
        if len(values) > MAX_CONSTS:
            return ValueSet(
                lo=min(values), hi=max(values), code=code
            )._check_span()
        return ValueSet(consts=frozenset(v & MASK64 for v in values), code=code)

    @staticmethod
    def stack_offset(offset: int) -> "ValueSet":
        return ValueSet(stack=frozenset({offset}))

    @staticmethod
    def unknown_int() -> "ValueSet":
        """TOP in the global region only (no stack aliasing)."""
        return ValueSet(global_top=True)

    @staticmethod
    def interval(lo: int, hi: int, code: bool = False) -> "ValueSet":
        if lo > hi:
            lo, hi = hi, lo
        return ValueSet(lo=lo, hi=hi, code=code)._check_span()

    # ------------------------------------------------------------------
    # structure

    @property
    def is_bottom(self) -> bool:
        return (
            self.consts is None
            and self.lo is None
            and not self.global_top
            and self.stack is None
            and not self.stack_top
        )

    @property
    def has_global(self) -> bool:
        return self.consts is not None or self.lo is not None or self.global_top

    @property
    def has_stack(self) -> bool:
        return self.stack is not None or self.stack_top

    @property
    def is_finite(self) -> bool:
        """Exactly a finite set of global constants (no stack, no TOP)."""
        return (
            self.consts is not None
            and not self.global_top
            and not self.has_stack
        )

    def _check_span(self) -> "ValueSet":
        if self.lo is not None and self.hi is not None:
            if self.hi - self.lo > MAX_SPAN:
                return ValueSet(
                    global_top=True,
                    stack=self.stack,
                    stack_top=self.stack_top,
                    code=self.code,
                    external=self.external,
                )
        return self

    def global_bounds(self) -> tuple[int, int] | None:
        """``[lo, hi]`` covering the global component, None if TOP/empty."""
        if self.global_top:
            return None
        if self.consts is not None:
            return min(self.consts), max(self.consts)
        if self.lo is not None and self.hi is not None:
            return self.lo, self.hi
        return None

    def may_contain(self, lo: int, hi: int) -> bool:
        """May the global component intersect ``[lo, hi)``?"""
        if self.global_top:
            return self.code    # unbounded: only code-derived values count
        if self.consts is not None:
            return any(lo <= v < hi for v in self.consts)
        if self.lo is not None and self.hi is not None:
            return self.lo < hi and lo <= self.hi
        return False

    # ------------------------------------------------------------------
    # lattice operations

    def join(self, other: "ValueSet") -> "ValueSet":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        # Taint bits are or'd — EXCEPT that an *untainted* global-TOP
        # absorbs them.  Without absorption plain TOP would sit below
        # "TOP with taint" and a transfer reading an absent (= TOP)
        # stack slot could produce output below its previous one,
        # breaking monotonicity.  The cost is that taint does not
        # survive a merge with fully-unknown data, which only ever
        # drops a DL502 *warning*.
        code = (
            (self.code or other.code)
            and not (self.global_top and not self.code)
            and not (other.global_top and not other.code)
        )
        external = (
            (self.external or other.external)
            and not (self.global_top and not self.external)
            and not (other.global_top and not other.external)
        )
        # stack component
        if self.stack_top or other.stack_top:
            stack, stack_top = None, True
        elif self.stack is not None or other.stack is not None:
            merged = (self.stack or frozenset()) | (other.stack or frozenset())
            if len(merged) > MAX_STACK_OFFSETS:
                stack, stack_top = None, True
            else:
                stack, stack_top = merged, False
        else:
            stack, stack_top = None, False
        # global component
        if self.global_top or other.global_top:
            return ValueSet(
                global_top=True, stack=stack, stack_top=stack_top,
                code=code, external=external,
            )
        if self.consts is not None and other.consts is not None:
            merged_consts = self.consts | other.consts
            if len(merged_consts) <= MAX_CONSTS:
                return ValueSet(
                    consts=merged_consts, stack=stack, stack_top=stack_top,
                    code=code, external=external,
                )
            lo, hi = min(merged_consts), max(merged_consts)
            return ValueSet(
                lo=lo, hi=hi, stack=stack, stack_top=stack_top,
                code=code, external=external,
            )._check_span()
        bounds_a = self.global_bounds()
        bounds_b = other.global_bounds()
        if bounds_a is None and bounds_b is None:
            return ValueSet(
                stack=stack, stack_top=stack_top, code=code, external=external
            )
        if bounds_a is None:
            lo, hi = bounds_b  # type: ignore[misc]
        elif bounds_b is None:
            lo, hi = bounds_a
        else:
            lo = min(bounds_a[0], bounds_b[0])
            hi = max(bounds_a[1], bounds_b[1])
        return ValueSet(
            lo=lo, hi=hi, stack=stack, stack_top=stack_top,
            code=code, external=external,
        )._check_span()

    def widen(self, newer: "ValueSet") -> "ValueSet":
        """Accelerated join: any global growth jumps straight to TOP."""
        joined = self.join(newer)
        if joined == self:
            return self
        return ValueSet(
            global_top=joined.has_global or joined.global_top,
            stack=None if joined.stack_top else joined.stack,
            stack_top=joined.stack_top,
            code=joined.code,
            external=joined.external,
        ) if joined.has_global else joined

    # ------------------------------------------------------------------
    # arithmetic transfers

    def shifted(self, delta: int) -> "ValueSet":
        """``self + delta`` for a known constant delta."""
        stack = (
            frozenset(o + delta for o in self.stack)
            if self.stack is not None else None
        )
        if self.global_top:
            return ValueSet(
                global_top=True, stack=stack, stack_top=self.stack_top,
                code=self.code, external=self.external,
            )
        if self.consts is not None:
            return ValueSet(
                consts=frozenset((v + delta) & MASK64 for v in self.consts),
                stack=stack, stack_top=self.stack_top,
                code=self.code, external=self.external,
            )
        if self.lo is not None and self.hi is not None:
            return ValueSet(
                lo=self.lo + delta, hi=self.hi + delta,
                stack=stack, stack_top=self.stack_top,
                code=self.code, external=self.external,
            )._check_span()
        return ValueSet(
            stack=stack, stack_top=self.stack_top,
            code=self.code, external=self.external,
        )

    def add(self, other: "ValueSet") -> "ValueSet":
        if self.is_bottom or other.is_bottom:
            return ValueSet.bottom()
        # stack + constant => shifted stack offsets
        if other.is_finite and len(other.consts or ()) == 1 and self.has_stack:
            shifted = self.shifted(next(iter(other.consts or frozenset())))
            return shifted._tainted_by(other)
        if self.is_finite and len(self.consts or ()) == 1 and other.has_stack:
            shifted = other.shifted(next(iter(self.consts or frozenset())))
            return shifted._tainted_by(self)
        return self._binop(other, lambda a, b: (a + b) & MASK64)

    def sub(self, other: "ValueSet") -> "ValueSet":
        if self.is_bottom or other.is_bottom:
            return ValueSet.bottom()
        if other.is_finite and len(other.consts or ()) == 1 and self.has_stack:
            shifted = self.shifted(-next(iter(other.consts or frozenset())))
            return shifted._tainted_by(other)
        return self._binop(other, lambda a, b: (a - b) & MASK64)

    def _tainted_by(self, other: "ValueSet") -> "ValueSet":
        """Carry ``other``'s taint bits into an arithmetic result."""
        if (self.code or not other.code) and (
            self.external or not other.external
        ):
            return self
        return ValueSet(
            consts=self.consts, lo=self.lo, hi=self.hi,
            global_top=self.global_top,
            stack=self.stack, stack_top=self.stack_top,
            code=self.code or other.code,
            external=self.external or other.external,
        )

    def _binop(self, other: "ValueSet", op: BinOp) -> "ValueSet":
        code = self.code or other.code
        if self.has_stack or other.has_stack:
            # arithmetic mixing stack pointers beyond +/- const: give up
            # on the offsets but remember a stack address may be inside
            return ValueSet(global_top=True, stack_top=True, code=code)
        if (
            self.consts is not None
            and other.consts is not None
            and len(self.consts) * len(other.consts) <= MAX_CONSTS * 4
        ):
            values = frozenset(
                op(a, b) for a in self.consts for b in other.consts
            )
            return ValueSet.const_set(values, code=code)
        return ValueSet(global_top=True, code=code)


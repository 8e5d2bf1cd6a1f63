"""Local (block-scoped) common subexpression elimination.

Pure computations with identical operands reuse the earlier result.
Loads participate too — a second load of the same address with no
intervening store or call is redundant — but note this never subsumes
memory access coalescing: the narrow references the coalescer merges are
at *different* addresses, which CSE cannot touch (§2.1 of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.rtl import (
    BinOp,
    Call,
    Const,
    Extract,
    FrameAddr,
    GlobalAddr,
    Insert,
    Load,
    Mov,
    Operand,
    Reg,
    Store,
    UnOp,
    COMMUTATIVE_OPS,
)
from repro.opt.pass_manager import PassContext


def _operand_key(value: Operand) -> Tuple[str, int]:
    if isinstance(value, Reg):
        return ("r", value.index)
    return ("c", value.value)


def _expression_key(instr) -> Optional[Tuple]:
    """Hashable key identifying the computation, or None if not CSE-able."""
    if isinstance(instr, BinOp):
        a, b = _operand_key(instr.a), _operand_key(instr.b)
        if instr.op in COMMUTATIVE_OPS and b < a:
            a, b = b, a
        return ("bin", instr.op, a, b)
    if isinstance(instr, UnOp):
        return ("un", instr.op, _operand_key(instr.a))
    if isinstance(instr, Extract):
        return (
            "ext",
            instr.width,
            instr.signed,
            _operand_key(instr.src),
            _operand_key(instr.pos),
        )
    if isinstance(instr, Insert):
        return (
            "ins",
            instr.width,
            _operand_key(instr.acc),
            _operand_key(instr.src),
            _operand_key(instr.pos),
        )
    if isinstance(instr, FrameAddr):
        return ("frame", instr.slot)
    if isinstance(instr, GlobalAddr):
        return ("global", instr.name)
    if isinstance(instr, Load):
        return (
            "load",
            instr.width,
            instr.signed,
            instr.unaligned,
            _operand_key(instr.base),
            instr.disp,
        )
    return None


def local_cse(func: Function, ctx: PassContext) -> bool:
    changed = False
    for block in func.blocks:
        available: Dict[Tuple, Reg] = {}
        # Reverse index: register -> keys that read it or whose result
        # it is, plus every load key added.  An entry goes stale when its
        # key is dropped through another register and re-added with a
        # new result, so a kill checks the key again before dropping it.
        listed: Dict[int, Set[Tuple]] = {}
        loads: Set[Tuple] = set()

        def kill(defined: List[int]) -> None:
            """Drop entries whose inputs or result were redefined."""
            for reg_index in defined:
                for k in listed.pop(reg_index, ()):
                    result = available.get(k)
                    if result is not None and (
                        result.index == reg_index
                        or reg_index in _key_registers(k)
                    ):
                        del available[k]

        new_instrs = []
        for instr in block.instrs:
            key = _expression_key(instr)
            defined = [r.index for r in instr.defs()]
            if key is not None:
                reads = _key_registers(key)
                # Never rewrite a self-referencing computation like
                # ``i = add i, 1`` into a copy: it costs nothing and
                # hides the induction variable from the loop analyses.
                # Its inputs are stale once it runs, so it is not
                # recorded either.
                if any(d in reads for d in defined):
                    new_instrs.append(instr)
                    kill(defined)
                    continue
                if key in available:
                    # Reuse the earlier result.
                    instr = Mov(instr.defs()[0], available[key])
                    changed = True
                    key = None  # a Mov adds nothing to the table
            new_instrs.append(instr)
            kill(defined)
            if isinstance(instr, (Store, Call)):
                for k in loads:
                    available.pop(k, None)
                loads.clear()
            if key is not None:
                result = instr.defs()[0]
                available[key] = result
                for reg_index in reads + (result.index,):
                    listed.setdefault(reg_index, set()).add(key)
                if key[0] == "load":
                    loads.add(key)
        block.instrs = new_instrs
    return changed


def _key_registers(key: Tuple) -> Tuple[int, ...]:
    """The registers whose values ``key`` reads."""
    return tuple(
        part[1] for part in key
        if isinstance(part, tuple) and part[0] == "r"
    )


#: Block-local rewrites only — the dominator tree survives.
local_cse.preserves = frozenset({"dominators"})

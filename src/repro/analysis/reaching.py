"""Reaching definitions.

Definitions are identified as ``(block_label, instr_index)`` pairs.  Used
by global copy propagation and by the induction variable analysis (a basic
IV needs *all* its in-loop definitions to be increments).

The solver numbers every definition site and runs the classic bitvector
fixpoint over Python ints (``out = (in & ~kill) | gen``), which is orders
of magnitude cheaper than juggling sets of tuples.  Queries are sparse:
:meth:`ReachingDefs.reaching_at` binary-searches the per-register list of
definition positions inside the block instead of walking the block prefix,
so a full-function sweep of queries is ``O(uses · log defs)`` rather than
the old ``O(instructions²)``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.analysis.cfgutil import predecessors, reachable_labels, \
    reverse_postorder
from repro.ir.function import Function

DefSite = Tuple[str, int]


class ReachingDefs:
    """Reaching-definition sets plus convenience queries."""

    def __init__(
        self,
        func: Function,
        reach_in: Dict[str, Set[DefSite]],
        defs_of: Dict[int, Set[DefSite]],
        block_defs: Dict[str, Dict[int, List[int]]],
        site_regs: Dict[DefSite, Tuple[int, ...]],
    ):
        self.func = func
        self.reach_in = reach_in
        self.defs_of = defs_of
        # label -> reg index -> sorted instruction positions defining it.
        self._block_defs = block_defs
        # def site -> the registers it defines.
        self._site_regs = site_regs
        # label -> reg index -> sites from reach_in defining that reg
        # (built lazily; most blocks are never queried).
        self._in_by_reg: Dict[str, Dict[int, Tuple[DefSite, ...]]] = {}

    def _incoming(self, label: str) -> Dict[int, Tuple[DefSite, ...]]:
        cached = self._in_by_reg.get(label)
        if cached is not None:
            return cached
        grouped: Dict[int, List[DefSite]] = {}
        for site in self.reach_in.get(label, ()):
            for reg_index in self._site_regs[site]:
                grouped.setdefault(reg_index, []).append(site)
        frozen = {reg: tuple(sites) for reg, sites in grouped.items()}
        self._in_by_reg[label] = frozen
        return frozen

    def reaching_at(
        self, label: str, index: int, reg_index: int
    ) -> Set[DefSite]:
        """Definitions of ``reg_index`` reaching instruction ``index`` of
        block ``label``."""
        positions = self._block_defs.get(label, {}).get(reg_index)
        if positions:
            at = bisect_left(positions, index) - 1
            if at >= 0:
                return {(label, positions[at])}
        return set(self._incoming(label).get(reg_index, ()))

    def unique_def_at(
        self, label: str, index: int, reg_index: int
    ) -> Optional[DefSite]:
        sites = self.reaching_at(label, index, reg_index)
        if len(sites) == 1:
            return next(iter(sites))
        return None


def reaching_definitions(
    func: Function, regs: Optional[AbstractSet[int]] = None
) -> ReachingDefs:
    """Solve the forward reaching-definitions dataflow problem.

    With ``regs``, only definitions of those registers are tracked and
    only they may be queried.  The restriction is exact: which
    definitions of ``r`` reach a point depends only on the definitions
    of ``r``.
    """
    reachable = reachable_labels(func)
    order = [l for l in reverse_postorder(func) if l in reachable]
    labels_set = set(order)
    preds = predecessors(func)
    blocks = {block.label: block for block in func.blocks}

    # Number every definition site; per-register masks give kill sets.
    sites: List[DefSite] = []
    site_regs: Dict[DefSite, Tuple[int, ...]] = {}
    defs_of: Dict[int, Set[DefSite]] = {}
    block_defs: Dict[str, Dict[int, List[int]]] = {}
    reg_mask: Dict[int, int] = {}
    gen_mask: Dict[str, int] = {}
    kill_regs: Dict[str, List[int]] = {}
    for label in order:
        per_reg: Dict[int, List[int]] = {}
        last_def: Dict[int, int] = {}  # reg -> site number
        for index, instr in enumerate(blocks[label].instrs):
            defined = tuple(
                reg.index for reg in instr.defs()
                if regs is None or reg.index in regs
            )
            if not defined:
                continue
            number = len(sites)
            site = (label, index)
            sites.append(site)
            site_regs[site] = defined
            for reg_index in defined:
                defs_of.setdefault(reg_index, set()).add(site)
                reg_mask[reg_index] = reg_mask.get(reg_index, 0) | (
                    1 << number
                )
                last_def[reg_index] = number
                per_reg.setdefault(reg_index, []).append(index)
        block_defs[label] = per_reg
        gen_mask[label] = 0
        for number in last_def.values():
            gen_mask[label] |= 1 << number
        kill_regs[label] = list(last_def)

    kill_mask: Dict[str, int] = {
        label: _union_masks(reg_mask, kill_regs[label])
        for label in order
    }

    reach_in_bits: Dict[str, int] = {label: 0 for label in order}
    reach_out_bits: Dict[str, int] = {label: 0 for label in order}
    changed = True
    while changed:
        changed = False
        for label in order:
            into = 0
            for pred in preds[label]:
                if pred in labels_set:
                    into |= reach_out_bits[pred]
            out = (into & ~kill_mask[label]) | gen_mask[label]
            if into != reach_in_bits[label] or out != reach_out_bits[label]:
                reach_in_bits[label] = into
                reach_out_bits[label] = out
                changed = True

    reach_in: Dict[str, Set[DefSite]] = {
        label: _sites_from_mask(sites, bits)
        for label, bits in reach_in_bits.items()
    }
    return ReachingDefs(func, reach_in, defs_of, block_defs, site_regs)


def _union_masks(reg_mask: Dict[int, int], regs: List[int]) -> int:
    mask = 0
    for reg in regs:
        mask |= reg_mask.get(reg, 0)
    return mask


def _sites_from_mask(sites: List[DefSite], bits: int) -> Set[DefSite]:
    """The sites whose bits are set, added in ascending site order."""
    result: Set[DefSite] = set()
    while bits:
        low = bits & -bits
        result.add(sites[low.bit_length() - 1])
        bits ^= low
    return result

"""Seeded inputs and reference outputs for every benchmark program.

Each recipe mirrors ``repro.bench.harness``'s staging: the same arrays,
allocated in the same order with the same sizes, and the same argument
lists, so simulated cycles match the committed ``BENCH_seed.json``
figures when the harness's own input seeds are used (``seed=None``).
A workload seed instead draws fresh LCG seeds for the data, leaving the
shapes alone.

An input is a list of arrays ``(name, width, values)`` in allocation
order, an argument list (array names stand for their addresses), and
the expected outputs computed by the pure-Python references in
``repro.bench.workloads`` — never by the compiler under test.  The
same triple is the service protocol's ``arrays`` field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.bench import workloads as ref

Array = Tuple[str, int, List[int]]
Arg = Union[int, str]


@dataclass
class Inputs:
    """One program's staged inputs and its reference outputs."""

    program: str
    entry: str
    arrays: List[Array]
    args: List[Arg]
    #: Expected signed return value, or None for void kernels.
    result: Optional[int] = None
    #: name -> (width, signed, expected values) read back after the call.
    outputs: Dict[str, Tuple[int, bool, List[int]]] = field(
        default_factory=dict
    )

    def stage(self, sim) -> Tuple[List[int], Dict[str, int]]:
        """Allocate and fill every array in ``sim``; returns the call
        arguments and each array's address."""
        addresses: Dict[str, int] = {}
        for name, width, values in self.arrays:
            address = sim.alloc_array(name, size=len(values) * width)
            sim.write_words(address, values, width)
            addresses[name] = address
        args = [addresses[a] if isinstance(a, str) else a for a in self.args]
        return args, addresses

    def mismatch(self, sim, value: Optional[int],
                 addresses: Dict[str, int]) -> Optional[str]:
        """None when the simulated run matches the references, else why."""
        if self.result is not None:
            bits = sim.machine.word_bits
            if value is not None and value >= 1 << (bits - 1):
                value -= 1 << bits
            if value != self.result:
                return f"returned {value}, expected {self.result}"
        for name, (width, signed, expected) in self.outputs.items():
            got = sim.read_words(addresses[name], len(expected), width,
                                 signed=signed)
            if got != expected:
                return f"array {name!r} differs from its reference"
        return None


def _draw(rng: Optional[random.Random]) -> Callable[[int], int]:
    if rng is None:
        return lambda default: default
    return lambda default: rng.randrange(1, 1 << 30)


def _convolution(w: int, h: int, draw) -> Inputs:
    n = w * h
    src = ref.lcg_bytes(n, seed=draw(12345))
    return Inputs(
        "convolution", "convolve",
        [("src", 1, src), ("dst", 1, [0] * n)], ["src", "dst", w, h],
        outputs={"dst": (1, False, ref.ref_convolution(src, w, h))},
    )


def _image_pair(name: str, seeds: Tuple[int, int], reference):
    def recipe(w: int, h: int, draw) -> Inputs:
        n = w * h
        a = ref.lcg_bytes(n, seed=draw(seeds[0]))
        b = ref.lcg_bytes(n, seed=draw(seeds[1]))
        return Inputs(
            name, name,
            [("dst", 1, [0] * n), ("a", 1, a), ("b", 1, b)],
            ["dst", "a", "b", n],
            outputs={"dst": (1, False, reference(a, b))},
        )
    return recipe


def _image_add16(w: int, h: int, draw) -> Inputs:
    n = w * h
    a = [v * 257 for v in ref.lcg_bytes(n, seed=draw(33))]
    b = [v * 257 for v in ref.lcg_bytes(n, seed=draw(44))]
    return Inputs(
        "image_add16", "image_add16",
        [("dst", 2, [0] * n), ("a", 2, a), ("b", 2, b)],
        ["dst", "a", "b", n],
        outputs={"dst": (2, False, ref.ref_image_add16(a, b))},
    )


def _translate(w: int, h: int, draw) -> Inputs:
    n, tx, ty = w * h, 8, 4
    src = ref.lcg_bytes(n, seed=draw(55))
    return Inputs(
        "translate", "translate",
        [("src", 1, src), ("dst", 1, [0] * n)],
        ["src", "dst", w, h, tx, ty],
        outputs={"dst": (1, False, ref.ref_translate(src, w, h, tx, ty))},
    )


def _mirror(w: int, h: int, draw) -> Inputs:
    n = w * h
    src = ref.lcg_bytes(n, seed=draw(66))
    return Inputs(
        "mirror", "mirror",
        [("src", 1, src), ("dst", 1, [0] * n)], ["src", "dst", w, h],
        outputs={"dst": (1, False, ref.ref_mirror(src, w, h))},
    )


def _eqntott(w: int, h: int, draw) -> Inputs:
    nterms, width = max(h, 4), max(w, 8)
    terms = ref.eqntott_terms(nterms, width, seed=draw(777))
    return Inputs(
        "eqntott", "eqntott",
        [("terms", 2, terms), ("work", 2, [0] * width)],
        ["terms", "work", nterms, width],
        result=ref.ref_eqntott(terms, nterms, width),
    )


def _blockstage(w: int, h: int, draw) -> Inputs:
    n = w * h
    src = ref.lcg_bytes(n, seed=draw(99))
    return Inputs(
        "blockstage", "blockstage", [("src", 1, src)], ["src", n],
        result=ref.ref_blockstage(src, n),
    )


def _spmv(w: int, h: int, draw) -> Inputs:
    nrows, ncols = max(h, 4), 128
    vals, cols, rowptr = ref.csr_matrix(nrows, seed=draw(4242))
    x = ref.lcg_shorts(ncols, seed=draw(4321), span=128)
    y, total = ref.ref_spmv(vals, cols, rowptr, x, nrows)
    return Inputs(
        "spmv_csr", "spmv",
        [("y", 4, [0] * nrows), ("val", 2, vals), ("col", 2, cols),
         ("rowptr", 4, rowptr), ("x", 2, x)],
        ["y", "val", "col", "rowptr", "x", nrows],
        result=total, outputs={"y": (4, True, y)},
    )


def _histogram(w: int, h: int, draw) -> Inputs:
    n = w * h
    src = ref.lcg_bytes(n, seed=draw(17))
    hist = ref.ref_histogram(src)
    return Inputs(
        "histogram", "histogram",
        [("hist", 4, [0] * 256), ("src", 1, src)], ["hist", "src", n],
        result=hist[0], outputs={"hist": (4, True, hist)},
    )


def _strided_copy(w: int, h: int, draw) -> Inputs:
    n = w * h
    src = ref.lcg_bytes(2 * n, seed=draw(23))
    return Inputs(
        "strided_copy", "strided_copy",
        [("dst", 1, [0] * n), ("src", 1, src)], ["dst", "src", n],
        outputs={"dst": (1, False, ref.ref_strided_copy(src, n))},
    )


def _conv2d_rowwalk(w: int, h: int, draw) -> Inputs:
    rows, width = max(h, 3), max(4, min(w, 64))
    m = ref.lcg_bytes(rows * 64, seed=draw(29))
    y = rows // 2
    out = ref.ref_conv2d_rowwalk(m, y, width)
    return Inputs(
        "conv2d_rowwalk", "conv2d_rowwalk",
        [("m", 1, m), ("out", 1, [0] * width)], ["m", "out", y, width],
        result=out[1], outputs={"out": (1, False, out)},
    )


def _dotproduct(w: int, h: int, draw) -> Inputs:
    n = w * h
    a = ref.lcg_shorts(n, seed=draw(77), span=2000)
    b = ref.lcg_shorts(n, seed=draw(88), span=2000)
    return Inputs(
        "dotproduct", "dotproduct",
        [("a", 2, a), ("b", 2, b)], ["a", "b", n],
        result=ref.ref_dotproduct(a, b),
    )


RECIPES: Dict[str, Callable[..., Inputs]] = {
    "convolution": _convolution,
    "image_add": _image_pair("image_add", (11, 22), ref.ref_image_add),
    "image_add16": _image_add16,
    "image_xor": _image_pair("image_xor", (11, 22), ref.ref_image_xor),
    "translate": _translate,
    "eqntott": _eqntott,
    "mirror": _mirror,
    "dotproduct": _dotproduct,
    "blockstage": _blockstage,
    "spmv_csr": _spmv,
    "histogram": _histogram,
    "strided_copy": _strided_copy,
    "conv2d_rowwalk": _conv2d_rowwalk,
}


def make_inputs(program: str, width: int, height: int,
                rng: Optional[random.Random] = None) -> Inputs:
    """Inputs for ``program`` at ``width``×``height``: the harness's
    own data when ``rng`` is None, else data drawn from ``rng``."""
    return RECIPES[program](width, height, _draw(rng))

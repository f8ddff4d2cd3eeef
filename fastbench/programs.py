"""Seeded FastISA programs for the FastBench workloads.

Every program is a pure function of ``(seed, scale)``: the same seed
gives the same source text, so the same simulated outputs.  ``scale``
multiplies the work; the benchmark runs ``scale=1`` and its self-tests
a tenth of that.  Each program also returns the console text it must
print, computed here in Python, so a run is checked against an answer
that does not come from the simulator at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.fuzz.generator import alu_burst
from repro.kernel.image import UserProgram
from repro.workloads.generator import EXIT_SNIPPET, data_bytes, data_words, seeded

# FastOS prints its banner before starting init.
BANNER = "FastOS/linux-2.4\n"
# The modelled L1D is 32 KB with 64-byte lines (repro.timing.cache).
LINE_BYTES = 64
L1D_BYTES = 32 * 1024
# R7 is the stack pointer: the programs below leave it alone.


def _letter(value: int) -> str:
    return chr(ord("a") + (value & 15))


def _putchar_reg(reg: int) -> str:
    """Print ``'a' + (Rreg & 15)`` and a newline; clobbers R0-R2."""
    return """
    MOV R2, R%d
    ANDI R2, 15
    ADDI R2, 97
    MOV R1, R2
    MOVI R0, 1
    SYSCALL
    MOVI R0, 1
    MOVI R1, 10
    SYSCALL
""" % reg


_BRANCHY = """
main:
    MOVI R1, %(passes)d
    MOVI R2, passes
    ST [R2+0], R1
br_pass:
    ; histogram pass: a predictable counted loop
    MOVI R4, buf
    MOVI R5, %(n)d
br_hist:
    LDB R1, [R4+0]
    MOV R2, R1
    SHL R2, 2
    ADDI R2, hist
    LD R3, [R2+0]
    INC R3
    ST [R2+0], R3
    INC R4
    DEC R5
    JNZ br_hist
    ; run-length pass: the compare depends on the data, so every run
    ; boundary is a coin flip for the predictor
    MOVI R4, buf
    MOVI R5, %(n)d
    MOVI R6, outbuf
    LDB R2, [R4+0]
    MOVI R3, 1
br_rle:
    DEC R5
    JZ br_done
    INC R4
    LDB R1, [R4+0]
    CMP R1, R2
    JZ br_same
    CALL br_emit
    MOV R2, R1
    MOVI R3, 1
    JMP br_rle
br_same:
    INC R3
    JMP br_rle
br_emit:                  ; write the (value, count) pair
    PUSH R1
    STB [R6+0], R2
    INC R6
    STB [R6+0], R3
    INC R6
    POP R1
    RET
br_done:
    MOVI R2, passes
    LD R1, [R2+0]
    DEC R1
    ST [R2+0], R1
    JNZ br_pass
    ; print the number of pairs emitted by the last pass
    MOVI R1, outbuf
    SUB R6, R1
    SHR R6, 1
%(print)s
%(exit)s
.align 4
passes:
    .word 0
hist:
    .space 1024
%(buf)s
.align 4
outbuf:
    .space %(out)d
"""


def branchy(seed: int, scale: float = 1.0) -> Tuple[UserProgram, str]:
    """gzip-like histogram + run-length kernel over a seeded buffer of
    short runs: mispredict-heavy, so FM rollback and wrong-path
    execution carry a large share of host time."""
    rng = seeded(seed)
    n = max(16, int(1024 * scale))
    buf = bytearray()
    while len(buf) < n:
        buf += bytes([rng.randrange(64, 96)]) * rng.randrange(1, 7)
    buf = bytes(buf[:n])
    pairs = 1 + sum(1 for a, b in zip(buf, buf[1:]) if a != b)
    # The last run is never emitted: the loop ends on the counter.
    emitted = pairs - 1
    source = _BRANCHY % {
        "passes": 2,
        "n": n,
        "print": _putchar_reg(6),
        "exit": EXIT_SNIPPET,
        "buf": data_bytes("buf", buf),
        "out": 2 * n + 8,
    }
    return UserProgram("branchy", source, entry="main"), _letter(emitted) + "\n"


_CHASE = """
main:
    ; link the ring: node i (one cache line each) holds node next[i]'s
    ; address
    MOVI R4, next
    MOVI R6, ring
    MOVI R5, %(nodes)d
ch_link:
    LD R1, [R4+0]
    SHL R1, 6
    ADDI R1, ring
    ST [R6+0], R1
    ADDI R4, 4
    ADDI R6, %(line)d
    DEC R5
    JNZ ch_link
    ; chase: every load's address is the previous load's value
    MOVI R5, ring
    MOVI R6, %(outer)d
ch_outer:
    MOVI R4, %(steps)d
ch_step:
    LD R5, [R5+0]
    DEC R4
    JNZ ch_step
    DEC R6
    JNZ ch_outer
    ; print the index of the node the chase stopped on
    MOVI R1, ring
    SUB R5, R1
    SHR R5, 6
%(print)s
%(exit)s
.align 4
%(next)s
.align 64
ring:
    .space %(ring_bytes)d
"""


def chase(seed: int, scale: float = 1.0) -> Tuple[UserProgram, str]:
    """Pointer chase over a seeded permutation ring of cache-line nodes
    whose footprint is three times the modelled L1D: few branches to
    mispredict, every load serialised behind a data-cache miss."""
    rng = seeded(seed)
    nodes = 3 * L1D_BYTES // LINE_BYTES
    order = list(range(1, nodes))
    rng.shuffle(order)
    cycle = [0] + order
    next_of = [0] * nodes
    for k, node in enumerate(cycle):
        next_of[node] = cycle[(k + 1) % nodes]
    outer, steps = 2, max(16, int(5000 * scale))
    source = _CHASE % {
        "nodes": nodes,
        "line": LINE_BYTES,
        "outer": outer,
        "steps": steps,
        "print": _putchar_reg(5),
        "exit": EXIT_SNIPPET,
        "next": data_words("next", next_of),
        "ring_bytes": nodes * LINE_BYTES,
    }
    final = 0
    for _ in range(outer * steps):
        final = next_of[final]
    return UserProgram("chase", source, entry="main"), _letter(final) + "\n"


_BOOT_IDLE = """
main:
    %(burst)s
    MOVI R0, 1
    MOVI R1, 98           ; 'b': boot reached userspace
    SYSCALL
    MOVI R0, 2            ; SYS_SLEEP: park the system in the kernel's
    MOVI R1, %(ticks)d    ; HALT idle loop for this many kernel ticks
    SYSCALL
    MOVI R0, 1
    MOVI R1, 10
    SYSCALL
%(exit)s
"""


def boot_idle(seed: int, scale: float = 1.0) -> Tuple[UserProgram, str]:
    """Linux-2.4 boot slice whose init runs a seeded ALU burst and then
    sleeps: nearly every cycle is skipped by idle fast-forward, so
    device time (IOBus.tick) is the work left."""
    burst = alu_burst(seeded(seed), 24, regs=(4, 5, 6))
    source = _BOOT_IDLE % {
        "burst": "\n    ".join(burst),
        "ticks": max(2, int(60 * scale)),
        "exit": EXIT_SNIPPET,
    }
    return UserProgram("init", source, entry="main"), "b\n"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a program generator, whether the run arms
    the full observation plane (FastScope), and whether the target sleeps
    so that idle fast-forward must skip cycles."""

    name: str
    program: Callable[[int, float], Tuple[UserProgram, str]]
    scoped: bool = False
    sleeps: bool = False

    def build(self, seed: int, scale: float = 1.0) -> Tuple[UserProgram, str]:
        """The program and the console text a correct run prints."""
        program, tail = self.program(seed, scale)
        return program, BANNER + tail


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("branchy", branchy),
        Workload("chase", chase),
        Workload("boot-idle", boot_idle, sleeps=True),
        Workload("branchy-scoped", branchy, scoped=True),
    )
}

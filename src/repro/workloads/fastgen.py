"""Bit-identical fast path for :class:`SyntheticTraceGenerator`.

The synthetic generator is roughly half of detailed-simulation time: per
micro-op it pays several method-call layers (``next_op`` -> ``_make_*``
-> ``_pick_*`` -> ``random.Random`` wrappers) plus a full dataclass
``__init__`` with ``__post_init__`` validation for every ``MicroOp``.

:class:`FastSyntheticTraceGenerator` produces the *same stream, bit for
bit*: it draws from the same ``random.Random`` in the same order and
mutates the same generator state, but with every helper inlined and
``MicroOp`` instances built by direct ``__dict__`` assignment (skipping
``__init__``; the generator constructs only valid ops).  The stdlib
wrappers it bypasses are re-expressed exactly as CPython implements
them, so the underlying C-level draws are identical:

* ``choice(seq)``   == ``seq[_randbelow(len(seq))]``
* ``randrange(n)``  == ``_randbelow(n)``
* ``randint(a, b)`` == ``a + _randbelow(b - a + 1)``
* ``_randbelow(n)`` == ``getrandbits(n.bit_length())`` redrawn while
  ``>= n`` (the rejection loop below mirrors
  ``Random._randbelow_with_getrandbits`` including its power-of-two
  rejections; bit lengths of fixed-size pools are precomputed)
* ``expovariate(lambd)`` == ``-log(1.0 - random()) / lambd``

``random()`` is called through a hoisted bound method, so its draws are
identical trivially.  The round-robin destination pick consumes no
randomness and is collapsed into two precomputed ``cursor -> (reg,
next_cursor)`` tables.

Equivalence is enforced by tests (``tests/test_backend.py::
TestFastGenerator`` compares 2,000-op streams element-wise and the final
RNG state for every shipped profile, two seeds and two threads), by the
golden retire model (``clone()`` is inherited, so the oracle's reference
stream comes from the readable generator and a verified run on the
``optimized`` kernel checks this class op for op), and transitively by
every golden pin and differential law run against the ``optimized``
kernel backend, which is the only consumer of this class.
"""

from __future__ import annotations

from math import log as _log

from repro.isa import MicroOp, OpClass, ZERO_REG
from repro.isa.registers import FIRST_FP_REG
from repro.workloads.generator import LINK_REG, SyntheticTraceGenerator

_new_op = MicroOp.__new__
#: frozen-dataclass ``__setattr__`` blocks even ``__dict__`` rebinding,
#: so the fast constructor goes through ``object.__setattr__`` directly
_set_dict = object.__setattr__

_INT_ALU = OpClass.INT_ALU
_BRANCH = OpClass.BRANCH
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_CALL = OpClass.CALL
_RETURN = OpClass.RETURN
_JUMP = OpClass.JUMP
_NOP = OpClass.NOP
_MEM_BARRIER = OpClass.MEM_BARRIER
_FP_CLASSES = (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV)


class FastSyntheticTraceGenerator(SyntheticTraceGenerator):
    """Drop-in generator with a flattened, RNG-identical ``next_op``."""

    def __init__(self, profile, seed=0, thread=0, page_bytes=8192):
        super().__init__(profile, seed=seed, thread=thread, page_bytes=page_bytes)
        rng = self._rng
        self._f_random = rng.random
        self._f_getrandbits = rng.getrandbits
        mix = profile.mix
        self._mix_pairs = tuple(zip(mix._cumulative, mix._classes))
        self._mix_last = mix._classes[-1]
        deps = profile.deps
        self._gf = deps.global_frac
        self._gcf = deps.global_frac + deps.chain_frac
        self._farf = deps.far_frac
        self._far_lo = deps.far_lo
        self._far_span = deps.far_hi - deps.far_lo + 1
        self._far_k = self._far_span.bit_length()
        self._lambd = 1.0 / deps.near_mean
        self._two_src = deps.two_src_frac
        self._fanout_frac = deps.fanout_burst_frac
        self._fanout_len = deps.fanout_burst_len
        self._strands = deps.strands
        self._strands_k = deps.strands.bit_length()
        self._indirect_frac = profile.branches.indirect_frac
        self._rc0, self._rc1, self._rc2 = self._region_cum[:3]
        # fixed-size pools: precomputed (length, bit_length) pairs
        self._ng = len(self._globals)
        self._kg = self._ng.bit_length()
        self._nsites = len(self._sites)
        self._ksites = self._nsites.bit_length()
        self._nload = len(self._load_sites)
        self._kload = self._nload.bit_length()
        self._nret = len(self._return_pcs)
        self._kret = self._nret.bit_length()
        # call and jump site pools share the same size
        self._ncall = len(self._call_sites)
        self._kcall = self._ncall.bit_length()
        # region walkers: fixed line/page pool geometry
        self._hot_lines = self._hot.lines
        self._khot = self._hot_lines.bit_length()
        self._warm_lines = self._warm.lines
        self._kwarm = self._warm_lines.bit_length()
        self._cold_pages = self._cold.pages
        self._kcold_pages = self._cold_pages.bit_length()
        self._cold_lines = self._cold.lines_per_page
        self._kcold_lines = self._cold_lines.bit_length()
        # the round-robin destination pick consumes no randomness:
        # collapse it into cursor -> (reg, next_cursor) tables
        regs = self._dst_regs
        n = len(regs)
        int_table, fp_table = [], []
        for start in range(n):
            for table, is_fp in ((int_table, False), (fp_table, True)):
                cursor, chosen = start, None
                for _ in range(n):
                    reg = regs[cursor]
                    cursor = cursor + 1 if cursor + 1 < n else 0
                    if (reg >= FIRST_FP_REG) if is_fp else (reg < FIRST_FP_REG):
                        chosen = reg
                        break
                table.append((regs[0] if chosen is None else chosen, cursor))
        self._dst_int = int_table
        self._dst_fp = fp_table

    # ------------------------------------------------------- inlined helpers

    def _fast_source(self, strand):
        """``_pick_source(allow_burst=False, strand=strand)``, flattened."""
        random = self._f_random
        roll = random()
        if roll < self._gf:
            grb = self._f_getrandbits
            n, k = self._ng, self._kg
            r = grb(k)
            while r >= n:
                r = grb(k)
            return self._globals[r]
        if roll < self._gcf:
            if strand is not None:
                last = self._strand_last[strand]
                if last is not None:
                    return last
            rd = self._recent_dsts
            if rd:
                return rd[-1]
        rd = self._recent_dsts
        if not rd:
            return ZERO_REG
        if random() < self._farf:
            grb = self._f_getrandbits
            n, k = self._far_span, self._far_k
            r = grb(k)
            while r >= n:
                r = grb(k)
            distance = self._far_lo + r
        else:
            distance = 1 + int(-_log(1.0 - random()) / self._lambd)
            if distance > 10_000:
                distance = 10_000
        n = len(rd)
        if distance >= n:
            distance = n
        return rd[-distance]

    def _fast_addr_base(self, strand):
        """``_pick_address_base(strand)``, flattened."""
        if self._f_random() < 0.6:
            grb = self._f_getrandbits
            n, k = self._ng, self._kg
            r = grb(k)
            while r >= n:
                r = grb(k)
            return self._globals[r]
        return self._fast_source(strand)

    def _fast_data_address(self):
        """``_next_data_address()``, flattened over all four walkers."""
        grb = self._f_getrandbits
        roll = self._f_random()
        if roll <= self._rc0:
            n, k = self._hot_lines, self._khot
            line = grb(k)
            while line >= n:
                line = grb(k)
            word = grb(4)
            while word >= 8:
                word = grb(4)
            return self._hot.base + 64 * line + 8 * word
        if roll <= self._rc1:
            n, k = self._warm_lines, self._kwarm
            line = grb(k)
            while line >= n:
                line = grb(k)
            word = grb(4)
            while word >= 8:
                word = grb(4)
            return self._warm.base + 64 * line + 8 * word
        if roll <= self._rc2:
            w = self._cold
            if w._remaining <= 0:
                n, k = self._cold_pages, self._kcold_pages
                r = grb(k)
                while r >= n:
                    r = grb(k)
                w._current_page = r
                w._remaining = w.dwell
            w._remaining -= 1
            n, k = self._cold_lines, self._kcold_lines
            line = grb(k)
            while line >= n:
                line = grb(k)
            word = grb(4)
            while word >= 8:
                word = grb(4)
            return w.base + w._current_page * w.page_bytes + 64 * line + 8 * word
        w = self._stream
        w.addr += w.stride
        return w.addr

    # --------------------------------------------------------------- next_op

    def next_op(self) -> MicroOp:
        emitted = self._emitted + 1
        self._emitted = emitted
        random = self._f_random
        grb = self._f_getrandbits
        if not emitted % 2000:
            n, k = self._ng, self._kg
            r = grb(k)
            while r >= n:
                r = grb(k)
            reg = self._globals[r]
            pc = self._next_pc
            npc = pc + 4
            self._next_pc = self._pc_base if npc >= self._code_limit else npc
            op = _new_op(MicroOp)
            _set_dict(op, "__dict__", {
                "pc": pc, "opclass": _INT_ALU, "srcs": (ZERO_REG,),
                "dst": reg, "address": None, "taken": False, "target": None,
            })
            return op
        x = random()
        opclass = self._mix_last
        for cum, cls in self._mix_pairs:
            if x <= cum:
                opclass = cls
                break

        if opclass is _BRANCH:
            if random() < self._indirect_frac:
                stack = self._call_stack
                if stack and (len(stack) >= 8 or random() < 0.5):
                    target = stack.pop()
                    n, k = self._nret, self._kret
                    r = grb(k)
                    while r >= n:
                        r = grb(k)
                    op = _new_op(MicroOp)
                    _set_dict(op, "__dict__", {
                        "pc": self._return_pcs[r], "opclass": _RETURN,
                        "srcs": (LINK_REG,), "dst": None, "address": None,
                        "taken": True, "target": target,
                    })
                    return op
                n, k = self._ncall, self._kcall
                if random() < 0.7:
                    r = grb(k)
                    while r >= n:
                        r = grb(k)
                    pc, target = self._call_sites[r]
                    stack.append(pc + 4)
                    op = _new_op(MicroOp)
                    _set_dict(op, "__dict__", {
                        "pc": pc, "opclass": _CALL, "srcs": (),
                        "dst": LINK_REG, "address": None,
                        "taken": True, "target": target,
                    })
                    return op
                r = grb(k)
                while r >= n:
                    r = grb(k)
                pc, target = self._jump_sites[r]
                op = _new_op(MicroOp)
                _set_dict(op, "__dict__", {
                    "pc": pc, "opclass": _JUMP, "srcs": (), "dst": None,
                    "address": None, "taken": True, "target": target,
                })
                return op
            n, k = self._nsites, self._ksites
            r = grb(k)
            while r >= n:
                r = grb(k)
            site = self._sites[r]
            if site.is_loop:
                count = site.count + 1
                if count > site.trip:
                    site.count = 0
                    taken = False
                else:
                    site.count = count
                    taken = True
            else:
                taken = random() < site.bias
            op = _new_op(MicroOp)
            _set_dict(op, "__dict__", {
                "pc": site.pc, "opclass": _BRANCH,
                "srcs": (self._fast_source(None),), "dst": None,
                "address": None, "taken": taken, "target": site.target,
            })
            return op

        if opclass is _LOAD:
            n, k = self._strands, self._strands_k
            strand = grb(k)
            while strand >= n:
                strand = grb(k)
            if random() < 0.5:
                dst, self._dst_cursor = self._dst_int[self._dst_cursor]
            else:
                dst, self._dst_cursor = self._dst_fp[self._dst_cursor]
            n, k = self._nload, self._kload
            r = grb(k)
            while r >= n:
                r = grb(k)
            pc, alias_prone = self._load_sites[r]
            rsa = self._recent_store_addrs
            if alias_prone and rsa and random() < 0.8:
                n = len(rsa)
                k = n.bit_length()
                r = grb(k)
                while r >= n:
                    r = grb(k)
                address = rsa[r]
            else:
                address = self._fast_data_address()
            srcs = (self._fast_addr_base(strand),)
            # _record_dst, inlined
            self._strand_last[strand] = dst
            rd = self._recent_dsts
            rd.append(dst)
            if len(rd) > 4096:
                del rd[:2048]
            if self._burst_left == 0 and random() < self._fanout_frac:
                self._burst_reg = dst
                self._burst_left = self._fanout_len
            op = _new_op(MicroOp)
            _set_dict(op, "__dict__", {
                "pc": pc, "opclass": _LOAD, "srcs": srcs, "dst": dst,
                "address": address, "taken": False, "target": None,
            })
            return op

        if opclass is _STORE:
            n, k = self._strands, self._strands_k
            strand = grb(k)
            while strand >= n:
                strand = grb(k)
            address = self._fast_data_address()
            rsa = self._recent_store_addrs
            rsa.append(address)
            if len(rsa) > 16:
                rsa.pop(0)
            src = self._fast_source(strand)
            base = self._fast_addr_base(strand)
            pc = self._next_pc
            npc = pc + 4
            self._next_pc = self._pc_base if npc >= self._code_limit else npc
            op = _new_op(MicroOp)
            _set_dict(op, "__dict__", {
                "pc": pc, "opclass": _STORE, "srcs": (src, base),
                "dst": None, "address": address, "taken": False, "target": None,
            })
            return op

        if opclass is _MEM_BARRIER or opclass is _NOP:
            pc = self._next_pc
            npc = pc + 4
            self._next_pc = self._pc_base if npc >= self._code_limit else npc
            op = _new_op(MicroOp)
            _set_dict(op, "__dict__", {
                "pc": pc, "opclass": opclass, "srcs": (), "dst": None,
                "address": None, "taken": False, "target": None,
            })
            return op

        # compute classes
        n, k = self._strands, self._strands_k
        strand = grb(k)
        while strand >= n:
            strand = grb(k)
        src = self._fast_source(strand)
        if random() < self._two_src:
            # second source: _pick_source(allow_burst=True), flattened
            if self._burst_left > 0 and self._burst_reg is not None:
                self._burst_left -= 1
                srcs = (src, self._burst_reg)
            else:
                srcs = (src, self._fast_source(None))
        else:
            srcs = (src,)
        if opclass in _FP_CLASSES:
            dst, self._dst_cursor = self._dst_fp[self._dst_cursor]
        else:
            dst, self._dst_cursor = self._dst_int[self._dst_cursor]
        pc = self._next_pc
        npc = pc + 4
        self._next_pc = self._pc_base if npc >= self._code_limit else npc
        # _record_dst, inlined
        self._strand_last[strand] = dst
        rd = self._recent_dsts
        rd.append(dst)
        if len(rd) > 4096:
            del rd[:2048]
        if self._burst_left == 0 and random() < self._fanout_frac:
            self._burst_reg = dst
            self._burst_left = self._fanout_len
        op = _new_op(MicroOp)
        _set_dict(op, "__dict__", {
            "pc": pc, "opclass": opclass, "srcs": srcs, "dst": dst,
            "address": None, "taken": False, "target": None,
        })
        return op

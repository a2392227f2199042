"""Tests for the SpmdReport profile renderer."""

from __future__ import annotations

import numpy as np

from repro import run_spmd

from ..conftest import pattern


class TestRenderProfile:
    def test_profile_lists_instrumented_ops(self):
        def main(pe):
            sym = yield from pe.malloc(8192)
            right = (pe.my_pe() + 1) % pe.num_pes()
            yield from pe.put(sym, pattern(8192), right)
            if pe.my_pe() == 0:
                yield from pe.get(sym, 1024, right)
            yield from pe.barrier_all()

        report = run_spmd(main, n_pes=3)
        profile = report.render_profile()
        lines = profile.splitlines()
        assert "op" in lines[0]
        put_lines = [l for l in lines if " put " in f" {l} "
                     or l.split()[1:2] == ["put"]]
        assert len(put_lines) == 3          # every PE put once
        get_lines = [l for l in lines if l.split()[1:2] == ["get"]]
        assert len(get_lines) == 1          # only PE 0
        assert any(l.split()[1:2] == ["barrier"] for l in lines)

    def test_profile_empty_when_nothing_ran(self):
        report = run_spmd(lambda pe: iter(()), n_pes=3)
        assert "no instrumented operations" in report.render_profile() or \
            "barrier" in report.render_profile()

    def test_byte_accounting_in_profile(self):
        def main(pe):
            sym = yield from pe.malloc(4096)
            if pe.my_pe() == 0:
                yield from pe.put(sym, pattern(4096), 1)
            yield from pe.barrier_all()

        report = run_spmd(main, n_pes=3)
        profile = report.render_profile()
        put_line = next(l for l in profile.splitlines()
                        if l.split()[1:2] == ["put"])
        assert put_line.split()[-1] == "4096"

    def test_profile_lists_amos(self):
        def main(pe):
            counter = yield from pe.malloc(8)
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                yield from pe.atomic_add(counter, 1, 1)
                yield from pe.atomic_fetch(counter, 2)
            yield from pe.barrier_all()

        report = run_spmd(main, n_pes=3)
        profile = report.render_profile()
        amo_lines = [l.split() for l in profile.splitlines()
                     if l.split()[1:2] == ["amo"]]
        assert sorted(l[2] for l in amo_lines) == ["ADD", "FETCH"]
        assert all(l[0] == "0" and l[3] == "1" for l in amo_lines)
        assert "amo_us.1hop" in profile

"""The benchmark's workloads: for each pass, the list of `hexaform`
commands to run and what each report must satisfy.

Pass k of a run gets its own walks, seeded from (workload, seed, k), so
no two operations of a run repeat an input.  Pass 0 reads the builtin
manifolds by name; later passes read them as files under a fresh random
vertex relabeling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from hexaform import triangulation as tri
from hexaform.manifolds import builtin_manifold

import walks


@dataclass(frozen=True)
class Op:
    label: str      # stable within a pass; expectations refer to base ops by it
    argv: tuple
    expect: dict    # see oracle.check_report


@dataclass
class Pass:
    ops: list
    inputs: dict    # input label -> walks.describe() of it


class _Inputs:
    """Writes a pass's triangulations to files and describes each once."""

    def __init__(self, workdir: Path, k: int, rng: random.Random):
        self.workdir, self.k, self.rng = workdir, k, rng
        self.described: dict = {}

    def base(self, name: str) -> tuple[tuple, dict]:
        if self.k == 0:
            return ("--manifold", name), self._describe(name, None)
        return self.save(name, walks.relabeled(name, self.rng))

    def save(self, label: str, t: tri.Triangulation) -> tuple[tuple, dict]:
        path = self.workdir / f"pass{self.k}-{label}.json"
        tri.save(t, str(path))
        return ("--file", str(path)), self._describe(label, t)

    def _describe(self, label: str, t: tri.Triangulation | None) -> dict:
        self.described[label] = walks.describe(t or builtin_manifold(label))
        return self.described[label]


def form_walk(k: int, rng: random.Random, workdir: Path) -> Pass:
    files = _Inputs(workdir, k, rng)
    sources = [("cp2", *files.base("cp2"))]
    for t in walks.walk("cp2", [(60, 14), (100, 21)], rng):
        label = f"cp2-P{len(t.pentachora)}"
        sources.append((label, *files.save(label, t)))
    ops = []
    for label, src, info in sources:
        ops.append(Op(f"form {label}", ("invariant", "--mode", "form") + src,
                      {"kind": "form", "z_dim": info["z_dim"]}))
        ops.append(Op(f"compare {label}", ("compare",) + src,
                      {"kind": "compare", "z_dim": info["z_dim"]}))
    # The verify op's cost swings by about 10% with the moves drawn, more
    # than a few passes average out, so its move seed is the pass index:
    # every run verifies the same move sequences, each pass a distinct one.
    ops.append(Op("verify cp2", ("verify", "--manifold", "cp2", "--random", "6", "--seed", str(k + 1)),
                  {"kind": "verify", "mode": "form", "steps": 6, "z_dim": sources[0][2]["z_dim"]}))
    return Pass(ops, files.described)


def _prob(label: str, src: tuple, info: dict, p: int, n: int, m: int,
          model: str = "field", same_as: str | None = None, zero: bool = False) -> Op:
    argv = ("invariant", "--mode", "prob") + src + ("--p", str(p), "--n", str(n), "--m", str(m))
    if model != "field":
        argv += ("--model", model)
    exp = {"kind": "prob", "p": p, "n": n, "model": model,
           "dim": info["gf_dim"][str(p)], "same_as": same_as, "zero": zero}
    return Op(f"prob GF({p}^{n}) m={m} {model} {label}", argv, exp)


def prob_walk(k: int, rng: random.Random, workdir: Path) -> Pass:
    files = _Inputs(workdir, k, rng)
    base_src, base_info = files.base("s4")
    s10, s18 = walks.walk("s4", [(10, 7), (18, 9)], rng)
    src10, info10 = files.save("s4-P10", s10)
    src18, info18 = files.save("s4-P18", s18)
    verify = Op("verify s4 prob",
                ("verify", "--mode", "prob") + base_src
                + ("--moves", "1-5,2-4,3-3", "--p", "2", "--m", "1"),
                {"kind": "verify", "mode": "prob", "steps": 3, "p": 2, "n": 1,
                 "model": "field", "dim": base_info["gf_dim"]["2"], "zero": True})
    ops = [
        _prob("s4-P18", src18, info18, 2, 1, 0, zero=True),
        _prob("s4-P18", src18, info18, 2, 1, 1, zero=True),
        _prob("s4-P10", src10, info10, 3, 1, 0, zero=True),
        _prob("s4", base_src, base_info, 2, 2, 1, zero=True),
        verify,
        Op("frobenius p=5 m=0", ("frobenius", "--p", "5", "--m", "0", "--check"),
           {"kind": "frobenius", "p": 5, "degree": 2}),
        Op("frobenius p=2 m1=1 m2=2", ("frobenius", "--p", "2", "--m1", "1", "--m2", "2", "--check"),
           {"kind": "frobenius", "p": 2, "degree": 6}),
        Op("frobenius reference cubic", ("frobenius", "--reference-cubic"),
           {"kind": "frobenius", "p": 2, "degree": 3}),
    ]
    return Pass(ops, files.described)


def prob_cp2(k: int, rng: random.Random, workdir: Path) -> Pass:
    files = _Inputs(workdir, k, rng)
    base_src, base_info = files.base("cp2")
    (c50,) = walks.walk("cp2", [(50, 12)], rng)
    src50, info50 = files.save("cp2-P50", c50)
    gf2 = _prob("cp2", base_src, base_info, 2, 1, 0)
    ops = [
        gf2,
        _prob("cp2", base_src, base_info, 2, 2, 1),
        _prob("cp2", base_src, base_info, 2, 2, 1, "tensor"),
        _prob("cp2-P50", src50, info50, 2, 1, 0, same_as=gf2.label),
    ]
    return Pass(ops, files.described)


WORKLOADS = {
    # integer side: Z kernel (Smith normal form), Gram, cup form, move search
    "form-walk": form_walk,
    # finite-field enumeration, GF tables and cocycle checks; never the Z kernel
    "prob-walk": prob_walk,
    # the cp2 value distribution: GF kernel at scale, refused past the cap today
    "prob-cp2": prob_cp2,
}

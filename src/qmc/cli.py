"""Command-line front end.

Every command emits a JSON report {inputs_echo, results, seed, version,
wall_time_ms}; tabular outputs (parameter listings, contraction traces) can
switch to CSV.  Exit codes: 0 success, 1 a verified claim failed, 2 bad
configuration.  Every command, each verification suite included, runs
serially; QMC_THREADS reaches none of them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .capacity import OptimizerBudget, coherent_information, coherent_information_purification, qcap_one_shot
from .channel import BeamSplitterChannel, convolve, convolve_complement, iterate_convolution
from .coding import (
    entanglement_fidelity,
    fidelity_ratio_bound_check,
    magic_code_construction,
    stabilizer_code_construction,
)
from .linalg import von_neumann_entropy
from .magic import MrmInfError, mrm, mrm_enumerated, mrm_inf_certificate, wigner_negativity
from .states import DensityMatrix, preset_state, read_state, state_to_payload
from .verify import SUITES, VerifyConfig, run_suite, suite_members
from .weyl import BSParams, QuditParams, valid_st_pairs, wigner_function

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    d: int
    n: int = 1
    s: int | None = None
    t: int | None = None
    seed: int | None = None
    out: str | None = None
    fmt: str = "json"

    def params(self) -> QuditParams:
        return QuditParams(self.d, self.n)

    def bsparams(self) -> BSParams:
        if self.s is None or self.t is None:
            raise ConfigError("this command needs --s and --t")
        return BSParams(self.params(), self.s, self.t)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("this command is stochastic; pass --seed")
        return self.seed


def _load_state(spec: str, params: QuditParams, bsparams: BSParams | None) -> DensityMatrix:
    if spec.startswith("preset:"):
        return preset_state(spec.split(":", 1)[1], params, bsparams)
    path = spec.split(":", 1)[1] if spec.startswith("file:") else spec
    try:
        state = read_state(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read state file {path!r}: {exc}") from exc
    if state.params != params:
        raise ConfigError(f"state file layout {state.params} does not match requested {params}")
    return state


def _emit(report: dict, cfg: RunConfig, rows: list[dict] | None = None) -> None:
    if cfg.fmt == "csv":
        if rows is None:
            raise ConfigError(f"command {cfg.command!r} has no tabular form; use --format json")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _wrap(cfg: RunConfig, echo: dict, results: dict, started: float) -> dict:
    return {
        "inputs_echo": {"command": cfg.command, **echo},
        "results": results,
        "seed": cfg.seed,
        "version": __version__,
        "wall_time_ms": (time.perf_counter() - started) * 1000.0,
    }


def _require_at_least(low: int, **flags: int) -> None:
    """Reject a count flag below ``low``, naming it as typed (``env_samples`` is ``--env-samples``)."""
    for name, value in flags.items():
        if value < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def cmd_params(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    pairs = valid_st_pairs(cfg.params())
    rows = [
        {
            "s": b.s,
            "t": b.t,
            "s2": (b.s**2) % cfg.d,
            "t2": (b.t**2) % cfg.d,
            "nontrivial": b.nontrivial,
        }
        for b in pairs
    ]
    report = _wrap(cfg, {"d": cfg.d}, {"pairs": rows, "nontrivial_count": sum(r["nontrivial"] for r in rows)}, started)
    _emit(report, cfg, rows=[{**r, "nontrivial": int(r["nontrivial"])} for r in rows])
    return EXIT_OK


def cmd_coherent(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    bs = cfg.bsparams()
    env = _load_state(args.env, cfg.params(), bs)
    rho = _load_state(args.input, cfg.params(), bs)
    chan = BeamSplitterChannel(bs, env)
    direct = coherent_information(chan, rho)
    via_purification = coherent_information_purification(chan, rho)
    results = {
        "coherent_information_bits": direct,
        "purification_route_bits": via_purification,
        "route_disagreement": abs(direct - via_purification),
    }
    _emit(_wrap(cfg, {"d": cfg.d, "n": cfg.n, "s": bs.s, "t": bs.t, "env": args.env, "input": args.input}, results, started), cfg)
    return EXIT_OK


def cmd_capacity(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    bs = cfg.bsparams()
    seed = cfg.require_seed()
    env = _load_state(args.env, cfg.params(), bs)
    budget = OptimizerBudget(restarts=args.restarts, iterations=args.iterations)
    report = qcap_one_shot(BeamSplitterChannel(bs, env), budget, seed=seed)
    results = report.to_dict()
    results["best_state"] = state_to_payload(report.best_state)
    _emit(_wrap(cfg, {"d": cfg.d, "n": cfg.n, "s": bs.s, "t": bs.t, "env": args.env,
                      "restarts": args.restarts, "iterations": args.iterations}, results, started), cfg)
    return EXIT_OK


def cmd_magic(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    params = cfg.params()
    env = _load_state(args.env, params, None)
    results = {
        "mrm_bits": mrm(env),
        "wigner_negativity": wigner_negativity(env),
    }
    if params.n == 1:
        results["mrm_enumerated_bits"] = mrm_enumerated(env)
        try:
            cone = mrm_inf_certificate(env)
            results["mrm_inf_bits"] = cone.value_bits
            results["mrm_inf_certified"] = cone.certified
        except MrmInfError as exc:
            results["mrm_inf_bits"] = exc.best_bound_bits
            results["mrm_inf_certified"] = False
            results["mrm_inf_note"] = str(exc)
    _emit(_wrap(cfg, {"d": cfg.d, "n": cfg.n, "env": args.env}, results, started), cfg)
    return EXIT_OK


def cmd_convolve(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    bs = cfg.bsparams()
    a = _load_state(args.a, cfg.params(), bs)
    b = _load_state(args.b, cfg.params(), bs)
    out = convolve_complement(bs, a, b) if args.complement else convolve(bs, a, b)
    results = {
        "entropy_bits": von_neumann_entropy(out.matrix),
        "state": state_to_payload(out),
    }
    _emit(_wrap(cfg, {"d": cfg.d, "n": cfg.n, "s": bs.s, "t": bs.t, "a": args.a, "b": args.b,
                      "complement": args.complement}, results, started), cfg)
    return EXIT_OK


def cmd_clt(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    bs = cfg.bsparams()
    rho = _load_state(args.input, cfg.params(), bs)
    trace = iterate_convolution(bs, rho, args.steps)
    rows = [{"step": step, "distance": dist} for step, dist in trace]
    _emit(_wrap(cfg, {"d": cfg.d, "n": cfg.n, "s": bs.s, "t": bs.t, "input": args.input,
                      "steps": args.steps}, {"trace": rows}, started), cfg, rows=rows)
    return EXIT_OK


def cmd_wigner(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    params = cfg.params()
    env = _load_state(args.env, params, None)
    table = wigner_function(env)
    results = {
        "raw_table": table.tolist(),
        "raw_min": float(table.min()),
        "negativity": wigner_negativity(env),
    }
    _emit(_wrap(cfg, {"d": cfg.d, "n": cfg.n, "env": args.env}, results, started), cfg)
    return EXIT_OK


def cmd_fidelity(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    _require_at_least(0, trials=args.trials)  # 0: no search
    _require_at_least(1, K=args.K)
    bs = cfg.bsparams()
    params = cfg.params()
    env = _load_state(args.env, params, bs)
    chan = BeamSplitterChannel(bs, env)
    code = stabilizer_code_construction(params, bs, args.K)
    results: dict = {
        "K": args.K,
        "computational_code_fidelity": entanglement_fidelity(code, chan),
    }
    if args.K == 2 and bs.nontrivial and (bs.s**2 - bs.t**2) % cfg.d != 0:
        _, magic_code = magic_code_construction(bs)
        results["magic_code_fidelity"] = entanglement_fidelity(magic_code, chan)
    passed = True
    if args.trials:
        search = fidelity_ratio_bound_check(env, bs, args.K, args.trials, cfg.require_seed())
        results["search"] = search.to_dict()
        passed = search.passed
    _emit(_wrap(cfg, {"d": cfg.d, "s": bs.s, "t": bs.t, "env": args.env, "K": args.K}, results, started), cfg)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_verify(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    members = suite_members(args.suite)
    _require_at_least(1, samples=args.samples, env_samples=args.env_samples, trials=args.trials, K=args.K)
    seed = cfg.require_seed()
    if any(SUITES[m].needs_weights for m in members):
        cfg.bsparams()  # validates (s, t) early
    weights = {name: value for name, value in (("s", cfg.s), ("t", cfg.t)) if value is not None}
    vcfg = VerifyConfig(d=cfg.d, n=cfg.n, seed=seed, samples=args.samples, env_samples=args.env_samples,
                        restarts=args.restarts, iterations=args.iterations, trials=args.trials,
                        logical_dim=args.K, **weights)
    reports = run_suite(args.suite, vcfg)
    for rep in reports:
        for line in rep.lines():
            print(line, file=sys.stderr)
    results = {"suites": [r.to_dict() for r in reports], "pass": all(r.passed for r in reports)}
    _emit(_wrap(cfg, {"suite": args.suite, **vcfg.to_dict()}, results, started), cfg)
    return EXIT_OK if results["pass"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, st=False):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        if st:
            p.add_argument("--s", type=int, default=None)
            p.add_argument("--t", type=int, default=None)

    p = sub.add_parser("params", help="list beam-splitter weight pairs")
    common(p)

    p = sub.add_parser("coherent", help="coherent information of one input")
    common(p, st=True)
    p.add_argument("--env", required=True)
    p.add_argument("--input", required=True)

    p = sub.add_parser("capacity", help="one-shot capacity lower bound")
    common(p, st=True)
    p.add_argument("--env", required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iterations", type=int, default=2000)

    p = sub.add_parser("magic", help="magic monotones of a state")
    common(p)
    p.add_argument("--env", required=True)

    p = sub.add_parser("convolve", help="binary convolution of two states")
    common(p, st=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--complement", action="store_true")

    p = sub.add_parser("clt", help="repeated self-convolution contraction trace")
    common(p, st=True)
    p.add_argument("--input", required=True)
    p.add_argument("--steps", type=int, default=40)

    p = sub.add_parser("wigner", help="discrete Wigner table and negativity")
    common(p)
    p.add_argument("--env", required=True)

    p = sub.add_parser("fidelity", help="entanglement fidelity of the named codes")
    common(p, st=True)
    p.add_argument("--env", required=True)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--trials", type=int, default=0)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, st=True)
    p.add_argument("--suite", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--env-samples", dest="env_samples", type=int, default=5)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--K", type=int, default=2)
    return parser


COMMANDS = {
    "params": cmd_params,
    "coherent": cmd_coherent,
    "capacity": cmd_capacity,
    "magic": cmd_magic,
    "convolve": cmd_convolve,
    "clt": cmd_clt,
    "wigner": cmd_wigner,
    "fidelity": cmd_fidelity,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        d=args.d,
        n=getattr(args, "n", 1),
        s=getattr(args, "s", None),
        t=getattr(args, "t", None),
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
    )
    try:
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

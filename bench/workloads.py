"""The four workloads: inputs, one operation, and its output checks.

A workload is prepared in three steps.  ``prepare`` makes the
benchmark's own inputs (configs, simulated records) and is not timed as
set-up; ``build`` makes the inputs with the program's own calls and is
part of set-up; ``op`` is the unit a user waits for, and ``check``
returns the messages of every failed output check of one operation.
The operations call overlapcert through its modules at call time, so the
traced run sees them.
"""

from __future__ import annotations

import json
import os

import numpy as np
from overlapcert import cli, randomized, states, variational

import checks
import sim


def derived_seed(seed: int, i: int) -> int:
    """Seed of operation i, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class RmPipeline:
    """`overlapcert rm-experiment`: isotropic(8, 0.9) vs isotropic(8, 1.0), 3+3 qubits."""

    name = "rm-pipeline"
    d, x, y = 8, 0.9, 1.0
    m, n = 3, 3
    settings, shots = 300, 1000

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.config = {
            "rho": {"family": "isotropic", "params": {"d": self.d, "x": self.x}},
            "sigma": {"family": "isotropic", "params": {"d": self.d, "x": self.y}},
            "protocol": {"local_dim": 2, "m": self.m, "n": self.n,
                         "n_unitaries": self.settings,
                         "shots_per_setting": self.shots, "seed": seed,
                         "design": "haar"},
        }
        self.config_path = os.path.join(workdir, "rm.json")
        self.out = os.path.join(workdir, "rm-report.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def build(self) -> None:
        for side in ("rho", "sigma"):
            states.build_density(states.StateSpec.from_json(self.config[side]))
        randomized.ProtocolConfig.from_json(self.config["protocol"])

    def op(self, i: int):
        seed = derived_seed(self.seed, i)
        code = cli.main(["rm-experiment", "--config", self.config_path,
                         "--out", self.out, "--seed", str(seed)])
        return code, seed

    def check(self, out) -> list[str]:
        code, seed = out
        if code != 0:
            return [f"rm-experiment exit {code}"]
        with open(self.out) as fh:
            report = json.load(fh)
        with open(report["records_path"]) as fh:
            lines = fh.read().splitlines()
        errs = checks.check_rm_report(report, lines, self.d, self.x, self.y,
                                      self.m, self.n, self.settings, self.shots)
        if report["protocol"]["seed"] != seed:
            errs.append(f"report seed {report['protocol']['seed']} != {seed}")
        return errs


class Reestimate:
    """Offline re-estimation of a 5+5-qubit records file (noisy vs pure GHZ)."""

    name = "reestimate-10q"
    n_qubits, m = 10, 5
    settings, shots, p = 300, 1000, 0.8

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        ghz = np.zeros(2**self.n_qubits)
        ghz[[0, -1]] = 1.0 / np.sqrt(2.0)
        self.simulated = sim.simulate_ghz_counts(
            ghz, self.n_qubits, self.settings, self.shots, self.p, seed)
        self.path = os.path.join(workdir, "ghz10.records.jsonl")

    def build(self) -> None:
        cfg = randomized.ProtocolConfig(
            local_dim=2, m=self.m, n=self.n_qubits - self.m,
            n_unitaries=self.settings, shots_per_setting=self.shots, seed=self.seed)
        records = [
            randomized.MeasurementRecord(
                setting=k, unitaries_a=tuple(us[: self.m]),
                unitaries_b=tuple(us[self.m :]), rho_counts=c_rho,
                sigma_counts=c_sigma)
            for k, (us, c_rho, c_sigma) in enumerate(self.simulated)
        ]
        randomized.write_records(self.path, cfg, records)

    def op(self, i: int):
        cfg, records = randomized.read_records(self.path)
        return (records,
                randomized.estimate_overlaps(records, cfg),
                randomized.estimate_self_overlaps(records, cfg, "rho"),
                randomized.estimate_self_overlaps(records, cfg, "sigma"))

    def check(self, out) -> list[str]:
        return checks.check_reestimate(*out, self.simulated, self.m,
                                       self.n_qubits - self.m)


class Scans:
    """The four analytic commands with the README's flags."""

    name = "scans"

    def prepare(self, seed: int, workdir: str) -> None:
        self.paths = {k: os.path.join(workdir, k)
                      for k in ("fig1.csv", "fig3", "rfbc.csv", "examples.json")}

    def build(self) -> None:
        pass  # the commands take flags only

    def op(self, i: int):
        p = self.paths
        return [
            cli.main(["fig1", "--d", "10", "--grid", "40", "--out", p["fig1.csv"]]),
            cli.main(["fig3", "--d-min", "3", "--d-max", "10", "--r-max", "5",
                      "--out", p["fig3"]]),
            cli.main(["rfbc-tightness", "--d-min", "3", "--d-max", "10",
                      "--r-max", "4", "--out", p["rfbc.csv"]]),
            cli.main(["examples", "--out", p["examples.json"]]),
        ]

    def check(self, out) -> list[str]:
        p = self.paths
        errs = [f"{cmd} exit {code}" for cmd, code
                in zip(("fig1", "fig3", "rfbc-tightness"), out[:3]) if code != 0]
        errs += checks.check_fig1(checks.read_csv(p["fig1.csv"]), d=10, grid=40)
        errs += checks.check_fig3(checks.read_csv(p["fig3"] + ".a.csv"),
                                  checks.read_csv(p["fig3"] + ".b.csv"))
        errs += checks.check_rfbc(checks.read_csv(p["rfbc.csv"]))
        with open(p["examples.json"]) as fh:
            errs += checks.check_examples(json.load(fh), out[3])
        return errs


class Variational:
    """`s_hat` on a 4x4 pair, then the s_hat = d * FEF identity at d = 3."""

    name = "variational"

    def prepare(self, seed: int, workdir: str) -> None:
        pass  # fixed inputs

    def build(self) -> None:
        self.rho = states.isotropic(4, 0.6)
        self.sigma = states.random_mixed((4, 4), rank=2, seed=3)
        self.iso3 = states.isotropic(3, 0.7)
        self.cfg = variational.OptConfig(restarts=2)

    def op(self, i: int):
        result = variational.s_hat(self.rho, self.sigma, self.cfg, sides="both")
        identity = variational.verify_shat_fef_identity(self.iso3, self.cfg)
        return result.value, identity

    def check(self, out) -> list[str]:
        value, identity = out
        unrotated = checks.plain_ratio(self.rho.matrix, self.sigma.matrix, 4, 4)
        # Schmidt number of isotropic(d, x) is ceil(d x); s_hat = d x at d = 3
        return checks.check_variational(value, unrotated, 3, identity, 3 * 0.7)


WORKLOADS = {w.name: w for w in (RmPipeline, Reestimate, Scans, Variational)}

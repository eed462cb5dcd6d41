"""The data owner's set-up: key generation, ADS build and publish.

``query`` and ``serve`` run it in a child process (``python3 -m
perfbench.owner_setup``), so the measuring process holds only the party it
measures; ``update`` calls :func:`build_and_publish` in process, because
there the owner is the measured party.

The RSA key is drawn from a fixed seed.  How long an RSA key generation
takes depends on how far its prime search runs, which depends on the seed;
a fixed key keeps that luck out of ``setup_s`` while still timing the code.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

import repro.crypto.signer as signer_module
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner

from perfbench.common import CHECKOUT, peak_rss_mb
from perfbench.inputs import make_inputs
from perfbench.tracing import Tracer, layer_hooks

KEY_SEED = 20_230_415
SCHEME = "one-signature"
SIGNATURE = "rsa"


def config(key_bits: int) -> SystemConfig:
    return SystemConfig(scheme=SCHEME, signature_algorithm=SIGNATURE, key_bits=key_bits)


def build_and_publish(dataset, template, key_bits: int, path: Path):
    """One owner set-up; returns the owner, its key pair and stage seconds."""
    started = time.perf_counter()
    keypair = signer_module.make_signer(SIGNATURE, rng=random.Random(KEY_SEED), key_bits=key_bits)
    keyed = time.perf_counter()
    owner = DataOwner(dataset, template, config=config(key_bits), keypair=keypair)
    built = time.perf_counter()
    owner.publish(path)
    published = time.perf_counter()
    stages = {
        "keygen_s": keyed - started,
        "build_s": built - keyed,
        "publish_s": published - built,
    }
    return owner, keypair, stages


def run(n_records: int, seed: int, key_bits: int, reps: int, path: Path, trace: bool) -> Dict:
    """``reps`` owner set-ups in a row; every one publishes to ``path``."""
    dataset, template = make_inputs(n_records, seed)
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        tracer.install(layer_hooks())
    stages = []
    owner = None
    try:
        for _ in range(reps):
            owner, _, rep = build_and_publish(dataset, template, key_bits, path)
            stages.append(rep)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "stages": stages,
        "counters": owner.counters.snapshot(),
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracer.summary() if tracer is not None else {},
    }


def in_child(
    n_records: int, seed: int, key_bits: int, reps: int, path: Path, trace: bool
) -> Dict:
    """:func:`run` in a fresh interpreter; returns its outcome."""
    request = {
        "n_records": n_records,
        "seed": seed,
        "key_bits": key_bits,
        "reps": reps,
        "path": str(path),
        "trace": trace,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CHECKOUT / "src"), str(CHECKOUT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-m", "perfbench.owner_setup", json.dumps(request)],
        cwd=CHECKOUT,
        env=env,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if child.returncode != 0:
        raise RuntimeError(f"owner set-up child failed:\n{child.stderr[-4000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    request = json.loads(argv[1])
    outcome = run(
        request["n_records"],
        request["seed"],
        request["key_bits"],
        request["reps"],
        Path(request["path"]),
        request["trace"],
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Regenerate reference.json: the sha256 of every serial certificate.

    python3 perfbench/make_reference.py

Runs each serial instance any seed of any workload can produce once, as
a CLI subprocess, and refuses to record a certificate that fails the
oracle.  Run it only at a commit whose certificate bytes are meant to be
the reference; the file records that commit.
"""

from __future__ import annotations

import hashlib
import json
import sys

import oracle
import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    env = run.cli_env()
    run.check_backend(env)
    certificates = {}
    bad = 0
    instances = workloads.all_instances()
    for k, job in enumerate(instances, 1):
        run.write_inputs([job])
        inv = run.spawn(job.argv, env)
        problems = oracle.check(job, inv["rc"], inv["text"])
        if problems:
            bad += 1
            print(f"oracle rejects {job.key}: {'; '.join(problems)}", file=sys.stderr)
            continue
        certificates[job.key] = hashlib.sha256(inv["text"].encode()).hexdigest()
        print(f"[{k}/{len(instances)}] {inv['wall']:.2f} s {job.key}", flush=True)
    if bad:
        return 1
    doc = {"commit": run.git_sha(), "backend": run.BACKEND,
           "certificates": dict(sorted(certificates.items()))}
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

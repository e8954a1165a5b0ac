"""Record the digest of every job output the benchmark can run.

usage: python3 perfbench/record_reference.py

Runs every job of every workload, over the whole jacobian pool, checks
each identity, and writes reference.json.  Program outputs must not
change, so rerun this only to cover a new job, never to absorb a changed
output.
"""

import json
import shutil
import sys

import workloads

if __name__ == "__main__":
    workdir = workloads.HERE / ".work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    pool = [(s, i) for s in (1, 2) for i in range(workloads.POOL_SIZE)]
    jobs = workloads.expand_jobs() + workloads.jacobian_jobs(pool, pool) + workloads.qzero_jobs()
    jobs += workloads.cli_jobs(workdir, [(2, i) for i in range(workloads.POOL_SIZE)]).jobs
    reference, bad = {}, 0
    try:
        for job in jobs:
            out = job.call()
            why = job.identity(out)
            if why:
                print(f"{job.id}: {why}", file=sys.stderr)
                bad += 1
            reference[job.id] = workloads.digest(job.canonical(out))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        sys.exit(f"{bad} identity checks failed; reference.json left unchanged")
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} digests in {workloads.REFERENCE.name}")

#!/usr/bin/env python3
"""End-to-end smoke of the dlouvaind clustering service (the service_smoke
ctest; see docs/SERVICE.md).

Starts the daemon on a Unix socket, then drives the full job lifecycle from
real client processes:

  * three CONCURRENT --submit clients, two of them identical jobs: every
    client must get back a run manifest that passes the one schema check
    (tools/manifest_schema.py) and carries a "service" section, exactly one
    of the three must be a cache hit, and the identical pair's manifests
    must be byte-identical once each response's own "service" section is
    stripped (the de-dup serves the leader's bytes);
  * a SIGTERM mid-life: the daemon must drain gracefully -- exit 0, no
    dropped replies -- and leave a final "dlouvain-service-manifest/1"
    document (stdout and --final-manifest) recording drain "clean" and the
    exact job accounting (3 served, 1 hit, 2 misses, 0 rejected).

Exit code 0 = all contracts hold, 1 = validation failure, 2 = the daemon or
a client itself failed.

Usage:
  service_smoke.py --daemon build/tools/dlouvaind [--timeout 60]
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import manifest_schema


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_job_manifest(name, text):
    """One client reply: a run manifest with a well-formed service section."""
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as err:
        fail(f"{name}: reply is not JSON ({err}): {text[:200]}")
    for problem in manifest_schema.problems(manifest):
        fail(f"{name}: {problem}")
    if "service" not in manifest:
        fail(f"{name}: manifest carries no service section")
    if manifest.get("modularity", 0.0) <= 0.0:
        fail(f"{name}: clustering produced no modularity")
    return manifest


def strip_service(text):
    """The response bytes minus this response's own service section: all
    replies built from one cached result share this prefix byte-for-byte."""
    cut = text.find(',"service":')
    if cut < 0:
        fail(f"reply carries no spliced service section: {text[:200]}")
    return text[:cut]


def wait_for(path, deadline, what):
    while time.time() < deadline:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            return
        time.sleep(0.05)
    fail(f"timed out waiting for {what} ({path})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--daemon", required=True, help="dlouvaind binary")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="overall deadline in seconds")
    args = parser.parse_args()
    deadline = time.time() + args.timeout

    with tempfile.TemporaryDirectory(prefix="dlouvaind_") as tmp:
        sock = os.path.join(tmp, "svc.sock")
        ready = os.path.join(tmp, "ready")
        drain = os.path.join(tmp, "drain.json")
        daemon = subprocess.Popen(
            [args.daemon, "--serve", "--socket", sock, "--workers", "2",
             "--ready-file", ready, "--final-manifest", drain],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            wait_for(ready, deadline, "daemon ready-file")

            # Three concurrent clients; A and B are the identical pair (same
            # graph, same config -> same cache key), C differs by seed.
            base = [args.daemon, "--submit", "--socket", sock,
                    "--gen", "karate", "--ranks", "2"]
            specs = {"job_a": base, "job_b": base,
                     "job_c": base + ["--seed", "1234"]}
            clients = {name: subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) for name, cmd in specs.items()}
            replies = {}
            for name, proc in clients.items():
                out, err = proc.communicate(timeout=args.timeout)
                if proc.returncode != 0:
                    print(f"FAIL: client {name} exited "
                          f"{proc.returncode}: {err.strip()}")
                    return 2
                replies[name] = out.strip()

            manifests = {name: check_job_manifest(name, text)
                         for name, text in replies.items()}
            hits = [name for name, m in manifests.items()
                    if m["service"]["cache_hit"]]
            if len(hits) != 1 or hits[0] == "job_c":
                fail(f"expected exactly one cache hit within the identical "
                     f"pair, got hits={hits}")
            if strip_service(replies["job_a"]) != strip_service(replies["job_b"]):
                fail("identical jobs returned different manifests "
                     "(modulo the per-response service section)")
            if strip_service(replies["job_a"]) == strip_service(replies["job_c"]):
                fail("distinct jobs returned the same manifest")
            job_ids = {m["service"]["job_id"] for m in manifests.values()}
            if len(job_ids) != 3:
                fail(f"job ids not unique across clients: {sorted(job_ids)}")
            print(f"jobs ok: 3 served, cache hit on {hits[0]}, "
                  f"identical pair byte-identical")

            # Graceful drain: SIGTERM, clean exit, final service manifest.
            daemon.send_signal(signal.SIGTERM)
            out, err = daemon.communicate(timeout=args.timeout)
            if daemon.returncode != 0:
                print(f"FAIL: daemon exited {daemon.returncode}: {err.strip()}")
                return 2
            final = json.loads(open(drain, encoding="utf-8").read())
            if json.loads(out.strip()) != final:
                fail("stdout and --final-manifest drain documents differ")
            if final.get("schema") != "dlouvain-service-manifest/1":
                fail(f"final manifest schema '{final.get('schema')}' wrong")
            service = final.get("service", {})
            expectations = {"drain": "clean", "jobs_served": 3,
                            "cache_hits": 1, "cache_misses": 2,
                            "rejected": 0, "queue_depth": 0,
                            "sessions_open": 0}
            for key, want in expectations.items():
                if service.get(key) != want:
                    fail(f"final manifest service.{key} = "
                         f"{service.get(key)!r}, expected {want!r}")
            print(f"drain ok: clean, {service['jobs_served']} jobs served, "
                  f"{service['cache_hits']} hit / "
                  f"{service['cache_misses']} misses")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

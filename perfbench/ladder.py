#!/usr/bin/env python3
"""One-time par/seq size ladder through the odrc CLI (reference figures).

    python3 perfbench/ladder.py [jpeg:0.5,1,2 ethmac:1.5 ...]

Builds like run.py, then for every design and scale runs `odrc generate`
(five injected sites of each kind) and `odrc check --mode=seq|par
--report=...` with the pinned thread settings, and prints the wall time of
each check. `odrc check` exits 1 when it found violations, which these
layouts always have, so 0 and 1 both count as success.
"""
import os
import subprocess
import sys
import time

import run

DEFAULT = ["jpeg:0.5,0.7,1,2", "ethmac:1.5,3", "aes:1"]


def main():
    cores, pinned = run.thread_settings()
    env = dict(os.environ, **pinned)
    run.build()
    odrc = run.binary("odrc")
    os.makedirs(run.WORK, exist_ok=True)
    print("design   scale  mode  check_s  (ODRC_WORKERS=%s ODRC_DEVICE_SMS=%s, nproc %d)"
          % (pinned["ODRC_WORKERS"], pinned["ODRC_DEVICE_SMS"], cores))
    for spec in sys.argv[1:] or DEFAULT:
        design, _, scales = spec.partition(":")
        for scale in scales.split(","):
            gds = os.path.join(run.WORK, "ladder_%s_%s.gds" % (design, scale))
            subprocess.run([odrc, "generate", design, gds, "--scale=" + scale, "--inject=5"],
                           check=True, stdout=subprocess.DEVNULL, env=env)
            for mode in ("seq", "par"):
                t0 = time.monotonic()
                rc = subprocess.run([odrc, "check", gds, os.path.join(run.ROOT, run.DECK),
                                     "--mode=" + mode,
                                     "--report=" + os.path.join(run.WORK, "ladder_report.txt")],
                                    stdout=subprocess.DEVNULL, env=env).returncode
                wall = time.monotonic() - t0
                if rc not in (0, 1):
                    sys.exit("odrc check failed with status %d on %s" % (rc, gds))
                print("%-8s %-6s %-5s %.3f" % (design, scale, mode, wall), flush=True)


if __name__ == "__main__":
    main()

"""One repeat of a workload, in a fresh single-threaded process.

Started by ``run.py``; not meant to be run by hand. Set-up (interpreter
start, ``import leoisl``, writing and validating the seeded inputs) is timed
from the parent's spawn time to the first call into ``leoisl.cli.main``.
The commands then run back to back; their outputs are checked only after
the timed region. The report goes to a JSON file named by the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    src = Path(args.root) / "src"
    if not (src / "leoisl" / "__init__.py").is_file():
        print(f"worker: no leoisl sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import leoisl.cli

    if Path(leoisl.__file__).resolve().parent != (src / "leoisl").resolve():
        print(f"worker: imported leoisl from {leoisl.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    recorder = None
    if args.traced:
        recorder = tracer.Recorder(args.run_id)
        recorder.install()
    workdir = Path(args.workdir)
    commands = workloads.prepare(args.workload, args.seed, workdir, quick=args.quick)
    for command in commands:  # never check an earlier repeat's output
        command.output.unlink(missing_ok=True)
    setup_s = time.perf_counter() - args.spawn_time

    results = []
    start = time.perf_counter()
    for command in commands:
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = leoisl.cli.main(list(command.argv))
        except Exception:  # a raise is a failed op, not a harness failure
            traceback.print_exc()
            rc = None
        results.append((command, rc, time.perf_counter() - t0, stdout.getvalue()))
    cmd_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        recorder.uninstall()
        recorder.write(workdir / f"spans-{args.run_id}.json")

    report_commands = []
    for command, rc, seconds, stdout_text in results:
        if command.stdout:
            command.output.write_text(stdout_text, encoding="utf-8")
        text = command.output.read_text(encoding="utf-8") if command.output.is_file() else ""
        violations = command.check(text) if rc == 0 else command.items
        report_commands.append(
            {
                "label": command.label,
                "argv": list(command.argv),
                "items": command.items,
                "rc": rc,
                "seconds": seconds,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "failed": min(command.items, violations),
            }
        )
    report = {
        "run_id": args.run_id,
        "traced": args.traced,
        "setup_s": setup_s,
        "cmd_s": cmd_s,
        "rss_mb": rss_mb,
        "commands": report_commands,
    }
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

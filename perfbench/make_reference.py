"""Regenerate ``reference.json``: the outputs every benchmark item must produce.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Each suite program is compiled without optimisation or inlining and run
once on every small- and full-scale input; each default-seed
``inline-fuzz`` program is compiled the same way and run on empty
stdin. The digest of each run's exit code, stdout and written files is
stored, keyed by a hash of the input (or of the fuzz program's source),
together with the run's dynamic IL count for suite inputs. Takes about
a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler import compile_program  # noqa: E402
from repro.profiler.profile import RunSpec, run_once  # noqa: E402
from repro.workloads.suite import benchmark_suite  # noqa: E402

from reference import REFERENCE_PATH, input_key, output_digest, source_key  # noqa: E402
from workloads import FUZZ_DEFAULT_SEED, fuzz_programs  # noqa: E402


def main() -> int:
    suite: dict[str, dict] = {}
    for benchmark in benchmark_suite():
        module = benchmark.compile()
        entries = suite.setdefault(benchmark.name, {})
        for scale in ("small", "full"):
            for spec in benchmark.make_runs(scale):
                result = run_once(module, spec)
                entries[input_key(spec)] = {
                    "digest": output_digest(result),
                    "il": result.counters.il,
                }
        print(f"{benchmark.name}: {len(entries)} inputs", file=sys.stderr)
    fuzz = {}
    for _, source in fuzz_programs(FUZZ_DEFAULT_SEED):
        result = run_once(compile_program(source), RunSpec())
        fuzz[source_key(source)] = output_digest(result)
    print(f"inline-fuzz: {len(fuzz)} programs", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"suite": suite, "fuzz": fuzz}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

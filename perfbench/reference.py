"""Reference outputs: digests of what each benchmark input must produce.

A program's observable behaviour on one input is its exit code, its
stdout and the files it wrote. :func:`output_digest` folds the three
into one short hash. ``reference.json`` (written by
``make_reference.py``) holds that digest for every small- and
full-scale suite input and every default-seed ``inline-fuzz`` program,
taken from the un-optimised, un-inlined build. The file also records
each suite input's dynamic IL count on that build, which the
``suite-long`` draw uses to give every seed the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.profiler.profile import RunSpec, run_once

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _hash(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()[:20]


def input_key(spec: RunSpec) -> str:
    """Content hash of one input: stdin, argv and the file system."""
    chunks = [spec.stdin, "\0".join(spec.argv).encode()]
    for path in sorted(spec.files):
        chunks += [path.encode(), spec.files[path]]
    return _hash(*chunks)


def source_key(source: str) -> str:
    """Content hash of one program's source text."""
    return _hash(source.encode())


def output_digest(result) -> str:
    """Digest of a run's exit code, stdout and written files."""
    chunks = [str(result.exit_code).encode(), bytes(result.os.stdout)]
    for path in sorted(result.os.written_files):
        chunks += [path.encode(), result.os.written_files[path]]
    return _hash(*chunks)


def run_digest(module, spec: RunSpec) -> str:
    """Run ``module`` once on ``spec`` and digest what it produced."""
    return output_digest(run_once(module, spec))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)

"""How stages run: inliner phases, the session cache, parallelism.

- :mod:`repro.pipeline.passes` — :class:`ModulePass` and
  :class:`PassContext`, the unit and shared state of the six §3
  inliner phases (the phase order itself lives in
  :data:`repro.inliner.manager.PHASES`; the optimizer's fixed five-pass
  loop in :mod:`repro.opt.pipeline`);
- :mod:`repro.pipeline.session` — the :class:`CompilationSession`
  content-addressed artifact cache (compiled modules, profiles) with an
  optional on-disk store;
- :mod:`repro.pipeline.parallel` — deterministic process-pool fan-out
  with per-worker observability merging.
"""

from repro.pipeline.parallel import parallel_map
from repro.pipeline.passes import ModulePass, PassContext
from repro.pipeline.session import (
    CompilationSession,
    module_cache_key,
    module_content_key,
    profile_cache_key,
)

__all__ = [
    "CompilationSession",
    "ModulePass",
    "PassContext",
    "module_cache_key",
    "module_content_key",
    "parallel_map",
    "profile_cache_key",
]

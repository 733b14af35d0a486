"""ulsan — repo-specific static analysis for the ulsocks codebase.

A token-level multi-rule lint framework guarding the properties this
repository's correctness argument rests on: determinism (byte-identical
digests across runs and shard counts), shard affinity (single-threaded
pools and engines), coroutine lifetime, the inter-library include DAG, and
wire format hygiene.

Run ``python3 -m ulsan src`` from the repository root, or see
``python3 -m ulsan --help``.  DESIGN.md §12 documents the rule catalogue
and the suppression policy.
"""

__version__ = "1.0"

from .framework import Finding, Rule, RunResult, all_rules, run  # noqa: F401

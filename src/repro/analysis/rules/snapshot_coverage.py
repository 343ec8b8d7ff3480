"""RPR011: every runtime-mutated attribute round-trips through snapshots.

The checkpoint/restore discipline (PR 6) and the content-hashed cache
(PR 1) both assume the state protocol is *complete*: a class whose
``snapshot_state``/``to_dict`` omits a field that mutates mid-run
produces checkpoints that restore into a silently different simulator —
the state-drift bug class that checkpoint fuzzing only catches
probabilistically, because the dropped field must both diverge before
the barrier and matter after it.

Statically the invariant is checkable: any ``self.X`` assignment outside
construction/restore marks ``X`` as runtime state, and the effective
key set of the class (its own literal snapshot/serialization keys plus
every resolvable base's, unioned along the inheritance chain by the
project model) must contain it.  Classes whose state methods are built
dynamically (helper calls, computed keys) are out of static reach and
skipped, exactly like RPR010's literal-body restriction.

Attributes that are deliberately rebuilt rather than captured (derived
tables, wiring references re-established by the owner) are declared at
their first mutation site with ``# repro: noqa[RPR011] <why>`` — the
not-captured contract stays visible in the diff that creates it.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.config import module_in
from repro.analysis.engine import Finding, ProjectContext, ProjectRule
from repro.analysis.registry import register


@register
class SnapshotCoverageRule(ProjectRule):
    code = "RPR011"
    name = "snapshot-coverage"
    description = (
        "attributes assigned outside __init__/restore in snapshottable "
        "simulator classes must appear in the snapshot/serialization key "
        "set (state drift otherwise)"
    )

    def check_project(self, pctx: ProjectContext) -> Iterator[Finding]:
        model, config = pctx.model, pctx.config
        exempt_methods = set(config.snapshot_exempt_methods)
        for key in sorted(model.classes):
            module, cls = model.classes[key]
            if not module_in(module, config.pure_packages):
                continue
            keys, analyzable = model.effective_state_keys(module, cls)
            if not analyzable or keys is None:
                continue
            path = model.path_of[module]
            for attr in sorted(cls.attr_sites):
                if attr in keys:
                    continue
                sites = [
                    (method, line)
                    for method, line in cls.attr_sites[attr]
                    if method not in exempt_methods
                ]
                if not sites:
                    continue
                method, line = min(sites, key=lambda site: (site[1], site[0]))
                yield self.finding_at(
                    path,
                    line,
                    1,
                    f"attribute '{attr}' of {key} is assigned in "
                    f"{method}() but missing from its snapshot/serialization "
                    "key set; a checkpoint taken after this line restores "
                    "into a diverged simulator (state drift) — capture it in "
                    "snapshot_state, or mark this site "
                    "'# repro: noqa[RPR011] <why rebuilt>' if it is derived "
                    "state the restore path reconstructs",
                )

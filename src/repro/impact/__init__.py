"""Injection impact analysis: what can an in-app-browser injection *do*?

The paper classifies injection *intent* (Table 8); this subsystem
measures injection *capability*. The taint layer in
:mod:`repro.web.jsengine` observes flows from secret sources (bridge
returns, ``document.cookie``, DOM text, Web API reads) into sinks
(bridge method arguments, network-visible URLs); the attacker models in
:mod:`repro.impact.attacker` replay probes through the real
:class:`~repro.dynamic.webview_runtime.JsBridge` objects for two
adversaries — the injected-SDK script itself and a network MITM who can
rewrite any cleartext-HTTP visit; and :mod:`repro.impact.census` grades
every (app, SDK, bridge) on the none < leak < invoke < exfiltrate
severity scale across the top-1K IAB corpus, sharded over the exec
layer with byte-identical results at any worker count, backend, and
streaming setting.
"""

from repro.impact.attacker import (
    ATTACKER_MITM,
    ATTACKER_SDK,
    AppImpact,
    BridgeFinding,
    cleartext_urls,
    probe_app,
)
from repro.impact.census import (
    ImpactCensus,
    ImpactResult,
    ImpactShard,
    ImpactStreamPlan,
)
from repro.impact.severity import (
    SEVERITY_EXFILTRATE,
    SEVERITY_INVOKE,
    SEVERITY_LEAK,
    SEVERITY_NONE,
    SEVERITY_ORDER,
    grade_severity,
    severity_rank,
)

__all__ = [
    "ATTACKER_MITM",
    "ATTACKER_SDK",
    "AppImpact",
    "BridgeFinding",
    "ImpactCensus",
    "ImpactResult",
    "ImpactShard",
    "ImpactStreamPlan",
    "SEVERITY_EXFILTRATE",
    "SEVERITY_INVOKE",
    "SEVERITY_LEAK",
    "SEVERITY_NONE",
    "SEVERITY_ORDER",
    "cleartext_urls",
    "grade_severity",
    "probe_app",
    "severity_rank",
]

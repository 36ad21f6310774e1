"""The paper's primary contribution: the large-scale static pipeline.

Implements Figure 1 end-to-end: AndroZoo listing -> Play metadata filter ->
APK download -> decompilation -> WebView-subclass extraction -> call-graph
construction -> entry-point traversal -> WebView/CT call recording ->
deep-link filtering -> SDK labelling -> ecosystem aggregation.
"""

from repro.static_analysis.results import (
    RecordedCall,
    AppAnalysis,
    StudyResult,
)
from repro.static_analysis.pipeline import (
    PipelineOptions,
    StaticAnalysisPipeline,
    analyze_apk_bytes,
)
from repro.static_analysis.deeplinks import deep_link_class_names
from repro.static_analysis import report
from repro.static_analysis import nutrition

__all__ = [
    "RecordedCall",
    "AppAnalysis",
    "StudyResult",
    "PipelineOptions",
    "StaticAnalysisPipeline",
    "analyze_apk_bytes",
    "deep_link_class_names",
    "report",
    "nutrition",
]

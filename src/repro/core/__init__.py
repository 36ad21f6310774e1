"""Public API facade.

Three studies build on the paper's two pipelines:

- :class:`StaticStudy` — the large-scale static analysis (Section 3.1):
  generate/accept a corpus, run the Figure 1 pipeline, and expose every
  table/figure of Section 4.1.
- :class:`DynamicStudy` — the semi-manual dynamic analysis (Section 3.2):
  top-1K classification, controlled-page IAB measurements, and the
  top-site crawl of Section 4.2.
- :class:`LongitudinalStudy` — the static methodology repeated across an
  evolving corpus, run incrementally with checkpointed, resumable runs
  (DESIGN.md §11).

>>> from repro.core import StaticStudy
>>> study = StaticStudy(universe_size=5000)
>>> result = study.run()                       # doctest: +SKIP
>>> print(study.table7())                      # doctest: +SKIP
"""

from repro.core.study import DynamicStudy, StaticStudy
from repro.longitudinal import LongitudinalStudy

__all__ = ["StaticStudy", "DynamicStudy", "LongitudinalStudy"]

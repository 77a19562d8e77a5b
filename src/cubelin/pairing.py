"""The corollary's spans under their old module name.

``cubench/tracing.py`` and ``cubench/workloads.py`` look these three
names up here until the benchmark's tracer finds them in
:mod:`cubelin.invert`, where they live (ROADMAP item 1).
"""

from .invert import corollary_pipeline, gz_reduce, lift_inverse

"""Helpers the repo benchmark (``perfbench/``) imports; see
:mod:`repro.perf.harness`."""

"""Adversarial instance generators, exact evaluators and pluggable maintainers.

Churn is measured by the harness's replay loops in
:mod:`stablecover.harness_cli`, which replay any of these maintainers.
"""

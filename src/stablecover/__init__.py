"""Dynamic max coverage by unit disks with bounded per-update churn.

Library layout:

- :mod:`stablecover.geometry` -- planar primitives, shifted grids, cell covers
- :mod:`stablecover.static_solver` -- exact and greedy static coverage oracles
- :mod:`stablecover.sas_engine` -- the bounded-churn approximation engine
- :mod:`stablecover.baseline` -- the 2-stable 2-approximation
- :mod:`stablecover.adversary` -- lower-bound generators and pluggable maintainers
- :mod:`stablecover.harness_cli` -- stream files, the replay loops, CLI
"""

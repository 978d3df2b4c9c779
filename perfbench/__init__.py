"""End-to-end and per-layer benchmark of the repro-dtn simulator.

Run it from the repository root (``--trace 1`` for the per-layer run)::

    python3 perfbench/run.py --workload paper-500 --seed 1 --seconds 24

The benchmark drives :func:`repro.experiments.runner.run_scenario` from
outside the program.  ``workloads`` builds the scenarios, ``measure``
times untraced repeats, ``layers`` records the traced run's spans and
counts, and ``checks`` decides whether a run's outputs are correct.
See ``perfbench/README.md`` for the metrics and the noise controls.
"""

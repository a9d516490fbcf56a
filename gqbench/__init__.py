"""gqbench — the one frozen benchmark of this repository.

Eight workloads, eight bounded end-to-end metrics and a layer-attributed
traced pass, defined once and run identically on parent and change::

    PYTHONPATH=src python -m gqbench run --workload fig1_tcp
    PYTHONPATH=src python -m gqbench run --workload all --out SET.json
    PYTHONPATH=src python -m gqbench check A.json B.json

See README.md in this directory for the protocol and the glossary.
"""

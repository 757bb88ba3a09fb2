"""Step-level fill-in-the-middle toolkit for chain-of-thought corpora.

Pipeline stages, each usable as a library call or a CLI subcommand:

- decompose: split free-text solutions into ordered step chains
- fim: build prefix/suffix/middle training samples in PSM order
- expand: insert model-generated intermediate steps, gated by similarity
- synth: generate verifiable arithmetic corpora with known ground truth
- stats: before/after corpus statistics

The package root re-exports nothing: import each name from the module
that defines it, e.g. ``from stepfim.decompose import decompose``.
"""

__version__ = "0.1.0"

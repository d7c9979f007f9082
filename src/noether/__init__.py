"""Algebra-grounded metamorphic-relation derivation and kill experiments.

The package derives MetaPattern sets from declarative operator algebras,
decides which MR descriptors the canonical translation can reach, runs the
mutant-stratified scaling-blindness experiment on a bundled expression-
language subject zoo, evaluates rewrite MRs on a bag-semantics relational
mini-evaluator, and computes the exact small-sample statistics the reports
use.  Import the submodules directly, e.g. `from noether.derive import
construct_mp`; the package itself exports nothing else.
"""

__version__ = "0.1.0"

"""tbmc: a symbolic engine for grammatical template shifts.

Lexical items are paired with grammatical templates (a syntactic category
plus signed features such as {N, +SG, -PL, -M, +F, -COL, +SING}).  When a
word-formation or meaning-formation process derives one item from another,
the derived item's template is the unique solution of a gradient condition
on the symmetric difference between base and derived templates.  The
package provides the feature-set algebra, template well-formedness under
language profiles, the lexicon and its derivation bookkeeping, the gradient
rule engine, an initial-template estimator, a Riffian surface realizer, a
brute-force oracle for the algebraic laws, the ``.tbmc`` corpus format, and
a command-line front end.
"""

__version__ = "0.1.0"

__all__ = [
    "algebra",
    "corpus",
    "engine",
    "estimator",
    "lexicon",
    "oracle",
    "realizer",
    "templates",
    "__version__",
]


def __getattr__(name):
    # submodules load on first use, so ``import tbmc`` alone imports none;
    # unlike importlib.import_module, __import__ shows in ``-X importtime``
    if name in __all__:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

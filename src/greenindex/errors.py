"""Exception hierarchy for the greenindex package."""


class GreenIndexError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GreenIndexError):
    """Malformed input data (bad shape, unreadable file, unparseable word);
    every caller's fault subclasses it, and the CLI exits 2 for these."""


class OutOfRange(InputError):
    """An index is not in its range: a Cayley table entry, a generator,
    member, element, letter or letter evaluation that is not an element
    index, a class index, or an automaton state id."""


class NotAssociative(GreenIndexError):
    """A Cayley table fails associativity; carries a witness triple."""

    def __init__(self, x, y, z):
        self.witness = (x, y, z)
        super().__init__(
            f"not associative: ({x}*{y})*{z} != {x}*({y}*{z})"
        )


class NotClosed(InputError):
    """A claimed subsemigroup is empty or not closed under multiplication."""


class EmptyGenerators(InputError):
    """A generating set was empty."""


class InvalidHomomorphism(GreenIndexError):
    """A map between semigroups does not respect multiplication."""


class DomainMismatch(GreenIndexError):
    """A homomorphism does not connect the expected source and target."""


class NotGenerating(InputError):
    """A set claimed to generate a (sub)semigroup does not."""


class InternalInconsistency(GreenIndexError):
    """A witness guaranteed by theory was not found; indicates a bug."""


class NotAnHClass(InputError):
    """The given element set is not a single relative H-class."""


class NotComparable(InputError):
    """Two H-classes are neither L-related nor R-related."""


class InvalidLetter(InputError):
    """A word uses a letter outside its alphabet."""


class NotInSubsemigroup(InputError):
    """The target element is not generated by the given set."""


class BadInputPresentation(GreenIndexError):
    """An input presentation failed verification against its target."""


class DaggerViolation(GreenIndexError):
    """Schutzenberger presentations do not respect the shared-alphabet
    convention for L-related classes."""


class BoundExceeded(GreenIndexError):
    """An enumeration did not close within the given bounds."""


class AlphabetMismatch(GreenIndexError):
    """A word given to a trie builder has a symbol outside its alphabet."""


# Nothing raises this since composition needs no bound; perfbench imports it.
class DelayExceeded(GreenIndexError):
    """Relation composition needed a longer middle-track tail than a delay
    bound allowed; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class BudgetExceeded(GreenIndexError):
    """Black-box exploration exceeded its element budget."""


class HypothesisFails(GreenIndexError):
    """A hypothesis required by a check does not hold; carries a witness."""

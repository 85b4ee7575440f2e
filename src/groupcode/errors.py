"""Exception types shared across the package."""

from __future__ import annotations


class GroupCodeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidFactor(GroupCodeError):
    """A group was requested with a cyclic factor smaller than 2."""


class WrongGroup(GroupCodeError):
    """An element does not belong to the group an operation expected."""


class NotASubgroup(GroupCodeError):
    """An element set is not closed under the parent group operation."""


class NotAbelian(GroupCodeError):
    """An operation table turned out to be non-commutative."""


class InvalidHom(GroupCodeError):
    """Generator images violate the order constraints of the source group."""


class NotApplicable(GroupCodeError):
    """A classification was requested outside its hypotheses."""


class NuNotSurjective(GroupCodeError):
    """The next-state map of an encoder does not cover the state group."""

    def __init__(self, missing):
        self.missing = missing
        super().__init__(f"next-state map is not surjective: state {missing} has no preimage")


class OmegaNotHom(GroupCodeError):
    """The output map of an encoder is not a homomorphism."""


class PsiNotInjective(GroupCodeError):
    """The branch map (s, output, next state) of an encoder is not injective."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"branch map not injective: input {witness} at the identity state "
            "is invisible to both the output and next-state maps"
        )


class PredicateViolation(GroupCodeError):
    """A structural predicate failed on a concrete encoder.

    Carries the predicate name and a counterexample tuple; a violation means
    the implementation is wrong, not the theory.
    """

    def __init__(self, name: str, counterexample):
        self.name = name
        self.counterexample = counterexample
        super().__init__(f"predicate {name!r} violated, counterexample: {counterexample!r}")

    def __reduce__(self):
        # sweep workers send violations back to the parent process by pickling
        return type(self), (self.name, self.counterexample)


class NotPrime(GroupCodeError):
    """A sweep was requested with a composite input-group order."""


class TooLarge(GroupCodeError):
    """A sweep was requested beyond the exhaustive-search guard."""

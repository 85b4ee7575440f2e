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
    """An operation table is not an abelian group.

    It does not commute, lacks an identity, has an element that does not reach
    the identity within as many steps as the table has elements, or is not
    spanned by its recognized basis.
    """


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
        # a caller's own process pool sends violations back to its parent by pickling
        return type(self), (self.name, self.counterexample)


class NotPrime(GroupCodeError):
    """A sweep was requested with a composite input-group order."""


class TooLarge(GroupCodeError):
    """A request exceeds a size guard: its tables would not fit in memory or time.

    A sweep grid beyond ``EXHAUSTIVE_GUARD`` or ``HOM_GUARD``, an encoder on
    more than ``PAIR_GUARD`` (u, s) pairs, or a controllability decision on
    more than ``STATE_GUARD`` states.
    """

"""Verification-only code: exhaustive references, invariant checks and
accessors that only the tests need, kept out of the shipped package."""

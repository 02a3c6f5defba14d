"""Hash-consed reduced ordered BDD package."""

from repro.bdd.bdd import BDD, BDDBudgetExceeded, BDDFunction

__all__ = ["BDD", "BDDBudgetExceeded", "BDDFunction"]

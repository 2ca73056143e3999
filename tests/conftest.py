import itertools
from fractions import Fraction

import pytest

from nijalg import Monomial, TensorElement, gen, products


@pytest.fixture(scope="session")
def ab():
    return gen("a"), gen("b")


def words_over(gens, max_len, min_len=0):
    letters = tuple(gens)
    out = []
    for n in range(min_len, max_len + 1):
        out.extend(itertools.product(letters, repeat=n))
    return out


def te(*letters):
    return TensorElement.from_word(letters)


def in_exact_form(coeff) -> bool:
    """Whether a stored coefficient has the canonical form: a nonzero ``int``
    when integral, else a ``Fraction`` with denominator > 1."""
    if type(coeff) is int:
        return coeff != 0
    return type(coeff) is Fraction and coeff.denominator > 1


def product_memos():
    """Every ``products._Memo`` instance reachable from ``nijalg.products``:
    its module globals and the attributes set on them (the recursions' term
    memos)."""
    found = []
    for value in vars(products).values():
        for candidate in (value, *getattr(value, "__dict__", {}).values()):
            # by identity: memos are dicts, and equal ones (empty ones) are distinct
            if isinstance(candidate, products._Memo) and not any(
                candidate is memo for memo in found
            ):
                found.append(candidate)
    return found


def count_calls(monkeypatch, module, name):
    """Rebind ``module.name`` to a wrapper that records the arguments of each
    call; returns that record."""
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls

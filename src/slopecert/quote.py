"""Quoting a reader's input in an error message, so that the message stays
short however long the input: a long text by its first 32 characters and
its length (``clip``), any value by its clipped repr (``quote``), and a
count by its first 32 digits and its digit count (``count_text``). A
number with more digits than Python's int() converts is named with the one
wording of ``past_int_limit``."""

import sys


def clip(text: str, show=str) -> str:
    """``show(text)``, or ``show`` of its first 32 characters and its length."""
    return show(text) if len(text) <= 32 else f"{show(text[:32])}... ({len(text)} characters)"


def safe_repr(item) -> str:
    """``repr(item)``, writing an int with more digits than int-to-text
    conversion allows (alone or in a tuple) by its bit length, and any
    other item whose repr fails by its type."""
    if type(item) is tuple:
        return "(" + ", ".join(map(safe_repr, item)) + ("," if len(item) == 1 else "") + ")"
    try:
        return repr(item)
    except ValueError:
        return f"<int of {item.bit_length()} bits>" if type(item) is int else f"<{type(item).__name__}>"


def quote(item) -> str:
    """``safe_repr(item)``, clipped."""
    return clip(safe_repr(item))


def digits(n: int) -> int:
    """The number of decimal digits of |n|, counted without writing n as
    text: from a lower bound by its bit length (log10(2) > 0.30102), up
    by comparing with powers of ten."""
    n = abs(n)
    d = max(1, n.bit_length() * 30102 // 100000)
    while n >= 10**d:
        d += 1
    return d


def past_int_limit(count: int) -> str:
    """Why a number of ``count`` digits cannot be converted between int
    and text, "has N digits, more than Python's int() limit of L"; empty
    if it can."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return f"has {count} digits, more than Python's int() limit of {limit}" if 0 < limit < count else ""


def count_text(n: int) -> str:
    """The count n as text: whole up to 32 digits, else its first 32
    digits and its digit count, never converting all of n."""
    d = digits(n)
    return str(n) if d <= 32 else f"{n // 10 ** (d - 32)}... ({d} digits)"

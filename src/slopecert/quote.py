"""Quoting a reader's input in an error message, so that the message stays
short however long the input: a long text by its first 32 characters and
its length (``clip``), and any value by its clipped repr (``quote``)."""


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

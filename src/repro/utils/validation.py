"""Argument validation helpers and small integer math used across modules."""

from __future__ import annotations


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float, name: str) -> None:
    """Ensure ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_fraction(value: float, name: str) -> None:
    """Ensure ``value`` lies in the half-open interval (0, 1]."""
    if not (0.0 < value <= 1.0):
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def is_power_of_two(n: int) -> bool:
    """True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def check_power_of_two(n: int, name: str) -> None:
    """Ensure ``n`` is a power of two (several hypercube algorithms need this)."""
    if not is_power_of_two(n):
        raise ValueError(f"{name} must be a power of two, got {n}")


def next_power_of_two(n: int) -> int:
    """Smallest power of two greater than or equal to ``n`` (n >= 1)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (n - 1).bit_length()


def ceil_log2(n: int) -> int:
    """⌈log2(n)⌉ for n >= 1."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return (n - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)

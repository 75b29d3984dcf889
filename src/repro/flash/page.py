"""A single physical flash page and its lifecycle.

Pages move ``FREE -> VALID -> INVALID`` and only an erase of the whole block
returns them to ``FREE``.  Validity is an FTL-level notion (real NAND does
not know which pages are stale) but, as in FlashSim-style simulators, we keep
it on the page so garbage-collection policies and statistics can read it
directly.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional

from .oob import OOBData


class PageState(Enum):
    """Lifecycle state of one physical page."""

    FREE = "free"        #: erased, programmable
    VALID = "valid"      #: holds the live copy of some logical page
    INVALID = "invalid"  #: holds a stale copy awaiting garbage collection


class Page:
    """One physical page: state, optional data payload, and OOB metadata.

    The payload is an arbitrary Python object; simulations that only count
    operations pass ``None``, while correctness tests store version tokens
    and verify read-your-writes through the whole FTL stack.
    """

    __slots__ = ("state", "data", "oob")

    def __init__(self) -> None:
        self.state: PageState = PageState.FREE
        self.data: Any = None
        self.oob: Optional[OOBData] = None

    @property
    def is_free(self) -> bool:
        """True when the page is erased and can be programmed."""
        return self.state is PageState.FREE

    @property
    def is_valid(self) -> bool:
        """True when the page holds the live copy of a logical page."""
        return self.state is PageState.VALID

    @property
    def is_invalid(self) -> bool:
        """True when the page holds a stale copy."""
        return self.state is PageState.INVALID

    def reset(self) -> None:
        """Return to the erased state (block erase path)."""
        self.state = PageState.FREE
        self.data = None
        self.oob = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lpn = self.oob.lpn if self.oob is not None else None
        return f"Page(state={self.state.value}, lpn={lpn})"

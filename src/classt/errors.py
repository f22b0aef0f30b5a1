"""Exception types shared across the toolkit.

The library raises BadInput when an argument breaks a documented
precondition, and ConditionViolated when one of the four weight
conditions of a compactification fails.  Both derive from ClassTError;
a bare ClassTError marks an internal fault.  ConditionViolated carries
the condition's tag, and its message starts with that tag in brackets.
The one other error is the ZeroDivisionError of ``arith.hj_evaluate``
on a zero tail.  The command line catches ClassTError and prints its
message on one ``error:`` line.
"""


class ClassTError(Exception):
    """Base class for all toolkit errors."""


class BadInput(ClassTError):
    """Arguments violate a documented precondition."""


class ConditionViolated(ClassTError):
    """A named weight condition failed.

    The tag is one of "hom", "action", "div", "man-cond".
    """

    def __init__(self, tag: str, message: str):
        self.tag = tag
        super().__init__(f"[{tag}] {message}")

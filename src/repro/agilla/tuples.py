"""Tuples and templates (paper §2.2).

A tuple is an ordered sequence of concrete fields; a template is the same
but may contain wildcards.  "A template matches a tuple if they have the same
number of fields, and each field in the tuple matches the corresponding field
in the template."

Serialization: a count byte followed by each field's encoding.  A tuple may
carry at most 25 bytes of fields (paper §3.2), which keeps any tuple within a
single 27-byte TinyOS payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.errors import TupleSpaceError, TupleTooLargeError
from repro.agilla.fields import (
    Field,
    decode_field,
    field_matches,
    is_wildcard,
)

#: Maximum total bytes of fields in one tuple (paper §3.2).
MAX_FIELD_BYTES = 25

#: Sanity cap on arity (the count byte could hold more, but 25 bytes of
#: 2-byte fields bounds real tuples well below this).
MAX_FIELDS = 12


@dataclass(frozen=True, slots=True)
class AgillaTuple:
    """An immutable tuple or template.

    Its sizes are summed once, at construction: every field type's
    ``wire_size`` is a class constant, and the arena reads a stored tuple's
    size on every scan.  Slots keep the two stored sizes from costing every
    tuple an instance dict.
    """

    fields: tuple[Field, ...]
    #: Serialized size of the fields alone.
    field_bytes: int = dataclass_field(init=False, repr=False, compare=False)
    #: Serialized size including the count byte.
    wire_size: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.fields) > MAX_FIELDS:
            raise TupleSpaceError(f"too many fields: {len(self.fields)}")
        field_bytes = sum(field.wire_size for field in self.fields)
        if field_bytes > MAX_FIELD_BYTES:
            raise TupleTooLargeError(
                f"{field_bytes} B of fields exceeds the "
                f"{MAX_FIELD_BYTES} B limit"
            )
        object.__setattr__(self, "field_bytes", field_bytes)
        object.__setattr__(self, "wire_size", 1 + field_bytes)

    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.fields)

    @property
    def is_template(self) -> bool:
        """True if any field is a wildcard (usable only for matching)."""
        return any(is_wildcard(field) for field in self.fields)

    # ------------------------------------------------------------------
    def matches(self, candidate: "AgillaTuple") -> bool:
        """Does this (as a template) match ``candidate`` (a concrete tuple)?"""
        if self.arity != candidate.arity:
            return False
        return all(
            field_matches(template_field, tuple_field)
            for template_field, tuple_field in zip(self.fields, candidate.fields)
        )

    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        parts = [bytes([self.arity])]
        parts.extend(field.encode() for field in self.fields)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["AgillaTuple", int]:
        """Decode a tuple; returns (tuple, bytes consumed)."""
        if offset >= len(data):
            raise TupleSpaceError("truncated tuple")
        arity = data[offset]
        consumed = 1
        fields = []
        for _ in range(arity):
            field, size = decode_field(data, offset + consumed)
            fields.append(field)
            consumed += size
        return cls(tuple(fields)), consumed

    def __str__(self) -> str:
        inner = ", ".join(str(field) for field in self.fields)
        return f"<{inner}>"


def make_tuple(*fields: Field) -> AgillaTuple:
    """Build a concrete tuple, rejecting wildcards."""
    result = AgillaTuple(tuple(fields))
    if result.is_template:
        raise TupleSpaceError("tuples may not contain wildcards")
    return result


def make_template(*fields: Field) -> AgillaTuple:
    """Build a template (wildcards allowed but not required)."""
    return AgillaTuple(tuple(fields))

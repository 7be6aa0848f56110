"""Exception types shared across the package, and ``reader`` and
``read_fields``, the one reader of the JSON a user gives."""


class NLAtlasError(Exception):
    """Base class for all domain errors raised by this package."""


class MismatchedLattice(NLAtlasError):
    """Two divisor classes live on blow-ups at different numbers of points."""


class NotNef(NLAtlasError):
    """The hyperplane class pairs negatively with a (-1)-class, so the linear
    system does not define a morphism with the given base-point data."""


class SpanTooSmall(NLAtlasError):
    """The linear system is too small to embed the surface as required."""


class NotProjectable(NLAtlasError):
    """A projection operation was requested on a surface that does not admit it."""


class NegativeCount(NLAtlasError):
    """A dimension count came out negative; the surface data is invalid."""


class DimensionMismatch(NLAtlasError):
    """Blow-up center of inadmissible dimension."""


class Inconsistent(NLAtlasError):
    """A diagram solve produced a negative or contradictory Hodge number."""


class Underdetermined(NLAtlasError):
    """A diagram solve has more unknowns than equations."""


class UnknownPreset(NLAtlasError):
    """No built-in Hodge diamond with that name."""


class DatasetMissing(NLAtlasError):
    """The bundled (or user supplied) table dataset could not be loaded."""


class ParseError(NLAtlasError):
    """A specification string could not be parsed; carries the offending position."""

    def __init__(self, message: str, text: str, position: int):
        self.message = message
        self.text = text
        self.position = position
        super().__init__(f"{message} (at position {position} in {text!r})")

    def __reduce__(self):
        # pickle would pass back the one formatted argument, and unpickling
        # would fail with "missing 'text' and 'position'"; a caller's own
        # process pool sends a worker's exception back by pickle
        return type(self), (self.message, self.text, self.position), self.__dict__


# how a refusal names a JSON value of each exact type, one and several
_NOUNS = {int: ("an integer", "integers"), str: ("a string", "strings"),
          bool: ("true or false", "booleans"), dict: ("an object", "objects")}


def _noun(hint, plural: bool = False) -> str:
    import typing
    if hasattr(hint, "__members__"):  # an Enum
        return "one of " + ", ".join(repr(member.value) for member in hint)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is not tuple:
        return _NOUNS.get(hint, _NOUNS[dict])[plural]  # a NamedTuple is an object
    count = "" if args[-1] is Ellipsis else f"{len(args)} "
    return f"{'lists' if plural else 'a list'} of {count}{_noun(args[0], True)}"


def reader(hint):
    """``read(value, what)`` for a JSON value of type ``hint``: ``int``,
    ``str``, ``bool`` and ``dict`` by exact type (true is no integer, nor is
    1.0), an ``Enum`` of strings by value, ``X | None``, tuples from arrays,
    a NamedTuple by ``read_fields`` and ``object`` as it is.  A refusal is a
    ``ValueError`` naming ``what``."""
    import typing
    args = typing.get_args(hint)
    if type(None) in args:
        read_value = reader(args[0])
        return lambda value, what: None if value is None else read_value(value, what)
    if hint is object:
        return lambda value, what: value
    if hasattr(hint, "_fields"):
        return lambda value, what: read_fields(value, hint, what)
    noun = _noun(hint)
    if typing.get_origin(hint) is tuple:
        # every tuple declares one element type
        item, size = args[0], None if args[-1] is Ellipsis else len(args)
        read_item, by_index = reader(item), item not in (int, str, bool)

        def read(value, what):
            if type(value) is list and size in (None, len(value)):
                if by_index:  # arrays or objects, each named by its index
                    return tuple([read_item(v, f"{what}[{i}]") for i, v in enumerate(value)])
                if all(type(v) is item for v in value):  # else the whole array is wrong
                    return tuple(value)
            raise ValueError(f"{what} must be {noun}, got {value!r}")
        return read
    members = {member.value: member for member in hint} if hasattr(hint, "__members__") else {}

    def read(value, what):
        if type(value) is hint:
            return value
        if type(value) is str and value in members:  # an Enum's value
            return members[value]
        raise ValueError(f"{what} must be {noun}, got {value!r}")
    return read


# per NamedTuple read so far: its field names and (name, reader, default)s
_LAYOUTS: dict[type, tuple] = {}
_REQUIRED = object()


def read_fields(obj, cls, where: str):
    """The NamedTuple ``cls`` read from the JSON object ``obj``, each field by
    its declared type; a field with a default may be left out, and a key that
    is no field (a misspelled optional key) is refused.  A refusal is a
    ``ValueError`` that starts with ``where`` and names the field."""
    if type(obj) is not dict:
        raise ValueError(f"{where} must be an object, got {obj!r}")
    if cls not in _LAYOUTS:
        import typing
        _LAYOUTS[cls] = frozenset(cls._fields), tuple(
            (name, reader(hint), cls._field_defaults.get(name, _REQUIRED))
            for name, hint in typing.get_type_hints(cls).items())
    names, layout = _LAYOUTS[cls]
    at = f"{where}: " if where else ""
    if not obj.keys() <= names:
        unknown = next(key for key in obj if key not in names)
        raise ValueError(f"{at}unknown field {unknown!r}")
    values = [read(obj[name], at + name) if name in obj else default
              for name, read, default in layout]
    if _REQUIRED in values:
        raise ValueError(f"{at}missing field {cls._fields[values.index(_REQUIRED)]!r}")
    return cls._make(values)

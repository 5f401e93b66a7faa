"""Exception hierarchy shared by all modules, the one config value reader,
and the one rule for a box of [lo, hi] rows."""

import numpy as np


class GDiffusionError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(GDiffusionError):
    """Shapes of inputs do not agree."""


class NonFiniteError(GDiffusionError):
    """A value that must be finite is NaN or infinite; ``entry`` is (step,
    batch index, component) of a march's first non-finite state, else None."""

    entry = None

    @classmethod
    def at_state(cls, step: int, t: float, index: tuple, component: int) -> "NonFiniteError":
        err = cls(f"non-finite state at step {step} (t={t:.6g}), batch index {index}, "
                  f"component {component}")
        err.entry = (step, index, component)
        return err


class StabilityError(GDiffusionError):
    """A time step violates the explicit-scheme stability bound."""


class GridError(GDiffusionError):
    """Invalid grid geometry or an out-of-range query."""


class ConfigError(GDiffusionError):
    """A configuration document failed to parse or validate."""


class EvaluationError(GDiffusionError):
    """A user-supplied coefficient or functional failed at a sample point."""


_REQUIRED = object()


def read(section: dict, key: str, kind: str, default=_REQUIRED):
    """The config value named by the dotted ``key``, read from ``section``
    (the object holding its last part) and converted to ``kind``:

        integer   an integral number, as an int
        count     a positive integral number, as an int
        integers  a list of integral numbers, as a list of int
        number    a number, as a float
        positive  a positive number, as a float
        numbers   a list of numbers, possibly nested, as a float array
        flag      JSON true or false
        seed      a non-negative integer, as an int
        object    an object; null reads as ``default`` when one is given
        list      a list

    A boolean is never a number.  An absent key reads as ``default``, which
    is converted like a given value; without a default the key is required.
    Every value that cannot be read is a ConfigError that begins with ``key``.
    """
    name = key.rpartition(".")[2]
    value = section.get(name, default)
    if kind == "object" and value is None and default is not _REQUIRED:
        return default
    if value is _REQUIRED:
        raise ConfigError(f"{key}: missing required key {name!r}")
    if kind in ("object", "list"):
        if not isinstance(value, dict if kind == "object" else list):
            raise ConfigError(f"{key}: expected {'an object' if kind == 'object' else 'a list'}, "
                              f"got {type(value).__name__}")
        return value
    if kind == "flag":
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected true or false, got {value!r}")
        return value
    try:
        if kind in ("number", "positive"):
            if isinstance(value, bool):
                raise ValueError("a boolean is not a number")
            number = float(value)
            if kind == "positive" and not number > 0:
                raise ConfigError(f"{key}: expected a positive number, got {value!r}")
            return number
        if kind in ("numbers", "integers") and isinstance(value, (str, dict)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        if kind == "numbers":
            array = np.asarray(list(value), dtype=float)  # a number is not iterable
            if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
                raise ValueError("a boolean is not a number")
            return array
        items = list(value) if kind == "integers" else [value]
        integers = [int(v) for v in items]
        if any(isinstance(v, bool) or i != v for i, v in zip(integers, items)):
            raise ValueError("expected an integer")
        if kind == "seed" and integers[0] < 0:
            raise ConfigError(f"{key}: expected a non-negative integer seed, got {value!r}")
        if kind == "count" and integers[0] < 1:
            raise ConfigError(f"{key}: expected a positive integer, got {value!r}")
        return integers if kind == "integers" else integers[0]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {value!r} ({exc})") from None


def check_box(box, key: str, error: type = ConfigError, n: int | None = None) -> np.ndarray:
    """``box`` as a read-only float array of [lo, hi] rows (``n`` rows when
    given), each finite with lo < hi; any other box raises ``error`` with a
    text that begins with ``key``."""
    box = np.array(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or n not in (None, box.shape[0]):
        raise error(f"{key}: expected {'' if n is None else f'{n} '}rows of [lo, hi]")
    if not np.all(np.isfinite(box)):
        raise error(f"{key}: expected finite rows, got {box.tolist()}")
    if np.any(box[:, 0] >= box[:, 1]):
        raise error(f"{key}: expected rows with lo < hi, got {box.tolist()}")
    box.setflags(write=False)
    return box


def refuse_unknown_keys(section: dict, prefix: str, names: tuple, holder: str) -> None:
    """Refuse a key of ``section`` that is not among ``names``, so that a
    misspelt key cannot run as its default."""
    for key in section:
        if key not in names:
            raise ConfigError(f"{prefix}{key}: unknown key; {holder} holds {', '.join(names)}")


def read_section(section: dict, key: str, names: tuple, default=_REQUIRED) -> dict:
    """The object named by the dotted ``key``, read as ``read`` reads it, with
    every key not among ``names`` refused."""
    value = read(section, key, "object", default)
    refuse_unknown_keys(value or {}, f"{key}.", names, key)
    return value

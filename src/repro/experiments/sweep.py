"""One grid runner for the experiment sweeps.

A sweep is a subclass of :class:`SweepResult` that declares its grid and its
report; the runner walks the grid and collects the points:

* ``defaults`` — every keyword argument the sweep accepts, with its default;
  :meth:`SweepResult.run` merges the caller's overrides into it and rejects
  unknown keys;
* ``axes`` — ordered ``(coordinate, values[, derive])`` rows.  ``values`` is
  a key of the config (which must not be empty) or a literal tuple;
  ``derive(values, coords)`` may reshape them from the earlier coordinates;
* :meth:`SweepResult.setup` — run once before the grid (validation, a
  capacity probe); it may add derived entries to :attr:`SweepResult.config`,
  whose entries the result also exposes as attributes;
* :meth:`SweepResult.cell` — measures one grid point and returns the
  ``point_type`` fields other than the coordinates as a dict, or a string:
  the reason the cell is skipped;
* ``columns`` — ``(header, width, cell)`` rows of the report table, each cell
  a format template over ``p`` (the point) and ``r`` (the result) or a
  callable ``(result, point) -> str``; :meth:`SweepResult.title`,
  :meth:`SweepResult.details` and :meth:`SweepResult.footer` add the lines
  around and under the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Tuple


@dataclass
class SweepResult:
    config: Dict[str, Any]
    points: List[Any] = field(default_factory=list)
    #: ``(coords, reason)`` of every skipped cell, in grid order.
    skips: List[Tuple[Dict[str, Any], str]] = field(default_factory=list)

    defaults: ClassVar[Dict[str, Any]] = {}
    axes: ClassVar[Tuple[tuple, ...]] = ()
    point_type: ClassVar[type] = object
    #: Coordinates :meth:`point` takes positionally (default: axis order).
    key: ClassVar[Tuple[str, ...]] = ()
    columns: ClassVar[Tuple[tuple, ...]] = ()

    @classmethod
    def run(cls, *grid, **overrides):
        """Run every cell of the grid with ``overrides`` merged into
        ``defaults``; positional arguments give its first entries (each
        sweep lists its grid's first axis first)."""
        overrides.update(zip(cls.defaults, grid))
        unknown = sorted(set(overrides) - set(cls.defaults))
        if unknown:
            raise TypeError(f"{cls.__name__} got unknown arguments: {', '.join(unknown)}")
        result = cls({**cls.defaults, **overrides})
        for _, values, *_ in cls.axes:
            if isinstance(values, str) and not result.config[values]:
                raise ValueError(f"{values} must not be empty")
        result.setup()
        result._walk({}, cls.axes)
        return result

    def _walk(self, coords: Dict[str, Any], axes) -> None:
        if not axes:
            measured = self.cell(**coords)
            if isinstance(measured, str):
                self.skips.append((coords, measured))
            else:
                self.points.append(self.point_type(**coords, **measured))
            return
        name, values, *derive = axes[0]
        if isinstance(values, str):
            values = self.config[values]
        for value in (derive[0](values, coords) if derive else values):
            self._walk({**coords, name: value}, axes[1:])

    def __getattr__(self, name: str) -> Any:
        """The run's config entries, read as attributes (``result.seed``)."""
        try:
            return self.__dict__["config"][name]
        except KeyError:
            raise AttributeError(name) from None

    def setup(self) -> None:
        """Run once before the grid."""

    def cell(self, **coords) -> Any:
        raise NotImplementedError

    def point(self, *args, **coords):
        """The point at ``coords``; positional values follow :attr:`key`."""
        coords.update(zip(self.key or [axis[0] for axis in self.axes], args))
        for point in self.points:
            if all(getattr(point, name) == value for name, value in coords.items()):
                return point
        raise KeyError("no sweep point for "
                       + ", ".join(f"{name}={value!r}" for name, value in coords.items()))

    def title(self) -> List[str]:
        return []

    def details(self, point) -> List[str]:
        return []

    def footer(self) -> List[str]:
        return []

    def report(self) -> str:
        lines = [*self.title(), " ".join(f"{head:>{width}}" for head, width, _ in self.columns)]
        for point in self.points:
            lines.append(" ".join(
                f"{cell.format(p=point, r=self) if isinstance(cell, str) else cell(self, point):>{width}}"
                for _, width, cell in self.columns))
            lines.extend(self.details(point))
        lines.extend(self.footer())
        return "\n".join(lines)

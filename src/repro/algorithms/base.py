"""Class-based algorithm interface used by the platform.

The functional interface (:func:`repro.algorithms.pagerank`, ...) is what a
library user calls directly.  The platform, however, receives tasks as plain
data — an algorithm *name*, an optional *source* (reference node label) and a
dictionary of *parameters* typed in the task-builder UI — and therefore needs
a uniform, introspectable way to:

* discover which algorithms exist (``available_algorithms()``),
* know which parameters each accepts, with types, defaults and bounds
  (:class:`ParameterSpec`), so the UI can render the right form fields,
* validate and coerce the user-supplied parameter dictionary,
* and finally execute the run.

:class:`Algorithm` encapsulates exactly that.  Adding a new algorithm to the
demo amounts to subclassing :class:`Algorithm` and registering it — the
"demo design enables the possibility of adding new algorithms" property the
paper highlights.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InvalidParameterError
from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking

__all__ = ["ParameterSpec", "AlgorithmSpec", "Algorithm"]


@dataclass(frozen=True)
class ParameterSpec:
    """Description of one algorithm parameter.

    Attributes
    ----------
    name:
        Parameter name as typed in task parameters (e.g. ``"alpha"``, ``"k"``).
    kind:
        One of ``"float"``, ``"int"``, ``"str"``.
    default:
        Default value used when the task omits the parameter.
    minimum, maximum:
        Optional numeric bounds (inclusive).
    choices:
        Optional allowed values for string parameters.
    description:
        Human-readable help text shown by the UI and the CLI.
    """

    name: str
    kind: str
    default: Any
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[Tuple[str, ...]] = None
    description: str = ""

    def coerce(self, value: Any) -> Any:
        """Validate and convert ``value`` to this parameter's type.

        Raises
        ------
        InvalidParameterError
            If the value cannot be converted or violates bounds/choices.
        """
        if value is None:
            return self.default
        try:
            if self.kind == "float":
                coerced: Any = float(value)
            elif self.kind == "int":
                coerced = int(value)
            elif self.kind == "str":
                coerced = str(value)
            else:
                raise InvalidParameterError(
                    f"parameter {self.name!r} has unknown kind {self.kind!r}"
                )
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"parameter {self.name!r} expects a {self.kind}, got {value!r}"
            ) from exc
        if self.minimum is not None and coerced < self.minimum:
            raise InvalidParameterError(
                f"parameter {self.name!r} must be >= {self.minimum}, got {coerced!r}"
            )
        if self.maximum is not None and coerced > self.maximum:
            raise InvalidParameterError(
                f"parameter {self.name!r} must be <= {self.maximum}, got {coerced!r}"
            )
        if self.choices is not None and coerced not in self.choices:
            raise InvalidParameterError(
                f"parameter {self.name!r} must be one of {', '.join(self.choices)}, "
                f"got {coerced!r}"
            )
        return coerced


@dataclass(frozen=True)
class AlgorithmSpec:
    """Static description of an algorithm: name, personalization, parameters.

    ``inputs`` names the registered algorithms whose rankings this one is
    built from (2DRank declares a PageRank and a CheiRank).  A derived
    algorithm computes nothing of its own: it runs each input with its own
    source and parameters, then :meth:`Algorithm.combine` turns the input
    rankings into its ranking.  The platform resolves those inputs through
    the result cache, so an input another query already computed is reused
    and a computed input is cached for later queries.  Empty for every
    algorithm with a kernel of its own.
    """

    name: str
    display_name: str
    personalized: bool
    parameters: Tuple[ParameterSpec, ...] = field(default_factory=tuple)
    description: str = ""
    inputs: Tuple[str, ...] = ()

    def parameter(self, name: str) -> ParameterSpec:
        """Return the spec of the parameter called ``name``."""
        for spec in self.parameters:
            if spec.name == name:
                return spec
        raise InvalidParameterError(
            f"algorithm {self.name!r} has no parameter {name!r}; "
            f"available: {', '.join(p.name for p in self.parameters) or 'none'}"
        )

    def defaults(self) -> Dict[str, Any]:
        """Return the default value of every parameter."""
        return {spec.name: spec.default for spec in self.parameters}


class Algorithm(ABC):
    """A relevance algorithm runnable from plain task data.

    Subclasses define :attr:`spec` (a class attribute) and implement
    :meth:`_execute`, receiving already-validated parameters.
    """

    #: Static description; subclasses must override.
    spec: AlgorithmSpec

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Registry name of the algorithm."""
        return self.spec.name

    @property
    def display_name(self) -> str:
        """Human-readable name (used as a comparison-table column header)."""
        return self.spec.display_name

    @property
    def is_personalized(self) -> bool:
        """``True`` if the algorithm requires a reference (source) node."""
        return self.spec.personalized

    @property
    def has_native_batch(self) -> bool:
        """``True`` if a batch runs in one call rather than a per-source loop.

        Global algorithms qualify (a batch computes once and shares), as do
        subclasses overriding :meth:`_execute_batch`.  The scheduler uses
        this to decide between one grouped dispatch (amortised per-graph
        work) and per-query dispatch across the pool (the fallback loop
        would otherwise serialise independent queries on a single worker).
        """
        return (
            not self.is_personalized
            or type(self)._execute_batch is not Algorithm._execute_batch
        )

    def validate_parameters(self, parameters: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Validate a raw parameter mapping against the spec.

        Unknown parameter names raise :class:`InvalidParameterError`; missing
        ones take their default.  Returns the fully-populated dictionary.
        """
        parameters = dict(parameters or {})
        known = {spec.name for spec in self.spec.parameters}
        unknown = set(parameters) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown parameter(s) for {self.name}: {', '.join(sorted(unknown))}; "
                f"accepted: {', '.join(sorted(known)) or 'none'}"
            )
        validated: Dict[str, Any] = {}
        for spec in self.spec.parameters:
            validated[spec.name] = spec.coerce(parameters.get(spec.name))
        return validated

    def run(
        self,
        graph: DirectedGraph,
        *,
        source: Optional[str] = None,
        parameters: Optional[Mapping[str, Any]] = None,
    ) -> Ranking:
        """Validate parameters and execute the algorithm on ``graph``.

        Parameters
        ----------
        graph:
            The graph to rank.
        source:
            Reference node label for personalized algorithms; must be omitted
            (or ``None``) for global algorithms and present for personalized
            ones.
        parameters:
            Raw parameter mapping (strings fresh from a UI form are fine —
            they are coerced according to the spec).
        """
        if self.is_personalized and not source:
            raise InvalidParameterError(
                f"{self.display_name} is a personalized algorithm and requires a "
                "source (reference) node"
            )
        if not self.is_personalized and source:
            raise InvalidParameterError(
                f"{self.display_name} is a global algorithm and does not accept a "
                f"source node (got {source!r})"
            )
        validated = self.validate_parameters(parameters)
        return self._execute(graph, source=source, parameters=validated)

    def run_batch(
        self,
        graph: DirectedGraph,
        *,
        sources: Sequence[Optional[str]],
        parameters: Optional[Mapping[str, Any]] = None,
    ) -> List[Ranking]:
        """Execute the algorithm for many sources sharing one parameter set.

        Parameters are validated once for the whole batch.  Algorithms with a
        native batch kernel override :meth:`_execute_batch` to amortise the
        per-graph work (CSR build, transition matrix, ...) across the batch;
        the default falls back to one :meth:`_execute` call per source, so
        ``run_batch`` is available for *every* registered algorithm.

        Parameters
        ----------
        graph:
            The graph to rank.
        sources:
            One reference node label per query for personalized algorithms;
            must be all ``None`` for global ones (whose result is computed a
            single time and shared).
        parameters:
            Raw parameter mapping applied to every query in the batch.

        Returns
        -------
        list of Ranking
            One ranking per source, in input order.
        """
        sources = list(sources)
        if not sources:
            return []
        if self.is_personalized and not all(sources):
            raise InvalidParameterError(
                f"{self.display_name} is a personalized algorithm; every query in "
                "a batch requires a source (reference) node"
            )
        if not self.is_personalized and any(sources):
            raise InvalidParameterError(
                f"{self.display_name} is a global algorithm and does not accept "
                "source nodes in a batch"
            )
        validated = self.validate_parameters(parameters)
        if not self.is_personalized:
            # A global run is source-independent: compute once, share the result.
            ranking = self._execute(graph, source=None, parameters=validated)
            return [ranking] * len(sources)
        return self._execute_batch(graph, sources=sources, parameters=validated)

    def combine(self, input_rankings: Sequence[Ranking], parameters: Dict[str, Any]) -> Ranking:
        """Build this algorithm's ranking from the rankings of its inputs.

        ``input_rankings`` holds one ranking per name in ``spec.inputs``, in
        that order, all for the same source and parameters; ``parameters``
        are this algorithm's validated parameters.  Only algorithms that
        declare inputs implement it.
        """
        raise NotImplementedError(f"algorithm {self.name!r} declares no inputs")

    # ------------------------------------------------------------------ #
    # to implement
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _execute(
        self,
        graph: DirectedGraph,
        *,
        source: Optional[str],
        parameters: Dict[str, Any],
    ) -> Ranking:
        """Run the algorithm; ``parameters`` are already validated."""

    def _execute_batch(
        self,
        graph: DirectedGraph,
        *,
        sources: List[str],
        parameters: Dict[str, Any],
    ) -> List[Ranking]:
        """Run the algorithm for many sources; override for a native kernel.

        The fallback loops :meth:`_execute` per source, which is correct for
        any algorithm but amortises nothing.
        """
        return [
            self._execute(graph, source=source, parameters=parameters)
            for source in sources
        ]

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def describe_parameters(self) -> List[str]:
        """Return one help line per parameter (used by the CLI)."""
        lines = []
        for spec in self.spec.parameters:
            bounds = ""
            if spec.minimum is not None or spec.maximum is not None:
                bounds = f" [{spec.minimum if spec.minimum is not None else ''}" \
                         f"..{spec.maximum if spec.maximum is not None else ''}]"
            choices = f" ({'|'.join(spec.choices)})" if spec.choices else ""
            lines.append(
                f"{spec.name} ({spec.kind}{bounds}{choices}, default {spec.default!r}): "
                f"{spec.description}"
            )
        return lines

    def __repr__(self) -> str:
        return f"<Algorithm {self.name!r}>"

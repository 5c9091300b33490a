"""The sweep pipeline, defined once.

Every result in the paper is the same shape: a grid of cells (scheme x
fabric/workload point), each simulated under several seeds, the
per-seed results reduced per cell, tabulated, and — for the standing
results — written as a committed artifact with a drift gate.  A
:class:`Sweep` declares that shape; everything else is derived:

* ``sweep.specs(**params)`` — the ordered ``JobSpec`` list.  Grid order
  (axes outermost-first, seeds innermost) lives here and nowhere else;
* ``sweep.run(**params, **execution)`` — specs -> runner -> per-cell
  regroup -> reducer.  ``execution`` is any :class:`SweepOptions` field;
* the ``runner run`` / ``service submit`` flags — one per
  :class:`Param` that names a ``flag`` (see :mod:`repro.runner.cli`);
* ``runner run``'s exit status — from the sweep's ``ok`` verdict;
* ``--out/--check/--markdown`` — from the sweep's :class:`Artifact`.

An iterative search is not a static grid: it declares a ``driver``
instead of ``axes``/``cell``/``reduce`` and shares only the
parameter, table and artifact halves of the interface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.runner.jobspec import JobSpec
from repro.runner.pool import JobOutcome, collect_results, run_jobs


@dataclass
class SweepOptions:
    """How a sweep's jobs execute — never what they compute, so no
    field here can move a ``JobSpec`` hash.  Library entry points take
    these as ``**execution``; the CLIs build one from the shared
    execution flags."""

    #: worker processes; None = ``os.cpu_count()``, 1 = in-process
    jobs: Optional[int] = 1
    store: Optional[Any] = None  # ResultStore
    force: bool = False
    timeout_s: Optional[float] = None
    retries: int = 1
    log: Optional[Callable[[str], None]] = None
    #: sweep-coordinator base URL (repro.service); None = run locally
    service: Optional[str] = None

    def outcomes(self, specs: Sequence[JobSpec]) -> List[JobOutcome]:
        """One outcome per spec, in order; failures are contained."""
        return run_jobs(specs, **vars(self))


@dataclass(frozen=True)
class Param:
    """One sweep parameter: a keyword of ``specs()``/``run()`` and, when
    ``flag`` is set, the command-line flag that sets it."""

    name: str
    default: Any
    flag: Optional[str] = None
    #: how the flag's text becomes the value: a key of
    #: ``repro.runner.cli.KINDS``, "flag" (store_true) or "each"
    #: (repeatable, collected into a tuple)
    kind: str = "str"
    help: str = ""
    choices: Optional[Sequence[str]] = None
    #: validates/normalizes a bound value, from the library or a flag
    #: alike; raises ValueError so a typo fails before any job is queued
    coerce: Optional[Callable[[Any], Any]] = None


def _some_seeds(seeds: Any) -> Tuple[int, ...]:
    if not seeds:
        raise ValueError("must name at least one seed")
    return tuple(seeds)


def seeds_param(default: Optional[Tuple[int, ...]]) -> Param:
    return Param("seeds", default, "--seeds", "ints",
                 "comma-separated simulator seeds", coerce=_some_seeds)


#: per-cell telemetry config; library-only (``runner run --trace``
#: builds one).  It joins a cell's kwargs only when set, so default
#: sweeps keep their historical spec hashes and the store stays warm.
TELEMETRY = Param("telemetry", None)


@dataclass(frozen=True)
class Artifact:
    """A committed result file: its bytes, its report, its drift gate."""

    path: str
    to_json: Callable[[Any], str]
    to_markdown: Callable[[Any], str]
    #: names what moved between the committed and the new decoded
    #: JSON when ``--check`` finds the bytes differ
    drift: Callable[[Dict, Dict], List[str]] = lambda old, new: []


@dataclass(frozen=True)
class Sweep:
    name: str
    description: str
    #: every keyword ``specs()``/``run()`` accept, in positional order
    params: Tuple[Param, ...]
    #: payload -> (headers, rows) for the printed table
    table: Callable[[Any], Tuple[List[str], List[List[object]]]]
    #: the grid's axes, outermost first: the name of a parameter holding
    #: the axis values, or ``params -> values`` for an axis derived from
    #: one (case indices from a count) or fixed by the experiment.  A
    #: "seeds" parameter, when declared, is the innermost axis
    axes: Tuple[Union[str, Callable[[Dict[str, Any]], Iterable]], ...] = ()
    #: ``cell(*point, seed, params)`` -> that trial's JobSpec (no
    #: ``seed`` argument when the sweep declares no "seeds")
    cell: Optional[Callable[..., JobSpec]] = None
    #: ``reduce([(point, per-seed results), ...], params)`` -> payload
    reduce: Optional[Callable[[List[Tuple[tuple, List[Any]]], Dict], Any]] = None
    #: for sweeps that exist to find failures: a crashed cell does not
    #: raise out of ``run``; the reducer gets every cell's
    #: :class:`JobOutcome` (result or error text) in place of its result
    contain_failures: bool = False
    #: the payload's own verdict; ``runner run`` exits 1 when it fails
    ok: Callable[[Any], bool] = lambda payload: True
    #: ``driver(params, options)`` -> payload, for sweeps whose jobs
    #: depend on earlier results (no static grid, no ``specs()``)
    driver: Optional[Callable[[Dict[str, Any], SweepOptions], Any]] = None
    artifact: Optional[Artifact] = None

    def bind(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        """Positional + keyword arguments -> every parameter's value,
        defaults filled in and ``coerce`` applied."""
        names = [p.name for p in self.params]
        given = dict(zip(names, args))
        stray = [k for k in kwargs if k not in names or k in given]
        if stray or len(args) > len(names):
            raise TypeError(f"sweep {self.name!r} takes {', '.join(names)}; "
                            f"not {', '.join(stray) or args[len(names):]}")
        given.update(kwargs)
        bound = {}
        for p in self.params:
            value = given.get(p.name, p.default)
            if p.name in self.axes:
                value = tuple(value)
            bound[p.name] = p.coerce(value) if p.coerce else value
        return bound

    def grid(self, p: Dict[str, Any]) -> Iterator[Tuple[tuple, List[JobSpec]]]:
        """(point, per-seed specs) for every grid point, in run order."""
        if self.cell is None:
            raise ValueError(
                f"sweep {self.name!r} has no static grid: its jobs depend "
                f"on earlier results")
        trials = [(seed,) for seed in p["seeds"]] if "seeds" in p else [()]
        for point in itertools.product(
                *(axis(p) if callable(axis) else p[axis]
                  for axis in self.axes)):
            yield point, [self._spec(point + trial, p) for trial in trials]

    def _spec(self, trial: tuple, p: Dict[str, Any]) -> JobSpec:
        spec = self.cell(*trial, p)
        if p.get("telemetry") is not None:
            from repro.telemetry import per_cell_telemetry

            spec = replace(spec, kwargs={
                **spec.kwargs,
                "telemetry": per_cell_telemetry(p["telemetry"], spec.label)})
        return spec

    def specs(self, *args: Any, **params: Any) -> List[JobSpec]:
        """The whole grid as runner jobs, in run order."""
        return [spec for _, per_seed in self.grid(self.bind(*args, **params))
                for spec in per_seed]

    def run(self, *args: Any, **kwargs: Any) -> Any:
        """Run the sweep; ``kwargs`` mixes parameters with any
        :class:`SweepOptions` field (``jobs=4, store=...``)."""
        execution = {f.name: kwargs.pop(f.name)
                     for f in fields(SweepOptions) if f.name in kwargs}
        options = SweepOptions(**execution)
        p = self.bind(*args, **kwargs)
        if self.driver is not None:
            return self.driver(p, options)
        cells = list(self.grid(p))
        outcomes = options.outcomes(
            [spec for _, per_seed in cells for spec in per_seed])
        results = iter(outcomes if self.contain_failures
                       else collect_results(outcomes))
        return self.reduce(
            [(point, [next(results) for _ in per_seed])
             for point, per_seed in cells], p)

"""Method and weight registries: the extensible heart of :mod:`repro.api`.

Every stream-sampling method the harness can run is described by one
:class:`MethodSpec` registered under a stable name.  A registration
carries the method's *budget interpretation* — a factory
``(budget, stream_length, seed) -> counter`` that turns the paper's
common memory budget into that method's own parameterisation (reservoir
capacity for GPS/TRIEST, sampling probability ``budget/|K|`` for
MASCOT/gSH, estimator instances for NSAMP, split reservoirs for JSP) —
plus a metric extractor mapping the finished counter to named point
estimates.  Budget matching therefore stays per-method but open for
extension: third parties register new methods with
:func:`register_method` and every entry point (``run(spec)``, the CLI,
replicated runs and sweeps, the table harnesses) can drive them
immediately.

Weight functions get the same treatment via :func:`register_weight`, so
``--weight`` choices and :class:`~repro.api.spec.RunSpec` fields are
names resolved here rather than dictionaries scattered through callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.buriol import BuriolSampler
from repro.baselines.jha import JhaSeshadhriPinar
from repro.baselines.mascot import Mascot, MascotBasic
from repro.baselines.neighborhood import NeighborhoodSampling
from repro.baselines.sample_hold import GraphSampleHold
from repro.baselines.triest import TriestBase, TriestImpr
from repro.core.compact import (
    DEFAULT_CORE,
    make_in_stream_estimator,
    make_priority_sampler,
)
from repro.core.in_stream import InStreamEstimator
from repro.core.post_stream import PostStreamEstimator
from repro.core.weights import (
    TriangleWeight,
    UniformWeight,
    WedgeWeight,
    WeightFunction,
)
from repro.graph.edge import Node

#: Budget-interpretation factory ``(budget, stream_length, seed) -> counter``.
#: Weight-aware methods (the GPS family) additionally accept a
#: ``weight_fn`` keyword; see :attr:`MethodSpec.uses_weight`.
MethodFactory = Callable[..., Any]

#: Maps a finished counter to named point estimates.
MetricExtractor = Callable[[Any], Dict[str, float]]

#: Derives the same point estimates from already-computed GPS bundles
#: ``(in_stream, post_stream)`` so report assembly never re-runs
#: Algorithm 2 (see :attr:`MethodSpec.from_bundles`).
BundleExtractor = Callable[[Any, Any], Dict[str, float]]


def _default_extract(counter: Any) -> Dict[str, float]:
    """Every protocol counter exposes at least its triangle estimate."""
    return {"triangles": float(counter.triangle_estimate)}


@dataclass(frozen=True)
class MethodSpec:
    """One registered stream-sampling method.

    Attributes
    ----------
    name:
        Stable registry key (CLI ``--method`` value, :class:`RunSpec` field).
    factory:
        Budget interpretation: ``(budget, stream_length, seed) -> counter``.
        When :attr:`uses_weight` is true the factory also accepts a
        ``weight_fn`` keyword (``None`` selects the method's default).
    description:
        One-line human summary for the ``methods`` listing command.
    uses_weight:
        Whether the factory understands the GPS weight-function family.
    extract:
        Metric extractor for finished counters; defaults to the triangle
        estimate under the ``"triangles"`` key.
    from_bundles:
        Optional alternative extractor ``(in_stream, post_stream) ->
        metrics`` fed with the estimate bundles the report already
        computed, so methods whose metrics are derivable from them (the
        GPS family) don't pay a second retrospective pass.  Must produce
        exactly the values :attr:`extract` would.
    needs_stream_length:
        Whether the factory's budget interpretation divides by the
        stream length (probability-matched methods).  A batch run
        always knows it, since every source resolves to its whole
        population first; the live service, whose stream has no
        length up front, rejects such methods.
    wants_post_stream:
        Whether reports should carry the retrospective (Algorithm 2)
        estimate bundle; off for methods whose metrics never read it, so
        single passes don't pay an unused reservoir pass.
    supports_core:
        Whether the factory understands the ``core`` keyword selecting a
        GPS reservoir implementation (``"compact"`` slot arrays vs the
        ``"object"`` reference; see :mod:`repro.core.compact`).  The two
        cores produce bit-identical results under shared seeds, so the
        flag is purely a performance switch.  Methods without it ignore
        the spec's core selection.
    reads_labels:
        Whether the method's counter or metric extractor observes node
        *labels* (as opposed to just graph topology).  Every built-in
        method is label-free, which licenses the chunked (columnar)
        pipeline; a third-party method that e.g. reports per-label
        statistics must register with ``reads_labels=True`` to keep the
        scalar tuple path.  Populations always reach methods under
        their original labels, pooled or inline.
    """

    name: str
    factory: MethodFactory
    description: str = ""
    uses_weight: bool = False
    extract: MetricExtractor = field(default=_default_extract)
    from_bundles: Optional[BundleExtractor] = None
    needs_stream_length: bool = False
    wants_post_stream: bool = False
    supports_core: bool = False
    reads_labels: bool = False

    def make(
        self,
        budget: int,
        stream_length: int,
        seed: Optional[int],
        weight_fn: Optional[WeightFunction] = None,
        core: Optional[str] = None,
    ) -> Any:
        """Instantiate the counter for one run (the budget interpretation)."""
        if budget <= 0:
            raise ValueError("budget must be positive")
        kwargs: Dict[str, Any] = {}
        if self.uses_weight:
            kwargs["weight_fn"] = weight_fn
        if self.supports_core and core is not None:
            kwargs["core"] = core
        return self.factory(budget, stream_length, seed, **kwargs)


@dataclass(frozen=True)
class WeightSpec:
    """One registered weight-function family member."""

    name: str
    factory: Callable[[], WeightFunction]
    description: str = ""


_METHODS: Dict[str, MethodSpec] = {}
_WEIGHTS: Dict[str, WeightSpec] = {}


def register_method(
    name: str,
    *,
    description: str = "",
    uses_weight: bool = False,
    extract: Optional[MetricExtractor] = None,
    from_bundles: Optional[BundleExtractor] = None,
    needs_stream_length: bool = False,
    wants_post_stream: bool = False,
    supports_core: bool = False,
    reads_labels: bool = False,
) -> Callable[[MethodFactory], MethodFactory]:
    """Class decorator/registration hook for stream-sampling methods.

    The decorated callable is the budget-interpretation factory
    ``(budget, stream_length, seed) -> counter``.  Registration is global
    and name-keyed; duplicate names are rejected so two modules cannot
    silently shadow each other's methods.

    Example
    -------
    >>> @register_method("my-reservoir", description="toy example")
    ... def _make(budget, stream_length, seed):
    ...     return TriestBase(budget, seed=seed)      # doctest: +SKIP

    The new name is immediately valid everywhere: ``RunSpec
    (method="my-reservoir")``, ``SweepSpec(methods=("my-reservoir",))``,
    ``python -m repro replicate --method my-reservoir`` …
    """

    def decorate(factory: MethodFactory) -> MethodFactory:
        if name in _METHODS:
            raise ValueError(f"method {name!r} is already registered")
        _METHODS[name] = MethodSpec(
            name=name,
            factory=factory,
            description=description,
            uses_weight=uses_weight,
            extract=extract or _default_extract,
            from_bundles=from_bundles,
            needs_stream_length=needs_stream_length,
            wants_post_stream=wants_post_stream,
            supports_core=supports_core,
            reads_labels=reads_labels,
        )
        return factory

    return decorate


def register_weight(
    name: str, *, description: str = ""
) -> Callable[[Callable[[], WeightFunction]], Callable[[], WeightFunction]]:
    """Decorator registering a zero-argument weight-function factory.

    Example
    -------
    >>> @register_weight("unit", description="constant weight")
    ... class UnitWeight(UniformWeight):
    ...     pass                                       # doctest: +SKIP

    The name then resolves anywhere a weight is named: ``--weight unit``,
    ``RunSpec(weight="unit")``, ``SweepSpec(weights=("unit",))``.
    """

    def decorate(factory: Callable[[], WeightFunction]):
        if name in _WEIGHTS:
            raise ValueError(f"weight {name!r} is already registered")
        _WEIGHTS[name] = WeightSpec(name=name, factory=factory, description=description)
        return factory

    return decorate


def get_method(name: str) -> MethodSpec:
    """Look a method up by name; unknown names raise with the known set.

    Example
    -------
    >>> get_method("triest").uses_weight
    False
    """
    try:
        return _METHODS[name]
    except KeyError:
        known = ", ".join(sorted(_METHODS))
        raise ValueError(f"unknown method {name!r}; known methods: {known}") from None


def get_weight(name: str) -> WeightSpec:
    """Look a weight up by name; unknown names raise with the known set.

    Example
    -------
    >>> get_weight("uniform").name
    'uniform'
    """
    try:
        return _WEIGHTS[name]
    except KeyError:
        known = ", ".join(sorted(_WEIGHTS))
        raise ValueError(f"unknown weight {name!r}; known weights: {known}") from None


def method_names() -> Tuple[str, ...]:
    """Registered method names in registration order.

    Example
    -------
    >>> "gps" in method_names() and "triest" in method_names()
    True
    """
    return tuple(_METHODS)


def weight_names() -> Tuple[str, ...]:
    """Registered weight names in registration order.

    Example
    -------
    >>> weight_names()
    ('triangle', 'uniform', 'wedge')
    """
    return tuple(_WEIGHTS)


def method_specs() -> Tuple[MethodSpec, ...]:
    """Registered :class:`MethodSpec` values in registration order.

    Example
    -------
    >>> [s.name for s in method_specs()][:2]
    ['gps', 'gps-post']
    """
    return tuple(_METHODS.values())


def weight_specs() -> Tuple[WeightSpec, ...]:
    """Registered :class:`WeightSpec` values in registration order.

    Example
    -------
    >>> [s.name for s in weight_specs()]
    ['triangle', 'uniform', 'wedge']
    """
    return tuple(_WEIGHTS.values())


def _markdown_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def registry_markdown() -> str:
    """The method/weight catalog as Markdown, generated from the registry.

    This is the single source of ``docs/methods.md``:
    ``python -m repro methods --markdown`` emits it, a test (and a CI
    step) fails when the checked-in file drifts from the registry, so
    registering a method *is* documenting it.

    Example
    -------
    >>> "| gps " in registry_markdown()
    True
    """
    lines = [
        "# Method & weight catalog",
        "",
        "<!-- GENERATED FILE - DO NOT EDIT. -->",
        "<!-- Regenerate with: python -m repro methods --markdown > docs/methods.md -->",
        "",
        "Every method and weight the harness can drive, straight from the",
        "`repro.api.registry`. A registration carries the method's *budget*",
        "*interpretation* — how the paper's common memory budget `m` maps to",
        "its own parameterisation — so every entry below is runnable from",
        "`RunSpec`/`SweepSpec`, the CLI, and the replication pool with a",
        "matched budget.",
        "",
        "## Stream-sampling methods",
        "",
        "| name | weighted | budget ÷ stream length | description |",
        "|---|---|---|---|",
    ]
    for spec in method_specs():
        lines.append(
            "| {name} | {weighted} | {length} | {description} |".format(
                name=spec.name,
                weighted="yes" if spec.uses_weight else "no",
                length="yes" if spec.needs_stream_length else "no",
                description=_markdown_escape(spec.description),
            )
        )
    lines += [
        "",
        "`weighted` methods accept a `--weight` / `RunSpec.weight` from the",
        "table below; `budget ÷ stream length` marks probability-matched",
        "methods (`p = m/|K|`), which need the stream length up front, so",
        "the live service (`repro serve`), whose stream has no known",
        "length, rejects them.",
        "",
        "## Weight functions (GPS family)",
        "",
        "| name | description |",
        "|---|---|",
    ]
    for spec in weight_specs():
        lines.append(
            f"| {spec.name} | {_markdown_escape(spec.description)} |"
        )
    lines += [
        "",
        "Register your own with `@register_method(...)` /",
        "`@register_weight(...)` (see `docs/architecture.md`); it appears",
        "here, in `python -m repro methods`, and in every entry point at",
        "once.",
        "",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Built-in weights
# ----------------------------------------------------------------------
register_weight("triangle", description="W = 9·|△̂(k)| + 1, variance-optimal for triangles")(TriangleWeight)
register_weight("uniform", description="W ≡ 1: classic uniform reservoir sampling")(UniformWeight)
register_weight("wedge", description="W = deĝ(v1) + deĝ(v2) + 1, wedge-targeted")(WedgeWeight)


# ----------------------------------------------------------------------
# Built-in methods: the GPS family
# ----------------------------------------------------------------------
class GpsPostStreamAdapter:
    """Expose a bare GPS sampler through the counter protocol.

    ``triangle_estimate`` runs Algorithm 2 retrospectively over the
    current reservoir, so the adapter reports post-stream estimates at
    any point of the pass.  Works over either reservoir core (compact or
    object): Algorithm 2 reads the compact core's slots and the object
    core's records.
    """

    __slots__ = ("sampler",)

    def __init__(self, sampler: Any) -> None:
        self.sampler = sampler

    def process(self, u: Node, v: Node) -> None:
        self.sampler.process(u, v)

    def process_many(self, edges) -> int:
        return self.sampler.process_many(edges)

    @property
    def chunk_vectorized(self) -> bool:
        """Whether the wrapped core gates columnar blocks vectorised."""
        return getattr(self.sampler, "chunk_vectorized", False)

    def process_chunk(self, us, vs) -> int:
        """Columnar block pass-through (scalar adapter on the object core)."""
        process_chunk = getattr(self.sampler, "process_chunk", None)
        if process_chunk is not None:
            return process_chunk(us, vs)
        from repro.streams.chunks import pairs_from_columns

        return self.sampler.process_many(pairs_from_columns(us, vs))

    @property
    def triangle_estimate(self) -> float:
        return PostStreamEstimator(self.sampler).estimate().triangles.value


def _gps_shared_extract(counter: InStreamEstimator) -> Dict[str, float]:
    """The paper's shared-sample metric set: both flavours, one reservoir."""
    post = PostStreamEstimator(counter.sampler).estimate()
    return {
        "in_stream_triangles": counter.triangle_estimate,
        "post_stream_triangles": post.triangles.value,
        "in_stream_wedges": counter.wedge_estimate,
        "in_stream_clustering": counter.clustering_estimate,
    }


def _gps_shared_from_bundles(in_stream, post_stream) -> Dict[str, float]:
    return {
        "in_stream_triangles": in_stream.triangles.value,
        "post_stream_triangles": post_stream.triangles.value,
        "in_stream_wedges": in_stream.wedges.value,
        "in_stream_clustering": in_stream.clustering.value,
    }


def _gps_in_stream_extract(counter: InStreamEstimator) -> Dict[str, float]:
    return {
        "triangles": counter.triangle_estimate,
        "wedges": counter.wedge_estimate,
        "clustering": counter.clustering_estimate,
    }


def _gps_in_stream_from_bundles(in_stream, post_stream) -> Dict[str, float]:
    return {
        "triangles": in_stream.triangles.value,
        "wedges": in_stream.wedges.value,
        "clustering": in_stream.clustering.value,
    }


def _gps_post_from_bundles(in_stream, post_stream) -> Dict[str, float]:
    return {"triangles": post_stream.triangles.value}


@register_method(
    "gps",
    description="GPS shared-sample pass: in-stream and post-stream estimates "
    "from one reservoir (paper Sec. 6 protocol)",
    uses_weight=True,
    extract=_gps_shared_extract,
    from_bundles=_gps_shared_from_bundles,
    wants_post_stream=True,
    supports_core=True,
    reads_labels=False,
)
def _make_gps(budget, stream_length, seed, weight_fn=None, core=DEFAULT_CORE):
    return make_in_stream_estimator(
        budget, weight_fn=weight_fn, seed=seed, core=core
    )


@register_method(
    "gps-post",
    description="GPS with retrospective (Algorithm 2) estimation only",
    uses_weight=True,
    from_bundles=_gps_post_from_bundles,
    wants_post_stream=True,
    supports_core=True,
    reads_labels=False,
)
def _make_gps_post(budget, stream_length, seed, weight_fn=None,
                   core=DEFAULT_CORE):
    return GpsPostStreamAdapter(
        make_priority_sampler(budget, weight_fn=weight_fn, seed=seed,
                              core=core)
    )


@register_method(
    "gps-in-stream",
    description="GPS with in-stream (Algorithm 3) snapshot estimation",
    uses_weight=True,
    extract=_gps_in_stream_extract,
    from_bundles=_gps_in_stream_from_bundles,
    supports_core=True,
    reads_labels=False,
)
def _make_gps_in_stream(budget, stream_length, seed, weight_fn=None,
                        core=DEFAULT_CORE):
    return make_in_stream_estimator(
        budget, weight_fn=weight_fn, seed=seed, core=core
    )


# ----------------------------------------------------------------------
# Built-in methods: the baselines (budget matched the way the paper does)
# ----------------------------------------------------------------------
def _probability(budget: int, stream_length: int) -> float:
    return min(1.0, budget / max(1, stream_length))


@register_method(
    "triest",
    description="TRIEST-BASE uniform reservoir (De Stefani et al., KDD 2016)",
    reads_labels=False,
)
def _make_triest(budget, stream_length, seed):
    return TriestBase(budget, seed=seed)


@register_method(
    "triest-impr",
    description="TRIEST-IMPR: never-decremented weighted estimate",
    reads_labels=False,
)
def _make_triest_impr(budget, stream_length, seed):
    return TriestImpr(budget, seed=seed)


@register_method(
    "mascot",
    description="MASCOT local+global with p = budget/|K| (Lim & Kang, KDD 2015)",
    needs_stream_length=True,
    reads_labels=False,
)
def _make_mascot(budget, stream_length, seed):
    return Mascot(_probability(budget, stream_length), seed=seed)


@register_method(
    "mascot-c",
    description="MASCOT-C basic variant with p = budget/|K|",
    needs_stream_length=True,
    reads_labels=False,
)
def _make_mascot_c(budget, stream_length, seed):
    return MascotBasic(_probability(budget, stream_length), seed=seed)


@register_method(
    "nsamp",
    description="NSAMP r-estimator array (Pavan et al., VLDB 2013)",
    reads_labels=False,
)
def _make_nsamp(budget, stream_length, seed):
    return NeighborhoodSampling(budget, seed=seed)


@register_method(
    "jsp",
    description="Jha–Seshadhri–Pinar wedge sampling; half edges, half wedges",
    reads_labels=False,
)
def _make_jsp(budget, stream_length, seed):
    half = max(2, budget // 2)
    return JhaSeshadhriPinar(half, half, seed=seed)


@register_method(
    "gsh",
    description="Graph sample-and-hold gSH(p, 2p) with p = budget/|K| "
    "(Ahmed et al., KDD 2014)",
    needs_stream_length=True,
    reads_labels=False,
)
def _make_gsh(budget, stream_length, seed):
    # Hold-everything-adjacent explodes memory; use q = 2p capped at 1.
    p = _probability(budget, stream_length)
    return GraphSampleHold(p, min(1.0, 2 * p), seed=seed)


@register_method(
    "buriol",
    description="Buriol et al. estimator array adapted to the adjacency model",
    reads_labels=False,
)
def _make_buriol(budget, stream_length, seed):
    return BuriolSampler(budget, seed=seed)


def baseline_method_names() -> Tuple[str, ...]:
    """Registry-derived method set the comparison harnesses iterate.

    Every registered method except the shared-sample ``gps`` meta-entry
    (which reports both estimation flavours at once and is exercised by
    Table 1 and its own sweep cells).

    Example
    -------
    >>> "gps" not in baseline_method_names()
    True
    """
    return tuple(name for name in _METHODS if name != "gps")


__all__ = [
    "GpsPostStreamAdapter",
    "MethodSpec",
    "WeightSpec",
    "baseline_method_names",
    "get_method",
    "get_weight",
    "method_names",
    "method_specs",
    "register_method",
    "register_weight",
    "registry_markdown",
    "weight_names",
    "weight_specs",
]

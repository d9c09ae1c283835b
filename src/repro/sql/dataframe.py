"""The DataFrame API and SQL session.

A :class:`DataFrame` wraps a logical :class:`~repro.sql.plan.PlanNode`
and a :class:`SQLSession`; transformations
(``select``/``filter``/``group_by``/``agg``/``join``/``order_by``/
``limit``) build new plans lazily, and actions (``collect``/``count``)
optimize → compile → submit an ordinary engine job — so SQL queries get
fair-share pools, retries, critical-path tracing,
and cache policies with zero SQL-specific scheduler code.

The session is the query front door: it registers
:class:`~repro.sql.plan.Table` sources, parses SQL text
(:mod:`repro.sql.parser`), counts query outcomes (ground truth for the
``stark trace`` reconciliation row), and posts
``QueryPlanned``/``QueryCompleted``/``QueryFailed`` events.

Registry integration: ``df.to_rdd()`` is a plain RDD whose lineage
fingerprint covers the optimized plan (every columnar node describes
its expressions), so ``DatasetRegistry.register(tenant, name,
df.to_rdd())`` dedups two tenants' identical queries onto one cached
dataset exactly like row pipelines.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from ..columnar.batch import ColumnarBatch, Schema, normalize_schema
from ..columnar.rdd import batch_of
from ..obs.events import QueryCompleted, QueryFailed, QueryPlanned
from .compiler import CompileStats, compile_plan
from .expressions import AggSpec, Alias, Col, Expr
from .optimizer import OptimizerStats, optimize
from .plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    Table,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.rdd import RDD


class DataFrame:
    """A lazy, plan-backed, schema-checked columnar dataset."""

    def __init__(self, session: "SQLSession", plan: PlanNode) -> None:
        self.session = session
        self.plan = plan
        self._optimized: Optional[PlanNode] = None
        self._opt_stats: Optional[OptimizerStats] = None
        self._compile_stats: Optional[CompileStats] = None
        self._rdd: Optional["RDD"] = None
        self._cached = False

    # ---- schema ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.plan.schema()

    @property
    def columns(self) -> List[str]:
        return [name for name, _ in self.plan.schema()]

    # ---- transformations ---------------------------------------------------

    def _derive(self, plan: PlanNode) -> "DataFrame":
        return DataFrame(self.session, plan)

    def select(self, *items: Union[str, Expr, Alias]) -> "DataFrame":
        """Project columns/expressions; strings select by name, ``Expr``
        values need ``.alias(name)`` unless they are bare columns."""
        exprs: List[Tuple[str, Expr]] = []
        for i, item in enumerate(items):
            if isinstance(item, str):
                exprs.append((item, Col(item)))
            elif isinstance(item, Alias):
                exprs.append((item.name, item.expr))
            elif isinstance(item, Col):
                exprs.append((item.name, item))
            elif isinstance(item, Expr):
                exprs.append((f"col{i}", item))
            else:
                raise TypeError(f"cannot select {item!r}")
        return self._derive(Project(self.plan, exprs))

    def filter(self, predicate: Expr) -> "DataFrame":
        return self._derive(Filter(self.plan, predicate))

    where = filter

    def with_column(self, name: str, expr: Expr) -> "DataFrame":
        """Append (or replace) one computed column."""
        exprs = [(c, Col(c)) for c in self.columns if c != name]
        exprs.append((name, expr))
        return self._derive(Project(self.plan, exprs))

    def group_by(self, *keys: str) -> "GroupedData":
        return GroupedData(self, list(keys))

    def join(self, other: "DataFrame", on: Optional[str] = None,
             left_on: Optional[str] = None,
             right_on: Optional[str] = None) -> "DataFrame":
        """Inner equi-join (``on`` names one shared column, or give
        ``left_on``/``right_on``)."""
        if on is not None:
            left_on = right_on = on
        if left_on is None or right_on is None:
            raise ValueError("join needs on= or left_on=/right_on=")
        return self._derive(Join(self.plan, other.plan, left_on, right_on))

    def order_by(self, *by: Union[str, Tuple[str, bool]],
                 ascending: bool = True) -> "DataFrame":
        spec = [(b, ascending) if isinstance(b, str) else (b[0], bool(b[1]))
                for b in by]
        return self._derive(Sort(self.plan, spec))

    def limit(self, n: int) -> "DataFrame":
        return self._derive(Limit(self.plan, n))

    # ---- physical plan -----------------------------------------------------

    def to_rdd(self) -> "RDD":
        """The compiled (optimized) RDD — cacheable, registrable,
        joinable with hand-built columnar pipelines."""
        if self._rdd is None:
            self._optimized, self._opt_stats = optimize(self.plan)
            self._rdd, self._compile_stats = compile_plan(
                self._optimized, self.session.context)
            if self._cached:
                self._rdd.cache()
        return self._rdd

    def cache(self) -> "DataFrame":
        """Cache the query's result blocks (columnar batches occupy
        their raw byte size — no deserialization overhead factor)."""
        self._cached = True
        if self._rdd is not None:
            self._rdd.cache()
        return self

    def explain(self) -> str:
        """Logical plan, optimized plan, and rewrite counters."""
        self.to_rdd()
        assert self._optimized is not None
        opt, comp = self._opt_stats, self._compile_stats
        return "\n".join([
            "== logical ==", self.plan.pretty(),
            "== optimized ==", self._optimized.pretty(),
            f"== stats == pushed_filters={opt.pushed_filters} "
            f"pruned_columns={opt.pruned_columns} "
            f"exchanges={comp.exchanges} "
            f"elided_exchanges={comp.elided_exchanges}",
        ])

    # ---- actions -----------------------------------------------------------

    def collect(self) -> List[tuple]:
        """Run the query; returns row tuples in schema order."""
        return self.session.execute(self)

    def count(self) -> int:
        return self.session.execute(self, count_only=True)

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}:{k}" for n, k in self.schema)
        return f"DataFrame([{cols}])"


class GroupedData:
    """Intermediate of :meth:`DataFrame.group_by`."""

    def __init__(self, df: DataFrame, keys: List[str]) -> None:
        self.df = df
        self.keys = keys

    def agg(self, *specs: AggSpec, **named: Tuple[str, ...]) -> DataFrame:
        """Aggregate the groups.

        Positional arguments are :class:`AggSpec` instances; keyword
        arguments name the output: ``total=("sum", "v")``,
        ``n=("count",)``, ``m=("avg", "v")``.
        """
        aggs = list(specs)
        for alias, spec in named.items():
            op = spec[0]
            column = spec[1] if len(spec) > 1 and spec[1] != "*" else None
            aggs.append(AggSpec(op, column, alias))
        return self.df._derive(Aggregate(self.df.plan, self.keys, aggs))


class SQLSession:
    """Table catalogue + query executor for one context.

    Attaches itself as ``context.sql_session`` so the CLI reconciles
    plan events against the session's ground-truth counters, the same
    way ``context.dataset_service`` is discovered.
    """

    def __init__(self, context: "StarkContext") -> None:
        self.context = context
        self.tables: Dict[str, Table] = {}
        self._query_ids = itertools.count(1)
        #: Ground-truth counters (event-reconciliation row).
        self.queries_planned = 0
        self.queries_completed = 0
        self.queries_failed = 0
        context.sql_session = self

    # ---- catalogue ---------------------------------------------------------

    def create_table(self, name: str, schema: Sequence[Tuple[str, str]],
                     generator, num_partitions: int,
                     read_cost: str = "disk") -> Table:
        """Register a deterministic columnar source
        (``generator(pid) -> ColumnarBatch`` of ``schema``)."""
        table = Table(name, schema, generator, num_partitions, read_cost)
        self.tables[name] = table
        return table

    def from_rows(self, name: str, schema: Sequence[Tuple[str, str]],
                  rows: Sequence[tuple], num_partitions: int = 4,
                  read_cost: str = "none") -> Table:
        """Register driver-held rows as a table (contiguous slices)."""
        schema = normalize_schema(schema)
        rows = list(rows)
        per = (len(rows) + num_partitions - 1) // max(num_partitions, 1) or 1

        def generator(pid: int) -> ColumnarBatch:
            return ColumnarBatch.from_rows(
                schema, rows[pid * per:(pid + 1) * per])

        return self.create_table(name, schema, generator, num_partitions,
                                 read_cost=read_cost)

    def table(self, name: str) -> DataFrame:
        if name not in self.tables:
            raise KeyError(f"unknown table {name!r}; registered: "
                           f"{sorted(self.tables)}")
        return DataFrame(self, Scan(self.tables[name]))

    def sql(self, text: str) -> DataFrame:
        """Parse a ``SELECT`` statement into a DataFrame."""
        from .parser import parse_select

        return parse_select(self, text)

    # ---- execution ---------------------------------------------------------

    def execute(self, df: DataFrame, count_only: bool = False):
        """Optimize, compile, and run ``df``'s plan as an engine job."""
        context = self.context
        bus = context.event_bus
        query_id = next(self._query_ids)
        started = context.now
        try:
            rdd = df.to_rdd()
            assert df._optimized is not None
            self.queries_planned += 1
            if bus.active:
                opt, comp = df._opt_stats, df._compile_stats
                bus.post(QueryPlanned(
                    time=context.now, query_id=query_id,
                    description=df._optimized.describe(),
                    num_operators=df._optimized.num_operators(),
                    pushed_filters=opt.pushed_filters,
                    pruned_columns=opt.pruned_columns,
                    exchanges=comp.exchanges,
                    elided_exchanges=comp.elided_exchanges))
            schema = df._optimized.schema()
            if count_only:
                parts = context.run_job(
                    rdd, lambda records: batch_of(records, schema).num_rows,
                    description=f"sql:q{query_id}.count")
                result: object = sum(parts)
                rows = int(result)  # type: ignore[arg-type]
            else:
                parts = context.run_job(
                    rdd, lambda records: batch_of(records, schema).to_rows(),
                    description=f"sql:q{query_id}.collect")
                result = [row for part in parts for row in part]
                rows = len(result)
        except Exception as exc:
            # Planning failures count as planned too: the reconciliation
            # identity is planned == completed + failed.
            if df._optimized is None:
                self.queries_planned += 1
                if bus.active:
                    bus.post(QueryPlanned(
                        time=context.now, query_id=query_id,
                        description=df.plan.describe(),
                        num_operators=df.plan.num_operators(),
                        pushed_filters=0, pruned_columns=0,
                        exchanges=0, elided_exchanges=0))
            self.queries_failed += 1
            if bus.active:
                bus.post(QueryFailed(time=context.now, query_id=query_id,
                                     error=str(exc)))
            raise
        self.queries_completed += 1
        if bus.active:
            bus.post(QueryCompleted(
                time=context.now, query_id=query_id, rows=rows,
                duration=context.now - started))
        return result

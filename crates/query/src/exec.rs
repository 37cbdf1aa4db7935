//! Query execution: partial results, their merging and finalization.
//!
//! A LogStore query runs against several sources at once — the real-time
//! row store on each routed shard plus every pruned-in LogBlock on OSS.
//! Each source yields a [`Partial`] (collected by [`crate::plan`]); the
//! broker merges partials and finalizes (ordering, limiting, header
//! construction) once.
//!
//! Aggregation supports the paper's "lightweight BI" surface: `COUNT(*)`,
//! `COUNT/SUM/MIN/MAX/AVG(col)`, optionally per `GROUP BY` group, with
//! `ORDER BY COUNT(*)` top-k.

use crate::ast::{AggFunc, GroupKey, OrderKey, Query, SelectItem};
use logstore_logblock::scan::ScanStats;
use logstore_types::{Error, Result, TableSchema, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// `Value` wrapper ordered by [`Value::total_cmp`], usable as a BTreeMap key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Accumulator for one aggregate item. One state tracks everything the five
/// functions need; `finalize` extracts the requested statistic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggState {
    /// Rows counted (non-null values for `FUNC(col)`, all rows for
    /// `COUNT(*)`).
    pub count: u64,
    /// Numeric sum (i128 so mixes of extreme i64/u64 cannot overflow).
    pub sum: i128,
    /// Smallest value seen.
    pub min: Option<OrdValue>,
    /// Largest value seen.
    pub max: Option<OrdValue>,
}

impl AggState {
    /// Folds one cell in. `None` means the item is `COUNT(*)` (row-counted).
    pub fn update(&mut self, cell: Option<&Value>) {
        let Some(v) = cell else {
            self.count += 1;
            return;
        };
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(n) = v.as_i64() {
            self.sum += i128::from(n);
        } else if let Some(n) = v.as_u64() {
            self.sum += i128::from(n);
        }
        let wrapped = OrdValue(v.clone());
        if self.min.as_ref().is_none_or(|m| wrapped < *m) {
            self.min = Some(wrapped.clone());
        }
        if self.max.as_ref().is_none_or(|m| wrapped > *m) {
            self.max = Some(wrapped);
        }
    }

    /// Merges a peer accumulator (cross-source combination).
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = &other.min {
            if self.min.as_ref().is_none_or(|cur| m < cur) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_ref().is_none_or(|cur| m > cur) {
                self.max = Some(m.clone());
            }
        }
    }

    /// Extracts the requested statistic.
    pub fn finalize(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::U64(self.count),
            AggFunc::Sum => {
                Value::I64(self.sum.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64)
            }
            AggFunc::Min => self.min.clone().map_or(Value::Null, |v| v.0),
            AggFunc::Max => self.max.clone().map_or(Value::Null, |v| v.0),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::I64((self.sum / i128::from(self.count)) as i64)
                }
            }
        }
    }
}

/// A source's contribution to a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Partial {
    /// Non-aggregate: materialized rows in internal-column layout.
    Rows(Vec<Vec<Value>>),
    /// `GROUP BY g`: per-group accumulators, one per aggregate item.
    Groups(BTreeMap<OrdValue, Vec<AggState>>),
    /// Global aggregate (no GROUP BY): one accumulator per aggregate item.
    Agg(Vec<AggState>),
}

/// Execution counters aggregated across sources.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// Data-skipping scanner counters.
    pub scan: ScanStats,
    /// LogBlocks visited (after LogBlock-map pruning).
    pub blocks_visited: u64,
    /// Real-time rows scanned.
    pub realtime_rows_scanned: u64,
    /// Prefetch block fetches that failed (non-fatal: the scan falls back
    /// to demand reads; only demand-read failures abort a query).
    pub prefetch_errors: u64,
}

impl QueryStats {
    /// Accumulates another source's counters into this one. Every field is
    /// a sum, so merging is commutative — parallel scatter/gather merges
    /// per-source stats in any completion order and still reports exactly
    /// the totals a sequential run would.
    pub fn merge(&mut self, other: &QueryStats) {
        self.scan.merge(&other.scan);
        self.blocks_visited += other.blocks_visited;
        self.realtime_rows_scanned += other.realtime_rows_scanned;
        self.prefetch_errors += other.prefetch_errors;
    }
}

/// A finalized result set.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

/// The identity partial for a query's shape.
pub fn empty_partial(query: &Query) -> Partial {
    if query.is_aggregate() {
        if query.group_by.is_some() {
            Partial::Groups(BTreeMap::new())
        } else {
            Partial::Agg(vec![AggState::default(); query.aggregate_items().len()])
        }
    } else {
        Partial::Rows(Vec::new())
    }
}

/// The columns a source must materialize for a non-aggregate query:
/// expanded projection plus (if needed) the ORDER BY column appended at
/// the end. Returns `(names, order_col_extra)` where `order_col_extra`
/// flags that the last column exists only for sorting and is stripped at
/// finalize.
pub(crate) fn internal_columns(query: &Query, schema: &TableSchema) -> Result<(Vec<String>, bool)> {
    let mut cols: Vec<String> = Vec::new();
    for item in &query.projection {
        match item {
            SelectItem::AllColumns => cols.extend(schema.columns.iter().map(|c| c.name.clone())),
            SelectItem::Column(c) => cols.push(c.clone()),
            SelectItem::CountStar | SelectItem::Agg(..) | SelectItem::TimeBucket { .. } => {}
        }
    }
    let mut extra = false;
    if let Some(order) = &query.order_by {
        if let OrderKey::Column(c) = &order.key {
            if !cols.contains(c) {
                if schema.column(c).is_none() {
                    return Err(Error::Query(format!("unknown ORDER BY column '{c}'")));
                }
                cols.push(c.clone());
                extra = true;
            }
        }
    }
    Ok((cols, extra))
}

/// The distinct columns aggregation must read: group column first (if
/// any), then each aggregate argument. Returns `(column names,
/// per-agg-item index into the names, group key)`.
pub(crate) fn agg_columns(query: &Query) -> (Vec<String>, Vec<Option<usize>>, Option<GroupKey>) {
    let mut cols: Vec<String> = Vec::new();
    let mut push = |name: &str| -> usize {
        if let Some(i) = cols.iter().position(|c| c == name) {
            i
        } else {
            cols.push(name.to_string());
            cols.len() - 1
        }
    };
    let group = query.group_by.clone();
    if let Some(g) = &group {
        push(g.column());
    }
    let mut item_cols = Vec::new();
    for (_, col) in query.aggregate_items() {
        item_cols.push(col.as_deref().map(&mut push));
    }
    (cols, item_cols, group)
}

/// Maps a raw group-column value to its grouping key: identity for plain
/// `GROUP BY col`, bucket start (`v.div_euclid(w) * w`) for `TIMEBUCKET`.
/// NULL cells (and non-Int64 cells in a bucketed group) key the NULL group.
pub(crate) fn group_key_value(group: &GroupKey, v: &Value) -> Value {
    match group {
        GroupKey::Column(_) => v.clone(),
        GroupKey::TimeBucket { width_ms, .. } => match v {
            // `width_ms > 0` is enforced at parse/bind time; saturate the
            // (pathological, ts near i64::MIN) bucket-start overflow.
            Value::I64(ts) => Value::I64(ts.div_euclid(*width_ms).saturating_mul(*width_ms)),
            _ => Value::Null,
        },
    }
}

/// Merges partials from multiple sources. All partials must share the
/// query's shape.
pub fn merge_partials(partials: Vec<Partial>) -> Result<Partial> {
    let mut iter = partials.into_iter();
    let Some(mut acc) = iter.next() else {
        return Ok(Partial::Rows(Vec::new()));
    };
    for p in iter {
        match (&mut acc, p) {
            (Partial::Rows(a), Partial::Rows(b)) => a.extend(b),
            (Partial::Agg(a), Partial::Agg(b)) => {
                if a.len() != b.len() {
                    return Err(Error::Internal("aggregate arity mismatch".into()));
                }
                for (x, y) in a.iter_mut().zip(&b) {
                    x.merge(y);
                }
            }
            (Partial::Groups(a), Partial::Groups(b)) => {
                for (k, states) in b {
                    match a.entry(k) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(states);
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            for (x, y) in e.get_mut().iter_mut().zip(&states) {
                                x.merge(y);
                            }
                        }
                    }
                }
            }
            _ => return Err(Error::Internal("mismatched partial shapes".into())),
        }
    }
    Ok(acc)
}

/// Output header names in projection order.
fn output_columns(query: &Query, schema: &TableSchema) -> Vec<String> {
    let mut out = Vec::new();
    for item in &query.projection {
        match item {
            SelectItem::AllColumns => out.extend(schema.columns.iter().map(|c| c.name.clone())),
            SelectItem::Column(c) => out.push(c.clone()),
            SelectItem::CountStar => out.push("COUNT(*)".to_string()),
            SelectItem::Agg(func, c) => out.push(format!("{}({c})", func.name())),
            SelectItem::TimeBucket { column, width_ms } => {
                out.push(format!("TIMEBUCKET({column}, {width_ms})"))
            }
        }
    }
    out
}

/// Builds one output row from a group key + its finalized states following
/// the projection order.
fn project_agg_row(query: &Query, group_key: Option<&Value>, states: &[AggState]) -> Vec<Value> {
    let items = query.aggregate_items();
    let mut agg_idx = 0;
    let mut row = Vec::with_capacity(query.projection.len());
    for item in &query.projection {
        match item {
            SelectItem::Column(_) | SelectItem::AllColumns | SelectItem::TimeBucket { .. } => {
                // The group key is already bucket-transformed where needed.
                row.push(group_key.cloned().unwrap_or(Value::Null));
            }
            SelectItem::CountStar | SelectItem::Agg(..) => {
                let (func, _) = items[agg_idx];
                row.push(states[agg_idx].finalize(func));
                agg_idx += 1;
            }
        }
    }
    row
}

/// Finalizes a merged partial: ordering, limit, output header.
pub fn finalize(partial: Partial, query: &Query, schema: &TableSchema) -> Result<QueryResult> {
    match partial {
        Partial::Agg(states) => Ok(QueryResult {
            columns: output_columns(query, schema),
            rows: vec![project_agg_row(query, None, &states)],
        }),
        Partial::Groups(groups) => {
            let mut entries: Vec<(OrdValue, Vec<AggState>)> = groups.into_iter().collect();
            if let Some(order) = &query.order_by {
                match &order.key {
                    OrderKey::CountStar => {
                        let items = query.aggregate_items();
                        let count_idx = items
                            .iter()
                            .position(|(f, c)| *f == AggFunc::Count && c.is_none())
                            .ok_or_else(|| {
                                Error::Query(
                                    "ORDER BY COUNT(*) requires COUNT(*) in the projection".into(),
                                )
                            })?;
                        entries.sort_by_key(|(_, s)| s[count_idx].count);
                    }
                    OrderKey::Column(_) => {} // BTreeMap is already key-ordered
                }
                if order.descending {
                    entries.reverse();
                }
            }
            if let Some(limit) = query.limit {
                entries.truncate(limit);
            }
            Ok(QueryResult {
                columns: output_columns(query, schema),
                rows: entries
                    .into_iter()
                    .map(|(k, states)| project_agg_row(query, Some(&k.0), &states))
                    .collect(),
            })
        }
        Partial::Rows(mut rows) => {
            let (cols, extra) = internal_columns(query, schema)?;
            if let Some(order) = &query.order_by {
                if let OrderKey::Column(c) = &order.key {
                    let idx = cols
                        .iter()
                        .position(|x| x == c)
                        .ok_or_else(|| Error::Internal("order column missing".into()))?;
                    rows.sort_by(|a, b| a[idx].total_cmp(&b[idx]));
                    if order.descending {
                        rows.reverse();
                    }
                } else {
                    return Err(Error::Query("ORDER BY COUNT(*) without aggregation".into()));
                }
            }
            if let Some(limit) = query.limit {
                rows.truncate(limit);
            }
            let mut columns = cols;
            if extra {
                columns.pop();
                for row in &mut rows {
                    row.pop();
                }
            }
            Ok(QueryResult { columns, rows })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatched_partials_rejected() {
        let r =
            merge_partials(vec![Partial::Agg(vec![AggState::default()]), Partial::Rows(vec![])]);
        assert!(r.is_err());
        assert_eq!(merge_partials(vec![]).unwrap(), Partial::Rows(vec![]));
    }

    #[test]
    fn aggregate_states_merge_like_single_pass() {
        let cells: Vec<Value> = (0..90i64)
            .map(|i| if i % 9 == 0 { Value::Null } else { Value::I64((i * 13) % 100) })
            .collect();
        let (a, b) = cells.split_at(40);
        let mut one = AggState::default();
        for v in &cells {
            one.update(Some(v));
        }
        let mut left = AggState::default();
        for v in a {
            left.update(Some(v));
        }
        let mut right = AggState::default();
        for v in b {
            right.update(Some(v));
        }
        left.merge(&right);
        assert_eq!(left, one);
    }
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric. moves is, for a per-layer metric, the
// end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them (see README.md for what each one times on each
// workload).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "heap_mb", unit: "MB"},
	{name: "db_bytes_per_cell", unit: "B"},
	{name: "read_p50_ms", unit: "ms"},
	{name: "read_p99_ms", unit: "ms"},
	{name: "write_p50_ms", unit: "ms"},
	{name: "paste_p50_ms", unit: "ms"},
	{name: "struct_p50_ms", unit: "ms"},
	{name: "tick_return_p50_ms", unit: "ms"},
	{name: "converge_p50_ms", unit: "ms"},
	{name: "drain_p50_ms", unit: "ms"},
	{name: "load_p50_ms", unit: "ms"},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	{"serve.get_range_self_ms", "ms", "read_p50_ms on browse"},
	{"serve.wire_bytes_per_cell", "B", "read_p50_ms on browse"},
	{"serve.set_cells_self_ms", "ms", "paste_p50_ms on edit"},
	{"serve.stale_unflagged_cells", "count", "0 once get-range samples the mask first"},
	{"core.get_cells_ms", "ms", "read_p50_ms on browse"},
	{"core.set_cells_ms", "ms", "paste_p50_ms, write_p50_ms on edit"},
	{"core.struct_ms", "ms", "struct_p50_ms on edit"},
	{"core.formulas_rewritten_per_struct", "count", "struct_p50_ms on edit"},
	{"core.recalc_cells_per_tick", "count", "drain_p50_ms on tick"},
	{"core.recalc_self_ms", "ms", "drain_p50_ms on tick"},
	{"cache.hit_ratio", "ratio", "read_p99_ms on browse"},
	{"cache.misses_per_read", "count", "read_p99_ms on browse"},
	{"cache.evictions_per_read", "count", "read_p99_ms on browse"},
	{"model.get_cells_ms", "ms", "read_p99_ms on browse"},
	{"model.update_cells_ms", "ms", "paste_p50_ms on edit"},
	{"model.insert_rows_ms", "ms", "struct_p50_ms on edit"},
	{"model.storage_bytes_per_cell", "B", "db_bytes_per_cell on browse"},
	{"posmap.fetch_range_us", "us", "read_p99_ms on browse"},
	{"posmap.insert_many_us", "us", "struct_p50_ms on edit"},
	{"rdbms.pool_hit_ratio", "ratio", "read_p99_ms on browse"},
	{"rdbms.pages_read_per_read", "count", "read_p99_ms on browse"},
	{"rdbms.wal_syncs_per_write", "count", "write_p50_ms, paste_p50_ms on edit"},
	{"rdbms.wal_bytes_per_cell_written", "B", "write_p50_ms, paste_p50_ms on edit"},
	{"rdbms.checkpoint_pages_per_write", "count", "write_p50_ms, paste_p50_ms on edit"},
	{"rdbms.manifest_bytes_per_struct", "B", "struct_p50_ms on edit"},
	{"rdbms.dirty_pages_per_tick", "count", "drain_p50_ms on tick"},
	{"depgraph.reach_ms", "ms", "tick_return_p50_ms on tick"},
	{"depgraph.cone_ms", "ms", "converge_p50_ms, drain_p50_ms on tick"},
	{"formula.eval_us_per_cell", "us", "drain_p50_ms on tick"},
	{"formula.parse_us_per_cell", "us", "load_p50_ms on tick"},
	{"hybrid.decompose_ms", "ms", "setup_s on browse"},
}

// result collects what one run reports.
type result struct {
	attempted, failed int
	// problems are failed output checks; any makes the run incorrect.
	problems []string
	values   map[string]float64
	// samples counts the samples behind a timing metric.
	samples map[string]int
	// errs keeps the first operation errors for the report.
	errs []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

// op accounts one attempted operation and reports whether it succeeded.
func (r *result) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, err.Error())
		}
		return false
	}
	return true
}

// check records a failed output check.
func (r *result) check(err error) {
	if err != nil && len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setP50 reports a median in milliseconds.
func (r *result) setP50(name string, s []time.Duration) {
	r.values[name] = ms(quantile(s, 0.5))
	r.samples[name] = len(s)
}

// setP99 reports the 99th percentile in milliseconds. It needs at least
// ten samples beyond it; with fewer the run is misconfigured.
func (r *result) setP99(name string, s []time.Duration, smoke bool) error {
	if len(s) < 1000 && !smoke {
		return fmt.Errorf("%s: %d samples leave fewer than ten beyond the 99th percentile", name, len(s))
	}
	r.values[name] = ms(quantile(s, 0.99))
	r.samples[name] = len(s)
	return nil
}

// quantile returns the nearest-rank q-quantile of s (0 for no samples).
func quantile(s []time.Duration, q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

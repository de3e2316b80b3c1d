// Command perfbench runs one workload of the dataspread benchmark in this
// process and prints its metrics. Run it through run.py, which builds it
// from the checkout:
//
//	python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a traced run that times calls into each layer from this package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// procs is the fixed GOMAXPROCS of every run, so runs on machines with
// more cores schedule the same way.
const procs = 2

func main() {
	wl := flag.String("workload", "", "workload: browse, edit or tick")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "intended length of the measured phase; sets the fixed operation counts")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)

	run, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	tmp := filepath.Join(".bench_build", "tmp")
	err := os.MkdirAll(tmp, 0o755)
	dir := ""
	if err == nil {
		dir, err = os.MkdirTemp(tmp, *wl+"-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ev := newEnv(dir, *seed, *trace == 1)
	res, err := run(ev, *seconds, false)
	ev.close()
	if err == nil && ev.tr != nil {
		err = ev.tr.rec.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *wl, *seed)))
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s seed %d: GOMAXPROCS %d, %d CPUs, %s\n", *wl, *seed, procs, runtime.NumCPU(), runtime.Version())
	res.print(os.Stdout, ev.tr != nil)
	if err := res.emit(os.Stdout, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloads maps a workload name to its run function. smoke selects the
// small sizes the tests use.
var workloads = map[string]func(ev *env, seconds int, smoke bool) (*result, error){
	"browse": runBrowse,
	"edit":   runEdit,
	"tick":   runTick,
}

// emit prints the result line: the end-to-end metrics, or with layers the
// per-layer ones.
func (r *result) emit(f *os.File, layers bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if layers {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}

// print writes the human-readable table: every metric with its unit and
// sample count, and the check failures.
func (r *result) print(f *os.File, layers bool) {
	show := func(defs []metricDef) {
		for _, d := range defs {
			v, ok := r.values[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-36s %14.4f %-6s", d.name, v, d.unit)
			if n := r.samples[d.name]; n > 0 {
				line += fmt.Sprintf(" n=%d", n)
			}
			if d.moves != "" {
				line += "  -> " + d.moves
			}
			fmt.Fprintln(f, line)
		}
	}
	fmt.Fprintln(f, "end-to-end:")
	show(endToEnd)
	if layers {
		fmt.Fprintln(f, "per-layer:")
		show(perLayer)
	}
	fmt.Fprintf(f, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintln(f, "OPERATION FAILED:", e)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "CHECK FAILED:", p)
	}
}

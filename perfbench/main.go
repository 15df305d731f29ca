// Command perfbench is the repository's serving benchmark. It runs one
// seeded traffic mix through a fixed serving stack (serve or a 2-replica
// cluster with DAS, concat batching, the pipeline, refill, WFQ and the
// prefix cache all on), checks every output against the single-request
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer breakdown) as JSON on its last line of output.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload shared-prompt --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tcb/internal/tensor"
)

// maxLagMs invalidates a run whose open-loop generator sent its P99 request
// more than this late: a quarter of the 200 ms latency limit.
const maxLagMs = 50

// spansDir is where the traced run writes its spans, inside the build
// directory the wrapper script keeps out of version control.
const spansDir = ".bench_build/spans"

// runLimit stops a run that would overrun the benchmark's 180 s budget; the
// usual cause is a request that never got its outcome.
const runLimit = 170 * time.Second

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type stamp struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	InputsHash string   `json:"inputs_sha256"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	Kernel     string   `json:"kernel"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
	Phases     []string `json:"phases"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "traffic mix: paper-mix, shared-prompt, long-tail or tenant-flood")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds (lo + hi + slo ladder + sat)")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision to stamp the result with")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %v (seconds=%d)\n", err, *seconds)
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v: an outcome was lost or the stack hung\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	ps := splitSeconds(float64(*seconds), len(w.ladder))
	p, err := buildPlan(w, *seed, ps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st := stamp{
		Workload: w.name, Seed: *seed, InputsHash: p.hash, Commit: *commit,
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Kernel: tensor.ActiveKernel().String(),
		Seconds: *seconds, Trace: *trace == 1,
		Phases: []string{
			fmt.Sprintf("lo %.0f req/s %.1fs (%d requests)", w.loRPS, ps.lo, len(p.lo)),
			fmt.Sprintf("hi %.0f req/s %.1fs (%d requests)", w.hiRPS, ps.hi, len(p.hi)),
			fmt.Sprintf("slo ladder %v req/s %.1fs each", w.ladder, ps.rung),
			fmt.Sprintf("sat closed loop %d outstanding %.1fs", w.satOutstanding, ps.sat),
		},
	}

	var res *result
	if *trace == 1 {
		res, err = runTraced(w, p, ps, filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)))
	} else {
		res, err = runUntraced(w, p, ps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	sj, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", sj)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("attempted %d failed %d\n", res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// all returns every outcome of the run, warmup included.
func (r *runRecord) all() []*outcome {
	outs := append([]*outcome(nil), r.warmup...)
	for _, pr := range r.measured() {
		outs = append(outs, pr.outs...)
	}
	return outs
}

// finish drains the stack and runs the correctness gate over every outcome.
func finish(w *workloadDef, rec *runRecord, st *stack) error {
	st.drain()
	outs := rec.all()
	if err := checkDrained(st, outs); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	if err := checkOutputs(w, outs); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	if lag := generatorLag(rec); lag > maxLagMs {
		return fmt.Errorf("invalid run: open-loop generator lag P99 %.1f ms exceeds %d ms", lag, maxLagMs)
	}
	return nil
}

func runUntraced(w *workloadDef, p *plan, ps phaseSeconds) (*result, error) {
	t0 := time.Now()
	rec, st, err := runPhases(w, p, ps, nil)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := finish(w, rec, st); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: phases %.1fs, drain and gate %.1fs over %d outcomes, host steal %.1f%%\n",
		t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), len(rec.all()), rec.stealPct)
	attempted, failed := tally(rec)
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: endToEnd(rec)}, nil
}

// Command perfbench is the repository benchmark. It runs one workload
// through the public entry points of the campaign, dist and harness
// packages for a fixed number of seconds, checks every result for
// correctness, and prints one JSON line with the workload's metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond what setup_s needs. With --trace 1 the same
// workload runs alternately untraced and traced, and the metrics are the
// per-layer ones, taken by timing calls into each layer from this
// package, together with the tracing overhead. README.md lists the
// workloads and what every metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed at which the report digests are pinned.
const defaultSeed = 1

// minReps is the fewest repetitions a run makes, however short
// --seconds is: medians need at least three samples.
const minReps = 3

// rep is one repetition of a workload: entry call to verified result.
type rep struct {
	wall, setup float64 // seconds
	// trials counts the units of work completed: trials (on
	// stratified-ci, the trials spent until every benchmark stopped), or
	// fault-free runs on paper-sweep.
	trials int
	// attempted and failed count operations for fail_frac.
	attempted, failed int
	// rssMB is the process's peak resident set size during the rep.
	rssMB float64
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run (campaign, stratified-ci, fleet, paper-sweep)")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(parallelism())
	in := input{seed: *seed, size: fullSize, root: root}

	var res *result
	if *trace == 1 {
		res, err = runTraced(w, in, *seconds)
	} else {
		res, err = runPlain(w, in, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		if errors.Is(err, errMismatch) {
			// Wrong output: say so on the result line too, counting the
			// repetition that failed.
			fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		}
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runPlain repeats the workload untraced for seconds, starting no rep
// that the previous one's duration says would end past them, and
// reports the median of each end-to-end metric over the repetitions.
func runPlain(w *workload, in input, seconds float64) (*result, error) {
	var reps []rep
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for last := time.Duration(0); len(reps) < minReps || time.Now().Add(last).Before(deadline); {
		t0 := time.Now()
		r, err := runRep(w, in, nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s rep %d: wall %.3fs setup %.3fs trials %d rss %.1fMB\n",
			w.name, len(reps), r.wall, r.setup, r.trials, r.rssMB)
		reps = append(reps, r)
		last = time.Since(t0)
	}
	res := newResult(reps)
	col := func(f func(r rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	res.add("wall_s", "s", col(func(r rep) float64 { return r.wall }))
	res.add("setup_s", "s", col(func(r rep) float64 { return r.setup }))
	res.add("trials_per_s", "1/s", col(func(r rep) float64 { return float64(r.trials) / (r.wall - r.setup) }))
	res.add("trials_to_ci", "count", col(func(r rep) float64 { return float64(r.trials) }))
	res.add("peak_rss_mb", "MB", col(func(r rep) float64 { return r.rssMB }))
	return res, nil
}

func newResult(reps []rep) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	return res
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runRep runs one repetition from a settled process: the heap's free
// memory is returned to the OS and the kernel's peak-RSS mark is reset
// first, so every rep starts from the same state and its peak RSS
// covers that rep alone.
func runRep(w *workload, in input, tr *tracer) (rep, error) {
	debug.FreeOSMemory()
	// Where the mark cannot be reset, the peak covers the process so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	r, err := w.run(w, in, tr)
	if err != nil {
		return r, err
	}
	r.rssMB, err = peakRSSMB()
	return r, err
}

// peakRSSMB reads the peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// parallelism is the worker, connection and GOMAXPROCS count every
// workload uses: the host's CPUs, at most two.
func parallelism() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

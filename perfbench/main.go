// Command perfbench is the streamdex benchmark: it drives the program's
// own entry points on one named workload, checks every answer against
// oracles written apart from the program, and prints one JSON result line.
//
//	go run . --workload sim-table1 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run reports the per-layer metrics instead. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

var workloads = map[string]func(options) (*result, error){
	"sim-table1":    func(o options) (*result, error) { return runSim(simTable1, o) },
	"sim-query-ops": func(o options) (*result, error) { return runSim(simQueryOps, o) },
	"live-ingest":   runLive,
}

func main() {
	name := flag.String("workload", "", "workload name: sim-table1, sim-query-ops or live-ingest")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase, wall-clock seconds")
	trace := flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// The deployment runs on at most two processors, whatever the host.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	res, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// cpuNs returns the process's user plus system CPU time in ns.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// percentile returns the p-th percentile (0..100) of xs as the
// mid-distribution quantile (Parzen): the empirical CDF is taken at the
// middle of each run of tied values and interpolated linearly between
// them. On continuous samples this is the usual interpolated percentile;
// on the simulator's latencies, which are whole multiples of the hop
// delay, it still moves with the share of samples at each value instead
// of sticking to one of them. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	q := p / 100
	prevV, prevM := math.NaN(), 0.0
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		m := (float64(i) + float64(j-i)/2) / n
		if q <= m {
			if math.IsNaN(prevV) {
				return xs[i]
			}
			return prevV + (q-prevM)/(m-prevM)*(xs[i]-prevV)
		}
		prevV, prevM = xs[i], m
		i = j
	}
	return xs[len(xs)-1]
}

// lat is one latency sample: when its clock started and how long it took,
// in ns of the deployment's clock.
type lat struct{ start, d int64 }

// latSpec fixes how a workload reports its latencies: the tail percentile
// of each, and the window length (0: the whole phase) over which a run's
// figure is the median of per-window figures.
type latSpec struct {
	visTail, frTail float64
	visWin, frWin   int64
}

// latency reports the median and the fixed tail percentile of samples as
// milliseconds. With a window it computes both within each full window of
// the measured phase [from, to] and reports their medians, so a short
// disturbance moves one window, not the run. Every window must leave at
// least ten samples beyond the tail percentile. Sample counts go to
// standard error.
func latency(name string, samples []lat, tail float64, from, to, window int64) (p50, pt float64, err error) {
	if window <= 0 {
		window = to - from + 1
	}
	nw := int((to - from + 1) / window)
	if nw < 1 {
		return 0, 0, fmt.Errorf("%s: measured phase shorter than one %v window", name, time.Duration(window))
	}
	groups := make([][]float64, nw)
	for _, s := range samples {
		if w := int((s.start - from) / window); s.start >= from && w < nw {
			groups[w] = append(groups[w], float64(s.d)/1e6)
		}
	}
	var mids, tails []float64
	n := 0
	for _, xs := range groups {
		if beyond := float64(len(xs)) * (100 - tail) / 100; beyond < 10 {
			return 0, 0, fmt.Errorf("%s: a window of %d samples leaves %.1f beyond p%g, need 10", name, len(xs), beyond, tail)
		}
		n += len(xs)
		mids = append(mids, percentile(xs, 50))
		tails = append(tails, percentile(xs, tail))
	}
	p50, pt = median(mids), median(tails)
	fmt.Fprintf(os.Stderr, "%s: n=%d in %d window(s) p50=%.3fms p%g=%.3fms\n", name, n, nw, p50, tail, pt)
	return p50, pt, nil
}

// median of a small sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

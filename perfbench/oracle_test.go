package main

import (
	"math"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/query"
)

// plantedSeries builds a stream of n live points after a w-point prefill:
// a noiseless sinusoid with the given period in samples, phase and
// offset. A period of w puts all of its energy in DFT bin 1 (retained), a
// period of w/4 in bin 4 (discarded), so every feature is known by
// construction. Batch b closes at time b+1 (ns).
func plantedSeries(idx, w, beta, n int, period, phase, offset float64) *series {
	s := &series{idx: idx, beta: beta, prefill: w}
	for i := 0; i < w+n; i++ {
		s.vals = append(s.vals, offset+3*math.Sin(2*math.Pi*float64(i)/period+phase))
	}
	for b := 0; b < n/beta; b++ {
		s.closeAt = append(s.closeAt, int64(b+1))
	}
	return s
}

func TestFeatureOfPlantedSinusoids(t *testing.T) {
	const w = 64
	o := newOracle(w, 3)
	f := make([]float64, 3)
	for _, phase := range []float64{0, 0.3, 1.7, -2.5} {
		win := plantedSeries(0, w, 1, 0, w, phase, 10).vals
		o.feature(win, f)
		// Bin 1 of a unit-normalised sine: Z_1 = (sin φ - j cos φ)/√2.
		want := []float64{math.Sin(phase) / math.Sqrt2, -math.Cos(phase) / math.Sqrt2, 0}
		for d := range f {
			if math.Abs(f[d]-want[d]) > 1e-12 {
				t.Fatalf("bin-1 sine, phase %v: feature %v, want %v", phase, f, want)
			}
		}
		win = plantedSeries(0, w, 1, 0, w/2, phase, 10).vals
		o.feature(win, f)
		want = []float64{0, 0, math.Sin(phase) / math.Sqrt2}
		for d := range f {
			if math.Abs(f[d]-want[d]) > 1e-12 {
				t.Fatalf("bin-2 sine, phase %v: feature %v, want %v", phase, f, want)
			}
		}
		win = plantedSeries(0, w, 1, 0, w/4, phase, 10).vals
		o.feature(win, f)
		for d := range f {
			if math.Abs(f[d]) > 1e-12 {
				t.Fatalf("bin-4 sine, phase %v: feature %v, want zero", phase, f)
			}
		}
	}
}

// TestSimilarityOracle plants one stream whose energy sits in a retained
// bin (feature norm 1/√2 at every instant) and one in a discarded bin
// (feature identically zero). A query for the zero vector with radius 0.3
// must be answered with every batch of the second stream and none of the
// first; the oracle must accept exactly that answer and flag each way of
// getting it wrong.
func TestSimilarityOracle(t *testing.T) {
	const w, beta, n = 64, 4, 64
	in := plantedSeries(0, w, beta, n, w, 0.4, 10)
	out := plantedSeries(1, w, beta, n, w/4, 0.4, 10)
	all := []*series{in, out}
	o := newOracle(w, 3)
	bs := newBatchSet(o, len(all))
	bs.build(all, 0, math.MaxInt64)
	win := bs.inWindow(all, 0, math.MaxInt64)
	if len(win) != 2*n/beta {
		t.Fatalf("%d batches, want %d", len(win), 2*n/beta)
	}
	for _, b := range win {
		d := b.trueDist([]float64{0, 0, 0})
		if (b.stream == 0) != (math.Abs(d-1/math.Sqrt2) < 1e-9) || (b.stream == 1) != (d < 1e-9) {
			t.Fatalf("stream %d batch %d: true distance %v", b.stream, b.seq, d)
		}
		if md := b.minDist([]float64{0, 0, 0}); md > d+1e-12 {
			t.Fatalf("box distance %v above true distance %v", md, d)
		}
	}
	rg := newRing(dht.NewSpace(32), []dht.Key{1 << 30, 3 << 30})
	tm := timing{push: 1, hop: 0, slack: 0}
	answer := func() *simQ {
		q := newSimQ(0, 1, []float64{0, 0, 0}, 0.3, -100, 1000)
		for seq := 0; seq < n/beta; seq++ {
			q.onReport(map[string]int{"s1": 1}, []query.Match{{StreamID: "s1", Seq: uint64(seq)}}, 0)
		}
		q.index()
		return q
	}
	run := func(q *simQ) checker {
		var c checker
		checkSimilarity(&c, rg, []*simQ{q}, bs, all, win, tm, 1000)
		return c
	}
	if c := run(answer()); c.failed != 0 || c.attempted == 0 {
		t.Fatalf("exact answer: %d of %d checks failed", c.failed, c.attempted)
	}
	q := answer()
	delete(q.first, mbrKey{1, 3})
	delete(q.dist, mbrKey{1, 3})
	if c := run(q); c.failed != 1 {
		t.Fatalf("a dismissed batch: %d failed, want 1", c.failed)
	}
	q = answer()
	q.first[mbrKey{1, 99}], q.dist[mbrKey{1, 99}] = 0, 0
	if c := run(q); c.failed != 1 {
		t.Fatalf("a phantom batch: %d failed, want 1", c.failed)
	}
	q = answer()
	q.first[mbrKey{0, 2}], q.dist[mbrKey{0, 2}] = 0, 0.1 // true distance 0.707
	if c := run(q); c.failed != 0 {
		t.Fatalf("a candidate with a valid lower bound: %d failed, want 0", c.failed)
	}
	q.dist[mbrKey{0, 2}] = 0.5
	if c := run(q); c.failed != 1 {
		t.Fatalf("a lower bound above the radius: %d failed, want 1", c.failed)
	}
}

func TestRingCover(t *testing.T) {
	rg := newRing(dht.NewSpace(8), []dht.Key{200, 10, 100})
	for _, tc := range []struct {
		lo, hi dht.Key
		want   []int
	}{
		{0, 5, []int{0}},            // below the lowest id: its successor
		{11, 50, []int{1}},          // inside one interval
		{10, 100, []int{0, 1}},      // ends on ids
		{50, 150, []int{1, 2}},      // spans a boundary
		{201, 255, []int{0}},        // past the highest id: wraps to the lowest
		{150, 255, []int{2, 0}},     // runs past the highest id
		{5, 250, []int{0, 1, 2, 0}}, // the whole ring: the lowest node twice
	} {
		got := rg.cover(tc.lo, tc.hi)
		if len(got) != len(tc.want) {
			t.Fatalf("cover(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("cover(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
			}
		}
	}
}

func TestPercentileOnTies(t *testing.T) {
	// Continuous samples: the usual interpolated median.
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
	// 40% at 250, 35% at 300, 25% at 350: mid-CDF points 0.2, 0.575 and
	// 0.875, so the median interpolates to 250 + (0.3/0.375)*50 = 290.
	var xs []float64
	for i := 0; i < 40; i++ {
		xs = append(xs, 250)
	}
	for i := 0; i < 35; i++ {
		xs = append(xs, 300)
	}
	for i := 0; i < 25; i++ {
		xs = append(xs, 350)
	}
	if got := percentile(xs, 50); math.Abs(got-290) > 1e-9 {
		t.Fatalf("median of tied samples = %v, want 290", got)
	}
}

package main

// The similarity oracle. It is written apart from internal/dsp and
// internal/core: features come from a direct O(W·k) DFT of the benchmark's
// own copy of each series, batch boxes from those features, and answers
// from a brute-force scan of every (query, batch) pair.

import (
	"math"
	"runtime"
	"sync"
)

// featTol is the float tolerance between the program's incrementally
// maintained features and the oracle's direct ones (the sliding DFT drifts
// by up to ~1e-9 between its exact recomputations); box and radius
// comparisons within it of a boundary are not judged.
const featTol = 1e-6

// oracle computes z-normalised unitary DFT features of W-point windows:
// coordinates are Re Z_1, Im Z_1, Re Z_2, Im Z_2 (the DC term of a
// z-normalised window is zero and is not a coordinate), truncated to dims.
type oracle struct {
	w, dims int
	// cosH[i] = cos(2πhi/W)/√W and sinH likewise, for bins h = 1, 2.
	cos1, sin1, cos2, sin2 []float64
}

func newOracle(w, dims int) *oracle {
	if dims > 4 {
		panic("perfbench: the oracle keeps two DFT bins, at most 4 feature dims")
	}
	o := &oracle{w: w, dims: dims}
	scale := 1 / math.Sqrt(float64(w))
	tab := func(h int) (c, s []float64) {
		c, s = make([]float64, w), make([]float64, w)
		for i := range c {
			a := 2 * math.Pi * float64(h) * float64(i) / float64(w)
			c[i] = math.Cos(a) * scale
			s[i] = math.Sin(a) * scale
		}
		return c, s
	}
	o.cos1, o.sin1 = tab(1)
	o.cos2, o.sin2 = tab(2)
	return o
}

// feature writes the feature of window win (oldest first, len W) to out by
// the DFT's definition, X_h = Σ x_i e^{-2πjhi/W} / √W, divided by the
// window's centred norm. One pass accumulates the moments and both bins;
// for h >= 1 the bins of the raw and the mean-centred window are equal,
// so the window is not centred first.
func (o *oracle) feature(win []float64, out []float64) {
	n := len(win)
	c1, s1, c2, s2 := o.cos1[:n], o.sin1[:n], o.cos2[:n], o.sin2[:n]
	var sum, sumsq, re1, im1, re2, im2 float64
	for i, v := range win {
		sum += v
		sumsq += v * v
		re1 += v * c1[i]
		im1 -= v * s1[i]
		re2 += v * c2[i]
		im2 -= v * s2[i]
	}
	cn := math.Sqrt(math.Max(sumsq-sum*sum/float64(n), 0))
	all := [4]float64{re1, im1, re2, im2}
	for d := range out {
		out[d] = 0
		if cn > 0 {
			out[d] = all[d] / cn
		}
	}
}

// batch is one β-batch of a stream as the oracle sees it.
type batch struct {
	stream, seq int
	closeAt     int64     // clock (ns) at the pull of its last point
	lo, hi      []float64 // bounding box of its features
	feats       []float64 // β features, dims each
}

// minDist is the distance from q to the batch's box.
func (b *batch) minDist(q []float64) float64 {
	var sum float64
	for d, v := range q {
		switch {
		case v < b.lo[d]:
			sum += (b.lo[d] - v) * (b.lo[d] - v)
		case v > b.hi[d]:
			sum += (v - b.hi[d]) * (v - b.hi[d])
		}
	}
	return math.Sqrt(sum)
}

// trueDist is the distance from q to the nearest feature in the batch.
func (b *batch) trueDist(q []float64) float64 {
	best := math.Inf(1)
	dims := len(q)
	for i := 0; i+dims <= len(b.feats); i += dims {
		var sum float64
		for d, v := range q {
			diff := b.feats[i+d] - v
			sum += diff * diff
		}
		if sum < best {
			best = sum
		}
	}
	return math.Sqrt(best)
}

// overlaps reports whether the box intersects [lo, hi], and whether the
// answer is within featTol of flipping.
func (b *batch) overlaps(lo, hi []float64) (yes, close bool) {
	yes = true
	for d := range lo {
		if b.hi[d] < lo[d] || b.lo[d] > hi[d] {
			yes = false
		}
		if math.Abs(b.hi[d]-lo[d]) < featTol || math.Abs(b.lo[d]-hi[d]) < featTol {
			close = true
		}
	}
	return yes, close
}

// makeBatch computes batch seq of s.
func (o *oracle) makeBatch(s *series, seq int) *batch {
	dims := o.dims
	b := &batch{
		stream:  s.idx,
		seq:     seq,
		closeAt: s.closeAt[seq],
		lo:      make([]float64, dims),
		hi:      make([]float64, dims),
		feats:   make([]float64, s.beta*dims),
	}
	end := s.batchEnd(seq)
	for j := 0; j < s.beta; j++ {
		last := end - s.beta + 1 + j
		f := b.feats[j*dims : (j+1)*dims]
		o.feature(s.vals[last-o.w+1:last+1], f)
		for d, v := range f {
			if j == 0 || v < b.lo[d] {
				b.lo[d] = v
			}
			if j == 0 || v > b.hi[d] {
				b.hi[d] = v
			}
		}
	}
	return b
}

// batchSet holds the oracle's batches, keyed by stream and sequence.
type batchSet struct {
	o  *oracle
	by []map[int]*batch
}

func newBatchSet(o *oracle, streams int) *batchSet {
	bs := &batchSet{o: o, by: make([]map[int]*batch, streams)}
	for i := range bs.by {
		bs.by[i] = make(map[int]*batch)
	}
	return bs
}

// build computes, in parallel over streams, every batch of each series
// whose close time lies in [from, to].
func (bs *batchSet) build(all []*series, from, to int64) {
	jobs := make(chan *series)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				m := bs.by[s.idx]
				for seq, at := range s.closeAt {
					if at >= from && at <= to {
						m[seq] = bs.o.makeBatch(s, seq)
					}
				}
			}
		}()
	}
	for _, s := range all {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
}

// get returns batch seq of s, computing it on demand; nil if the stream
// never closed that batch.
func (bs *batchSet) get(s *series, seq int) *batch {
	if seq < 0 || seq >= len(s.closeAt) {
		return nil
	}
	if b := bs.by[s.idx][seq]; b != nil {
		return b
	}
	b := bs.o.makeBatch(s, seq)
	bs.by[s.idx][seq] = b
	return b
}

// inWindow lists the batches of every series with close time in [from, to].
func (bs *batchSet) inWindow(all []*series, from, to int64) []*batch {
	var out []*batch
	for _, s := range all {
		for seq, at := range s.closeAt {
			if at >= from && at <= to {
				out = append(out, bs.get(s, seq))
			}
		}
	}
	return out
}

package main

import (
	"sort"
	"sync"
	"time"

	"streamdex/internal/core"
	"streamdex/internal/dht"
)

// epoch anchors every wall-clock reading of the benchmark.
var epoch = time.Now()

// nanotime is monotonic wall time since epoch, in ns.
func nanotime() int64 { return int64(time.Since(epoch)) }

// delivery is one MBR arrival at a node, as the observer saw it.
type delivery struct {
	stream, seq, node int32
	at                int64
}

// mbrKey identifies an MBR.
type mbrKey struct{ stream, seq int32 }

// recorder is the dht.Observer the benchmark installs in front of the
// program's traffic collector on one substrate (the whole simulator, or
// one live node, whose transport serialises observer calls). It counts
// every transmission and keeps every MBR delivery; traced runs also time
// the collector calls and keep a sample of messages and routed keys for
// replay.
type recorder struct {
	// mu orders the callbacks with the benchmark's reads of the counters
	// while a live node runs.
	mu        sync.Mutex
	inner     dht.Observer
	now       func() int64 // the deployment's clock, ns
	nodeIdx   map[dht.Key]int
	streamIdx map[string]int
	trace     bool

	msgs, bytes  [256]int64 // transmissions and wire bytes by kind
	hopSum, hopN [256]int64 // hops of delivered messages by kind
	delivs       []delivery
	seen         [][]bool // [stream][seq]: box already logged
	boxLog       []boxRec // program's box of each MBR, at its first delivery

	// Traced runs only.
	obsNs  int64          // time inside the collector's callbacks
	sample []*dht.Message // every sampleEvery-th transmission
	routed []routedKey    // routed hops for next-hop replay
	nTx    int64
	spans  spanSet
}

type routedKey struct {
	from dht.Key
	key  dht.Key
}

// sampleEvery thins the transmissions kept for the wire replay; maxKeep
// bounds both replay logs.
const (
	sampleEvery = 7
	maxKeep     = 20000
)

func newRecorder(inner dht.Observer, now func() int64, nodeIdx map[dht.Key]int, streamIdx map[string]int, trace bool) *recorder {
	return &recorder{
		inner:     inner,
		now:       now,
		nodeIdx:   nodeIdx,
		streamIdx: streamIdx,
		trace:     trace,
		seen:      make([][]bool, len(streamIdx)),
		spans:     newSpanSet(),
	}
}

// OnTransmit implements dht.Observer.
func (r *recorder) OnTransmit(from, to dht.Key, msg *dht.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs[msg.Kind]++
	r.bytes[msg.Kind] += int64(msg.Bytes)
	if !r.trace {
		r.inner.OnTransmit(from, to, msg)
		return
	}
	t0 := nanotime()
	r.inner.OnTransmit(from, to, msg)
	r.obsNs += nanotime() - t0
	r.nTx++
	if r.nTx%sampleEvery == 0 && len(r.sample) < maxKeep {
		c := msg.Clone()
		r.sample = append(r.sample, c)
	}
	if !msg.HasRange || msg.Dir == 0 {
		if len(r.routed) < maxKeep {
			r.routed = append(r.routed, routedKey{from, msg.Key})
		}
	}
}

// OnDeliver implements dht.Observer.
func (r *recorder) OnDeliver(at dht.Key, msg *dht.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hopSum[msg.Kind] += int64(msg.Hops)
	r.hopN[msg.Kind]++
	if msg.Kind == core.KindMBR {
		b := msg.Payload.(core.MBRUpdate).MBR
		k := mbrKey{int32(r.streamIdx[b.StreamID]), int32(b.Seq)}
		r.delivs = append(r.delivs, delivery{k.stream, k.seq, int32(r.nodeIdx[at]), r.now()})
		seen := r.seen[k.stream]
		for len(seen) <= int(k.seq) {
			seen = append(seen, false)
		}
		r.seen[k.stream] = seen
		if !seen[k.seq] {
			seen[k.seq] = true
			br := boxRec{k: k, dims: len(b.Lo)}
			copy(br.lo[:], b.Lo)
			copy(br.hi[:], b.Hi)
			r.boxLog = append(r.boxLog, br)
		}
	}
	if !r.trace {
		r.inner.OnDeliver(at, msg)
		return
	}
	t0 := nanotime()
	r.inner.OnDeliver(at, msg)
	r.obsNs += nanotime() - t0
}

// appSpan wraps a node's dht.App so traced runs time every upcall by
// message kind. It forwards the concurrent data-plane path too, so the
// live node keeps its worker-pool behaviour.
type appSpan struct {
	inner dht.App
	spans *spanSet
}

func (a *appSpan) Deliver(self dht.Key, msg *dht.Message) {
	t0 := nanotime()
	a.inner.Deliver(self, msg)
	a.spans.add(msg.Kind, nanotime()-t0)
}

func (a *appSpan) DeliverData(self dht.Key, msg *dht.Message) bool {
	ca, ok := a.inner.(dht.ConcurrentApp)
	if !ok {
		return false
	}
	t0 := nanotime()
	done := ca.DeliverData(self, msg)
	if done {
		a.spans.add(msg.Kind, nanotime()-t0)
	}
	return done
}

// spanSet keeps upcall durations by message kind. Safe for concurrent use.
type spanSet struct {
	mu sync.Mutex
	ns map[dht.Kind][]int64
}

func newSpanSet() spanSet { return spanSet{ns: make(map[dht.Kind][]int64)} }

func (s *spanSet) add(k dht.Kind, d int64) {
	s.mu.Lock()
	if v := s.ns[k]; len(v) < 200000 {
		s.ns[k] = append(v, d)
	}
	s.mu.Unlock()
}

// merge folds o into s.
func (s *spanSet) merge(o *spanSet) {
	for k, v := range o.ns {
		s.ns[k] = append(s.ns[k], v...)
	}
}

// p50 returns the median duration in ns over the given kinds (0 if none).
func (s *spanSet) p50(kinds ...dht.Kind) float64 {
	var all []int64
	for _, k := range kinds {
		all = append(all, s.ns[k]...)
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return float64(all[len(all)/2])
}

// bookkeeping estimates the heap bytes the recorder's logs hold.
func (r *recorder) bookkeeping() int64 {
	n := int64(cap(r.delivs))*24 + int64(cap(r.boxLog))*80
	for _, s := range r.seen {
		n += int64(cap(s))
	}
	return n
}

// boxRec is the program's box of one MBR (at most 4 feature dims).
type boxRec struct {
	k      mbrKey
	dims   int
	lo, hi [4]float64
}

// boxMap indexes the recorders' logged boxes by MBR.
func boxMap(rs ...*recorder) map[mbrKey][2][]float64 {
	m := make(map[mbrKey][2][]float64)
	for _, r := range rs {
		for i := range r.boxLog {
			b := &r.boxLog[i]
			if _, ok := m[b.k]; !ok {
				m[b.k] = [2][]float64{b.lo[:b.dims], b.hi[:b.dims]}
			}
		}
	}
	return m
}

package main

// The traced run. Layer times come from spans in the benchmark's own code
// — around the upcalls and observer hooks it installs as wrappers, around
// the generators it hands the program, and around replays of items
// captured at layer boundaries through each layer's public functions.
// Counts come from the counters the program already exposes.

import (
	"fmt"
	"os"
	"sort"
	"time"

	"streamdex/internal/core"
	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
	"streamdex/internal/wire"
)

// recSnap is a copy of a recorder's counters.
type recSnap struct {
	msgs, bytes  [256]int64
	hopSum, hopN [256]int64
	delivs       int64
	obsNs        int64
}

func (r *recorder) snap() recSnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return recSnap{msgs: r.msgs, bytes: r.bytes, hopSum: r.hopSum, hopN: r.hopN,
		delivs: int64(len(r.delivs)), obsNs: r.obsNs}
}

// add returns s + sign*o.
func (s recSnap) add(o recSnap, sign int64) recSnap {
	for k := range s.msgs {
		s.msgs[k] += sign * o.msgs[k]
		s.bytes[k] += sign * o.bytes[k]
		s.hopSum[k] += sign * o.hopSum[k]
		s.hopN[k] += sign * o.hopN[k]
	}
	s.delivs += sign * o.delivs
	s.obsNs += sign * o.obsNs
	return s
}

// totals returns the transmissions and their wire bytes over all kinds.
func (s recSnap) totals() (msgs, bytes int64) {
	for k := range s.msgs {
		msgs += s.msgs[k]
		bytes += s.bytes[k]
	}
	return msgs, bytes
}

func sumSnaps(rs []*recorder) recSnap {
	var s recSnap
	for _, r := range rs {
		s = s.add(r.snap(), 1)
	}
	return s
}

// layers accumulates the per-layer metrics of a traced run.
type layers map[string]metric

func (l layers) set(name, unit string, v float64) { l[name] = metric{Value: v, Unit: unit} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hopMean(s recSnap, k dht.Kind) float64 { return ratio(float64(s.hopSum[k]), float64(s.hopN[k])) }

// perLayerNames lists every per-layer metric, so a workload where a layer
// does not run still reports it (as 0).
var perLayerNames = map[string]string{
	"dsp.push_ns_per_point": "ns", "summary.batch_ns_per_feature": "ns", "summary.mbrs_per_kpoint": "count",
	"clock.tick_lag_us_p50": "us", "clock.loop_posts_per_point": "count", "clock.loop_blocked_ms": "ms/s",
	"wire.encode_ns_per_msg": "ns", "wire.decode_ns_per_msg": "ns", "wire.bytes_per_msg": "bytes",
	"wire.arena_refills_per_kmsg": "count", "transport.frames_per_flush": "count",
	"transport.pool_inline_per_kmsg": "count", "transport.pool_blocked_ms": "ms/s",
	"overlay.hops_mbr": "hops", "overlay.hops_query": "hops", "overlay.hops_response": "hops",
	"overlay.nexthop_ns": "ns", "overlay.maint_msgs_per_node_s": "1/s",
	"dht.range_deliveries_per_mbr": "count", "dht.range_last_delivery_ms": "ms",
	"dht.query_range_msgs_per_query": "msgs",
	"core.store_put_ns":              "ns", "core.store_cow_copied_per_put": "count", "core.store_merges_per_s": "1/s",
	"core.sweep_ms_per_s": "ms/s", "core.store_walk_ns": "ns", "core.entries_scanned_per_walk": "count",
	"core.deliver_us_p50_mbr": "us", "core.deliver_us_p50_query": "us", "core.deliver_us_p50_notify": "us",
	"core.deliver_us_p50_response": "us", "core.candidates_per_mbr": "count", "core.true_match_ratio": "ratio",
	"core.notify_relay_hops": "hops", "core.responses_per_s": "1/s",
	"cqe.deliver_us_p50": "us", "cqe.fold_ns_per_reply": "ns", "cqe.sub_pushes_per_s": "1/s",
	"sim.events_per_point": "count", "sim.ns_per_event": "ns",
	"metrics.observer_ns_per_msg": "ns",
	"go.alloc_bytes_per_point":    "bytes", "go.allocs_per_point": "count", "go.gc_cpu_ms_per_s": "ms/s",
	"trace.overhead_pct": "%",
}

func newLayers() layers {
	l := layers{}
	for n, u := range perLayerNames {
		l.set(n, u, 0)
	}
	return l
}

// common fills the metrics every deployment reports the same way.
// traced is the traced measured phase; plain the untraced one of the same
// deployment shape; secs is the deployment-clock length of the traced phase.
func (l layers) common(traced, plain measured, all []*series, delivs []delivery, spans *spanSet, secs float64) {
	pts := float64(traced.points)
	s := traced.rec
	var mbrs float64
	var last []float64
	lastAt := make(map[mbrKey]int64)
	for _, dv := range delivs {
		k := mbrKey{dv.stream, dv.seq}
		if dv.at > lastAt[k] {
			lastAt[k] = dv.at
		}
	}
	for _, se := range all {
		for seq, at := range se.closeAt {
			if at >= traced.from && at <= traced.to {
				mbrs++
				if la, ok := lastAt[mbrKey{int32(se.idx), int32(seq)}]; ok {
					last = append(last, float64(la-at)/1e6)
				}
			}
		}
	}
	l.set("summary.mbrs_per_kpoint", "count", ratio(mbrs*1000, pts))
	l.set("wire.bytes_per_msg", "bytes", ratio(float64(traced.bytes), float64(traced.msgs)))
	l.set("overlay.hops_mbr", "hops", hopMean(s, core.KindMBR))
	l.set("overlay.hops_query", "hops", hopMean(s, core.KindQuery))
	l.set("overlay.hops_response", "hops", hopMean(s, core.KindResponse))
	l.set("overlay.maint_msgs_per_node_s", "1/s", 0)
	l.set("dht.range_deliveries_per_mbr", "count", ratio(float64(s.hopN[core.KindMBR]), mbrs))
	if len(last) > 0 {
		l.set("dht.range_last_delivery_ms", "ms", percentile(last, 50))
	}
	l.set("core.deliver_us_p50_mbr", "us", spans.p50(core.KindMBR)/1e3)
	l.set("core.deliver_us_p50_query", "us", spans.p50(core.KindQuery)/1e3)
	l.set("core.deliver_us_p50_notify", "us", spans.p50(core.KindNotify)/1e3)
	l.set("core.deliver_us_p50_response", "us", spans.p50(core.KindResponse)/1e3)
	l.set("cqe.deliver_us_p50", "us", spans.p50(core.KindSketch, core.KindSub, core.KindSubMatch,
		core.KindAggQuery, core.KindAggReply, core.KindTopK, core.KindTopKReport)/1e3)
	l.set("cqe.sub_pushes_per_s", "1/s", ratio(float64(s.msgs[core.KindSubMatch]), secs))
	l.set("metrics.observer_ns_per_msg", "ns", ratio(float64(s.obsNs), float64(traced.msgs)))
	ppts := float64(plain.points)
	l.set("go.alloc_bytes_per_point", "bytes", ratio(float64(plain.allocB), ppts))
	l.set("go.allocs_per_point", "count", ratio(float64(plain.allocs), ppts))
	l.set("go.gc_cpu_ms_per_s", "ms/s", ratio(plain.gcCPU*1e3, plain.wall))
	tc := ratio(float64(traced.cpu), pts)
	pc := ratio(float64(plain.cpu), ppts)
	l.set("trace.overhead_pct", "%", 100*ratio(tc-pc, pc))
	fmt.Fprintf(os.Stderr, "tracing overhead: traced %.3f us/point, untraced %.3f us/point\n", tc/1e3, pc/1e3)
}

// queryLayers fills the similarity-path metrics from the client answers.
func (l layers) queryLayers(rg *ring, qs []*simQ, all []*series, m measured, candidates, confirmed int64, secs float64, msgs recSnap) {
	var mbrs, cand, relay, relayN, resp float64
	for _, se := range all {
		for _, at := range se.closeAt {
			if at >= m.from && at <= m.to {
				mbrs++
			}
		}
	}
	var posted float64
	for _, q := range qs {
		if q.posted >= m.from && q.posted <= m.to {
			posted++
		}
		q.index()
		qlo, qhi := keyOf(rg.space, q.f[0]-q.r), keyOf(rg.space, q.f[0]+q.r)
		mid := rg.succ(rg.space.Midpoint(qlo, qhi))
		for k, at := range q.first {
			se := all[k.stream]
			if int(k.seq) >= len(se.closeAt) {
				continue
			}
			if c := se.closeAt[k.seq]; c < m.from || c > m.to || at > m.to {
				continue
			}
			cand++
			relay += float64(rg.dist(rg.succ(q.detector[k]), mid))
			relayN++
		}
	}
	resp = float64(m.responses)
	l.set("core.candidates_per_mbr", "count", ratio(cand, mbrs))
	l.set("core.true_match_ratio", "ratio", ratio(float64(confirmed), float64(candidates)))
	l.set("core.notify_relay_hops", "hops", ratio(relay, relayN))
	l.set("core.responses_per_s", "1/s", ratio(resp, secs))
	l.set("dht.query_range_msgs_per_query", "msgs", ratio(float64(msgs.msgs[core.KindQuery]), posted))
}

// replayDSP pushes the captured points of the first streams through a
// fresh sliding DFT, then again through DFT, feature extraction and
// batching; it returns ns per push and the extra ns per feature.
func (l layers) replayDSP(all []*series, cfg core.Config) {
	var n int
	var push, both time.Duration
	for _, s := range all {
		if n >= 300000 {
			break
		}
		live := s.vals[s.prefill:]
		a := dsp.NewSlidingDFT(cfg.WindowSize, cfg.Coeffs)
		a.PushBatch(s.vals[:s.prefill])
		t0 := time.Now()
		for _, v := range live {
			a.Push(v)
		}
		push += time.Since(t0)
		b := dsp.NewSlidingDFT(cfg.WindowSize, cfg.Coeffs)
		b.PushBatch(s.vals[:s.prefill])
		bt := summary.NewBatcher(s.id, cfg.Beta)
		t0 = time.Now()
		for _, v := range live {
			b.Push(v)
			bt.Add(summary.FromCoeffs(b.NormalizedCoeffs(cfg.Norm), cfg.FeatureDims, true))
		}
		both += time.Since(t0)
		n += len(live)
	}
	l.set("dsp.push_ns_per_point", "ns", ratio(float64(push), float64(n)))
	l.set("summary.batch_ns_per_feature", "ns", ratio(float64(both-push), float64(n)))
}

// replayWire encodes and decodes the sampled messages.
func (l layers) replayWire(sample []*dht.Message) {
	var frames [][]byte
	var enc, dec time.Duration
	var stats wire.ArenaStats
	for rep := 0; rep < 5; rep++ {
		frames = frames[:0]
		t0 := time.Now()
		for _, m := range sample {
			if b, err := wire.Marshal(m); err == nil {
				frames = append(frames, b)
			}
		}
		enc += time.Since(t0)
		ar := wire.NewArena(&stats)
		t0 = time.Now()
		for _, f := range frames {
			if _, err := wire.UnmarshalArena(f, ar); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: replayed frame does not decode:", err)
			}
		}
		dec += time.Since(t0)
	}
	n := float64(5 * len(frames))
	l.set("wire.encode_ns_per_msg", "ns", ratio(float64(enc), n))
	l.set("wire.decode_ns_per_msg", "ns", ratio(float64(dec), n))
	// Fold replay: the sampled aggregate replies, absorbed into one fold.
	fold := cqe.NewSketchFold()
	var replies int
	t0 := time.Now()
	for _, m := range sample {
		if p, ok := m.Payload.(core.AggReplyMsg); ok {
			for _, it := range p.Items {
				fold.Absorb(it.StreamID, it.Seq, it.Sketch)
			}
			replies++
		}
	}
	l.set("cqe.fold_ns_per_reply", "ns", ratio(float64(time.Since(t0)), float64(replies)))
}

// replayStore replays each node's MBR deliveries of the traced phase into a
// fresh store of the kind the deployment runs, sweeping once per push
// period as the nodes do, and walks the program's own stores with the
// queries alive at the end.
func (l layers) replayStore(delivs []delivery, boxes map[mbrKey][2][]float64, cfg core.Config, exclusive bool,
	m measured, secs float64, stores func(node int) *core.Store, rg *ring, qs []*simQ, now int64) {
	byNode := make(map[int32][]delivery)
	for _, dv := range delivs {
		if dv.at >= m.from && dv.at <= m.to {
			byNode[dv.node] = append(byNode[dv.node], dv)
		}
	}
	push := int64(cfg.PushPeriod) * 1000
	var putT, sweepT time.Duration
	var puts int
	for _, ds := range byNode {
		st := core.NewShardedStore(cfg.StoreShards)
		if exclusive {
			st = core.NewStore()
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].at < ds[j].at })
		mbrs := make([]*summary.MBR, len(ds))
		for i, dv := range ds {
			box := boxes[mbrKey{dv.stream, dv.seq}]
			at := sim.Time(dv.at / 1000)
			mbrs[i] = &summary.MBR{Lo: box[0], Hi: box[1], StreamID: fmt.Sprintf("s%d", dv.stream), Seq: uint64(dv.seq),
				Count: cfg.Beta, Created: at, Expiry: at + cfg.MBRLifespan}
		}
		next := ds[0].at - ds[0].at%push + push
		for i := 0; i < len(ds); {
			j := i
			for j < len(ds) && ds[j].at < next {
				j++
			}
			t0 := time.Now()
			for _, b := range mbrs[i:j] {
				st.Put(b)
			}
			putT += time.Since(t0)
			puts += j - i
			t0 = time.Now()
			st.Sweep(sim.Time(next / 1000))
			sweepT += time.Since(t0)
			i, next = j, next+push
		}
	}
	l.set("core.store_put_ns", "ns", ratio(float64(putT), float64(puts)))
	l.set("core.sweep_ms_per_s", "ms/s", ratio(float64(sweepT)/1e6, secs))

	var walkT time.Duration
	var walks, scanned int64
	for _, q := range qs {
		if q.expiry <= now || walks >= 5000 {
			continue
		}
		for _, i := range rg.cover(keyOf(rg.space, q.f[0]-q.r), keyOf(rg.space, q.f[0]+q.r)) {
			st := stores(i)
			if st == nil {
				continue
			}
			_, s0 := st.Stats()
			t0 := time.Now()
			st.AppendCandidates(nil, q.f, q.r, sim.Time(now/1000), rg.ids[i])
			walkT += time.Since(t0)
			_, s1 := st.Stats()
			scanned += s1 - s0
			walks++
		}
	}
	l.set("core.store_walk_ns", "ns", ratio(float64(walkT), float64(walks)))
	l.set("core.entries_scanned_per_walk", "count", ratio(float64(scanned), float64(walks)))
}

// traceSim runs the traced simulator workload: a traced deployment and an
// untraced one built from the same seed run the same number of rounds;
// every deterministic count must agree bitwise between them.
func traceSim(spec simSpec, o options) (*result, error) {
	spec.setups = 1
	a, _, err := setupSim(spec, o.seed, true)
	if err != nil {
		return nil, err
	}
	ma := a.measure(o.seconds/2, 0)
	b, _, err := setupSim(spec, o.seed, false)
	if err != nil {
		return nil, err
	}
	mb := b.measure(0, ma.rounds)
	var c checker
	a.eng.RunFor(spec.drain)
	b.eng.RunFor(spec.drain)
	c.check(a.counts() == b.counts(), "trace: traced and untraced simulator counts differ",
		fmt.Sprintf("traced %+v untraced %+v", a.counts(), b.counts()))
	_, _, cand, conf := a.check(&c, ma)
	c.summary()

	l := newLayers()
	secs := float64(ma.to-ma.from) / 1e9
	l.common(ma, mb, a.series, a.rec.delivs, &a.rec.spans, secs)
	l.queryLayers(a.rg, a.qs, a.series, ma, cand, conf, secs, ma.rec)
	l.replayDSP(a.series, a.cfg)
	l.replayWire(a.rec.sample)
	// Next-hop replay through each sender's published routing view.
	t0 := time.Now()
	for _, rk := range a.rec.routed {
		a.net.Node(rk.from).Machine().View().NextHop(rk.key)
	}
	l.set("overlay.nexthop_ns", "ns", ratio(float64(time.Since(t0)), float64(len(a.rec.routed))))
	l.replayStore(a.rec.delivs, boxMap(a.rec), a.cfg, true, ma, secs,
		func(i int) *core.Store { return a.mw.DataCenter(a.rg.ids[i]).Store() }, a.rg, a.qs, a.now())
	var snapCopied, snapMerges, puts int64
	for _, id := range a.rg.ids {
		st := a.mw.DataCenter(id).Store()
		p, _ := st.Stats()
		ss := st.SnapStats()
		puts += p
		snapCopied += ss.CowCopied
		snapMerges += ss.Merges
	}
	l.set("core.store_cow_copied_per_put", "count", ratio(float64(snapCopied), float64(puts)))
	l.set("core.store_merges_per_s", "1/s", ratio(float64(snapMerges), secs))
	l.set("sim.events_per_point", "count", ratio(float64(mb.events), float64(mb.points)))
	l.set("sim.ns_per_event", "ns", ratio(mb.wall*1e9, float64(mb.events)))
	fmt.Fprintf(os.Stderr, "%s traced: rounds=%d checks=%d failed=%d\n", spec.name, ma.rounds, c.attempted, c.failed)
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: l}, nil
}

// simCounts are the deterministic counts of a simulator run.
type simCounts struct {
	msgs, bytes, delivs, hops int64
	points                    int64
	events                    uint64
	reports, responses        int64
	queries, ops              int
}

func (d *simDeploy) counts() simCounts {
	s := d.rec.snap()
	c := simCounts{delivs: s.delivs, points: d.points(), events: d.eng.Executed(), queries: len(d.qs), ops: len(d.ops)}
	for k := range s.msgs {
		c.msgs += s.msgs[k] * int64(k+1)
		c.bytes += s.bytes[k]
		c.hops += s.hopSum[k] * int64(k+1)
	}
	for _, q := range d.qs {
		c.reports += int64(len(q.reps))
		c.responses += q.responses.Load()
	}
	return c
}

// traceLive runs the traced live workload: a traced cluster, then an
// untraced one for the overhead, each measured for half the budget.
func traceLive(o options) (*result, error) {
	a, err := buildLive(o.seed, true)
	if err != nil {
		return nil, err
	}
	time.Sleep(liveWarmup)
	c0 := a.counters()
	ma := a.measure(o.seconds / 2)
	c1 := a.counters()
	time.Sleep(liveDrain)
	checkAt := nanotime()
	a.close()
	b, err := buildLive(o.seed, false)
	if err != nil {
		return nil, err
	}
	time.Sleep(liveWarmup)
	mb := b.measure(o.seconds / 2)
	b.close()

	var c checker
	_, _, cand, conf := a.check(&c, ma, checkAt)
	c.summary()
	l := newLayers()
	var delivs []delivery
	boxes := boxMap(a.recs...)
	spans := newSpanSet()
	var sample []*dht.Message
	for _, r := range a.recs {
		delivs = append(delivs, r.delivs...)
		spans.merge(&r.spans)
		sample = append(sample, r.sample...)
	}
	secs := ma.wall
	l.common(ma, mb, a.series, delivs, &spans, secs)
	l.queryLayers(a.rg, a.qs, a.series, ma, cand, conf, secs, ma.rec)
	l.replayDSP(a.series, a.cfg)
	l.replayWire(sample)
	l.replayStore(delivs, boxes, a.cfg, false, ma, secs,
		func(i int) *core.Store { return a.mws[i].DataCenter(a.rg.ids[i]).Store() }, a.rg, a.qs, checkAt)

	var lags []float64
	for _, s := range a.series {
		for _, v := range s.lags {
			lags = append(lags, float64(v)/1e3)
		}
	}
	if len(lags) > 0 {
		l.set("clock.tick_lag_us_p50", "us", percentile(lags, 50))
	}
	d := c1.sub(c0)
	pts := float64(ma.points)
	msgs := float64(ma.msgs)
	l.set("clock.loop_posts_per_point", "count", ratio(float64(d.loopPosted), pts))
	l.set("clock.loop_blocked_ms", "ms/s", ratio(float64(d.loopBlockedNs)/1e6, secs))
	l.set("wire.arena_refills_per_kmsg", "count", ratio(float64(d.arenaRefills)*1000, msgs))
	l.set("transport.frames_per_flush", "count", ratio(float64(d.frames), float64(d.flushes)))
	l.set("transport.pool_inline_per_kmsg", "count", ratio(float64(d.poolInline)*1000, msgs))
	l.set("transport.pool_blocked_ms", "ms/s", ratio(float64(d.poolBlockedNs)/1e6, secs))
	l.set("overlay.maint_msgs_per_node_s", "1/s", ratio(float64(ma.rec.msgs[overlay.KindRing]), secs*liveNodes))
	l.set("core.store_cow_copied_per_put", "count", ratio(float64(d.cowCopied), float64(d.puts)))
	l.set("core.store_merges_per_s", "1/s", ratio(float64(d.merges), secs))
	fmt.Fprintf(os.Stderr, "live-ingest traced: checks=%d failed=%d\n", c.attempted, c.failed)
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: l}, nil
}

// liveCounters are the live nodes' own counters, summed over the cluster.
type liveCounters struct {
	loopPosted, loopBlockedNs     int64
	poolInline, poolBlockedNs     int64
	frames, flushes, arenaRefills int64
	puts, cowCopied, merges       int64
}

func (d *liveDeploy) counters() liveCounters {
	var c liveCounters
	for i, n := range d.nodes {
		ls := n.LoopStats()
		ps := n.PoolStats()
		fr, fl := n.WriteStats()
		as := n.ArenaStats()
		st := d.mws[i].DataCenter(d.rg.ids[i]).Store()
		p, _ := st.Stats()
		ss := st.SnapStats()
		c.loopPosted += ls.Posted
		c.loopBlockedNs += ls.BlockedNs
		c.poolInline += ps.Inline
		c.poolBlockedNs += ps.BlockedNanos
		c.frames += fr
		c.flushes += fl
		c.arenaRefills += as.Refills
		c.puts += p
		c.cowCopied += ss.CowCopied
		c.merges += ss.Merges
	}
	return c
}

func (c liveCounters) sub(o liveCounters) liveCounters {
	return liveCounters{
		c.loopPosted - o.loopPosted, c.loopBlockedNs - o.loopBlockedNs,
		c.poolInline - o.poolInline, c.poolBlockedNs - o.poolBlockedNs,
		c.frames - o.frames, c.flushes - o.flushes, c.arenaRefills - o.arenaRefills,
		c.puts - o.puts, c.cowCopied - o.cowCopied, c.merges - o.merges,
	}
}

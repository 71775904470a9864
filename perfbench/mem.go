package main

import (
	"runtime"
	"runtime/metrics"
)

// memSample is a reading of the Go runtime's cumulative allocation and GC
// counters.
type memSample struct {
	mallocs, allocBytes uint64
	gcCPU               float64 // seconds of CPU spent in the GC
}

var memNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readMem() memSample {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var m memSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		m.mallocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		m.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[2].Value.Float64()
	}
	return m
}

// liveHeapMB forces a collection and returns the live heap in MiB, less
// the given bytes of the benchmark's own records.
func liveHeapMB(bookkeeping int64) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-bookkeeping) / (1 << 20)
}

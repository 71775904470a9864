package main

import (
	"sort"

	"streamdex/internal/dht"
)

// ring is the benchmark's own view of membership: the sorted node ids of
// the deployment. Coverage and middle nodes are computed from it, never
// read from the program.
type ring struct {
	space dht.Space
	ids   []dht.Key
}

func newRing(space dht.Space, ids []dht.Key) *ring {
	s := append([]dht.Key(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &ring{space: space, ids: s}
}

// succ returns the index of the node covering key: the first id >= key,
// wrapping to the lowest id.
func (r *ring) succ(key dht.Key) int {
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= key })
	if i == len(r.ids) {
		return 0
	}
	return i
}

// cover returns the indices of every node whose interval (pred, id]
// intersects the non-wrapping key range [lo, hi].
func (r *ring) cover(lo, hi dht.Key) []int {
	i := r.succ(lo)
	out := []int{i}
	if r.ids[i] < lo { // lo is past the highest id: ids[0] covers it all
		return out
	}
	for r.ids[i] < hi {
		i++
		if i == len(r.ids) {
			return append(out, 0)
		}
		out = append(out, i)
	}
	return out
}

// dist is the ring distance in node positions between indices a and b.
func (r *ring) dist(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if w := len(r.ids) - d; w < d {
		return w
	}
	return d
}

// keyOf is the mapping function h of the paper's Eq. 6, written out here
// so coverage does not depend on the program's mapper: a feature value in
// [-1, 1] scales linearly onto the ring, clamped at both ends.
func keyOf(space dht.Space, x float64) dht.Key {
	if x < -1 {
		x = -1
	}
	if x > 1 {
		x = 1
	}
	k := uint64((x + 1) / 2 * float64(space.Size()))
	if k >= space.Size() {
		k = space.Size() - 1
	}
	return dht.Key(k)
}

package algorithms

import "sync"

// tdspSlab is one TDSP query's dense state over one partition, plus the
// sparse per-subgraph lists that say which of its entries a sweep touched.
type tdspSlab struct {
	labels  []float64 // tentative arrival; ∞ unless reached this timestep or final
	final   []bool
	arrival []float64 // arrival of a final vertex; 0 until then
	at      []int32   // timestep a vertex finalized in; -1 until then
	sgs     []sgTouched
}

// sgTouched is one subgraph's share of a slab. Each subgraph owns its own,
// because a partition's subgraphs compute concurrently.
type sgTouched struct {
	// finals lists every vertex the sweep reached, in the order it was
	// reached; those from mark on were reached in the running timestep.
	finals []int32
	mark   int
	// nfinal counts the subgraph's final vertices (len(finals) up to mark,
	// unless the state was restored from a checkpoint).
	nfinal int
	// boundary is the part of the finalized set last sent along the
	// temporal edge. It is never written in place: it may still be queued
	// as a message.
	boundary []int32
}

func (sl *tdspSlab) bytes() int { return len(sl.labels) * (8 + 1 + 8 + 4) }

// newSlab allocates a clean slab: labels ∞, nothing final, arrivals 0 and
// every finalize timestep -1.
func newSlab(nv, nsg int) *tdspSlab {
	sl := &tdspSlab{
		labels:  make([]float64, nv),
		final:   make([]bool, nv),
		arrival: make([]float64, nv),
		at:      make([]int32, nv),
		sgs:     make([]sgTouched, nsg),
	}
	for i := range sl.labels {
		sl.labels[i] = Inf
		sl.at[i] = -1
	}
	return sl
}

// clean resets exactly the entries the sweep touched, which is every entry
// that differs from a new slab's: a label is finite only at a vertex the
// sweep reached, and every reached vertex is in its subgraph's finals.
func (sl *tdspSlab) clean() {
	for i := range sl.sgs {
		st := &sl.sgs[i]
		for _, lv := range st.finals {
			sl.labels[lv] = Inf
			sl.final[lv] = false
			sl.arrival[lv] = 0
			sl.at[lv] = -1
		}
		*st = sgTouched{finals: st.finals[:0]}
	}
}

// slabPoolBytes bounds the dense state the pool keeps between sweeps.
const slabPoolBytes = 64 << 20

// slabPool keeps clean slabs by partition size, so a served sweep neither
// allocates nor initializes O(V) state.
var slabPool = struct {
	sync.Mutex
	free  map[int][]*tdspSlab
	bytes int
}{free: make(map[int][]*tdspSlab)}

// getSlab returns a clean slab over nv vertices in nsg subgraphs.
func getSlab(nv, nsg int) *tdspSlab {
	slabPool.Lock()
	free := slabPool.free[nv]
	if len(free) == 0 {
		slabPool.Unlock()
		return newSlab(nv, nsg)
	}
	sl := free[len(free)-1]
	slabPool.free[nv] = free[:len(free)-1]
	slabPool.bytes -= sl.bytes()
	slabPool.Unlock()
	if cap(sl.sgs) < nsg {
		sl.sgs = make([]sgTouched, nsg)
	}
	sl.sgs = sl.sgs[:nsg]
	return sl
}

// putSlab returns a clean slab to the pool, or drops it if the pool is full.
func putSlab(sl *tdspSlab) {
	nv := len(sl.labels)
	slabPool.Lock()
	defer slabPool.Unlock()
	if slabPool.bytes+sl.bytes() > slabPoolBytes {
		return
	}
	slabPool.free[nv] = append(slabPool.free[nv], sl)
	slabPool.bytes += sl.bytes()
}

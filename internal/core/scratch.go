package core

// The per-operation scratch of the two Order engines — the sequential one in
// this package and the workers of internal/pcore — is built from the pieces
// below: one flag table for the sets an operation keeps (V*, V+ \ V*, Q, R,
// A_p) and d*in, one label heap for the priority queue Q, and one rule for
// which buffers outlive the operation or the batch that grew them.

// Flag bits an operation keeps per touched vertex.
const (
	MQueued uint8 = 1 << iota // sits in Q
	MStar                     // member of V*
	MDone                     // member of V+ \ V*: confirmed non-candidate (and, in pcore, locked by us)
	MInR                      // already scheduled for eviction by a Backward
	MSeen                     // removal: in A_p, already visited by this propagation
)

// Marks maps the vertices one edge operation has touched to flag bits — V*,
// V+ \ V*, Q, R and A_p membership — and each member of V* to its candidate
// in-degree d*in (Definition 3.6), in one open-addressed table. d*in is only
// ever read or written by the operation holding its vertex, and is nonzero
// only during the operation, so it is scratch, not state. The table stays on
// its owner (a pcore worker, or the State for the sequential engine) across
// operations, and Reset costs O(vertices marked), not O(capacity) — clearing
// a Go map costs its capacity, so one operation that traversed ten thousand
// vertices would tax every later one that traverses two (Fig. 1: almost all
// do). The zero value is an empty table.
type Marks struct {
	slots []markSlot
	used  []int32 // occupied slot indices
	shift uint    // 32 - log2(len(slots))
}

type markSlot struct {
	key   int32 // vertex + 1; 0 marks an empty slot
	din   int32 // d*in while the vertex is a member of V*
	flags uint8
}

const marksMinSlots = 16

// find returns the slot index holding v, or the empty slot where v belongs.
// The table is never full (grown at half load), so the probe terminates.
func (m *Marks) find(v int32) int {
	mask := len(m.slots) - 1
	i := int(uint32(v+1) * 2654435769 >> m.shift)
	for m.slots[i].key != 0 && m.slots[i].key != v+1 {
		i = (i + 1) & mask
	}
	return i
}

// get returns v's flags (0 if v was never marked).
func (m *Marks) get(v int32) uint8 {
	if len(m.used) == 0 {
		return 0
	}
	return m.slots[m.find(v)].flags
}

// Has reports whether v carries any of the flags f.
func (m *Marks) Has(v int32, f uint8) bool { return m.get(v)&f != 0 }

// Set ors f into v's flags.
func (m *Marks) Set(v int32, f uint8) {
	if 2*(len(m.used)+1) > len(m.slots) {
		m.grow()
	}
	i := m.find(v)
	if m.slots[i].key == 0 {
		m.slots[i].key = v + 1
		m.used = append(m.used, int32(i))
	}
	m.slots[i].flags |= f
}

// Din returns v's candidate in-degree (0 if v was never given one).
func (m *Marks) Din(v int32) int32 {
	if len(m.used) == 0 {
		return 0
	}
	return m.slots[m.find(v)].din
}

// SetDin sets the candidate in-degree of v, which must be marked.
func (m *Marks) SetDin(v, d int32) { m.slots[m.find(v)].din = d }

// Unset clears f from v's flags; the entry itself stays until Reset.
func (m *Marks) Unset(v int32, f uint8) {
	if len(m.used) != 0 {
		m.slots[m.find(v)].flags &^= f
	}
}

// Reset empties the table, touching only the occupied slots; a table one huge
// operation grew beyond what scratchKeep entries need is dropped instead.
func (m *Marks) Reset() {
	if len(m.slots) > 4*scratchKeep {
		*m = Marks{}
		return
	}
	for _, i := range m.used {
		m.slots[i] = markSlot{}
	}
	m.used = m.used[:0]
}

func (m *Marks) grow() {
	old := m.slots
	n := 2 * len(old)
	if n < marksMinSlots {
		n = marksMinSlots
	}
	m.slots = make([]markSlot, n)
	m.shift = 32
	for s := n; s > 1; s >>= 1 {
		m.shift--
	}
	m.used = m.used[:0]
	for _, s := range old {
		if s.key != 0 {
			i := m.find(s.key - 1)
			m.slots[i] = s
			m.used = append(m.used, int32(i))
		}
	}
}

// LabelEntry is a queued vertex with the [Lt, Lb, s] snapshot taken when it
// was queued (§5): the labels order the heap, and the order-change status S
// lets a parallel dequeue detect a stale position.
type LabelEntry struct {
	V      int32
	Lt, Lb uint64
	S      uint32
}

func (a LabelEntry) less(b LabelEntry) bool {
	if a.Lt != b.Lt {
		return a.Lt < b.Lt
	}
	return a.Lb < b.Lb
}

// LabelHeap is the priority queue Q of an insertion: a binary min-heap of
// entries on (Lt, Lb), which is the k-order of their vertices while the
// labels are current. Its owner decides when they are not, re-reads them in
// place and calls Heapify (Algorithm 9, update_version).
type LabelHeap []LabelEntry

// Push adds e.
func (h *LabelHeap) Push(e LabelEntry) {
	*h = append(*h, e)
	es := *h
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !es[i].less(es[parent]) {
			break
		}
		es[i], es[parent] = es[parent], es[i]
		i = parent
	}
}

// Pop removes the minimum entry, h[0].
func (h *LabelHeap) Pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	h.siftDown(0)
}

// Heapify restores the heap order after the entries were rewritten in place.
func (h LabelHeap) Heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h LabelHeap) siftDown(i int) {
	n := len(h)
	for {
		min := i
		if l := 2*i + 1; l < n && h[l].less(h[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && h[r].less(h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// scratchKeep is the largest capacity, in entries, at which a per-edge
// scratch buffer is carried over to the next operation, and the least at
// which a per-batch buffer is (KeepBatch). What the common case needs
// (Fig. 1: |V+| ≤ 10 for almost every edge) is then never reallocated, while
// the buffers of the rare huge traversal — which amortize their own
// allocation — are garbage once it is over, so a worker's footprint does not
// ratchet up to its high-water mark.
const scratchKeep = 1024

// Keep returns the per-edge buffer buf emptied for reuse, or nil if it has
// outgrown scratchKeep.
func Keep[T any](buf []T) []T {
	if cap(buf) > scratchKeep {
		return nil
	}
	return buf[:0]
}

// KeepBatch returns the per-batch buffer buf, whose length is what the batch
// just over used, emptied for the next batch — or nil if its capacity is
// more than max(scratchKeep, 2·len(buf)). A run of like-sized batches then
// reuses one buffer, while the one a single huge batch grew is dropped once
// a batch that used less than half of it is over, instead of pinning its
// high-water mark.
func KeepBatch[T any](buf []T) []T {
	if cap(buf) > max(scratchKeep, 2*len(buf)) {
		return nil
	}
	return buf[:0]
}

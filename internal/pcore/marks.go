package pcore

// Flag bits a worker keeps per touched vertex during one edge operation.
const (
	mQueued uint8 = 1 << iota // sits in Q_p
	mStar                     // member of V*
	mDone                     // member of V+ \ V*: confirmed non-candidate, locked by us
	mInR                      // already scheduled for eviction by a Backward
	mSeen                     // removal: in A_p, already visited by this propagation
)

// marks maps the vertices one edge operation has touched to flag bits — V*,
// V+ \ V*, Q_p, R and A_p membership — and each member of V* to its
// candidate in-degree d*in (Definition 3.6), in one open-addressed table.
// d*in is only ever read or written by the worker holding its vertex's lock,
// and is nonzero only during the operation, so it is scratch, not state. The
// table stays on the worker across operations, and reset costs O(vertices
// marked), not O(capacity) — clearing a Go map costs its capacity, so one
// operation that traversed ten thousand vertices would tax every later one
// that traverses two (Fig. 1: almost all do).
type marks struct {
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
func (m *marks) find(v int32) int {
	mask := len(m.slots) - 1
	i := int(uint32(v+1) * 2654435769 >> m.shift)
	for m.slots[i].key != 0 && m.slots[i].key != v+1 {
		i = (i + 1) & mask
	}
	return i
}

// get returns v's flags (0 if v was never marked).
func (m *marks) get(v int32) uint8 {
	if len(m.used) == 0 {
		return 0
	}
	return m.slots[m.find(v)].flags
}

func (m *marks) has(v int32, f uint8) bool { return m.get(v)&f != 0 }

// set ors f into v's flags.
func (m *marks) set(v int32, f uint8) {
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

// din returns v's candidate in-degree (0 if v was never given one).
func (m *marks) din(v int32) int32 {
	if len(m.used) == 0 {
		return 0
	}
	return m.slots[m.find(v)].din
}

// setDin sets the candidate in-degree of v, which must be marked.
func (m *marks) setDin(v, d int32) { m.slots[m.find(v)].din = d }

// unset clears f from v's flags; the entry itself stays until reset.
func (m *marks) unset(v int32, f uint8) {
	if len(m.used) != 0 {
		m.slots[m.find(v)].flags &^= f
	}
}

// reset empties the table, touching only the occupied slots; a table one huge
// operation grew beyond what scratchKeep entries need is dropped instead.
func (m *marks) reset() {
	if len(m.slots) > 4*scratchKeep {
		*m = marks{}
		return
	}
	for _, i := range m.used {
		m.slots[i] = markSlot{}
	}
	m.used = m.used[:0]
}

func (m *marks) grow() {
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

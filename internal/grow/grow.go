// Package grow holds the quiescent-time slice-growth helper shared by
// the maintenance states (core.State and its om.Slab, traversal.State):
// per-vertex arrays are extended with zero-valued tails when the vertex
// universe grows.
package grow

// Slice returns s extended to n elements (zero-valued tail),
// reallocating with geometric over-allocation so repeated growth is
// amortized O(1) per element; it never shrinks. Callers grow only at
// quiescence, so the copy of the old elements — atomics and locks
// included — races with nothing.
func Slice[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	ns := make([]T, n, c)
	copy(ns, s)
	return ns
}

package knowledge

import "unsafe"

// MemoSlots reports the address of the evaluator's slot table, which
// changes exactly when the table is reallocated, and the number of
// interned nodes it indexes.
func MemoSlots(e *Evaluator) (addr uintptr, nodes int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return uintptr(unsafe.Pointer(unsafe.SliceData(e.vecs))), len(e.in.nodes)
}

package knowledge

import "unsafe"

// MemoSlots reports the address of the newest page of the evaluator's
// slot table, which changes exactly when the table grows, and the
// number of interned nodes it holds.
func MemoSlots(e *Evaluator) (addr uintptr, nodes int) {
	m := e.memo.Load()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.in.slots.pages {
		if p != nil {
			addr = uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		}
	}
	return addr, m.in.slots.n
}

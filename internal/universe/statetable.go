package universe

import "sync"

// stateTable interns per-process local-state vectors to dense int32
// identifiers. Members carry one int32 instead of a cloned
// map[ProcID]string — the number of distinct state vectors of a finite
// protocol is tiny compared to the number of computations, so the
// engine's per-child map copies collapse into interner hits. The table
// is shared by all workers (identifiers must be globally meaningful,
// since a level one worker emits is expanded by all) and is read-mostly;
// workers additionally keep their own lock-free caches on top (see
// worker in engine.go).
type stateTable struct {
	mu   sync.RWMutex
	ids  map[string]int32
	vecs [][]string
}

func newStateTable() *stateTable {
	return &stateTable{ids: make(map[string]int32)}
}

// newStateTableFrom rebuilds a table whose identifiers are exactly the
// indexes of vecs — the snapshot loader's inverse of vec. The input
// must be duplicate-free (snapshot writers emit each vector once);
// intern assigns identifiers sequentially, so interning in order
// reproduces them.
func newStateTableFrom(vecs [][]string) *stateTable {
	st := newStateTable()
	var buf []byte
	for _, v := range vecs {
		_, buf = st.intern(v, buf)
	}
	return st
}

// vec returns the state vector for id. The returned slice is immutable
// once interned and safe to retain.
func (st *stateTable) vec(id int32) []string {
	st.mu.RLock()
	v := st.vecs[id]
	st.mu.RUnlock()
	return v
}

// intern returns the identifier for the vector, interning a copy when
// it is new. buf is caller-owned scratch for the lookup key; the
// (possibly grown) buffer is returned for reuse, so steady-state
// lookups allocate nothing. Each element is length-prefixed so state
// strings containing arbitrary bytes (including NUL) can never alias
// across element boundaries.
func (st *stateTable) intern(vec []string, buf []byte) (int32, []byte) {
	buf = buf[:0]
	for _, s := range vec {
		n := len(s)
		buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		buf = append(buf, s...)
	}
	st.mu.RLock()
	id, ok := st.ids[string(buf)]
	st.mu.RUnlock()
	if ok {
		return id, buf
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok := st.ids[string(buf)]; ok {
		return id, buf
	}
	cp := make([]string, len(vec))
	copy(cp, vec)
	id = int32(len(st.vecs))
	st.vecs = append(st.vecs, cp)
	st.ids[string(buf)] = id
	return id, buf
}

package universe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"sort"

	"hpl/internal/obs"
	"hpl/internal/trace"
)

// Snapshot codec: a versioned, length-prefixed binary dump of an
// enumerated universe — its columns, interned state-vector and event
// tables, and built partition tables — as a handful of flat arrays, so
// a process restart (or a bound increase via Extend) loads in
// milliseconds instead of re-enumerating.
//
// File layout:
//
//	magic "HPLSNP" | version (1 byte) | payload length (u64 LE)
//	| payload | crc64-ECMA of payload (u64 LE)
//
// The checksum is verified before any parsing, so every decode error
// past the header is either a truncated file or a deliberate format
// violation, never a silent misread. Payload sections, in order, all
// integers uvarint unless noted:
//
//	digest   — length-prefixed cache-key string (UniverseSpec digest)
//	bound    — the MaxEvents the universe was enumerated under
//	strings  — count, then length-prefixed bytes; every identifier and
//	           local state below is a reference into this table
//	procs    — count, then string refs (the process set D)
//	states   — count, then per vector: element count + string refs.
//	           Vectors are renumbered by first occurrence in member
//	           order before writing, so the encoding is byte-identical
//	           no matter what parallelism enumerated the universe.
//	events   — count, then each event of the prefix index's table in
//	           the trace binary event encoding, in identifier order,
//	           which is first occurrence in member order.
//	members  — count, then per member in member order (the prefix
//	           tree's level order): member 0, the null computation,
//	           has only its state-vector ref; every later member has
//	           its parent's index as the difference from the previous
//	           member's parent (parents never decrease in level order,
//	           and member 0's counts as 0), its last event's ID and its
//	           state-vector ref. These are the universe's own columns:
//	           the loader checks level and sibling order and re-derives
//	           each hash and length from the parent's.
//	parts    — count, then per built partition table: proc-set refs,
//	           class count, and per-member class identifiers. The
//	           projection-key index is NOT stored (keys are as long as
//	           event sequences); loaded tables, like built ones, fill
//	           it in lazily from one member per class on first
//	           ClassOfKey.
//	symmetry — the group's class count, 0 for a full universe; for a
//	           symmetry quotient, per class its size and proc string
//	           refs, then one orbit size per member. The loader rejects
//	           any size that does not divide the group's order (orbit–
//	           stabilizer) and any sum that overflows, then regroups
//	           the sizes into the universe's weight classes. Quotients
//	           always write zero partition tables (their overlapping
//	           twisted class listings are rebuilt on demand instead).
//
// The transition graph is not stored: it is the parent column plus one
// child range per member, rebuilt in one pass on first use.
var (
	// ErrSnapshotFormat reports input that is not a universe snapshot.
	ErrSnapshotFormat = errors.New("universe: not a universe snapshot")
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// codec version.
	ErrSnapshotVersion = errors.New("universe: unsupported snapshot version")
	// ErrSnapshotTruncated reports a snapshot that ends mid-structure.
	ErrSnapshotTruncated = errors.New("universe: truncated snapshot")
	// ErrSnapshotCorrupt reports a snapshot whose bytes fail the
	// checksum or decode to out-of-range structure.
	ErrSnapshotCorrupt = errors.New("universe: corrupt snapshot")
)

const (
	snapshotMagic = "HPLSNP"
	// snapshotVersion is the codec above. Versions 1 and 2 stored
	// (length, hash)-ordered members with one encoded event each and a
	// transition section; they are not read.
	snapshotVersion = 3
)

var snapshotCRC = crc64.MakeTable(crc64.ECMA)

// WriteSnapshot writes the universe and its digest key to w. The
// universe must come from EnumerateWith, Extend, or ReadSnapshot —
// snapshots persist enumeration state (level order, state vectors) that
// hand-built universes do not carry. Partition tables are included
// exactly when already built; the output is byte-deterministic for a
// given universe and set of built tables.
//
// A commutation quotient has no snapshot form: WriteSnapshot fails with
// ErrCommutationQuotient.
func WriteSnapshot(w io.Writer, u *Universe, digest string) error {
	if u.Commuting() {
		return fmt.Errorf("%w: it has no snapshot form", ErrCommutationQuotient)
	}
	if u.maxEvents < 0 || u.states == nil || len(u.memberSV) != u.Len() || !u.sorted {
		return fmt.Errorf("universe: snapshot requires an enumerated universe")
	}
	sp := u.tr.Start("snapshot.encode")
	defer func() { phaseSnapEncode.ObserveDuration(sp.End()) }()
	if u.sym != nil && len(u.orbitSize) != u.Len() {
		return fmt.Errorf("universe: snapshot requires orbit sizes for every member of a quotient universe")
	}
	tab := trace.NewStringTable()
	var body []byte

	// Processes.
	procs := u.all.IDs()
	body = binary.AppendUvarint(body, uint64(len(procs)))
	for _, p := range procs {
		body = binary.AppendUvarint(body, uint64(tab.Ref(string(p))))
	}

	// State vectors, renumbered by first occurrence in member order:
	// interned identifiers depend on enumeration scheduling, the
	// renumbering does not. Vectors never referenced by a member are
	// dropped.
	renum := make(map[int32]uint64)
	var order []int32
	newSV := make([]uint64, u.Len())
	for i, sv := range u.memberSV {
		id, ok := renum[sv]
		if !ok {
			id = uint64(len(order))
			renum[sv] = id
			order = append(order, sv)
		}
		newSV[i] = id
	}
	body = binary.AppendUvarint(body, uint64(len(order)))
	for _, old := range order {
		v := u.states.vec(old)
		body = binary.AppendUvarint(body, uint64(len(v)))
		for _, s := range v {
			body = binary.AppendUvarint(body, uint64(tab.Ref(s)))
		}
	}

	// Events, then the members' columns, read from the prefix index
	// sorted universes are born with.
	x := u.prefixIndex()
	body = binary.AppendUvarint(body, uint64(len(x.events)))
	for _, ev := range x.events {
		body = trace.AppendEventBinary(body, ev, tab)
	}
	body = binary.AppendUvarint(body, uint64(u.Len()))
	prev := int32(0)
	for i := 0; i < u.Len(); i++ {
		if i > 0 {
			par := x.parent[i]
			if par < prev || par >= int32(i) {
				return fmt.Errorf("universe: snapshot: member %d's parent %d is out of level order", i, par)
			}
			body = binary.AppendUvarint(body, uint64(par-prev))
			body = binary.AppendUvarint(body, uint64(x.event[i]))
			prev = par
		}
		body = binary.AppendUvarint(body, newSV[i])
	}

	// Built partition tables, ordered by process-set key: sync.Map
	// iteration order must not leak into the bytes. Quotient partitions
	// are never persisted: their overlapping "twisted" class listings
	// and the renaming behind each class's key cannot be reconstructed
	// from classID alone, so quotient loads rebuild tables on demand from
	// the prefix index and history tries.
	parts := u.partitionsIfBuilt()
	if u.sym != nil {
		parts = nil
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].set.Key() < parts[j].set.Key() })
	body = binary.AppendUvarint(body, uint64(len(parts)))
	for _, pt := range parts {
		ids := pt.set.IDs()
		body = binary.AppendUvarint(body, uint64(len(ids)))
		for _, p := range ids {
			body = binary.AppendUvarint(body, uint64(tab.Ref(string(p))))
		}
		body = binary.AppendUvarint(body, uint64(len(pt.members)))
		for _, c := range pt.classID {
			body = binary.AppendUvarint(body, uint64(c))
		}
	}

	// Symmetry section: the group's classes and the per-member orbit
	// sizes, or no classes for a full universe. The full-universe
	// cardinality is the sizes' sum, recomputed at load.
	if u.sym == nil {
		body = binary.AppendUvarint(body, 0)
	} else {
		body = binary.AppendUvarint(body, uint64(len(u.sym.classes)))
		for _, cl := range u.sym.classes {
			body = binary.AppendUvarint(body, uint64(len(cl)))
			for _, p := range cl {
				body = binary.AppendUvarint(body, uint64(tab.Ref(string(p))))
			}
		}
		for _, o := range u.orbitSize {
			body = binary.AppendUvarint(body, uint64(o))
		}
	}

	// Assemble: digest, bound, string table (now complete), body.
	payload := make([]byte, 0, len(body)+len(digest)+64)
	payload = binary.AppendUvarint(payload, uint64(len(digest)))
	payload = append(payload, digest...)
	payload = binary.AppendUvarint(payload, uint64(u.maxEvents))
	strs := tab.Strings()
	payload = binary.AppendUvarint(payload, uint64(len(strs)))
	for _, s := range strs {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	payload = append(payload, body...)

	hdr := make([]byte, 0, len(snapshotMagic)+9)
	hdr = append(hdr, snapshotMagic...)
	hdr = append(hdr, snapshotVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], crc64.Checksum(payload, snapshotCRC))
	_, err := w.Write(sum[:])
	return err
}

// ReadSnapshot loads a universe and its digest key from r. The loaded
// universe answers every query the original did — partition tables
// included in the snapshot are pre-installed, projection-key indexes
// and the transition graph rebuild lazily — and becomes extendable
// again after BindProtocol. Malformed input returns a structured error
// (ErrSnapshotFormat, ErrSnapshotVersion, ErrSnapshotTruncated, or
// ErrSnapshotCorrupt), never a panic.
func ReadSnapshot(r io.Reader) (*Universe, string, error) {
	// No universe (hence no per-build trace) exists yet; decode time
	// goes to the global phase histogram only.
	sp := (*obs.Trace)(nil).Start("snapshot.decode")
	defer func() { phaseSnapDecode.ObserveDuration(sp.End()) }()
	hdr := make([]byte, len(snapshotMagic)+9)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, "", fmt.Errorf("%w: header: %v", ErrSnapshotTruncated, err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return nil, "", fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, hdr[:len(snapshotMagic)])
	}
	if version := hdr[len(snapshotMagic)]; version != snapshotVersion {
		return nil, "", fmt.Errorf("%w: version %d (this build reads %d)", ErrSnapshotVersion, version, snapshotVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[len(snapshotMagic)+1:])
	if plen > math.MaxInt64-8 {
		return nil, "", fmt.Errorf("%w: implausible payload length %d", ErrSnapshotCorrupt, plen)
	}
	payload, err := readPayload(r, plen)
	if err != nil {
		return nil, "", fmt.Errorf("%w: payload is %d of %d bytes", ErrSnapshotTruncated, len(payload), plen)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, "", fmt.Errorf("%w: checksum: %v", ErrSnapshotTruncated, err)
	}
	if got, want := crc64.Checksum(payload, snapshotCRC), binary.LittleEndian.Uint64(sum[:]); got != want {
		return nil, "", fmt.Errorf("%w: checksum mismatch (have %016x, file says %016x)", ErrSnapshotCorrupt, got, want)
	}

	sr := &snapReader{b: payload}
	digest := string(sr.bytes(sr.count(sr.rem())))
	maxEvents := sr.uvarint()

	// String table.
	strs := make([]string, 0, sr.count(sr.rem()))
	for n := cap(strs); len(strs) < n && sr.err == nil; {
		strs = append(strs, string(sr.bytes(sr.count(sr.rem()))))
	}

	// Processes.
	procIDs := make([]trace.ProcID, 0, sr.count(sr.rem()))
	for n := cap(procIDs); len(procIDs) < n && sr.err == nil; {
		procIDs = append(procIDs, trace.ProcID(sr.str(strs)))
	}

	// State vectors.
	vecs := make([][]string, 0, sr.count(sr.rem()))
	for n := cap(vecs); len(vecs) < n && sr.err == nil; {
		v := make([]string, 0, sr.count(sr.rem()))
		for k := cap(v); len(v) < k && sr.err == nil; {
			v = append(v, sr.str(strs))
		}
		vecs = append(vecs, v)
	}

	// Events, interned in file order: each must be new, so it keeps its
	// identifier.
	x := &prefixIndex{}
	for n := sr.count(sr.rem()); len(x.events) < n && sr.err == nil; {
		ev, k, err := trace.DecodeEventBinary(sr.b[sr.off:], strs)
		if err != nil {
			sr.fail("event %d: %v", len(x.events), err)
			break
		}
		sr.off += k
		if next, id := len(x.events), x.intern(&ev); int(id) != next {
			sr.fail("event %d repeats event %d", next, id)
		}
	}

	// Members, decoded straight into the columns. Each is its parent
	// (an earlier member) extended by one event; hashes and lengths are
	// re-derived from the parent's, not trusted from the file. Parents
	// never decrease, which with parent < member makes the order level
	// order, and siblings must ascend strictly by hash, which also
	// makes the members pairwise distinct. Events must be first met in
	// identifier order, as newPrefixIndex would intern them.
	nmem := sr.count(min(sr.rem(), math.MaxInt32))
	if nmem == 0 && sr.err == nil {
		sr.fail("no members")
	}
	hash := make([]trace.Hash128, 0, nmem)
	length := make([]int32, 0, nmem)
	x.parent, x.event = make([]int32, 0, nmem), make([]int32, 0, nmem)
	svs := make([]int32, 0, nmem)
	var par, met uint64
	for i := 0; i < nmem && sr.err == nil; i++ {
		if i == 0 {
			hash = append(hash, trace.Empty().Hash())
			length = append(length, 0)
			x.parent = append(x.parent, -1)
			x.event = append(x.event, -1)
		} else {
			d, ev := sr.uvarint(), sr.uvarint()
			par += min(d, uint64(i)) // no wraparound past an honest parent
			switch {
			case sr.err != nil:
			case par >= uint64(i):
				sr.fail("member %d's parent %d is not an earlier member", i, par)
			case ev > met || ev >= uint64(len(x.events)):
				sr.fail("member %d: event %d is out of first-occurrence order", i, ev)
			default:
				if ev == met {
					met++
				}
				h := hash[par].ExtendEvent(x.events[ev])
				if x.parent[i-1] == int32(par) && !hash[i-1].Less(h) {
					sr.fail("members %d and %d out of sibling order", i-1, i)
				}
				hash = append(hash, h)
				length = append(length, length[par]+1)
				x.parent = append(x.parent, int32(par))
				x.event = append(x.event, int32(ev))
			}
		}
		if sv := sr.uvarint(); sr.err == nil {
			if sv >= uint64(len(vecs)) {
				sr.fail("member %d: state vector %d out of range", i, sv)
			} else {
				svs = append(svs, int32(sv))
			}
		}
	}
	if sr.err == nil && met != uint64(len(x.events)) {
		sr.fail("%d of %d events belong to no member", uint64(len(x.events))-met, len(x.events))
	}
	if sr.err != nil {
		return nil, "", sr.err
	}

	// The order just verified makes the members pairwise distinct, so
	// wrap the columns directly; the hash index (like the projection-key
	// indexes) rebuilds lazily if the workload probes it.
	u := newSorted(hash, length, x, trace.NewProcSet(procIDs...))
	u.maxEvents = int(maxEvents)
	u.states = newStateTableFrom(vecs)
	u.memberSV = svs

	// Partition tables.
	nparts := sr.count(sr.rem())
	for k := 0; k < nparts && sr.err == nil; k++ {
		ids := make([]trace.ProcID, 0, sr.count(sr.rem()))
		for n := cap(ids); len(ids) < n && sr.err == nil; {
			ids = append(ids, trace.ProcID(sr.str(strs)))
		}
		nclass := sr.count(nmem)
		classID := make([]int32, nmem)
		for i := 0; i < nmem && sr.err == nil; i++ {
			c := sr.uvarint()
			if c >= uint64(nclass) {
				sr.fail("partition %d: class %d out of range", k, c)
				break
			}
			classID[i] = int32(c)
		}
		if sr.err != nil {
			break
		}
		u.installPartition(&Partition{
			set:     trace.NewProcSet(ids...),
			classID: classID,
			members: classMembers(nclass, ownClasses(classID)),
			u:       u,
		})
	}

	// Symmetry section.
	classes := make([][]trace.ProcID, 0, sr.count(sr.rem()))
	for n := cap(classes); len(classes) < n && sr.err == nil; {
		cl := make([]trace.ProcID, 0, sr.count(sr.rem()))
		for k := cap(cl); len(cl) < k && sr.err == nil; {
			cl = append(cl, trace.ProcID(sr.str(strs)))
		}
		classes = append(classes, cl)
	}
	if len(classes) > 0 && sr.err == nil {
		orbs := make([]int64, 0, nmem)
		for i := 0; i < nmem && sr.err == nil; i++ {
			o := sr.uvarint()
			if o == 0 || o > uint64(math.MaxInt64) {
				sr.fail("member %d: orbit size %d out of range", i, o)
				break
			}
			orbs = append(orbs, int64(o))
		}
		if sr.err == nil {
			sym, err := NewSymmetry(classes...)
			switch {
			case err != nil:
				sr.fail("symmetry section: %v", err)
			case sym.Trivial():
				sr.fail("symmetry section declares a trivial group")
			default:
				if err := u.setOrbits(sym, orbs); err != nil {
					sr.fail("symmetry section: %v", err)
				}
			}
		}
	}
	if sr.err == nil && sr.rem() != 0 {
		sr.fail("%d bytes of trailing data", sr.rem())
	}
	if sr.err != nil {
		return nil, "", sr.err
	}
	return u, digest, nil
}

// readPayload reads exactly n bytes, growing the buffer in bounded
// chunks as bytes actually arrive, so a corrupt length on a short file
// fails as truncation instead of attempting one huge allocation.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 4 << 20
	size := n
	if size > chunk {
		size = chunk
	}
	buf := make([]byte, 0, size)
	for uint64(len(buf)) < n {
		grow := n - uint64(len(buf))
		if grow > chunk {
			grow = chunk
		}
		start := len(buf)
		next := uint64(start) + grow
		if uint64(cap(buf)) < next {
			nb := make([]byte, next)
			copy(nb, buf)
			buf = nb
		} else {
			buf = buf[:next]
		}
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf[:start], err
		}
	}
	return buf, nil
}

// snapReader is a sticky-error cursor over the checksummed payload.
// Because the checksum is verified before parsing, its failures mean a
// genuinely malformed (or adversarial) file, but they must still be
// errors, never panics.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...)
	}
}

func (r *snapReader) rem() int { return len(r.b) - r.off }

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at payload byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a collection size and bounds it by max — every collection
// in the format has at least one byte per element, so a size beyond the
// remaining payload cannot be honest, and rejecting it here keeps
// allocations proportional to the actual file.
func (r *snapReader) count(max int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(max) {
		r.fail("count %d exceeds remaining payload bound %d", v, max)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.rem() {
		r.fail("%d bytes wanted at payload byte %d, %d remain", n, r.off, r.rem())
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// str reads a string-table reference.
func (r *snapReader) str(strs []string) string {
	v := r.uvarint()
	if r.err != nil {
		return ""
	}
	if v >= uint64(len(strs)) {
		r.fail("string reference %d out of range (table has %d)", v, len(strs))
		return ""
	}
	return strs[v]
}

package v3

import (
	"encoding/binary"
	"fmt"

	"repro/internal/server/protocol"
)

// # Delta entries
//
// A session form (session_import's Form) and a record delta (the trailing
// section of a mutating response, FlagDelta) are both a run of entries,
// each a tag byte and the owner's session name, then:
//
//	EntryCore    the core record of core_new (a core made, or as it is now)
//	EntryLive    uvarint seq, record blob: a live record, inserted or changed
//	EntryMemory  uvarint seq, record blob: a record filed in port memory
//	EntryGone    uvarint seq: a record that left the live table or the memory
//	EntryDrop    nothing: everything the owner held is gone
//
// A form holds cores in creation order, then live records and remembered
// ones, each in sequence order. A record blob is a u32 little-endian
// length, then the kind byte, the source endpoint, the sinks (a count, then
// endpoints), the path (a count, then PIPs), the At pins (a count, then the
// pins a record with a port was routed at) and the Home path. A worker
// writes these fields and only the importing worker decodes them; every
// tier between keeps entries whole.
const (
	EntryCore   byte = 0x01
	EntryLive   byte = 0x02
	EntryMemory byte = 0x03
	EntryGone   byte = 0x04
	EntryDrop   byte = 0x05
)

// AppendCoreEntry appends a core entry of the owner's.
func AppendCoreEntry(dst []byte, owner string, c *protocol.CoreMsg) ([]byte, error) {
	return appendCore(appendString(append(dst, EntryCore), owner), c)
}

// AppendRecordEntry appends the head of a live record entry, or a memory
// one, and room for its blob's length: append the blob's fields, then
// close the entry with EndRecordEntry(dst, at).
func AppendRecordEntry(dst []byte, memory bool, owner string, seq uint64) (out []byte, at int) {
	tag := EntryLive
	if memory {
		tag = EntryMemory
	}
	dst = appendUvarint(appendString(append(dst, tag), owner), seq)
	at = len(dst)
	return append(dst, 0, 0, 0, 0), at
}

// EndRecordEntry writes the length of the blob appended since at.
func EndRecordEntry(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// AppendMarkEntry appends an entry with no body but a sequence number: a
// gone record (EntryGone), or a dropped owner (EntryDrop, no number).
func AppendMarkEntry(dst []byte, tag byte, owner string, seq uint64) []byte {
	dst = append(dst, tag)
	dst = appendString(dst, owner)
	if tag == EntryGone {
		dst = appendUvarint(dst, seq)
	}
	return dst
}

// AppendCount appends the count a list of a record's fields starts with.
func AppendCount(dst []byte, n int) []byte { return appendUvarint(dst, uint64(n)) }

// AppendPinEnd appends a pin endpoint.
func AppendPinEnd(dst []byte, row, col, wire int) []byte {
	return AppendPin(append(dst, epPin), row, col, wire)
}

// AppendPortEnd appends a port endpoint.
func AppendPortEnd(dst []byte, p protocol.PortRefMsg) []byte {
	dst = appendString(append(dst, epPort), p.Core)
	return appendSvarint(appendString(dst, p.Group), p.Index)
}

// Entry is one decoded entry. Owner and Record alias the encoding.
type Entry struct {
	Tag    byte
	Owner  []byte
	Seq    uint64
	Core   protocol.CoreMsg
	Record []byte // a record blob's body
}

// NextEntry decodes the entry b starts with and returns the rest of b.
func NextEntry(b []byte) (e Entry, rest []byte, err error) {
	d := &Reader{b: b}
	e.Tag = d.Byte()
	e.Owner = d.bytes("owner")
	switch e.Tag {
	case EntryCore:
		d.core(&e.Core)
	case EntryLive, EntryMemory:
		e.Seq = d.uvarint()
		if n := d.take(4, "record length"); n != nil {
			e.Record = d.take(uint64(binary.LittleEndian.Uint32(n)), "record")
		}
	case EntryGone:
		e.Seq = d.uvarint()
	case EntryDrop:
	default:
		if d.err == nil {
			d.err = fmt.Errorf("v3: unknown delta entry tag %#x", e.Tag)
		}
	}
	if d.err != nil {
		return e, nil, d.err
	}
	return e, b[d.off:], nil
}

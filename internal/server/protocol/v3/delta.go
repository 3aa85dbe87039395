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
// A record blob is a u32 little-endian length, then the kind byte, the net
// record (source, sinks, path), the At pins and the Home path: a journal
// keeps a record as it came, and decodes it only to hand a form out.
const (
	EntryCore   byte = 0x01
	EntryLive   byte = 0x02
	EntryMemory byte = 0x03
	EntryGone   byte = 0x04
	EntryDrop   byte = 0x05
)

// AppendCoreEntry appends a core entry.
func AppendCoreEntry(dst []byte, c *protocol.CoreMsg) ([]byte, error) {
	dst = append(dst, EntryCore)
	dst = appendString(dst, c.Owner)
	return appendCore(dst, c)
}

// AppendRecordEntry appends a live record entry, or a memory one.
func AppendRecordEntry(dst []byte, memory bool, rec *protocol.RecordMsg) ([]byte, error) {
	tag := EntryLive
	if memory {
		tag = EntryMemory
	}
	dst = append(dst, tag)
	dst = appendString(dst, rec.Owner)
	dst = appendUvarint(dst, rec.Seq)
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, rec.Kind)
	dst, err := appendNet(dst, &rec.NetMsg)
	dst = appendUvarint(dst, uint64(len(rec.At)))
	for _, p := range rec.At {
		dst = appendPin(dst, p)
	}
	dst = appendPips(dst, rec.Home)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst, err
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
	d := &dec{b: b}
	e.Tag = d.u8()
	e.Owner = d.bytes("owner")
	switch e.Tag {
	case EntryCore:
		d.core(&e.Core)
		e.Core.Owner = string(e.Owner)
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

// decodeRecord decodes a record blob's body into rec's kind, net, At and
// Home; Seq and Owner come from the entry.
func decodeRecord(b []byte, rec *protocol.RecordMsg) error {
	d := &dec{b: b}
	rec.Kind = d.u8()
	d.net(&rec.NetMsg)
	if n := d.count("at pins"); n > 0 {
		rec.At = make([]protocol.PinMsg, n)
		for i := range rec.At {
			rec.At[i] = protocol.PinMsg{Row: d.svarint(), Col: d.svarint(), Wire: int(d.uvarint())}
		}
	}
	rec.Home = d.pips()
	if d.err == nil && d.off != len(b) {
		d.err = fmt.Errorf("v3: %d trailing bytes after a record", len(b)-d.off)
	}
	return d.err
}

// AppendSession appends a session form as a run of entries: its cores, its
// live records, then its memory.
func AppendSession(dst []byte, s *protocol.SessionMsg) ([]byte, error) {
	var err error
	for i := range s.Cores {
		if dst, err = AppendCoreEntry(dst, &s.Cores[i]); err != nil {
			return dst, err
		}
	}
	for i, recs := range [2][]protocol.RecordMsg{s.Live, s.Memory} {
		for j := range recs {
			if dst, err = AppendRecordEntry(dst, i == 1, &recs[j]); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// DecodeSession decodes a run of entries into a form: core, live and
// memory entries only.
func DecodeSession(b []byte, s *protocol.SessionMsg) error {
	for len(b) > 0 {
		e, rest, err := NextEntry(b)
		if err != nil {
			return err
		}
		b = rest
		switch e.Tag {
		case EntryCore:
			s.Cores = append(s.Cores, e.Core)
		case EntryLive, EntryMemory:
			rec := protocol.RecordMsg{Seq: e.Seq, Owner: string(e.Owner)}
			if err := decodeRecord(e.Record, &rec); err != nil {
				return err
			}
			if e.Tag == EntryLive {
				s.Live = append(s.Live, rec)
			} else {
				s.Memory = append(s.Memory, rec)
			}
		default:
			return fmt.Errorf("v3: a session form holds no entry of tag %#x", e.Tag)
		}
	}
	return nil
}

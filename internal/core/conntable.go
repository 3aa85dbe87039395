package core

// connTable holds a router's live connection records so that every
// connection-level op costs what it touches, not what is resident:
//
//   - a doubly linked list in insertion order. The order is byte-relevant —
//     Connections and Export give it, an import adopts records
//     in it, and a rip-up retires records (so learns their paths and files
//     them in port memory) in it — and a list keeps it under O(1) removal.
//   - an index from the canonical track of a record's source pin to the
//     records sourced there, chained through the records themselves in
//     insertion order. A chain holds one net's records (a handful), so
//     Unroute, ReverseUnroute, RipUpNet, RipUpRegion and AdoptConnection
//     walk one chain each: a chain is one net, whichever endpoint — a pin
//     or a port bound to it — routed its records.
//
// A route pays one map insert per new record and allocates nothing beyond
// the record it already made.
type connTable struct {
	head, tail *Connection
	n          int
	bySrc      map[int32]*Connection // source track index -> oldest record sourced there
	seq        uint64                // last sequence number handed out
	log        *deltaLog             // nil until the first TakeDelta (see restore.go)
}

// noSource keys the records whose source endpoint named no single resource
// when they were recorded; no fabric walk ever arrives there.
const noSource int32 = -1

// sourceKey is the index key of a source endpoint: the track index of the
// one pin it resolves to.
func (r *Router) sourceKey(source EndPoint) int32 {
	src, err := sourcePin(source)
	if err != nil {
		return noSource
	}
	t, ok := r.Dev.CanonOK(src.Row, src.Col, src.W)
	if !ok {
		return noSource
	}
	return r.Dev.TrackIndex(t)
}

// bucket returns the oldest record sourced at track index key; follow
// srcNext for the rest. Every record a caller examines on the way counts in
// Stats.RecordsVisited.
func (t *connTable) bucket(key int32) *Connection { return t.bySrc[key] }

// insert appends c as the newest record.
func (t *connTable) insert(c *Connection, key int32) {
	t.seq++
	c.seq, c.key, c.listed = t.seq, key, true
	c.prev, c.next, c.srcNext = t.tail, nil, nil
	if t.tail != nil {
		t.tail.next = c
	} else {
		t.head = c
	}
	t.tail = c
	t.n++
	if t.bySrc == nil {
		t.bySrc = make(map[int32]*Connection)
	}
	if first := t.bySrc[key]; first == nil {
		t.bySrc[key] = c
	} else {
		for first.srcNext != nil {
			first = first.srcNext
		}
		first.srcNext = c
	}
	t.touch(c)
}

// remove unlinks c from the list and from its source's chain.
func (t *connTable) remove(c *Connection) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		t.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		t.tail = c.prev
	}
	t.n--
	if first := t.bySrc[c.key]; first == c {
		if c.srcNext == nil {
			delete(t.bySrc, c.key)
		} else {
			t.bySrc[c.key] = c.srcNext
		}
	} else {
		for first.srcNext != c {
			first = first.srcNext
		}
		first.srcNext = c.srcNext
	}
	c.prev, c.next, c.srcNext, c.listed = nil, nil, nil, false
	if t.log != nil {
		t.log.retired = append(t.log.retired, Gone{c.seq, c.owner})
	}
}

// touch notes that c was inserted or changed in place, for the delta log.
func (t *connTable) touch(c *Connection) {
	if t.log != nil {
		t.log.touched = append(t.log.touched, c)
	}
}

// truncate drops every record newer than mark (nil: all of them) — the
// rollback of a call that recorded several nets and then failed.
func (t *connTable) truncate(mark *Connection) {
	for t.tail != mark {
		t.remove(t.tail)
	}
}

// deltaLog accumulates what TakeDelta reports since the last call: records
// inserted or changed in place, records filed in port memory, and the
// sequence numbers of records that left the table or the memory. A record
// may appear more than once, and may have left since it was logged.
type deltaLog struct {
	touched, remembered []*Connection
	retired             []Gone
	delta               Delta // TakeDelta's result, reused
}

package server

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server/protocol"
)

// histBuckets is the number of power-of-two latency buckets; bucket i
// covers [2^i, 2^(i+1)) microseconds, bucket 0 also absorbs sub-µs ops.
const histBuckets = 28

// latencyHist is a log2 histogram over microseconds.
type latencyHist struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     time.Duration
}

func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	if us > 0 {
		i = int(math.Ilogb(float64(us)))
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i]++
	h.count++
	h.sum += d
}

// quantile returns the upper bound (in µs) of the bucket holding the q'th
// quantile observation.
func (h *latencyHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, b := range h.buckets {
		seen += b
		if seen > target {
			return math.Pow(2, float64(i+1))
		}
	}
	return math.Pow(2, histBuckets)
}

func (h *latencyHist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum.Microseconds()) / float64(h.count)
}

// opMetrics is one operation's counters.
type opMetrics struct {
	count  uint64
	errors uint64
	hist   latencyHist
}

// sessionMetrics collects one device session's counters. The worker
// goroutine writes; statsz readers snapshot under the mutex.
type sessionMetrics struct {
	mu            sync.Mutex
	router        core.Stats // the router's counters after its last op
	connections   int        // live connection records after its last op
	framesShipped int
	bytesShipped  int
	ops           map[string]*opMetrics
}

func newSessionMetrics() *sessionMetrics {
	return &sessionMetrics{ops: make(map[string]*opMetrics)}
}

func (m *sessionMetrics) observe(op string, d time.Duration, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	om := m.ops[op]
	if om == nil {
		om = &opMetrics{}
		m.ops[op] = om
	}
	om.count++
	if failed {
		om.errors++
	}
	om.hist.observe(d)
}

// noteRouter stores the router's counters and live record count. Called
// from the worker goroutine, which owns the router, so statsz readers
// never touch router state directly.
func (m *sessionMetrics) noteRouter(s core.Stats, connections int) {
	m.mu.Lock()
	m.router, m.connections = s, connections
	m.mu.Unlock()
}

func (m *sessionMetrics) addShipped(frames, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.framesShipped += frames
	m.bytesShipped += bytes
}

func (m *sessionMetrics) snapshot(queueDepth int) SessionStatsMsg {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &m.router
	out := SessionStatsMsg{
		Routes:           r.Routes,
		RipUps:           r.PIPsCleared,
		BatchIterations:  r.BatchIterations,
		CacheHits:        r.CacheHits,
		CacheMisses:      r.CacheMisses,
		ReplayFails:      r.ReplayFails,
		NodesExplored:    r.NodesExplored,
		RecordsVisited:   r.RecordsVisited,
		PartitionRegions: r.PartitionRegions,
		Connections:      m.connections,
		FramesShipped:    m.framesShipped,
		BytesShipped:     m.bytesShipped,
		QueueDepth:       queueDepth,
		Ops:              make(map[string]protocol.OpStatsMsg, len(m.ops)),
	}
	for op, om := range m.ops {
		out.Ops[op] = protocol.OpStatsMsg{
			Count:  om.count,
			Errors: om.errors,
			P50us:  om.hist.quantile(0.50),
			P99us:  om.hist.quantile(0.99),
			Meanus: om.hist.mean(),
		}
	}
	return out
}

// Package fleet shards the jrouted daemon over a fleet of boards: N board
// slots, each a device worker tethered to its own (emulated) FPGA board
// over the XHWIF wire, plus K spare boards. Logical client sessions are
// placed on slots deterministically — slot = placement key mod fleet size,
// where the key defaults to FNV-1a of the session name — so any coordinator
// given the same fleet size computes the same placement with no shared
// state. Admission control bounds the sessions per slot.
//
// Every acknowledged mutating op is journaled: the slot's worker hands what
// the op changed in each session's cores and records — live ones with
// their exact PIP paths and ways home, and port memory — to the slot's
// journal.Journal. When a board dies — detected by a failed configuration
// push, a failed health probe, or an op that panicked and quarantined the
// slot's worker — the call that saw it imports the journal's form of every
// session onto a spare with one session_import, the op a gateway moves a
// session with, before it returns: cores first, connections adopted
// replay-first through the route cache (the remembered paths are swept for
// legality and committed verbatim; a full maze search is paid only when a
// sweep fails), then port memory. The import pushes the spare its frames,
// the bitstream oracle audits the result, and only then is the spare's
// journal — fed by the import's own delta — the slot's and the slot
// swapped. The slot epoch increments on every swap; clients observe the
// epoch change and re-seed their mirrors. Calls that race the failover are
// answered with the retryable failover code.
//
// Journal consistency: a worker serializes everything behind its queue, and
// the journal is appended on the worker goroutine immediately after the
// board acknowledged the op's frames. Any failure that starts a failover
// (an op's push failing, a probe failing, a panic) is seen only after every
// acknowledged op's journal entry is in place — the journal can never miss
// an acked op. The import and audit run as tasks on the spare's worker, so
// a panic in them is contained there like any op's.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/jbits"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/journal"
	"repro/internal/server/protocol"
)

// Config describes a board fleet.
type Config struct {
	Boards int // board slots (required, >= 1)
	Spares int // spare boards available for failover

	Arch string // "" or "virtex", or "kestrel"
	Rows int
	Cols int

	// SessionCap bounds the logical sessions admitted per board slot
	// (0 = unlimited).
	SessionCap int

	// Opts configure every board worker (queue depth, parallelism,
	// paranoid verify, template library). The failover journal leans on
	// the workers' route cache to remember exact paths.
	Opts server.Options

	// ProbeInterval is the background health-probe period (0 = no
	// background probing; probes can still be run with ProbeAll).
	ProbeInterval time.Duration
}

// board is one emulated FPGA board plus its XHWIF tether: the hardware-side
// Serve loop and the coordinator-side RemoteBoard handle.
type board struct {
	name   string
	hw     *jbits.Board
	remote *jbits.RemoteBoard
	raw    net.Conn // coordinator-side pipe end; Close severs the link
}

func (c *Coordinator) newBoard(name string) (*board, error) {
	hw, err := jbits.NewBoard(name, c.arch, c.cfg.Rows, c.cfg.Cols)
	if err != nil {
		return nil, err
	}
	coordSide, boardSide := net.Pipe()
	go func() {
		// A board whose server panics closes its link, as one that fails
		// does, so the slot fails over on its next push or probe.
		defer func() {
			_ = recover()
			boardSide.Close()
		}()
		_ = jbits.Serve(boardSide, hw)
	}()
	return &board{name: name, hw: hw, remote: jbits.Dial(coordSide), raw: coordSide}, nil
}

// slot is one board slot: the board currently serving it, the worker bound
// to that board, and the slot's journal and epoch.
type slot struct {
	idx int

	mu       sync.Mutex
	b        *board
	worker   *server.Worker
	epoch    uint64
	down     bool // dead with no spare left
	failing  bool // a call is failing the slot over: reject ops instead of hitting the dead worker
	sessions map[string]struct{}
	j        *journal.Journal // fed by worker
}

func (s *slot) current() (*board, *server.Worker, uint64, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b, s.worker, s.epoch, s.down, s.failing
}

func (s *slot) journal() *journal.Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j
}

// Coordinator fronts the board fleet; it implements server.Fleet.
type Coordinator struct {
	cfg   Config
	arch  *arch.Arch
	slots []*slot

	mu         sync.Mutex
	spares     []*board
	graveyard  []*server.Worker // dead slots' workers; drained at Shutdown
	deadBoards []*board
	sessionKey map[string]uint64 // admitted sessions and the key that placed them
	closed     bool

	// stats holds the coordinator's statsz counters; Stats fills in the
	// counts and the per-slot sections.
	stats protocol.FleetStatsMsg

	probes *server.Loop // background health probes; nil when off
}

// New builds the fleet: Boards slots with one board and worker each, plus
// Spares idle boards, and starts the background health-probe loop when
// ProbeInterval is set.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Boards < 1 {
		return nil, fmt.Errorf("fleet: need at least one board")
	}
	a, err := arch.ByName(cfg.Arch)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	c := &Coordinator{
		cfg:        cfg,
		arch:       a,
		sessionKey: make(map[string]uint64),
	}
	for i := 0; i < cfg.Boards; i++ {
		sl := &slot{idx: i, epoch: 1, sessions: make(map[string]struct{}), j: journal.New()}
		b, err := c.newBoard(fmt.Sprintf("board%d", i))
		if err != nil {
			return nil, err
		}
		w, err := c.newWorker(b, sl.j)
		if err != nil {
			return nil, err
		}
		sl.b, sl.worker = b, w
		c.slots = append(c.slots, sl)
	}
	for i := 0; i < cfg.Spares; i++ {
		b, err := c.newBoard(fmt.Sprintf("spare%d", i))
		if err != nil {
			return nil, err
		}
		c.spares = append(c.spares, b)
	}
	if cfg.ProbeInterval > 0 {
		c.probes = server.StartLoop(cfg.ProbeInterval, func(ctx context.Context) bool {
			ctx, cancel := context.WithTimeout(ctx, server.ProbeTimeout)
			defer cancel()
			c.ProbeAll(ctx)
			return true
		}, c.noteProbeFail)
	}
	return c, nil
}

// newWorker builds the device worker tethered to b: its ship hook pushes
// every acknowledged op's dirty frames over the board link, and its journal
// hook feeds j.
func (c *Coordinator) newWorker(b *board, j *journal.Journal) (*server.Worker, error) {
	remote := b.remote
	return server.NewWorker(server.WorkerConfig{
		Name: b.name,
		Arch: c.cfg.Arch,
		Rows: c.cfg.Rows,
		Cols: c.cfg.Cols,
		Opts: c.cfg.Opts,
		ShipHook: func(stream []byte, _ int) error {
			return remote.ConfigurePartial(stream)
		},
		JournalHook: func(d []byte) { _ = j.Apply(d) },
	})
}

// PlacementKey is the default placement hash: FNV-1a of the session name.
// Placement is slot = key mod fleet size — a pure function of name and
// fleet size, so every coordinator (and any client predicting placement)
// agrees with no coordination.
func PlacementKey(session string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, session)
	return h.Sum64()
}

func (c *Coordinator) slotFor(key uint64) *slot {
	return c.slots[int(key%uint64(len(c.slots)))]
}

// Sessions lists the admitted logical sessions.
func (c *Coordinator) Sessions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.sessionKey))
	for name := range c.sessionKey {
		out = append(out, name)
	}
	return out
}

// Submit handles one per-session request: placement and admission on
// connect, board lookup on everything else. Successful responses carry the
// serving board's name and epoch so clients can detect failovers.
func (c *Coordinator) Submit(ctx context.Context, req *protocol.Request) *protocol.Response {
	op := req.Row()
	if op == nil || op.Scope != protocol.ScopeSession {
		return protocol.UnknownOp(req)
	}
	if req.Session == "" {
		return &protocol.Response{ID: req.ID, ErrorCode: protocol.CodeBadRequest,
			Err: "fleet: op without a session name"}
	}
	if op.Byte == protocol.OpConnect {
		return c.connect(ctx, req)
	}
	c.mu.Lock()
	key, admitted := c.sessionKey[req.Session]
	c.mu.Unlock()
	if !admitted {
		return &protocol.Response{ID: req.ID, ErrorCode: protocol.CodeNoDevice,
			Err: fmt.Sprintf("fleet: no session %q (connect first)", req.Session)}
	}
	sl := c.slotFor(key)
	return c.submitToSlot(ctx, sl, req)
}

// submitToSlot runs one request on a slot's current worker, short-circuiting
// slots that are down or mid-failover: an op must never execute on the dead
// board's worker once the death is known — its router still holds the
// unacknowledged mutations of the ops the dead link failed, and running the
// retries there would surface phantom conflicts instead of the retryable
// failover code. A quarantined worker (an op panicked on it) is failed over
// as a dead board is. Successful responses are stamped with the serving
// board and epoch.
func (c *Coordinator) submitToSlot(ctx context.Context, sl *slot, req *protocol.Request) *protocol.Response {
	_, w, epoch, down, failing := sl.current()
	if down {
		return &protocol.Response{ID: req.ID, ErrorCode: protocol.CodeBoardDown,
			Err: fmt.Sprintf("fleet: slot %d is down and no spare is left", sl.idx)}
	}
	if !failing && w.Quarantined() {
		c.requestFailover(sl, epoch)
		failing = true
	}
	if failing {
		return &protocol.Response{ID: req.ID, ErrorCode: protocol.CodeFailover,
			Err: fmt.Sprintf("fleet: slot %d is failing over, retry", sl.idx)}
	}
	resp := w.Submit(ctx, req)
	if resp.ErrorCode == protocol.CodeFailover || w.Quarantined() {
		c.requestFailover(sl, epoch)
	} else if resp.Err == "" {
		b, _, cur, _, _ := sl.current()
		resp.Board, resp.Epoch = b.name, cur
	}
	return resp
}

// connect admits (or re-attaches) a session and returns the slot's current
// configuration.
func (c *Coordinator) connect(ctx context.Context, req *protocol.Request) *protocol.Response {
	key := PlacementKey(req.Session)
	if req.Key != nil {
		key = *req.Key
	}
	sl := c.slotFor(key)
	sl.mu.Lock()
	_, attached := sl.sessions[req.Session]
	if !attached {
		if c.cfg.SessionCap > 0 && len(sl.sessions) >= c.cfg.SessionCap {
			sl.mu.Unlock()
			c.mu.Lock()
			c.stats.AdmissionRejects++
			c.mu.Unlock()
			return &protocol.Response{ID: req.ID, ErrorCode: protocol.CodeAdmission,
				Err: fmt.Sprintf("fleet: slot %d at its session cap (%d)", sl.idx, c.cfg.SessionCap)}
		}
		sl.sessions[req.Session] = struct{}{}
	}
	sl.mu.Unlock()
	c.mu.Lock()
	c.sessionKey[req.Session] = key
	c.mu.Unlock()
	return c.submitToSlot(ctx, sl, req)
}

// requestFailover fails the slot over on the calling goroutine — the op's
// or ProbeAll's — if its epoch is still the one observed dead and no other
// call has claimed it: stale and duplicate reports are dropped. The claim
// marks the slot failing, so ops that race it are rejected with the
// retryable code rather than executed against the dead board's worker, and
// the call that saw the death returns only once the slot has swapped or
// gone down.
func (c *Coordinator) requestFailover(sl *slot, epoch uint64) {
	sl.mu.Lock()
	claim := sl.epoch == epoch && !sl.down && !sl.failing
	if claim {
		sl.failing = true
	}
	sl.mu.Unlock()
	if claim {
		c.failover(sl)
	}
}

// failover replaces a dead board with a spare: replay the slot's journal
// onto a fresh worker tethered to the spare (cores through the normal op
// path, connections re-adopted replay-first through the route cache), push
// the full configuration, audit the spare with the bitstream oracle, then
// swap it in under a new epoch. The dead worker is parked in the graveyard
// — its queue must stay open for any straggling submitters — and drained at
// Shutdown. The caller has claimed the slot (see requestFailover).
func (c *Coordinator) failover(sl *slot) {
	sl.mu.Lock()
	oldBoard, oldWorker := sl.b, sl.worker
	sl.mu.Unlock()

	c.mu.Lock()
	if len(c.spares) == 0 {
		c.stats.FailoverFails++
		c.mu.Unlock()
		sl.mu.Lock()
		sl.down = true
		sl.failing = false
		sl.mu.Unlock()
		return
	}
	spare := c.spares[0]
	c.spares = c.spares[1:]
	c.mu.Unlock()

	newWorker, j, restored, replayed, restoreTime, err := c.replay(sl, spare)
	if err != nil {
		// The spare itself is bad; consume it and report the slot dead
		// rather than serving a board the oracle rejected.
		c.mu.Lock()
		c.stats.FailoverFails++
		c.deadBoards = append(c.deadBoards, spare)
		c.mu.Unlock()
		sl.mu.Lock()
		sl.down = true
		sl.failing = false
		sl.mu.Unlock()
		return
	}

	sl.mu.Lock()
	sl.b = spare
	sl.worker = newWorker
	sl.j = j
	sl.epoch++
	sl.failing = false
	sl.mu.Unlock()

	c.mu.Lock()
	c.stats.Failovers++
	c.stats.RestoredConns += restored
	c.stats.ReplayedPaths += replayed
	c.stats.RestoreUs += restoreTime.Microseconds()
	c.graveyard = append(c.graveyard, oldWorker)
	c.deadBoards = append(c.deadBoards, oldBoard)
	c.mu.Unlock()
	_ = oldBoard.raw.Close() // sever whatever is left of the dead link
}

// replay rebuilds the slot's journaled state on a fresh worker tethered to
// the spare — one session_import of the form of every session, which pushes
// the spare its frames — and audits the result. It returns the replayed
// worker and its journal, how many connections were restored, how many
// routes were served by cached-path replay rather than a fresh search, and
// the time the import took (the part a warm template library accelerates;
// the audit that follows costs the same either way).
func (c *Coordinator) replay(sl *slot, spare *board) (*server.Worker, *journal.Journal, int, int, time.Duration, error) {
	form, live := sl.journal().Form("")
	j := journal.New()
	w, err := c.newWorker(spare, j)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fail := func(err error) (*server.Worker, *journal.Journal, int, int, time.Duration, error) {
		w.Close()
		<-w.Done()
		return nil, nil, 0, 0, 0, err
	}
	start := time.Now()
	if resp := w.Submit(ctx, &protocol.Request{Op: "session_import", Form: form}); resp.Err != "" {
		return fail(fmt.Errorf("fleet: importing onto %s: %s", spare.name, resp.Err))
	}
	restore := time.Since(start)
	// Audit the spare before trusting it: every net on it, clocks included,
	// must be a replayed record.
	if err := spare.audit(ctx, w, true); err != nil {
		return fail(err)
	}
	return w, j, live, w.StatsSnapshot().CacheHits, restore, nil
}

// KillBoard severs slot i's board link immediately — the test and demo
// lever for "the board died". The next push or probe on the slot fails and
// fails the slot over.
func (c *Coordinator) KillBoard(i int) error {
	if i < 0 || i >= len(c.slots) {
		return fmt.Errorf("fleet: no slot %d", i)
	}
	b, _, _, _, _ := c.slots[i].current()
	return b.raw.Close()
}

// Epoch returns slot i's current epoch.
func (c *Coordinator) Epoch(i int) uint64 {
	_, _, epoch, _, _ := c.slots[i].current()
	return epoch
}

// ProbeAll health-probes every live slot once: the board is read back over
// its link and audited by the bitstream oracle against the worker's own
// bitstream. A failed probe (dead link, divergent or structurally invalid
// configuration) fails the slot over before ProbeAll moves on.
func (c *Coordinator) ProbeAll(ctx context.Context) {
	for _, sl := range c.slots {
		b, w, epoch, down, failing := sl.current()
		if down || failing {
			continue // dead or already failing over: nothing to learn
		}
		c.mu.Lock()
		c.stats.HealthProbes++
		c.mu.Unlock()
		if err := b.audit(ctx, w, false); err != nil {
			if errors.Is(ctx.Err(), context.Canceled) {
				return // stopped mid-round: the probe learned nothing
			}
			c.noteProbeFail()
			c.requestFailover(sl, epoch)
		}
	}
}

// noteProbeFail counts one failed probe, or one probe tick that panicked.
func (c *Coordinator) noteProbeFail() {
	c.mu.Lock()
	c.stats.ProbeFails++
	c.mu.Unlock()
}

// audit reads the board back over its link, as a task on w, the worker
// tethered to it: the readback must equal w's full configuration and pass
// the oracle's structural invariants. strict also holds every net on the
// board to a record of w's router. A failed probe and a rejected spare are
// both this audit failing.
func (b *board) audit(ctx context.Context, w *server.Worker, strict bool) error {
	return w.Do(ctx, func(r *core.Router, js *jbits.Session) error {
		back, err := b.remote.Readback()
		if err != nil {
			return err
		}
		// The readback came from the frame pool and is dead once audited.
		defer jbits.RecycleFrame(back)
		want, err := js.Dev.FullConfig()
		if err != nil {
			return err
		}
		if !bytes.Equal(back, want) {
			return fmt.Errorf("fleet: %s readback diverges from its worker's configuration", b.name)
		}
		var claims []oracle.Claim
		if strict {
			claims = r.OracleClaims()
		}
		return oracle.Audit(js.Dev.A, back, claims, strict)
	})
}

// Stats snapshots the coordinator counters and per-slot sections.
func (c *Coordinator) Stats() *protocol.FleetStatsMsg {
	c.mu.Lock()
	out := c.stats
	out.Boards, out.SparesLeft, out.Sessions = len(c.slots), len(c.spares), len(c.sessionKey)
	c.mu.Unlock()
	out.Slots = make(map[string]protocol.BoardStatsMsg, len(c.slots))
	for _, sl := range c.slots {
		sl.mu.Lock()
		b, w, epoch, down := sl.b, sl.worker, sl.epoch, sl.down
		nSessions := len(sl.sessions)
		sl.mu.Unlock()
		if down {
			out.DownSlots++
		}
		hc := b.hw.Counters()
		out.Slots[fmt.Sprintf("slot%d", sl.idx)] = protocol.BoardStatsMsg{
			Board: b.name, Epoch: epoch, Healthy: !down, Sessions: nSessions,
			HW: protocol.BoardHWMsg{FullConfigs: hc.FullConfigs, PartialConfigs: hc.PartialConfigs,
				FramesWritten: hc.FramesWritten, BytesWritten: hc.BytesWritten},
			Worker: w.StatsSnapshot(),
		}
	}
	return &out
}

// Shutdown stops probing (a failover a probe started finishes first),
// drains every worker (live and graveyard), and tears down the board
// links. Callers must guarantee no Submit is in flight — the daemon calls
// this only after its connection handlers have exited.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.probes.Stop()

	var workers []*server.Worker
	var boards []*board
	for _, sl := range c.slots {
		sl.mu.Lock()
		workers, boards = append(workers, sl.worker), append(boards, sl.b)
		sl.mu.Unlock()
	}
	c.mu.Lock()
	workers = append(workers, c.graveyard...)
	boards = append(boards, c.spares...)
	boards = append(boards, c.deadBoards...)
	c.mu.Unlock()

	for _, w := range workers {
		w.Close()
	}
	var err error
	for _, w := range workers {
		select {
		case <-w.Done():
		case <-ctx.Done():
			if err == nil {
				err = fmt.Errorf("fleet: shutdown deadline exceeded draining %s", w.Name())
			}
		}
	}
	for _, b := range boards {
		_ = b.raw.Close()
	}
	return err
}

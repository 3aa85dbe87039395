package gateway

import (
	"slices"
	"sort"

	"repro/internal/server"
	"repro/internal/server/protocol"
)

// sessionState is what a session holds on its backend as the acks told the
// gateway — its cores in creation order with their current descriptions,
// its live nets, and the router's port memory — not the history that
// produced it.
type sessionState struct {
	cores []server.CoreMsg
	nets  map[epKey]liveNet
	seq   uint64 // stamp of the newest net: nets replay in stamp order
	// mem is the port memory (§3.3) the router keeps: what an unroute or a
	// reverse_unroute took off a net touching a core's port. A core_replace
	// of that core routes it again, as cores.Replace's Reconnect does.
	mem []server.NetMsg
}

// epKey names an endpoint as the router compares endpoints: a pin by value,
// a port by (core, group, index). A port and the pin it resolves to are two
// keys, as they are two endpoints to the router.
type epKey struct {
	pin  server.PinMsg
	port server.PortRefMsg
}

func keyOf(ep *server.EndPointMsg) (k epKey) {
	if ep.Pin != nil {
		k.pin = *ep.Pin
	} else if ep.Port != nil {
		k.port = *ep.Port
	}
	return k
}

type liveNet struct {
	seq uint64
	server.NetMsg
}

// apply folds one acked mutating request into the state. An unroute of a
// source the state does not hold (its route's ack was lost) changes
// nothing, which is also what it leaves on a move's target.
func (s *sessionState) apply(op byte, req *server.Request) {
	switch op {
	case protocol.OpRoute:
		s.add(*req.Source, req.Sinks)
	case protocol.OpBus, protocol.OpBusBatch:
		for i := range req.Sources {
			s.add(req.Sources[i], req.Sinks[i:i+1])
		}
	case protocol.OpBatch:
		for _, n := range req.Nets {
			s.add(n.Source, n.Sinks)
		}
	case protocol.OpUnroute:
		k := keyOf(req.Source)
		if n, ok := s.nets[k]; ok {
			delete(s.nets, k)
			s.remember(n.NetMsg)
		}
	case protocol.OpReverseUnroute:
		sink := keyOf(req.Source)
		for k, n := range s.nets {
			if i := sinkAt(n.Sinks, sink); i >= 0 {
				s.remember(server.NetMsg{Source: n.Source, Sinks: []server.EndPointMsg{n.Sinks[i]}})
				if n.Sinks = slices.Delete(n.Sinks, i, i+1); len(n.Sinks) == 0 {
					delete(s.nets, k)
				} else {
					s.nets[k] = n
				}
				return
			}
		}
	case protocol.OpCoreNew:
		s.cores = append(s.cores, *req.Core)
	case protocol.OpCoreReplace:
		for i := range s.cores {
			if s.cores[i].Name == req.Core.Name {
				server.FoldReplace(&s.cores[i], req.Core)
			}
		}
		s.mem = slices.DeleteFunc(s.mem, func(m server.NetMsg) bool {
			if !touches(&m, req.Core.Name) {
				return false
			}
			s.add(m.Source, m.Sinks)
			return true
		})
	}
}

// add creates the net sourced at src, or extends it with the sinks it does
// not reach yet.
func (s *sessionState) add(src server.EndPointMsg, sinks []server.EndPointMsg) {
	k := keyOf(&src)
	n, ok := s.nets[k]
	if !ok {
		s.seq++
		n = liveNet{s.seq, server.NetMsg{Source: src, Sinks: make([]server.EndPointMsg, 0, len(sinks))}}
	}
	for _, sk := range sinks {
		if sinkAt(n.Sinks, keyOf(&sk)) < 0 {
			n.Sinks = append(n.Sinks, sk)
		}
	}
	s.nets[k] = n
}

// remember keeps what an unroute took down if it touches a port, which is
// what the router remembers; a pin-to-pin net it forgets. A pin-sourced net
// whose pin and port sinks came from separate routes is one net here but
// separate records to the router, which remembers only the port ones.
func (s *sessionState) remember(n server.NetMsg) {
	if touches(&n, "") {
		s.mem = append(s.mem, n)
	}
}

// touches reports whether a net has an endpoint on a port of the named core
// (of any core, for "").
func touches(n *server.NetMsg, core string) bool {
	on := func(ep server.EndPointMsg) bool {
		return ep.Port != nil && (core == "" || ep.Port.Core == core)
	}
	return on(n.Source) || slices.ContainsFunc(n.Sinks, on)
}

func sinkAt(sinks []server.EndPointMsg, k epKey) int {
	for i := range sinks {
		if keyOf(&sinks[i]) == k {
			return i
		}
	}
	return -1
}

// batch lists the live nets in creation order.
func (s *sessionState) batch() []server.NetMsg {
	live := make([]liveNet, 0, len(s.nets))
	for _, n := range s.nets {
		live = append(live, n)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	out := make([]server.NetMsg, len(live))
	for i, n := range live {
		out[i] = n.NetMsg
	}
	return out
}

package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/device"
	"repro/internal/maze"
)

// BatchNet is one net of a batch-routing request.
type BatchNet struct {
	Source EndPoint
	Sinks  []EndPoint
}

// ErrTimingDrivenBatch is RouteBatch's and RouteBusBatch's answer on a
// TimingDriven router. The negotiation's congestion costs are in wire units
// and it has no delay model, so it would count wires: it refuses rather
// than ignore the option.
var ErrTimingDrivenBatch = errors.New("core: the negotiated batch router has no delay model; TimingDriven is refused")

// RouteBatch routes a set of nets together under negotiated congestion —
// the §6 "different algorithms" extension (after Swartz/Betz/Rose's
// routability-driven router). Unlike the greedy sequential calls, the
// batch router may trade wires between nets: every net is ripped up and
// re-routed with congestion-inflated costs until no track is shared, and
// only the converged solution is committed to the device. Either all nets
// route or none do. Under Options.TimingDriven it refuses with
// ErrTimingDrivenBatch and changes nothing.
//
// Connection records are created for every net, so port memory and
// unrouting behave exactly as with the sequential calls. If a commit
// fails partway (it cannot contend — the negotiation guarantees disjoint
// tracks — but the device may still reject a PIP), both the PIPs already
// set and the Connection records already created by this call are rolled
// back.
func (r *Router) RouteBatch(nets []BatchNet) (err error) {
	if r.opt.TimingDriven {
		return ErrTimingDrivenBatch
	}
	r.enterOp()
	defer r.exitOp(&err)
	specs := slices.Grow(r.specBuf[:0], len(nets))[:len(nets)]
	r.specBuf = specs
	for i, n := range nets {
		src, err := sourcePin(n.Source)
		if err != nil {
			return fmt.Errorf("core: batch net %d: %w", i, err)
		}
		srcTrack, err := r.Dev.Canon(src.Row, src.Col, src.W)
		if err != nil {
			return fmt.Errorf("core: batch net %d: %w", i, err)
		}
		specs[i].Source = srcTrack
		if len(n.Sinks) == 0 {
			return fmt.Errorf("core: batch net %d has no sinks", i)
		}
		pins := r.sinkPins[:0]
		for _, s := range n.Sinks {
			k := len(pins)
			if pins = AppendPins(pins, s); len(pins) == k {
				return fmt.Errorf("core: batch net %d: sink resolves to no pins", i)
			}
		}
		r.sinkPins = pins
		specs[i].Sinks = slices.Grow(specs[i].Sinks[:0], len(pins))[:len(pins)]
		for k, p := range pins {
			if specs[i].Sinks[k], err = r.Dev.Canon(p.Row, p.Col, p.W); err != nil {
				return fmt.Errorf("core: batch net %d: %w", i, err)
			}
		}
	}
	res, err := r.ms.NegotiatedRoute(r.Dev, specs, maze.NegotiationOptions{
		Options:     r.mazeOpts(),
		Parallelism: r.opt.Parallelism,
		Partition:   true,
	})
	if err != nil {
		return err
	}
	r.stats.NodesExplored += res.Explored
	r.stats.BatchIterations += res.Iterations
	r.stats.PartitionRegions += res.Regions
	r.stats.PartitionCrossing += res.CrossingNets
	r.stats.RegionIterations += res.RegionIterations
	r.stats.GlobalIterations += res.GlobalIterations
	// Commit net by net, creating each net's Connection record as soon as
	// its PIPs are on the device. A failure therefore has to undo both:
	// clear the PIPs applied, newest net first, and drop the records this
	// call created.
	mark := r.conns.tail
	for i, pips := range res.Nets {
		for pi, p := range pips {
			if err := r.commitBatchPIP(i, pi, p); err != nil {
				r.unwind(pips[:pi])
				for j := i - 1; j >= 0; j-- {
					r.unwind(res.Nets[j])
				}
				r.conns.truncate(mark)
				r.backToEntry()
				return fmt.Errorf("core: committing batch: %w", err)
			}
			r.stats.PIPsSet++
		}
		r.stats.Routes += len(nets[i].Sinks)
		// Each net's negotiated path goes onto its record so the route
		// cache can replay it after an unroute, just like sequential routes;
		// it keeps a copy, for the negotiation's routes are router scratch.
		r.recordPath(netRec, owned(pips), nets[i].Source, nets[i].Sinks...)
	}
	return nil
}

// commitBatchPIP sets one negotiated PIP on the device, first consulting
// the test-only fault hook that audits the rollback path.
func (r *Router) commitBatchPIP(net, pip int, p device.PIP) error {
	if r.batchCommitFault != nil {
		if err := r.batchCommitFault(net, pip); err != nil {
			return err
		}
	}
	return r.Dev.SetPIP(p.Row, p.Col, p.From, p.To)
}

// RouteBusBatch is RouteBus via the negotiated batch router: each bit
// becomes one single-sink net, routed together; RouteBatch copies sinks.
func (r *Router) RouteBusBatch(sources, sinks []EndPoint) error {
	if len(sources) != len(sinks) {
		return fmt.Errorf("core: bus width mismatch: %d sources, %d sinks", len(sources), len(sinks))
	}
	if len(sources) == 0 {
		return fmt.Errorf("core: empty bus")
	}
	nets := make([]BatchNet, len(sources))
	for i := range sources {
		nets[i] = BatchNet{Source: sources[i], Sinks: sinks[i : i+1 : i+1]}
	}
	return r.RouteBatch(nets)
}

// jrouted -learn: the template-library learn campaign. The stdlib wiring
// manifest plus a fan-net warm-up are routed on scratch devices and every
// template learned is written to a library file for jrouted -library.
package main

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/library"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/workload"
)

// Warm-up shape. The nets are generated in a sub-grid (the array less the
// margins) so that a consumer can relocate them and stay on-array. They
// are single-sink: a template replay serves the whole net, where a fanout
// net replays only its first sink and searches the rest.
const (
	learnNets      = 24
	learnRadius    = 28
	learnRowMargin = 3
	learnColMargin = 5
)

// runLearn routes the stdlib manifest and the warm-up workload on scratch
// devices, writes every learned template to path, and reads the file back
// as a daemon would.
func runLearn(path string, seed int64, rows, cols int) error {
	b := library.NewBuilder("virtex", rows, cols)
	if _, err := cores.LearnStdlib(arch.NewVirtex(), rows, cols, b); err != nil {
		return err
	}
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		return err
	}
	r := core.New(d)
	nets, err := workload.New(seed, rows-learnRowMargin, cols-learnColMargin).FanNets(learnNets, 1, learnRadius)
	if err != nil {
		return err
	}
	for _, n := range nets {
		eps := make([]core.EndPoint, len(n.Sinks))
		for i, s := range n.Sinks {
			eps[i] = s
		}
		if err := r.RouteFanout(n.Src, eps); err != nil {
			return err
		}
	}
	r.HarvestTemplates(b)

	if err := b.WriteFile(path); err != nil {
		return err
	}
	lib, st, err := library.Load(path)
	if err != nil {
		return err
	}
	if st.Skipped != 0 {
		return fmt.Errorf("freshly written library skipped %d entries on re-read", st.Skipped)
	}
	fmt.Printf("learned %d templates (%dx%d %s) -> %s (id %s)\n",
		lib.Len(), rows, cols, lib.Arch(), path, lib.ID())
	return nil
}

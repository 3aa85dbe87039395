package core

import (
	"repro/internal/core/library"
	"repro/internal/device"
)

// Functional options over the Options struct. The struct stays the internal
// representation; New composes it from readable, order-independent
// constructors:
//
//	r := core.New(dev, core.WithParallelism(8), core.WithLibrary(lib))
//
// New is the one constructor; code that builds a configuration
// dynamically (config grids, harness structs) carries a []Option.

// Option mutates the router Options during construction.
type Option func(*Options)

// New creates a router for a device from functional options.
func New(dev *device.Device, opts ...Option) *Router {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	r := &Router{Dev: dev, opt: o, remembered: make(map[*Port][]*Connection)}
	r.attachLibrary()
	return r
}

// WithAlgorithm selects the search algorithm for the automatic calls.
func WithAlgorithm(a Algorithm) Option { return func(o *Options) { o.Algorithm = a } }

// WithLongLines enables long lines in automatic routing.
func WithLongLines(on bool) Option { return func(o *Options) { o.UseLongLines = on } }

// WithTimingDriven makes the maze search minimize estimated delay.
func WithTimingDriven(on bool) Option { return func(o *Options) { o.TimingDriven = on } }

// WithParallelism bounds the negotiated batch router's worker goroutines
// (0 = GOMAXPROCS, 1 = sequential; the result is identical either way).
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithLibrary attaches a persistent route-template library: a read-only,
// shareable tier of relocatable templates consulted below the in-session
// learned entries. Entries are audited before use and FIFO eviction never
// touches them. See Options.Library.
func WithLibrary(lib *library.Library) Option { return func(o *Options) { o.Library = lib } }

// WithParanoidVerify audits every automatic op boundary through the
// bitstream oracle.
func WithParanoidVerify(on bool) Option { return func(o *Options) { o.ParanoidVerify = on } }

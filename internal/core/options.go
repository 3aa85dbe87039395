package core

import "repro/internal/device"

// Functional options over the Options struct. The struct stays the internal
// representation; New composes it from readable, order-independent
// constructors:
//
//	r := core.New(dev, core.WithParallelism(8), core.WithLongLines(true))
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
	return &Router{Dev: dev, opt: o, remembered: make(map[*Port][]*Connection)}
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

// WithParanoidVerify audits every automatic op boundary through the
// bitstream oracle.
func WithParanoidVerify(on bool) Option { return func(o *Options) { o.ParanoidVerify = on } }

package server

import "net"

// Opt is a functional option for NewServer, the one constructor. The
// Options struct stays the representation fleet.Config and WorkerConfig
// carry.
type Opt func(*Options)

// NewServer creates an empty daemon from functional options; add devices
// with AddDevice (or attach a fleet with SetFleet), then Start.
func NewServer(opts ...Opt) *Server {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return &Server{
		opts:     o,
		sessions: make(map[string]*Worker),
		conns:    make(map[net.Conn]struct{}),
	}
}

// WithQueueDepth bounds each session's request queue.
func WithQueueDepth(n int) Opt { return func(o *Options) { o.QueueDepth = n } }

// WithParallelism sets the negotiated-batch worker count for every session
// router (0 = GOMAXPROCS).
func WithParallelism(n int) Opt { return func(o *Options) { o.Parallelism = n } }

// WithParanoidVerify makes every session router audit each automatic
// routing op with the bitstream oracle before acknowledging it.
func WithParanoidVerify(on bool) Opt { return func(o *Options) { o.ParanoidVerify = on } }

// WithAuth installs a hello-token authenticator: fn maps the bearer token
// from each connection's hello to a tenant name, or errors to refuse the
// hello with the unauthorized code. The gateway tier uses this; plain
// daemons leave it nil and admit everyone as the anonymous tenant.
func WithAuth(fn func(token string) (tenant string, err error)) Opt {
	return func(o *Options) { o.Auth = fn }
}

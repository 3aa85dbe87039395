// jgateway is the stateless multi-fleet gateway daemon: one edge tier
// fronting N independent jrouted fleets. Clients speak the ordinary
// service protocol at it unchanged; the gateway resolves the
// device-class alias in the session name to a backend fleet at connect,
// pins the session there by placement-key affinity, and enforces the
// multi-tenant edges — bearer-token auth, per-tenant session and ops/s
// quotas, health-based backend ejection, and drain by state handoff.
//
// Usage:
//
//	jgateway -listen :7410 -backend be0=127.0.0.1:7411,v1000-class \
//	                       -backend be1=127.0.0.1:7412,v1000-class
//	jgateway -listen :7410 -config gateway.json
//	jgateway -connect 127.0.0.1:7410 -token $ADMIN -drain-backend be0
//
// The -config file is the JSON form of gateway.Config: backends, tenant
// tokens and quotas, default class, probe interval. Flags layer on top of
// the file; -backend entries append. With -drain-backend the binary acts
// as an admin client instead of a daemon: it connects, issues gw_drain
// (moving every pinned session off the named backend by state handoff),
// prints the moved sessions, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/server/client"
)

// backendList collects repeatable -backend flags: name=addr[,class,...].
type backendList []gateway.BackendConfig

func (l *backendList) String() string {
	var parts []string
	for _, b := range *l {
		parts = append(parts, fmt.Sprintf("%s=%s", b.Name, b.Addr))
	}
	return strings.Join(parts, " ")
}

func (l *backendList) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=addr[,class,...], got %q", v)
	}
	fields := strings.Split(rest, ",")
	b := gateway.BackendConfig{Name: name, Addr: fields[0]}
	for _, c := range fields[1:] {
		if c != "" {
			b.Classes = append(b.Classes, c)
		}
	}
	if len(b.Classes) == 0 {
		b.Classes = []string{"v1000-class"}
	}
	*l = append(*l, b)
	return nil
}

func main() {
	var backends backendList
	listen := flag.String("listen", "127.0.0.1:7410", "TCP listen address")
	configPath := flag.String("config", "", "gateway config file (JSON gateway.Config: backends, tenants, quotas)")
	defaultClass := flag.String("default-class", "", "device class assumed for session names without a class/ prefix")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "backend health-probe period (0 = disabled)")
	drainBudget := flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
	connectAddr := flag.String("connect", "", "admin mode: gateway address to connect to instead of serving")
	token := flag.String("token", "", "admin mode: bearer token presented in the hello")
	drainBackend := flag.String("drain-backend", "", "admin mode: drain this backend (state handoff) via gw_drain and exit")
	flag.Var(&backends, "backend", "backend fleet as name=addr[,class,...]; repeatable")
	flag.Parse()

	if *drainBackend != "" {
		if *connectAddr == "" {
			log.Fatal("jgateway: -drain-backend needs -connect")
		}
		if err := runDrain(*connectAddr, *token, *drainBackend); err != nil {
			log.Fatalf("jgateway: drain: %v", err)
		}
		return
	}

	var cfg gateway.Config
	if *configPath != "" {
		var err error
		cfg, err = gateway.LoadConfig(*configPath)
		if err != nil {
			log.Fatalf("jgateway: %v", err)
		}
	}
	cfg.Backends = append(cfg.Backends, backends...)
	if *defaultClass != "" {
		cfg.DefaultClass = *defaultClass
	}
	if cfg.ProbeIntervalMillis == 0 {
		cfg.ProbeIntervalMillis = probeInterval.Milliseconds()
	}

	gw, err := gateway.New(cfg)
	if err != nil {
		log.Fatalf("jgateway: %v", err)
	}
	srv := server.NewServer(server.WithAuth(gw.Authenticate))
	srv.SetFleet(gw)
	addr, err := srv.Start(*listen)
	if err != nil {
		log.Fatalf("jgateway: listen: %v", err)
	}
	mode := "anonymous"
	if n := len(cfg.Tenants); n > 0 {
		mode = fmt.Sprintf("%d tenants, token auth", n)
	}
	log.Printf("jgateway: serving on %s, %d backends, %s", addr, len(cfg.Backends), mode)
	for _, b := range cfg.Backends {
		log.Printf("jgateway: backend %s = %s %v", b.Name, b.Addr, b.Classes)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("jgateway: shutting down (budget %v)", *drainBudget)
	ctx, cancel := context.WithTimeout(context.Background(), *drainBudget)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("jgateway: %v", err)
		os.Exit(1)
	}
	log.Printf("jgateway: drained cleanly")
}

// runDrain is admin mode: issue gw_drain against a running gateway.
func runDrain(addr, token, backend string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c, err := client.Dial(ctx, addr, client.WithToken(token))
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Forward(ctx, &server.Request{Op: "gw_drain", Session: backend})
	if err != nil {
		return err
	}
	if resp.ErrorCode != 0 { // CodeOK
		return fmt.Errorf("%s (%s)", resp.Err, resp.ErrorCode)
	}
	log.Printf("jgateway: drained %s, moved %d sessions", backend, len(resp.Devices))
	for _, s := range resp.Devices {
		log.Printf("jgateway:   moved %s", s)
	}
	return nil
}

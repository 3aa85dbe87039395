// Package gateway is the stateless multi-fleet edge tier: one daemon
// fronting N independent jrouted fleets. It terminates the ordinary
// client protocol (the thin-mirror client points at a gateway with zero
// code changes), resolves device-class aliases to backend
// fleets at session open, pins each session to one backend with the same
// FNV-1a affinity the fleet uses for board placement, and enforces the
// multi-tenant edges: bearer-token auth, per-tenant session and ops/s
// quotas, health-based backend ejection, and drain by state handoff.
//
// The gateway holds no durable state. Per session it keeps what the acks
// say the backend holds — cores, live nets and the nets the router
// remembers under a core's ports, not the ops that made them — as the
// session's form, and moves a session onto another fleet with a connect and
// one session_import of that form, which places it all or nothing. The
// client knows all of it too. All bitstream truth lives in the backend
// fleets.
package gateway

import (
	"encoding/json"
	"fmt"
	"os"
)

// BackendConfig names one jrouted fleet the gateway fronts.
type BackendConfig struct {
	// Name is the stable identity sessions are pinned against; it prefixes
	// the board name clients see ("be0/board3").
	Name string `json:"name"`
	// Addr is the fleet daemon's TCP address.
	Addr string `json:"addr"`
	// Classes lists the device-class aliases this fleet serves
	// ("v1000-class"). A connect whose session name carries one of these
	// prefixes may land here.
	Classes []string `json:"classes"`
}

// TenantConfig is one tenant's token and quotas.
type TenantConfig struct {
	Name  string `json:"name"`
	Token string `json:"token"`
	// SessionCap bounds concurrently open sessions (0 = unlimited).
	SessionCap int `json:"session_cap,omitempty"`
	// OpsPerSec refills the tenant's token bucket (0 = unlimited).
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// Burst is the bucket depth (0 = max(1, 2*OpsPerSec)).
	Burst float64 `json:"burst,omitempty"`
	// Admin tenants may issue gw_drain.
	Admin bool `json:"admin,omitempty"`
}

// Config assembles a gateway. The JSON shape is what `jgateway -config`
// loads.
type Config struct {
	// DefaultClass resolves session names without a "class/" prefix
	// ("" = every backend is eligible for un-prefixed names).
	DefaultClass string          `json:"default_class,omitempty"`
	Backends     []BackendConfig `json:"backends"`
	// Tenants, when non-empty, turns on auth: every hello must present a
	// known token. Empty means anonymous single-tenant mode.
	Tenants []TenantConfig `json:"tenants,omitempty"`
	// ProbeIntervalMillis is the background health-probe cadence (<= 0 =
	// no background probing; ProbeAll still runs a round on demand).
	ProbeIntervalMillis int64 `json:"probe_interval_ms,omitempty"`
}

// LoadConfig reads a gateway config file (JSON).
func LoadConfig(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return Config{}, fmt.Errorf("gateway: parsing %s: %w", path, err)
	}
	return cfg, nil
}

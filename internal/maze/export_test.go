package maze

import (
	"testing"

	"repro/internal/device"
)

// KnotsAndCrossbar draws batch_test.go's knotsAndCrossbar design at seed 1.
// That file is in package maze_test, as it draws from internal/workload,
// which imports core; it sets this hook when the test binary starts, so
// that tests inside the package negotiate the shape too.
var KnotsAndCrossbar func(t testing.TB, d *device.Device) []NetSpec

// PooledKeepersZero drains the pooled congestion tables, puts them back, and
// reports how many there were and whether every keeper slot of every one
// was zero, as the negotiation must leave it whatever the outcome.
func PooledKeepersZero() (tables int, zero bool) {
	var held []*congestion
	zero = true
	for {
		c, ok := congPool.Get().(*congestion)
		if !ok {
			break
		}
		held = append(held, c)
		for _, v := range c.keeper {
			if v != 0 {
				zero = false
				break
			}
		}
	}
	for _, c := range held {
		congPool.Put(c)
	}
	return len(held), zero
}

// historyAt is a track's accumulated overuse, as the reference surcharge
// reads it.
func (c *congestion) historyAt(i int32) int32 {
	if c.stamp[i] != c.epoch {
		return 0
	}
	return c.load[i].history
}

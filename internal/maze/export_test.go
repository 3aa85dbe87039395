package maze

import "repro/internal/arch"

// TimingCost is the delay-driven search's per-hop cost of a wire class, in
// tenths of a nanosecond.
func TimingCost(k arch.Kind) int { return timingCost(k) }

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

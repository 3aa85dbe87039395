package maze

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

package cores

import "repro/internal/core"

// Adder2 computes sum = a + b (+ cin) with two run-time operands — the
// general ripple adder the MAC composes with. It is a ripple column
// (width Bits, sums registered on Clock when Registered) whose a and b
// bits enter inputs 1 and 3 of both of its LUTs. Groups: "a", "b" In
// (operands, LSB first) beside the ripple column's "sum", "cin" and
// "cout".
type Adder2 struct {
	ripple
}

// NewAdder2 creates an unplaced two-operand adder.
func NewAdder2(name string, bits int, registered bool) (*Adder2, error) {
	a := &Adder2{}
	if err := a.init(name, bits, registered); err != nil {
		return nil, err
	}
	return a, nil
}

// Full-adder truth tables over inputs 1 = a, 2 = carry, 3 = b.
var (
	truthSum3 = TruthFromFunc(func(x, c, b, _ bool) bool { return x != c != b })
	truthMaj3 = TruthFromFunc(func(x, c, b, _ bool) bool {
		n := 0
		for _, v := range []bool{x, c, b} {
			if v {
				n++
			}
		}
		return n >= 2
	})
)

// fullAdderTruth gives every bit of an Adder2 the same two tables.
func fullAdderTruth(int) (sum, carry uint16) { return truthSum3, truthMaj3 }

// Implement configures the adder, routes its carry chain, and binds all
// ports.
func (a *Adder2) Implement(r *core.Router) (err error) {
	if err := a.begin(r); err != nil {
		return err
	}
	defer a.settle(r, a, &err)
	return a.implement(r, fullAdderTruth, operand{"a", 1}, operand{"b", 3})
}

// MAC is a multiply-accumulate core, acc' = acc + K*x, composed
// hierarchically from a ConstMul, an Adder2 and a Register and wired
// port-to-port with bus routes — the §3.2 pattern of a core that "can
// specify connections from ports of internal cores to its own ports".
// Groups:
//
//	"x"   In  — the 4 multiplier input bits (re-exported from the ConstMul)
//	"acc" Out — the accumulator state (re-exported from the Register)
type MAC struct {
	Base
	K     uint64
	KBits int
	Clock int

	mul *ConstMul
	add *Adder2
	reg *Register
}

// AccExtra is the accumulator headroom beyond the product width.
const AccExtra = 4

// NewMAC creates an unplaced multiply-accumulate core.
func NewMAC(name string, k uint64, kBits int) (*MAC, error) {
	mul, err := NewConstMul(name+".mul", k, kBits)
	if err != nil {
		return nil, err
	}
	accBits := mul.OutBits() + AccExtra
	add, err := NewAdder2(name+".add", accBits, false)
	if err != nil {
		return nil, err
	}
	reg, err := NewRegister(name+".reg", accBits)
	if err != nil {
		return nil, err
	}
	m := &MAC{K: k, KBits: kBits, mul: mul, add: add, reg: reg}
	// Footprint: three columns of subcores with a routing gap.
	h := (accBits+1)/2 + 1
	m.init(name, 9, h)
	return m, nil
}

// AccBits returns the accumulator width.
func (m *MAC) AccBits() int { return m.mul.OutBits() + AccExtra }

// Implement places and implements the subcores, buses them together, and
// re-exports the outer ports.
func (m *MAC) Implement(r *core.Router) (err error) {
	if err := m.begin(r); err != nil {
		return err
	}
	defer m.settle(r, m, &err)
	m.add.Clock = m.Clock
	m.reg.Clock = m.Clock
	if err := m.mul.Place(m.row, m.col); err != nil {
		return err
	}
	if err := m.mul.Implement(r); err != nil {
		return err
	}
	if err := m.add.Place(m.row, m.col+4); err != nil {
		return err
	}
	if err := m.add.Implement(r); err != nil {
		return err
	}
	if err := m.reg.Place(m.row, m.col+8); err != nil {
		return err
	}
	if err := m.reg.Implement(r); err != nil {
		return err
	}
	// product -> adder.a (low bits; high bits read 0 unconnected).
	pPorts := m.mul.Group("p").Ports()
	aPorts := m.add.Group("a").Ports()
	for i := range pPorts {
		if err := r.RouteNet(pPorts[i], aPorts[i]); err != nil {
			return err
		}
	}
	// register.q -> adder.b and adder.sum -> register.d, the accumulate
	// loop (broken by the register).
	qPorts := m.reg.Group("q").Ports()
	bPorts := m.add.Group("b").Ports()
	dPorts := m.reg.Group("d").Ports()
	sPorts := m.add.Group("sum").Ports()
	for i := 0; i < m.AccBits(); i++ {
		if err := r.RouteNet(qPorts[i], bPorts[i]); err != nil {
			return err
		}
		if err := r.RouteNet(sPorts[i], dPorts[i]); err != nil {
			return err
		}
	}
	// Re-export the outer ports (§3.2).
	for i, p := range m.mul.Group("x").Ports() {
		if err := m.port("x", i, core.In).BindPort(p); err != nil {
			return err
		}
	}
	for i, p := range qPorts {
		if err := m.port("acc", i, core.Out).BindPort(p); err != nil {
			return err
		}
	}
	return nil
}

// SetConstant retunes K at run time (LUT rewrite in the inner multiplier).
func (m *MAC) SetConstant(r *core.Router, k uint64) error {
	m.K = k
	return m.mul.SetConstant(r, k)
}

// Remove unroutes the internal buses and removes the subcores (those a
// failed Implement got to).
func (m *MAC) Remove(r *core.Router) error {
	if err := m.Base.Remove(r); err != nil {
		return err
	}
	for _, sub := range []Core{m.mul, m.add, m.reg} {
		if !sub.Implemented() {
			continue
		}
		if err := sub.Remove(r); err != nil {
			return err
		}
	}
	return nil
}

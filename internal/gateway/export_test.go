package gateway

// Undrain puts a drained backend back into placement: the tests' stand-in
// for an operator returning it after maintenance. The product has no such
// verb; a drained backend stays out of rotation.
func (g *Gateway) Undrain(name string) {
	g.mu.Lock()
	g.backends[name].Draining = false
	g.mu.Unlock()
}

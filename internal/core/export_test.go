package core

// Options exposes the composed options to the external test package.
func (r *Router) Options() Options { return r.opt }

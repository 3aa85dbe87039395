package server

import "net"

// ServeConn runs the connection loop on conn, so a test can interpose on
// what the server reads and writes.
func (s *Server) ServeConn(conn net.Conn) { s.serve(conn) }

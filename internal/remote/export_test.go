package remote

import "sleds/internal/device"

// Server returns the server behind the mount.
func (m *Mount) Server() *Server { return m.srv }

// Disk returns the server's disk as currently wired.
func (s *Server) Disk() device.Device { return s.disk }

// FastDevice returns the characterization device for server-cached pages
// (for inspecting table entries).
func (m *Mount) FastDevice() device.ID { return m.fastID }

// ServerCachedPages reports how many pages the server currently caches.
func (m *Mount) ServerCachedPages() int { return m.srv.CachedPages() }

// ReplaceDisk swaps the server's disk for d — the hook for stacking a
// fault injector under the server, mirroring Registry.Replace for
// registered devices. Returns the previous disk so callers can unwrap.
func (s *Server) ReplaceDisk(d device.Device) device.Device {
	old := s.disk
	s.disk = d
	return old
}
